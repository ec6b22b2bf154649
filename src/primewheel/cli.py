"""Command line interface.

Subcommands: coeffs (print a form), gen (stream values in an interval), count
(block/interval/prime-count figures), verify (claim checkers), bench (wheel vs sieve
timing of the window's 0/1 value map), oracle (brute-force spot checks).

Exit codes: 0 success/pass, 1 verification failure or witness not found, 2 usage error,
3 budget exceeded, 4 stdout write error, 130 interrupted (one error: line each). A reader
that closes stdout early (as `| head` does) ends the command quietly with exit 0.
write_rows holds the format rules, and writes a table as chunks of columns, each with one %
operation and one call (gen --explain decomposes CHUNK_LINES values with one
forms.decompose_rows call); write_values writes the value streams of gen and oracle scan
and primes from their sieve masks, one call per block of BLOCK integers, with no int and no
% operation per value. json-lines fields are decimal strings, except --explain's t and h
and a verify report's counters; verify --format csv prints the text report. Output is
deterministic for fixed arguments, but for bench's timings. --budget or
PRIMEWHEEL_SCAN_BUDGET, an integer of at least 1, overrides the scan budget of coeffs,
count, verify, bench and oracle. A subcommand imports only what it runs: theorems, oracle,
forms (the raw form, decompose_rows and the JSON shape) and json load on first use, so gen,
coeffs and count --lo/--hi never load the claim checkers, and gen without --explain and
count never load forms or the unit-equation solver. COMMANDS is the one table of every
subcommand's arguments: read_argv reads a plain command line from it, exact flags each
followed by its value, into the namespace argparse would give, without importing argparse;
whatever it declines (help, usage errors, abbreviations, --x=y and any other spelling) goes to
build_parser's argparse parser of the same table, so argparse loads only then.

`python -m primewheel`, `python -m primewheel.cli` and the `primewheel` script all end
through run(), which freezes the collector before exit and turns Ctrl-C into exit 130;
main(argv) returns the exit code, leaves the collector alone and lets KeyboardInterrupt
through, so Ctrl-C still stops an in-process caller.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from importlib import import_module
from itertools import chain, compress, islice
from types import SimpleNamespace

from ._record import Record
from .enumeration import IntervalSpec, count_block, count_interval, enumerate_interval
from .enumeration import value_segments
from .errors import SCAN_BUDGET_ENV, BudgetExceeded, check_budget
from .wheel import PrimeBasis, build_canonical


class _Deferred:
    """A submodule imported on first attribute access, so only the
    subcommands that call into it load it. Every access goes through to
    the module, so a name patched there is seen here."""

    def __init__(self, name: str) -> None:
        self._name = f"{__package__}.{name}"

    def __getattr__(self, attr: str):
        return getattr(import_module(self._name), attr)


forms = _Deferred("forms")
oracle = _Deferred("oracle")
theorems = _Deferred("theorems")

FORMATS = ("text", "csv", "json-lines")
# Rows per chunk of a table (gen --explain's too), and so per stdout write.
# Larger chunks buy no speed and raise a gen process's peak RSS.
CHUNK_LINES = 256
# Integers per block of a written value stream; 10^4 is no faster, with ten times the suffixes.
BLOCK = 1000


def render_form_text(form, raw: bool) -> str:
    """One line, variables by descending index: '30t + 6h3 + 10h2 + 15', or
    for a raw form '30t + 24(h3-1) + 50(h2-1) - 1'."""
    term = "{}(h{}-1)" if raw else "{}h{}"
    parts = [f"{form.period}t", *(term.format(a, j) for j, a in reversed(form.coeff_map.items()))]
    return " + ".join(parts) + (" - 1" if raw else f" + {form.constant}")


def render_report_text(report) -> str:
    lines = [f"claim: {report.claim}", f"verdict: {report.verdict}"]
    if report.interval is not None:
        lines.append(f"interval: [{report.interval.lo}, {report.interval.hi})")
    lines += [f"checked: {report.checked}", f"witnesses_pass: {report.witnesses_pass}"]
    if report.counterexamples:
        lines.append("counterexamples:")
        for c in report.counterexamples:
            lines.append(f"  - value={c.value} reason={c.reason}")
    else:
        lines.append("counterexamples: none")
    for key in sorted(report.details):
        lines.append(f"detail {key}: {dumps(report.details[key], sort_keys=True)}")
    return "\n".join(lines)


def _budget(args) -> int | None:
    """The scan budget from --budget, else the environment, else None (the default)."""
    if args.budget is not None:
        knob, raw = "--budget", args.budget
    elif os.environ.get(SCAN_BUDGET_ENV):
        knob, raw = SCAN_BUDGET_ENV, os.environ[SCAN_BUDGET_ENV]
    else:
        return None
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{knob} must be an integer of at least 1, got {raw!r}")
    return budget


def cmd_coeffs(args) -> int:
    budget = _budget(args)
    basis = PrimeBasis.first(args.r)
    check_budget(forms.coeff_bits_bound(basis, args.raw), budget, "coefficient bits")
    form = forms.build_raw(basis) if args.raw else build_canonical(basis)
    if args.format == "csv":
        variables = [(f"h{j}", a) for j, a in reversed(form.coeff_map.items())]
        rows = [("t", form.period), *variables, ("constant", form.constant)]
        write_rows("csv", ("term", "coefficient"), [tuple(zip(*rows))])
    elif args.format == "json-lines":
        print(dumps(forms.form_to_json(form)))
    else:
        print(render_form_text(form, args.raw))
    return 0


def dumps(data, **options) -> str:
    """json.dumps(data, **options); only the commands that print JSON import json."""
    import json

    return json.dumps(data, **options)


def write_rows(fmt: str, header: tuple[str, ...], chunks: Iterable, text=None, json=None) -> str:
    """Write a table in one of FORMATS, one stdout write per chunk, and return its row template.

    A chunk holds one column per header name, all of one length; its lines are one % operation,
    the row template in %s form repeated for its length over its cells in row order (%s gives
    each cell's str, as {} does for the ints, strings and Fractions printed here). csv: the
    header line, then rows joined by commas. json-lines: one object per row keyed by the
    header, each field a decimal string (the template equals json.dumps, as such strings need
    no escaping), unless `json` gives it. text: the `text` template, by default name=value
    pairs or the bare value.
    """
    if fmt == "csv":
        template = ",".join(["%s"] * len(header))
    elif fmt == "json-lines":
        template = json or "{" + ", ".join(f'"{name}": "%s"' for name in header) + "}"
    else:
        template = text or (" ".join(f"{name}=%s" for name in header) if header[1:] else "%s")
    template += "\n"
    write = sys.stdout.write
    if fmt == "csv":
        write(",".join(header) + "\n")
    for columns in chunks:
        cells = chain.from_iterable(zip(*columns)) if columns[1:] else columns[0]
        write(template * len(columns[0]) % tuple(cells))
    return template


def write_values(fmt: str, name: str, segments: Iterable[tuple[range, bytes]]) -> None:
    """Write the candidates each (range, mask) segment keeps, ascending and all of one step, as
    a one-column table in one of FORMATS, one write per piece in a block of BLOCK integers
    aligned on its multiples. A value v reads str(v // BLOCK), empty in block 0, then its last
    three digits, unpadded in block 0, so a piece's rows are sep + sep.join(suffixes), sep the
    template's head and that prefix; the mask picks each suffix and the template's tail from a
    list built once per offset % step and block > 0. No value takes a % operation."""
    template = write_rows(fmt, (name,), ())
    front, tail = template.split("%s")
    write, tables = sys.stdout.write, {}
    for candidates, mask in segments:
        start, step, i = candidates.start, candidates.step, 0
        while i < len(mask):
            block, offset = divmod(start + step * i, BLOCK)
            j = i + (BLOCK - 1 - offset) // step + 1  # the candidates below the block's end
            if (key := (offset % step, block > 0)) not in tables:
                pad = BLOCK * key[1]
                tables[key] = [str(pad + x)[key[1] :] + tail for x in range(key[0], BLOCK, step)]
            sep = front + str(block) if block else front
            suffixes = tables[key][offset // step :] if offset >= step else tables[key]
            if rows := sep.join(compress(suffixes, mask[i:j])):
                write(sep + rows)
            i = j
        del mask  # so the next segment's mask is not built beside this one


def _explained(form, stream: Iterator[int]) -> Iterator[tuple[list, ...]]:
    """The z, t, h_2, ..., h_r columns per CHUNK_LINES values; one decompose_rows call each."""
    while zs := list(islice(stream, CHUNK_LINES)):
        ts, hs = forms.decompose_rows(form, zs)
        yield (zs, ts, *hs)


def cmd_gen(args) -> int:
    interval = IntervalSpec(args.lo, args.hi)
    form = build_canonical(PrimeBasis.first(args.r))
    if not args.explain:
        write_values(args.format, "z", value_segments(form, interval))
        return 0
    names = [f"h{j}" for j in form.free_indices]
    hs = ["%s"] * len(names)
    text = "%s t=%s h=[" + ",".join(hs) + "]"
    json = '{"z": "%s", "t": %s, "h": [' + ", ".join(hs) + "]}"
    rows = _explained(form, enumerate_interval(form, interval))
    write_rows(args.format, ("z", "t", *names), rows, text, json)
    return 0


def cmd_count(args) -> int:
    budget = _budget(args)
    interval = None
    # The mode and the window are checked before the basis proves its r primes.
    if args.block or args.pi_approx:
        if args.lo is not None or args.hi is not None:
            raise ValueError("count --block and --pi-approx take no --lo or --hi")
    elif args.lo is None or args.hi is None:
        raise ValueError("count needs --block, --pi-approx, or both --lo and --hi")
    else:
        interval = IntervalSpec(args.lo, args.hi)
    basis = PrimeBasis.first(args.r)
    if args.block:
        counts = count_block(basis)
        write_rows(args.format, ("phi", "interior"), [([counts.phi], [counts.interior])])
    elif args.pi_approx:
        approx, exact, rel = theorems.compare_pi(basis, budget=budget)
        if args.format != "json-lines":
            approx, rel = f"{float(approx):.3f}", f"{float(rel):.4f}"
        write_rows(args.format, ("approx", "exact", "rel_error"), [([approx], [exact], [rel])])
    else:
        total = count_interval(build_canonical(basis), interval, budget)
        write_rows(args.format, ("count",), [([total],)])
    return 0


def cmd_verify(args) -> int:
    budget = _budget(args)
    # The claim's own arguments are checked before the basis proves its r primes.
    theorems.check_claim_args(args.claim, args.r, args.s, args.n, args.e, args.bound)
    basis = PrimeBasis.first(args.r)
    if args.claim == "theorem1":
        report = theorems.verify_theorem1(basis, args.n, budget=budget)
    elif args.claim == "corollary2":
        report = theorems.verify_corollary2(basis, args.s, args.n, budget=budget)
    elif args.claim == "identity25":
        report = theorems.search_identity25(basis, args.bound, budget=budget)
    else:
        report = theorems.check_identity26(basis, args.e, args.k, budget=budget)
    print(dumps(report.to_json()) if args.format == "json-lines" else render_report_text(report))
    return 0 if report.verdict == "pass" else 1


def cmd_bench(args) -> int:
    if args.width < 1:
        raise ValueError("width must be positive")
    if args.reps < 1:
        raise ValueError("reps must be positive")
    budget = _budget(args)
    # The window is checked before the basis proves its r primes.
    interval = IntervalSpec(args.lo, args.lo + args.width)
    basis = PrimeBasis.first(args.r)
    form = build_canonical(basis)
    coprime_segments = oracle.coprime_segments  # imports the oracle here, outside the timed region
    lo, rows = interval.lo, []
    for rep in range(args.reps):
        # The sieve checks its budget on the call and runs first: a refused window is never mapped.
        start = time.perf_counter()
        sieve = bytearray()
        for _, flags in coprime_segments(interval, basis, budget):
            sieve += flags
        middle = time.perf_counter()
        wheel = bytearray(interval.width)
        for candidates, mask in value_segments(form, interval):
            wheel[candidates.start - lo : candidates.stop - lo : candidates.step] = mask
        end = time.perf_counter()
        if rep == 0 and wheel != sieve:
            w, s = int.from_bytes(wheel, "little"), int.from_bytes(sieve, "little")
            counts = f"{(w & ~s).bit_count()} extra, {(s & ~w).bit_count()} missing"
            print(f"mismatch between wheel enumeration and rough sieve: {counts}", file=sys.stderr)
            return 1
        rows.append(("wheel", interval.width, wheel.count(1), f"{end - middle:.6f}"))
        rows.append(("sieve", interval.width, sieve.count(1), f"{middle - start:.6f}"))
        del sieve, wheel  # so no map outlives its repetition
    header = ("method", "interval_width", "values_emitted", "wall_time")
    write_rows("csv", header, [tuple(zip(*rows))])
    return 0


def cmd_oracle(args) -> int:
    budget = _budget(args)
    if args.probe in ("omega", "spf", "factor"):
        # Trial division tries divisors up to sqrt(n).
        root = math.isqrt(max(args.n, 0))
        check_budget(root, budget, "trial division")
    if args.probe == "omega":
        print(oracle.omega(args.n))
    elif args.probe == "spf":
        if args.n < 2:
            raise ValueError("spf is defined for n >= 2")
        print(oracle.factor_profile(args.n).spf)
    elif args.probe == "factor":
        p = oracle.factor_profile(args.n)
        factors = [str(f) for f in p.factors]
        print(dumps({"n": str(p.n), "omega": p.omega, "spf": str(p.spf), "factors": factors}))
    elif args.probe == "primes":
        write_values("text", "p", oracle.prime_segments(IntervalSpec(args.lo, args.hi), budget))
    else:
        interval = IntervalSpec(args.lo, args.hi)
        if args.moduli is not None:
            try:
                moduli = [int(q) for q in args.moduli.split(",")]
            except ValueError:
                message = f"--moduli must be comma-separated integers, got {args.moduli!r}"
                raise ValueError(message) from None
        else:
            moduli = PrimeBasis.first(args.r).primes
        write_values("text", "m", oracle.coprime_segments(interval, moduli, budget))
    return 0


# The command line. An option is (flag, kind, default, help): kind int reads its value with
# int(), str keeps it as given, a tuple lists its choices and bool makes it a switch that stores
# True; a _REQUIRED default makes the option required. Its field is the flag without its
# dashes, - read as _, as argparse names it.
_REQUIRED = object()
_FORMAT = ("--format", FORMATS, "text", None)
_BUDGET = ("--budget", int, None, f"work budget (also {SCAN_BUDGET_ENV})")


class Command(Record):
    """A subcommand: its help, its one positional ((name, kind) or None), its options in the
    order usage and help list them, and the flags of its mutually exclusive group. Its func is
    cmd_<name>, looked up when a command line is read, so a patched cmd_<name> is the one run."""

    help: str
    positional: tuple | None
    options: tuple
    group: tuple = ()


COMMANDS = {
    "coeffs": Command(
        "print the form for the first r primes",
        ("r", int),
        (("--raw", bool, False, "pre-reduction coefficients"), _FORMAT, _BUDGET),
    ),
    "gen": Command(
        "stream wheel values in [lo, hi)",
        None,
        (
            ("--r", int, _REQUIRED, None),
            ("--lo", int, _REQUIRED, None),
            ("--hi", int, _REQUIRED, None),
            ("--explain", bool, False, "print (t, h) per value"),
            _FORMAT,
        ),
    ),
    "count": Command(
        "count values per block or interval",
        None,
        (
            ("--r", int, _REQUIRED, None),
            ("--block", bool, False, None),
            ("--pi-approx", bool, False, None),
            ("--lo", int, None, None),
            ("--hi", int, None, None),
            _FORMAT,
            _BUDGET,
        ),
        group=("--block", "--pi-approx"),
    ),
    "verify": Command(
        "run a claim checker",
        ("claim", ("theorem1", "corollary2", "identity25", "identity26")),
        (
            ("--r", int, _REQUIRED, None),
            ("--n", int, 1, None),
            ("--s", int, 1, None),
            ("--e", int, 2, None),
            ("--k", int, 0, "unit-equation representative index"),
            ("--bound", int, 50, None),
            _FORMAT,
            _BUDGET,
        ),
    ),
    "bench": Command(
        "time wheel enumeration against a rough sieve",
        None,
        (
            ("--r", int, _REQUIRED, None),
            ("--width", int, _REQUIRED, None),
            ("--lo", int, 1, None),
            ("--reps", int, 3, None),
            _BUDGET,
        ),
    ),
    "oracle": Command(
        "brute-force spot checks",
        ("probe", ("omega", "spf", "factor", "primes", "scan")),
        (
            ("--n", int, 0, None),
            ("--lo", int, 1, None),
            ("--hi", int, 2, None),
            ("--r", int, 1, None),
            ("--moduli", str, None, "comma-separated moduli for scan"),
            _BUDGET,
        ),
    ),
}


def _argument(kind, default) -> dict:
    """add_argument's keywords for an option or positional of this kind and default."""
    if kind is bool:
        return {"action": "store_true"}
    keywords = {"required": True} if default is _REQUIRED else {"default": default}
    if kind is int:
        keywords["type"] = int
    elif kind is not str:
        keywords["choices"] = kind
    return keywords


def build_parser():
    """The argparse parser of COMMANDS, each argument added in the table's order. main uses it
    only for what read_argv declines: help, usage errors and every other spelling."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="primewheel",
        description="Linear wheel forms: construct, stream, count and verify.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.positional:
            positional, kind = command.positional
            p.add_argument(positional, **_argument(kind, None))
        group = p.add_mutually_exclusive_group() if command.group else None
        for flag, kind, default, text in command.options:
            target = group if flag in command.group else p
            target.add_argument(flag, help=text, **_argument(kind, default))
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _value(kind, token: str):
    """token read as kind's value, or None where argparse might read it otherwise or refuse it."""
    if token.startswith("-"):
        return None
    if kind is int:
        try:
            return int(token)
        except ValueError:
            return None
    return token if kind is str or token in kind else None


def read_argv(argv) -> SimpleNamespace | None:
    """The namespace build_parser() would give for argv, read without argparse, or None where
    argv is not of this one shape: a subcommand, its positional if it has one, then exact flags
    of its table, each at most once, each value flag followed by a value that does not start
    with - and that int() reads or its choices hold, every required option given and at most
    one flag of its group."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    fields = {"command": argv[0], "func": globals()[f"cmd_{argv[0]}"]}
    tokens = iter(argv[1:])  # a value missing at the end reads as "-", which _value declines
    if command.positional:
        name, kind = command.positional
        if (value := _value(kind, next(tokens, "-"))) is None:
            return None
        fields[name] = value
    options = {flag: kind for flag, kind, _, _ in command.options}
    given = {}
    for token in tokens:
        if token in given or token not in options:
            return None
        kind = options[token]
        if (value := True if kind is bool else _value(kind, next(tokens, "-"))) is None:
            return None
        given[token] = value
    if len(given.keys() & set(command.group)) > 1:
        return None
    for flag, _, default, _ in command.options:
        if (value := given.get(flag, default)) is _REQUIRED:
            return None
        fields[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv)
    if args is None:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        if not hasattr(args, "func"):
            parser.print_help()
            return 2
    # Commands print exact integers of any size, so the interpreter's int-to-str
    # digit limit (where it has one) is lifted while one runs. The command line
    # above is still read under it, and refusals give such sizes by their bit length.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        _drop_stdout()  # the reader closed the pipe (`| head`), or a write failed (a full device)
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 4
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _drop_stdout() -> None:
    """Point stdout, the one file a command writes, at os.devnull, so the interpreter's
    final flush can neither raise nor write."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def run() -> None:
    """Exit with main()'s code for sys.argv; 130 on an interrupt, which main leaves to callers."""
    try:
        code = main()
    except KeyboardInterrupt:
        _drop_stdout()
        print("error: interrupted", file=sys.stderr)
        code = 130
    # Exit-time collection would walk every object left alive, and nothing
    # in the package needs it: no module defines __del__ or registers an
    # atexit or weakref callback, and main has flushed stdout. Frozen
    # objects are skipped by those passes; finalization still flushes and
    # closes the standard streams.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
