"""Command line interface.

Subcommands: coeffs (print a form), gen (stream values in an interval),
count (block/interval/prime-count figures), verify (claim checkers),
bench (wheel vs sieve timing), oracle (brute-force spot checks).

Exit codes: 0 success/pass, 1 verification failure or witness not found,
2 usage error, 3 budget exceeded. A reader that closes stdout early (as
`| head` does) ends the command quietly with exit 0. gen and oracle write
their lines in chunks of CHUNK_LINES. Output is deterministic for fixed
arguments; only bench timing columns vary run to run. The scan budget of
count, verify, bench and oracle can be overridden with --budget or the
PRIMEWHEEL_SCAN_BUDGET environment variable, as an integer of at least 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from itertools import chain, islice, starmap
from typing import Iterable, Iterator

from . import oracle, theorems
from .enumeration import IntervalSpec, count_block, count_interval, enumerate_interval
from .errors import BudgetExceeded, check_budget
from .oracle import SCAN_BUDGET_ENV
from .wheel import (
    PrimeBasis,
    build_canonical,
    build_raw,
    decompose,
    form_to_json,
)

FORMATS = ("text", "csv", "json-lines")
# Lines per stdout write for gen and oracle. Larger chunks buy no speed
# and raise a gen process's peak RSS.
CHUNK_LINES = 256


def render_canonical_text(form) -> str:
    """One line like '30t + 6h3 + 10h2 + 15' (descending variable index)."""
    parts = [f"{form.period}t"]
    for j in range(form.r, 1, -1):
        parts.append(f"{form.coeff(j)}h{j}")
    parts.append(str(form.constant))
    return " + ".join(parts)


def render_raw_text(form) -> str:
    """One line like '30t + 24(h3-1) + 50(h2-1) - 1'."""
    parts = [f"{form.period}t"]
    for j in range(form.basis.r, 1, -1):
        parts.append(f"{form.coeff(j)}(h{j}-1)")
    return " + ".join(parts) + " - 1"


def render_report_text(report) -> str:
    lines = [f"claim: {report.claim}", f"verdict: {report.verdict}"]
    if report.interval is not None:
        lines.append(f"interval: [{report.interval.lo}, {report.interval.hi})")
    lines.append(f"checked: {report.checked}")
    lines.append(f"witnesses_pass: {report.witnesses_pass}")
    if report.counterexamples:
        lines.append("counterexamples:")
        for c in report.counterexamples:
            lines.append(f"  - value={c.value} reason={c.reason}")
    else:
        lines.append("counterexamples: none")
    for key in sorted(report.details):
        lines.append(f"detail {key}: {json.dumps(report.details[key], sort_keys=True)}")
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


def _basis(args) -> PrimeBasis:
    if args.r < 1:
        raise ValueError("r must be at least 1")
    return PrimeBasis.first(args.r)


def cmd_coeffs(args) -> int:
    if not 1 <= args.r <= args.max_r:
        raise ValueError(f"r must lie in 1..{args.max_r} (use --max-r to raise the cap)")
    basis = PrimeBasis.first(args.r)
    form = build_raw(basis) if args.raw else build_canonical(basis)
    if args.format == "json-lines":
        print(json.dumps(form_to_json(form)))
    elif args.format == "csv":
        print("term,coefficient")
        print(f"t,{form.period}")
        for j in range(args.r, 1, -1):
            print(f"h{j},{form.coeff(j)}")
        print(f"constant,{form.constant}")
    else:
        print(render_raw_text(form) if args.raw else render_canonical_text(form))
    return 0


def write_lines(lines: Iterable[str]) -> None:
    """Write each line and a newline to stdout, CHUNK_LINES lines per write call."""
    lines = iter(lines)
    write = sys.stdout.write
    while chunk := list(islice(lines, CHUNK_LINES)):
        chunk.append("")
        write("\n".join(chunk))


def _explained(form, stream: Iterable[int]) -> Iterator[tuple]:
    """(z, t, h) per value, h ordered by variable index; decompose checks each value."""
    for z in stream:
        t, h = decompose(form, z)
        yield z, t, [h[j] for j in sorted(h)]


def _explain_text(z: int, t: int, h: list[int]) -> str:
    return f"{z} t={t} h=[{','.join(map(str, h))}]"


def _explain_csv(z: int, t: int, h: list[int]) -> str:
    return ",".join(map(str, (z, t, *h)))


def _explain_json(z: int, t: int, h: list[int]) -> str:
    return json.dumps({"z": str(z), "t": t, "h": h})


_EXPLAIN_LINE = {"text": _explain_text, "csv": _explain_csv, "json-lines": _explain_json}


def cmd_gen(args) -> int:
    interval = IntervalSpec(args.lo, args.hi)
    form = build_canonical(_basis(args))
    stream = enumerate_interval(form, interval)
    header = "z"
    if args.explain:
        lines = starmap(_EXPLAIN_LINE[args.format], _explained(form, stream))
        header = "z,t," + ",".join(f"h{j}" for j in range(2, args.r + 1))
    elif args.format == "json-lines":
        # Exactly json.dumps({"z": str(z)}): a decimal string needs no escaping.
        lines = map('{{"z": "{}"}}'.format, stream)
    else:
        lines = map(str, stream)
    write_lines(chain([header], lines) if args.format == "csv" else lines)
    return 0


def cmd_count(args) -> int:
    budget = _budget(args)
    basis = _basis(args)
    if args.block:
        counts = count_block(basis)
        if args.format == "json-lines":
            print(json.dumps({"phi": str(counts.phi), "interior": str(counts.interior)}))
        elif args.format == "csv":
            print("phi,interior")
            print(f"{counts.phi},{counts.interior}")
        else:
            print(f"phi={counts.phi} interior={counts.interior}")
        return 0
    if args.pi_approx:
        approx, exact, rel = theorems.compare_pi(basis, budget=budget)
        if args.format == "json-lines":
            print(
                json.dumps(
                    {"approx": str(approx), "exact": str(exact), "rel_error": str(rel)}
                )
            )
        elif args.format == "csv":
            print("approx,exact,rel_error")
            print(f"{float(approx):.3f},{exact},{float(rel):.4f}")
        else:
            print(f"approx={float(approx):.3f} exact={exact} rel_error={float(rel):.4f}")
        return 0
    if args.lo is None or args.hi is None:
        raise ValueError("count needs --block, --pi-approx, or both --lo and --hi")
    total = count_interval(build_canonical(basis), IntervalSpec(args.lo, args.hi))
    if args.format == "json-lines":
        print(json.dumps({"count": str(total)}))
    elif args.format == "csv":
        print("count")
        print(total)
    else:
        print(total)
    return 0


def cmd_verify(args) -> int:
    budget = _budget(args)
    if args.claim == "theorem1":
        report = theorems.verify_theorem1(_basis(args), args.n, budget=budget)
    elif args.claim == "corollary2":
        report = theorems.verify_corollary2(_basis(args), args.s, args.n, budget=budget)
    elif args.claim == "identity25":
        report = theorems.search_identity25(_basis(args), args.bound, budget=budget)
    else:
        report = theorems.check_identity26(_basis(args), args.e, representative=args.k)
    if args.format == "json-lines":
        print(json.dumps(report.to_json()))
    else:
        print(render_report_text(report))
    return 0 if report.verdict == "pass" else 1


def cmd_bench(args) -> int:
    if args.width < 1:
        raise ValueError("width must be positive")
    if args.reps < 1:
        raise ValueError("reps must be positive")
    budget = _budget(args)
    basis = _basis(args)
    form = build_canonical(basis)
    interval = IntervalSpec(args.lo, args.lo + args.width)
    # The sieve checks its budget first, so a refused window is never enumerated.
    sieve_values = oracle.rough_sieve(interval, basis, budget=budget)
    wheel_values = list(enumerate_interval(form, interval))
    if wheel_values != sieve_values:
        wheel_set, sieve_set = set(wheel_values), set(sieve_values)
        print(
            "mismatch between wheel enumeration and rough sieve: "
            f"{len(wheel_set - sieve_set)} extra, {len(sieve_set - wheel_set)} missing",
            file=sys.stderr,
        )
        return 1
    print("method,interval_width,values_emitted,wall_time")
    for _ in range(args.reps):
        start = time.perf_counter()
        emitted = len(list(enumerate_interval(form, interval)))
        elapsed = time.perf_counter() - start
        print(f"wheel,{interval.width},{emitted},{elapsed:.6f}")
        start = time.perf_counter()
        emitted = len(oracle.rough_sieve(interval, basis, budget=budget))
        elapsed = time.perf_counter() - start
        print(f"sieve,{interval.width},{emitted},{elapsed:.6f}")
    return 0


def cmd_oracle(args) -> int:
    budget = _budget(args)
    if args.probe in ("omega", "spf", "factor"):
        # Trial division tries divisors up to sqrt(n).
        root = math.isqrt(max(args.n, 0))
        check_budget(root, budget, "trial division", oracle.knob_remedy(root))
    if args.probe == "omega":
        print(oracle.omega(args.n))
    elif args.probe == "spf":
        print(oracle.spf(args.n))
    elif args.probe == "factor":
        profile = oracle.factor_profile(args.n)
        print(
            json.dumps(
                {
                    "n": str(profile.n),
                    "omega": profile.omega,
                    "spf": str(profile.spf),
                    "factors": [str(f) for f in profile.factors],
                }
            )
        )
    elif args.probe == "primes":
        write_lines(map(str, oracle.primes_in(IntervalSpec(args.lo, args.hi), budget=budget)))
    else:
        interval = IntervalSpec(args.lo, args.hi)
        if args.moduli:
            moduli = [int(q) for q in args.moduli.split(",")]
            if any(q < 2 for q in moduli):
                raise ValueError("every modulus must be at least 2")
        else:
            moduli = PrimeBasis.first(args.r).primes
        write_lines(map(str, oracle.coprime_scan(interval, moduli, budget=budget)))
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="text")


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"scan budget override (also {SCAN_BUDGET_ENV})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primewheel",
        description="Linear wheel forms: construct, stream, count and verify.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("coeffs", help="print the form for the first r primes")
    p.add_argument("r", type=int)
    p.add_argument("--raw", action="store_true", help="pre-reduction coefficients")
    p.add_argument("--max-r", type=int, default=50)
    _add_format(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("gen", help="stream wheel values in [lo, hi)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--explain", action="store_true", help="print (t, h) per value")
    _add_format(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", help="count values per block or interval")
    p.add_argument("--r", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--block", action="store_true")
    group.add_argument("--pi-approx", dest="pi_approx", action="store_true")
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    _add_format(p)
    _add_budget(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run a claim checker")
    p.add_argument("claim", choices=("theorem1", "corollary2", "identity25", "identity26"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--e", type=int, default=2)
    p.add_argument("--k", type=int, default=0, help="unit-equation representative index")
    p.add_argument("--bound", type=int, default=50)
    _add_format(p)
    _add_budget(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time wheel enumeration against a rough sieve")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--reps", type=int, default=3)
    _add_budget(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force spot checks")
    p.add_argument("probe", choices=("omega", "spf", "factor", "primes", "scan"))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--moduli", help="comma-separated moduli for scan")
    _add_budget(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`| head`). Point stdout at os.devnull
        # so the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
