"""Seeded random argvs over every subcommand, run in-process through cli.main.

Every run must keep the exit-code contract: exit 0, 1 (only from verify
or bench), 2 or 3, no traceback, and a command's own exit 2 or 3 is one
`error: ` line on stderr (argparse's usage errors print their usage
instead). An exit 3 comes within REFUSAL_S, since every budget is
checked before its work. Each case runs under a SIGALRM limit. Sizes
stay small (r <= 12, r <= 40 for count windows below 10^6, narrow gen
and bench windows), and size refusals come from small --budget values,
not from huge inputs. A few fixed argvs at large r, bound or n run under
the same limits: the streaming commands and count read only residue
classes, identity25 decides its grid by a certificate and bounds its
bits before building it, count --pi-approx checks its sieve before the
density formula, coeffs bounds its coefficient bits before building any
and the window claims bound their window's bits before sieving for its
prime, so they must finish or refuse in time however large the integers
or the grid grow.
"""

from __future__ import annotations

import contextlib
import io
import random
import signal
import time

import pytest

from primewheel import cli

SEED = 14
CASES_PER_COMMAND = 80
ALARM_S = 5
# The longest an exit 3 may take.
REFUSAL_S = 0.5


def _pick(rng, valid, invalid):
    """Mostly a valid value; one time in eight an invalid one."""
    return rng.choice(invalid if rng.random() < 1 / 8 else valid)


def _r(rng):
    return _pick(rng, [1, 2, 3, 4, 5, 6, 7, 8, 10, 12], [-1, 0])


def _window(rng, width):
    lo = _pick(rng, [1, 2, 97, 10**6, 10**30], [-10, 0]) + rng.randrange(50)
    return lo, lo + _pick(rng, [1, rng.randrange(1, width), rng.randrange(1, width)], [-5, 0])


def _format(rng):
    fmt = _pick(rng, ["text", "csv", "json-lines"], ["xml"])
    return rng.choice([[], ["--format", fmt]])


def _budget(rng):
    if rng.random() < 0.5:
        return []
    return ["--budget", _pick(rng, ["1", "5", "40", "1000", "50000"], ["-3", "0", "x"])]


def _coeffs(rng):
    argv = ["coeffs", str(_r(rng))]
    if rng.random() < 0.5:
        argv.append("--raw")
    return argv + _format(rng) + _budget(rng)


def _gen(rng):
    lo, hi = _window(rng, 2000)
    argv = ["gen", "--r", str(_r(rng)), "--lo", str(lo), "--hi", str(hi)]
    if rng.random() < 0.4:
        argv.append("--explain")
    return argv + _format(rng)


def _count(rng):
    # A window below 10^6 skips the terms whose product of struck moduli
    # reaches hi, so up to r = 40 it crosses that boundary.
    argv = ["count", "--r", str(_pick(rng, [1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 35, 40], [-1, 0]))]
    # The invalid modes: both flags, none, and a flag with a window.
    mode = _pick(
        rng, ["block", "pi", "window", "window"], ["block pi", "", "block window", "pi window"]
    ).split()
    if "block" in mode:
        argv.append("--block")
    if "pi" in mode:
        argv.append("--pi-approx")
    if "window" in mode:
        lo = _pick(rng, [1, 2, 97, 10**5], [-10, 0]) + rng.randrange(50)
        hi = lo + _pick(rng, [1, rng.randrange(1, 10**6 - lo)], [-5, 0])
        argv += ["--lo", str(lo), "--hi", str(hi)]
    return argv + _format(rng) + _budget(rng)


def _verify(rng):
    claim = rng.choice(["theorem1", "corollary2", "identity25", "identity26"])
    argv = ["verify", claim, "--r", str(_r(rng))]
    if claim in ("theorem1", "corollary2"):
        argv += ["--n", str(_pick(rng, [1, 1, 2], [-1, 0]))]
    if claim == "corollary2":
        argv += ["--s", str(_pick(rng, [1, 2, 3, 5], [-1, 0]))]
    if claim == "identity25":
        argv += ["--bound", str(_pick(rng, [0, 1, 2], [-1]))]
    if claim == "identity26":
        argv += ["--e", str(_pick(rng, [2, 3, 5], [1, 11])), "--k", str(rng.choice([-2, 0, 3]))]
    return argv + _format(rng) + _budget(rng)


def _bench(rng):
    argv = ["bench", "--r", str(_r(rng)), "--width", str(_pick(rng, [1, 100, 3000], [-1, 0]))]
    argv += ["--lo", str(_pick(rng, [1, 1000, 10**20], [-5, 0]))]
    argv += ["--reps", str(_pick(rng, [1, 2], [0]))]
    return argv + _budget(rng)


def _oracle(rng):
    probe = rng.choice(["omega", "spf", "factor", "primes", "scan"])
    argv = ["oracle", probe]
    if probe in ("omega", "spf", "factor"):
        n = _pick(rng, [1, 2, 360, 10**9 + 7, 10**12 + 39, 10**40], [-7, 0])
        argv += ["--n", str(n)]
    else:
        lo, hi = _window(rng, 10**5)
        argv += ["--lo", str(lo), "--hi", str(hi), "--r", str(_r(rng))]
        if probe == "scan" and rng.random() < 0.5:
            argv += ["--moduli", _pick(rng, ["3,5", "4,9,5", "2,2"], ["1", "x", ""])]
    return argv + _budget(rng)


MAKERS = {
    "coeffs": _coeffs,
    "gen": _gen,
    "count": _count,
    "verify": _verify,
    "bench": _bench,
    "oracle": _oracle,
}


class _Alarm(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Alarm(f"ran past {ALARM_S} s")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ALARM_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        seconds = time.perf_counter() - start
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), seconds


def _violations(command, code, out, err, seconds):
    if code == 3 and seconds >= REFUSAL_S:
        yield f"exit 3 after {seconds:.2f} s"
    if code not in (0, 1, 2, 3):
        yield f"exit {code}"
    if "Traceback" in err:
        yield "traceback on stderr"
    if code == 1 and command not in ("verify", "bench"):
        yield "exit 1 outside verify and bench"
    if code in (2, 3) and "usage:" not in out + err:
        if not err.startswith("error: ") or err.count("\n") != 1 or not err.endswith("\n"):
            yield f"exit {code} without exactly one error line: {err!r}"


@pytest.mark.parametrize("command", sorted(MAKERS))
def test_random_argvs_keep_the_exit_code_contract(command):
    rng = random.Random(f"{SEED}-{command}")
    found = []
    for _ in range(CASES_PER_COMMAND):
        argv = MAKERS[command](rng)
        try:
            code, out, err, seconds = _run(argv)
        except Exception as exc:  # an escaped exception or the alarm
            found.append((argv, repr(exc)))
            continue
        found += [(argv, v) for v in _violations(command, code, out, err, seconds)]
    assert not found, found


_NOT_FOUND = "claim: identity25[r=%d,bound=%d]\nverdict: not-found-within-bound\n"
# The remedy of a fixed cap, which no --budget lifts.
_FIXED = "no flag or environment variable raises this fixed limit"


@pytest.mark.parametrize(
    "argv, code, out, knob",
    [
        (["gen", "--r", "20000", "--lo", "1", "--hi", "2"], 0, "1\n", None),
        (["bench", "--r", "3000", "--width", "1000", "--reps", "1"], 0, "method,", None),
        (["bench", "--r", "3", "--width", str(10**30)], 3, "", "--budget"),
        (["coeffs", "100000"], 3, "", "--budget"),
        (["coeffs", "20000", "--raw"], 3, "", "--budget"),
        (["count", "--r", "5000", "--lo", "1", "--hi", "100"], 0, "1\n", None),
        (
            ["count", "--r", "1000", "--lo", "1", "--hi", "100", "--budget", str(10**302)],
            0,
            "1\n",
            None,
        ),
        (["count", "--r", "627325", "--lo", "1", "--hi", "100"], 0, "1\n", None),
        (["count", "--r", "100000", "--pi-approx"], 3, "", "--budget"),
        (["verify", "identity25", "--r", "2000", "--bound", "0"], 1, _NOT_FOUND % (2000, 0), None),
        (
            ["verify", "identity25", "--r", "3", "--bound", "3000000"],
            1,
            _NOT_FOUND % (3, 3000000),
            None,
        ),
        (
            ["verify", "identity25", "--r", "10", "--bound", "50", "--budget", str(51**8)],
            1,
            _NOT_FOUND % (10, 50),
            None,
        ),
        (["verify", "identity26", "--r", "1500", "--e", "2"], 3, "", "--budget"),
        (["verify", "theorem1", "--r", "3", "--n", "1000000000000"], 3, "", _FIXED),
        (["verify", "corollary2", "--r", "3", "--s", "600000", "--n", "100000"], 3, "", _FIXED),
        (["verify", "identity25", "--r", "6000", "--bound", str(10**999)], 3, "", "--budget"),
        (["verify", "theorem1", "--r", "3", "--n", "3000000"], 3, "", _FIXED),
    ],
    ids=[
        "gen",
        "bench",
        "bench-width1e30",
        "coeffs",
        "coeffs-raw",
        "count",
        "count-budget-1e302",
        "count-r627325",
        "pi-approx",
        "identity25-r2000",
        "identity25-bound3e6",
        "identity25-grid51e8",
        "identity26-r1500",
        "theorem1-n1e12",
        "corollary2-s600000",
        "identity25-r6000-bound1e999",
        "theorem1-n3e6",
    ],
)
def test_large_r_commands_finish_within_the_alarm(argv, code, out, knob):
    got, stdout, err, seconds = _run(argv)
    assert (got, stdout[: len(out)]) == (code, out), err
    assert not list(_violations(argv[0], got, stdout, err, seconds))
    if code == 3:
        assert knob in err and err.count("\n") == 1
