"""The benchmark's workloads: seeded lists of `python -m primewheel` jobs.

A workload is a fixed list of jobs. The seed picks `lo` values, windows
and output formats; the program only ever sees the argv built here. The
mix of r, formats and window sizes in a list does not depend on the
seed, so the amount of work in a list is the same for every seed and
runs with different seeds can be compared.

Every job carries what a correct run must look like, worked out by
`reference` (which shares no code with the package), and `check`
compares a finished run against it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import reference

FORMATS = ("text", "csv", "json-lines")
REPORT_FORMATS = ("text", "json-lines")

# lo ranges for gen-stream: 6-7 digit values, 13 digit values, and
# 21 digit values, past 2**64.
LO_CLASSES = (
    (10**5, 9 * 10**5),
    (10**12, 9 * 10**12),
    (10**20, 9 * 10**20),
)
# Windows are 2e5 wide rather than 1e6: at 1e6 a gen job takes 1.5-2 s
# and a 30 s run holds too few jobs for a tail percentile; at 2e5 the
# ~0.1 s interpreter start is still a minority of every job.
GEN_WIDTH = 200_000
EXPLAIN_WIDTH = 50_000
TINY_WIDTH = 1_000
ORACLE_WIDTH = 100_000
IDENTITY25_BOUND = 40
# The package's documented default scan budget: a theorem1 window wider
# than this must end in a one-line budget refusal (exit 3).
DEFAULT_SCAN_BUDGET = 10_000_000


@dataclass(frozen=True)
class Job:
    """One subprocess: its argv after `python -m primewheel`, and the kind
    and parameters the reference needs to work out its outcome."""

    argv: tuple[str, ...]
    kind: str
    params: dict

    @property
    def fmt(self) -> str:
        return self.params.get("fmt", "text")


@dataclass(frozen=True)
class Expect:
    """What a correct run prints and returns.

    `values` is how many values the job delivers (value lines, or a
    report's `checked`). `digest` is the SHA-256 of the exact stdout when
    it is known byte for byte (kept instead of the bytes, so the
    benchmark stays small); `report` lists the fields a `verify` report
    must carry instead. `stderr_lines` is the number of one-line `error:`
    messages expected.
    """

    code: int
    values: int
    digest: str | None = None
    report: dict | None = None
    stderr_lines: int = 0


def _fmt_args(fmt: str) -> tuple[str, ...]:
    return () if fmt == "text" else ("--format", fmt)


def gen_job(r: int, lo: int, hi: int, fmt: str, explained: bool = False) -> Job:
    argv = ("gen", "--r", str(r), "--lo", str(lo), "--hi", str(hi), *_fmt_args(fmt))
    if explained:
        argv += ("--explain",)
    return Job(argv, "gen", {"r": r, "lo": lo, "hi": hi, "fmt": fmt, "explain": explained})


def count_job(r: int, lo: int, hi: int, fmt: str) -> Job:
    argv = ("count", "--r", str(r), "--lo", str(lo), "--hi", str(hi), *_fmt_args(fmt))
    return Job(argv, "count", {"r": r, "lo": lo, "hi": hi, "fmt": fmt})


def pi_job(r: int, fmt: str) -> Job:
    argv = ("count", "--r", str(r), "--pi-approx", *_fmt_args(fmt))
    return Job(argv, "pi", {"r": r, "fmt": fmt})


def verify_job(claim: str, fmt: str, **opts: int) -> Job:
    argv = ("verify", claim)
    for name, value in opts.items():
        argv += (f"--{name}", str(value))
    return Job(argv + _fmt_args(fmt), claim, {"fmt": fmt, **opts})


def oracle_job(probe: str, lo: int, hi: int, r: int | None = None) -> Job:
    argv = ("oracle", probe, "--lo", str(lo), "--hi", str(hi))
    if r is not None:
        argv += ("--r", str(r))
    return Job(argv, f"oracle-{probe}", {"r": r, "lo": lo, "hi": hi})


def gen_stream(rng: random.Random) -> list[Job]:
    """Long `gen` streams at r <= 6: every lo class meets every format at each
    r in {4, 5, 6} once, plus one `--explain` job at r = 4 per lo class."""
    shift = rng.randrange(3)
    jobs = []
    for c, (lo_min, lo_max) in enumerate(LO_CLASSES):
        for fmt in FORMATS:
            for r in (4, 5, 6):
                lo = rng.randrange(lo_min, lo_max)
                jobs.append(gen_job(r, lo, lo + GEN_WIDTH, fmt))
        lo = rng.randrange(lo_min, lo_max)
        jobs.append(gen_job(4, lo, lo + EXPLAIN_WIDTH, FORMATS[(c + shift) % 3], explained=True))
    return jobs


def table_cold(rng: random.Random) -> list[Job]:
    """Short fresh-process queries that each pay a cold residue table build:
    12 jobs at r = 8 (about 1 s each) and 18 at r = 7, plus two
    `--pi-approx` jobs, which build no table."""
    shift = rng.randrange(3)
    jobs = []
    for r, repeats in ((8, 5), (7, 8)):
        for k in range(repeats):
            lo = rng.randrange(0, 10**17)
            hi = lo + rng.randrange(10**17, 10**18)
            jobs.append(count_job(r, lo, hi, FORMATS[(k + shift) % 3]))
            lo = rng.randrange(10**6, 10**15)
            jobs.append(gen_job(r, lo, lo + TINY_WIDTH, FORMATS[(k + shift + 1) % 3]))
        for n in (1, 2):
            jobs.append(verify_job("theorem1", REPORT_FORMATS[(n + shift) % 2], r=r, n=n))
    jobs += [pi_job(7, FORMATS[shift]), pi_job(8, FORMATS[(shift + 1) % 3])]
    return jobs


def verify_claims(rng: random.Random) -> list[Job]:
    """Claim checks at r = 3..5 plus brute-force oracle jobs, and the
    `theorem1 --r 3 --n 8` job that must end in a budget refusal (exit 3)."""
    shift = rng.randrange(2)
    jobs = []

    def fmt() -> str:
        return REPORT_FORMATS[(len(jobs) + shift) % 2]

    # n stops at 5 for r = 3: the n = 6 window takes 4 s, a third of a
    # pass, and would leave most jobs one or two runs in 30 s.
    for r, top in ((3, 5), (4, 4), (5, 4)):
        for n in range(1, top + 1):
            jobs.append(verify_job("theorem1", fmt(), r=r, n=n))
    jobs.append(verify_job("theorem1", fmt(), r=3, n=8))
    for r, s, n in ((3, 2, 2), (4, 2, 2), (3, 1, 3)):
        jobs.append(verify_job("corollary2", fmt(), r=r, s=s, n=n))
    for r in (4, 5):
        jobs.append(verify_job("identity25", fmt(), r=r, bound=IDENTITY25_BOUND))
    for e in (2, 3, 4):
        jobs.append(verify_job("identity26", fmt(), r=5, e=e, k=rng.randrange(6)))
    for r in (3, 4, 5):
        lo = rng.randrange(10**6, 10**7 - ORACLE_WIDTH)
        jobs.append(oracle_job("primes", lo, lo + ORACLE_WIDTH))
        lo = rng.randrange(10**12, 9 * 10**12)
        jobs.append(oracle_job("scan", lo, lo + ORACLE_WIDTH, r=r))
    return jobs


def layer_probes() -> list[Job]:
    """Five short jobs that give every layer some work in every workload, so
    no per-layer time reads a constant 0: a budget refusal inside
    `theorems` (--budget 100 under a 294-wide scan), `identity26`
    (diophantine), an `--explain` stream (wheel.decompose), an interval
    count and an `oracle omega` factorisation."""
    return [
        verify_job("theorem1", "text", r=3, n=2, budget=100),
        verify_job("identity26", "text", r=4, e=2),
        gen_job(3, 1, 200, "text", explained=True),
        count_job(3, 1, 1000, "text"),
        Job(("oracle", "omega", "--n", "720720"), "oracle-omega", {"n": 720720}),
    ]


WORKLOADS = {
    "gen-stream": (gen_stream, 6),
    "table-cold": (table_cold, 8),
    "verify-claims": (verify_claims, 5),
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    build, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    jobs = build(rng) + layer_probes()
    rng.shuffle(jobs)
    return jobs


def largest_r(workload: str) -> int:
    """The r whose form and table a fresh process of this workload builds at most."""
    return WORKLOADS[workload][1]


def _window(r: int, shift: int, n: int) -> tuple[int, int]:
    q = reference.first_primes(r)[-1]
    for _ in range(shift):
        q = reference.next_prime(q)
    return q**n, q ** (n + 1)


def reference_stdout(job: Job) -> tuple[bytes, int] | None:
    """The exact stdout a job must print and the number of values in it,
    for the kinds whose output is known byte for byte."""
    p = job.params
    if job.kind == "gen":
        primes = reference.first_primes(p["r"])
        values = reference.rough_values(p["lo"], p["hi"], primes)
        return reference.gen_output(values, primes, p["fmt"], p["explain"]), len(values)
    if job.kind == "count":
        total = reference.coprime_count(p["lo"], p["hi"], reference.first_primes(p["r"]))
        return reference.count_output(total, p["fmt"]), 0
    if job.kind == "pi":
        return reference.pi_approx_output(p["r"], p["fmt"]), 0
    if job.kind == "oracle-primes":
        values = reference.primes_between(p["lo"], p["hi"])
        return reference.lines_output(values), len(values)
    if job.kind == "oracle-scan":
        values = reference.rough_values(p["lo"], p["hi"], reference.first_primes(p["r"]))
        return reference.lines_output(values), len(values)
    if job.kind == "oracle-omega":
        return f"{reference.omega(p['n'])}\n".encode(), 0
    return None


def expect(job: Job) -> Expect:
    """The reference outcome of a job."""
    known = reference_stdout(job)
    if known is not None:
        stdout, values = known
        return Expect(0, values, digest=hashlib.sha256(stdout).hexdigest())
    p = job.params
    if job.kind in ("theorem1", "corollary2"):
        lo, hi = _window(p["r"], p.get("s", 1), p["n"])
        if hi - lo > p.get("budget", DEFAULT_SCAN_BUDGET):
            return Expect(3, 0, digest=hashlib.sha256(b"").hexdigest(), stderr_lines=1)
        checked = reference.coprime_count(lo, hi, reference.first_primes(p["r"]))
        return Expect(0, checked, report=_report("pass", checked, checked, (lo, hi)))
    if job.kind == "identity25":
        # No witness exists inside the bound-40 grid for r = 4 or 5.
        checked = (p["bound"] + 1) ** (p["r"] - 1)
        return Expect(1, checked, report=_report("not-found-within-bound", checked, 0, None))
    if job.kind == "identity26":
        return Expect(0, 1, report=_report("pass", 1, 1, None))
    raise ValueError(f"no reference for job kind {job.kind!r}")


def _report(verdict: str, checked: int, witnesses: int, interval) -> dict:
    return {"verdict": verdict, "checked": checked, "witnesses_pass": witnesses,
            "interval": interval, "counterexamples": 0}


def check(job: Job, want: Expect, code: int, stdout: bytes, stderr: bytes) -> str | None:
    """None when the run matches the reference, else a one-line reason."""
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if code != want.code:
        return f"exit code {code}, expected {want.code}"
    err_lines = stderr.splitlines()
    if len(err_lines) != want.stderr_lines or not all(l.startswith(b"error: ") for l in err_lines):
        return f"stderr has {len(err_lines)} line(s), expected {want.stderr_lines} 'error:' lines"
    if want.digest is not None and hashlib.sha256(stdout).hexdigest() != want.digest:
        known = reference_stdout(job)
        return _diff(stdout, known[0] if known else b"")
    if want.report is not None:
        try:
            got = reference.parse_report(stdout, job.fmt)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        wrong = {k: (got[k], v) for k, v in want.report.items() if got[k] != v}
        if wrong:
            return "report fields differ (got, want): " + ", ".join(
                f"{k}={v}" for k, v in wrong.items()
            )
    return None


def _diff(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"stdout line {i + 1} is {g[:60]!r}, expected {w[:60]!r}"
    return f"stdout has {len(got_lines)} lines, expected {len(want_lines)}"
