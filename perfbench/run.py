"""primewheel benchmark: seeded job lists of `python -m primewheel` subprocesses.

    python3 perfbench/run.py --workload gen-stream --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The jobs of a workload run one after
another from this process (a closed loop with one client), cycling
through the list until --seconds have passed; the first pass always
completes. Every run is checked against an independent reference (see
workloads.py). Before timing, fresh interpreters are timed building the
workload's largest form and residue table (setup_s). End-to-end times
are scaled by the host's speed, measured alongside (see CALIBRATION).

--trace 0 prints the end-to-end metrics. --trace 1 alternates each job
between a plain run and a run under tracer.py, and prints the per-layer
metrics plus the tracing overhead. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Per-job figures
are medians over a job's runs, so every job counts once whatever the
number of passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from statistics import median

import harness
import layers
import workloads

# setup_s is the median of at least SETUP_PROBES fresh interpreters; cheap
# set-ups get more of them, until SETUP_PROBE_S seconds have gone into it.
SETUP_PROBES = 5
SETUP_PROBE_S = 2.0
SETUP_PROBES_MAX = 25
# A run must end within 180 s; no job may start or keep running after this.
TIME_LIMIT_S = 160
PROBE = (
    "import sys\n"
    "from primewheel import PrimeBasis, build_canonical, sorted_block_residues\n"
    "sorted_block_residues(build_canonical(PrimeBasis.first(int(sys.argv[1]))))\n"
)

# Host speed. This shared 2-core host runs 20-30% faster or slower over
# tens of minutes, for every process alike. So every CALIBRATE_EVERY job
# steps the benchmark also times CALIBRATION, a fixed pure-Python
# workload that does not touch primewheel, in a fresh interpreter like a
# job. End-to-end times are reported scaled by CALIBRATION_REFERENCE_S
# over the run's median calibration time: seconds on a host where the
# calibration takes CALIBRATION_REFERENCE_S (about its time on this host).
CALIBRATION = (
    "xs = [(i * 7919) % 1000003 for i in range(60000)]\n"
    "xs.sort()\n"
    "s = sum(len(str(x)) for x in xs[::2])\n"
)
CALIBRATION_REFERENCE_S = 0.08
CALIBRATE_EVERY = 2

# Every end-to-end metric, in report order, with its unit.
END_TO_END = (
    ("wall_s", "s"),
    ("values_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("first_out_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_time(spawner: harness.Spawner, r: int) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_PROBES or (
        sum(times) < SETUP_PROBE_S and len(times) < SETUP_PROBES_MAX
    ):
        probe = spawner.run(["-c", PROBE, str(r)])
        if probe.code != 0:
            raise SystemExit(f"setup probe failed (exit {probe.code}):\n{probe.stderr.decode()}")
        times.append(probe.wall_s)
    return times


@dataclass
class Sample:
    wall_s: float
    first_out_s: float | None
    peak_rss_mb: float
    layers: dict | None = None  # per-layer figures of a traced run


class Session:
    """Runs and checks jobs, and keeps what each run cost (not its output)."""

    def __init__(self, spawner: harness.Spawner, jobs, expected):
        self.spawner = spawner
        self.jobs = jobs
        self.expected = expected
        self.plain: list[list[Sample]] = [[] for _ in jobs]
        self.traced: list[list[Sample]] = [[] for _ in jobs]
        self.calibration: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def calibrate(self) -> None:
        run = self.spawner.run(["-c", CALIBRATION])
        if run.code != 0:
            raise SystemExit(f"calibration failed (exit {run.code}):\n{run.stderr.decode()}")
        self.calibration.append(run.wall_s)

    def _check(self, i: int, run: harness.Run, label: str) -> bool:
        self.attempted += 1
        reason = workloads.check(self.jobs[i], self.expected[i], run.code, run.stdout, run.stderr)
        if reason is not None:
            self.failures.append(f"{label} {' '.join(self.jobs[i].argv)}: {reason}")
        return reason is None

    def run_plain(self, i: int) -> None:
        run = self.spawner.run(["-m", "primewheel", *self.jobs[i].argv])
        self._check(i, run, "plain")
        self.plain[i].append(Sample(run.wall_s, run.first_out_s, run.peak_rss_mb))

    def run_traced(self, i: int) -> None:
        run = self.spawner.run(["perfbench/tracer.py", *self.jobs[i].argv], side_pipe=True)
        if not self._check(i, run, "traced"):
            return
        figures = layers.job_metrics(json.loads(run.side), run.wall_s, run.stdout)
        self.traced[i].append(Sample(run.wall_s, run.first_out_s, run.peak_rss_mb, figures))


def measure(session: Session, seconds: float, trace: bool) -> int:
    """Cycle through the job list until `seconds` have passed; return the
    number of job steps taken."""
    n = len(session.jobs)
    start = time.perf_counter()
    step = 0
    while step < n or time.perf_counter() - start < seconds:
        i = step % n
        if trace:
            # Alternate which side runs first, so neither always follows the other.
            order = (session.run_plain, session.run_traced)
            for fn in order if (step // n) % 2 == 0 else reversed(order):
                fn(i)
        else:
            session.run_plain(i)
            if step % CALIBRATE_EVERY == 0:
                session.calibrate()
        step += 1
    return step


def end_to_end(session: Session, setup: list[float], setup_r: int) -> tuple[dict, list[str]]:
    job_s = [median(r.wall_s for r in runs) for runs in session.plain]
    delivering = [(e.values, t) for e, t in zip(session.expected, job_s) if e.values]
    first_out = [
        median(outs)
        for runs in session.plain
        if (outs := [r.first_out_s for r in runs if r.first_out_s is not None])
    ]
    pct, tail = harness.tail(job_s)
    raw = {
        "wall_s": sum(job_s),
        "values_per_s": sum(v for v, _ in delivering) / sum(t for _, t in delivering),
        "job_s.p50": median(job_s),
        "job_s.tail": tail,
        "first_out_s.p50": median(first_out),
        "setup_s": median(setup),
        "peak_rss_mb": max(r.peak_rss_mb for runs in session.plain for r in runs),
    }
    calibration = median(session.calibration)
    host = calibration / CALIBRATION_REFERENCE_S
    scale = {"s": 1 / host, "1/s": host}
    values = {name: raw[name] * scale.get(unit, 1.0) for name, unit in END_TO_END}
    samples = sum(len(runs) for runs in session.plain)
    notes = [
        f"host: calibration median {calibration:.4f} s over {len(session.calibration)} runs, "
        f"so times are divided by {host:.4f}; unscaled: "
        + ", ".join(f"{name} {raw[name]:.6g}" for name, unit in END_TO_END if unit in scale),
        f"wall_s: sum over {len(job_s)} jobs of each job's median wall time",
        f"job_s.tail: p{pct:.0f} of {len(job_s)} per-job medians ({samples} runs)",
        f"setup_s: median of {len(setup)} fresh interpreters building the r = "
        f"{setup_r} form and table",
    ]
    return values, notes


def per_layer(session: Session) -> dict:
    # Jobs whose traced runs all failed their check are left out of both sums.
    pairs = [(plain, traced) for plain, traced in zip(session.plain, session.traced) if traced]
    plain_s = sum(median(r.wall_s for r in plain) for plain, _ in pairs)
    traced_s = sum(median(r.wall_s for r in traced) for _, traced in pairs)
    figures = [[r.layers for r in traced] for _, traced in pairs]
    return layers.combine(figures, traced_s / plain_s - 1 if plain_s else 0.0)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "primewheel" / "__init__.py").is_file():
        print(f"error: no primewheel package under {harness.SRC}", file=sys.stderr)
        return 2
    jobs = workloads.jobs_for(args.workload, args.seed)
    expected = [workloads.expect(job) for job in jobs]
    setup_r = workloads.largest_r(args.workload)
    with harness.Spawner(deadline=started + TIME_LIMIT_S) as spawner:
        try:
            setup = None if args.trace else setup_time(spawner, setup_r)
            session = Session(spawner, jobs, expected)
            steps = measure(session, args.seconds, bool(args.trace))
        except TimeoutError as exc:
            print(f"error: {exc}; no result", file=sys.stderr)
            return 1
    if args.trace:
        metrics, units, notes = per_layer(session), dict(layers.PER_LAYER), []
    else:
        metrics, notes = end_to_end(session, setup, setup_r)
        units = dict(END_TO_END)

    failed = len(session.failures)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(jobs),
        "job_steps": steps,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
    }
    print("meta " + json.dumps(meta))
    for line in session.failures:
        print("FAIL " + line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    share = failed / session.attempted
    print(f"fail_frac = {share:.6g} fraction ({failed}/{session.attempted} runs)")
    for note in notes:
        print("note " + note)
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
