"""Peak memory of the stream readers does not grow with their window.

`gen` writes the wheel's sieve one segment at a time, `oracle scan` and
`oracle primes` the striking scan, and `count --pi-approx` counts the
prime stream, so each command's peak RSS stays under one bound whether
its window is 10^6 or 10^7 wide, and a child held to a small address
space finishes instead of raising MemoryError. bench holds two byte maps
of its window, so its peak is bounded per window integer at both widths,
as is the traced peak of a failing window report, which keeps one byte
per window integer (its copy count) and reads the Omega bytes one sieve
segment at a time. Each subcommand's edge argv, the largest its default
budget and fixed caps admit or one just past them, ends in an exit code
under a small address space, in each output format where it matters.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from pieces import pieces_of

import primewheel
from primewheel import oracle, theorems
from primewheel.enumeration import enumerate_interval
from primewheel.wheel import PrimeBasis

resource = pytest.importorskip("resource")
pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux's")

SRC = str(Path(primewheel.__file__).resolve().parents[1])
MB = 1 << 20

# (small argv, large argv, MB allowed above a trivial command's peak at both).
# The scan holds one segment's flags, a byte for each of 2^20 integers, and
# writes the survivors block by block: its peak is under 2.5 MB above a
# trivial command's. gen holds one mask of 2^20 candidates the same way.
READERS = {
    "gen": (
        ["gen", "--r", "1", "--lo", "1", "--hi", "1000001"],
        ["gen", "--r", "1", "--lo", "1", "--hi", "10000001"],
        12,
    ),
    "scan": (
        ["oracle", "scan", "--r", "1", "--lo", "1", "--hi", "1048577"],
        ["oracle", "scan", "--r", "1", "--lo", "1", "--hi", "10000001"],
        25,
    ),
    "primes": (
        ["oracle", "primes", "--lo", "1", "--hi", "1000000"],
        ["oracle", "primes", "--lo", "1", "--hi", "10000000"],
        12,
    ),
    "pi": (["count", "--r", "168", "--pi-approx"], ["count", "--r", "440", "--pi-approx"], 12),
}


# Linux counts in a child's ru_maxrss the pages it shares, before exec, with the process that
# forked it, so a command started from pytest would read pytest's own size (perfbench/spawner.py
# meets the same trap). A small launcher starts each command instead, caps its CPU time and,
# if given, its address space, and prints its exit code and peak RSS in KiB.
_LAUNCHER = """
import os, resource, subprocess, sys

address_space = int(sys.argv[1])

def limits():
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
    if address_space:
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

argv = [sys.executable, "-m", "primewheel", *sys.argv[2:]]
proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, preexec_fn=limits)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _run(argv, address_space=None):
    """Exit code, stderr and peak RSS in MB of one primewheel process."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PRIMEWHEEL_SCAN_BUDGET", None)
    launcher = [sys.executable, "-c", _LAUNCHER, str(address_space or 0), *argv]
    proc = subprocess.run(launcher, capture_output=True, env=env, check=True)
    code, maxrss_kib = map(int, proc.stdout.split())
    return code, proc.stderr.decode(), maxrss_kib / 1024


@pytest.fixture(scope="module")
def base_rss():
    code, err, rss = _run(["oracle", "omega", "--n", "2"])
    assert code == 0, err
    return rss


@pytest.mark.parametrize("reader", sorted(READERS))
def test_peak_rss_does_not_grow_with_the_window(base_rss, reader):
    *argvs, allowed = READERS[reader]
    for argv in argvs:
        code, err, rss = _run(argv)
        assert code == 0, err
        assert rss < base_rss + allowed, (argv, rss, base_rss)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_small_address_space_finishes_without_memory_error(reader):
    *argvs, _ = READERS[reader]
    for argv in argvs:
        code, err, _ = _run(argv, address_space=128 * MB)
        assert code in (0, 3), err
        assert "MemoryError" not in err and "Traceback" not in err


# (argv, exit code). bench holds a byte per window integer for each of its two maps.
# `gen --r 20000 --lo 1 --hi 2 --explain` belongs here once --explain stops building
# its whole form (ROADMAP item 8): it raises MemoryError at 253 MB.
EDGE_ARGVS = {
    "bench": (["bench", "--r", "1", "--width", "10000000", "--reps", "1"], 0),
    "scan": (["oracle", "scan", "--r", "1", "--lo", "1", "--hi", "10000001"], 0),
    "primes": (["oracle", "primes", "--lo", "1", "--hi", "10000000"], 0),
    "theorem1": (["verify", "theorem1", "--r", "2", "--n", "9"], 0),
    "pi": (["count", "--r", "445", "--pi-approx"], 0),
    "coeffs": (["coeffs", "927"], 0),
    "identity26": (["verify", "identity26", "--r", "154", "--e", "2"], 0),
    "gen": (["gen", "--r", "100000", "--lo", "1", "--hi", "2"], 0),
    "count": (["count", "--r", "25", "--lo", "1", "--hi", "100000000"], 3),
    # identity25's grid: 10^7 rows are exactly the default budget, 11^7 are past it.
    "identity25": (["verify", "identity25", "--r", "9", "--bound", "9"], 1),
    "identity25-past": (["verify", "identity25", "--r", "9", "--bound", "10"], 3),
    "theorem1-json-lines": (
        ["verify", "theorem1", "--r", "2", "--n", "9", "--format", "json-lines"], 0
    ),
    "gen-json-lines": (
        ["gen", "--r", "100000", "--lo", "1", "--hi", "2", "--format", "json-lines"], 0
    ),
    "coeffs-json-lines": (["coeffs", "927", "--format", "json-lines"], 0),
    "coeffs-csv": (["coeffs", "927", "--format", "csv"], 0),
}


@pytest.mark.parametrize("edge", sorted(EDGE_ARGVS))
def test_edge_argv_ends_in_its_exit_code_under_a_small_address_space(edge):
    argv, code = EDGE_ARGVS[edge]
    got, err, rss = _run(argv, address_space=256 * MB)
    assert got == code, err
    assert "Traceback" not in err
    assert rss < 64, (argv, rss)


@pytest.mark.parametrize("width", [10**6, 10**7])
def test_bench_holds_two_bytes_and_a_half_per_window_integer(base_rss, width):
    # Each side's 0/1 map is a byte per window integer; the 4 MB covers a segment of each sieve.
    code, err, rss = _run(["bench", "--r", "1", "--width", str(width), "--reps", "1"])
    assert code == 0, err
    assert rss < base_rss + 2.5 * width / MB + 4, (width, rss, base_rss)


@pytest.mark.parametrize("n", [6, 8])
def test_failing_report_memory_is_bounded_per_window_integer(monkeypatch, n):
    # The window [5^n, 5^(n + 1)) at r = 2 with its first value dropped:
    # one missing value, found by the second walk.
    basis = PrimeBasis.first(2)
    interval = theorems.theorem1_interval(basis, n)

    def first_dropped(form, spec):
        stream = enumerate_interval(form, spec)
        next(stream)
        return pieces_of(stream)

    monkeypatch.setattr(theorems, "value_segments", first_dropped)
    tracemalloc.start()
    try:
        report = theorems.verify_theorem1(basis, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.details["set_equality"]["missing"] == [str(interval.lo)]
    # One byte per window integer plus half a byte of slack, and what one
    # segment of OMEGA_SEGMENT integers takes: its scan, sieve and sets.
    assert peak < 1.5 * interval.width + 200 * oracle.OMEGA_SEGMENT, (n, peak)
