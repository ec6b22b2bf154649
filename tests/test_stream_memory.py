"""Peak memory of the stream readers does not grow with their window.

`gen` writes the wheel's sieve one segment at a time, `oracle scan` and
`oracle primes` the striking scan, and `count --pi-approx` counts the
prime stream, so each command's peak RSS stays under one bound whether
its window is 10^6 or 10^7 wide, and a child held to a small address
space finishes instead of raising MemoryError. A failing window report keeps one byte per window integer
(its copy count) and reads the Omega bytes one sieve segment at a time,
so its traced peak is bounded per window integer at two window widths.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import primewheel
from primewheel import oracle, theorems
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


def _limits(address_space=None):
    """A preexec_fn that caps the child's CPU time, and its address space if given."""

    def apply():
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
        if address_space:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return apply


def _run(argv, address_space=None):
    """Exit code, stderr and peak RSS in MB of one primewheel process."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PRIMEWHEEL_SCAN_BUDGET", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "primewheel", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
        preexec_fn=_limits(address_space),
    )
    with proc.stderr:
        err = proc.stderr.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err, usage.ru_maxrss / 1024


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


@pytest.mark.parametrize("n", [6, 8])
def test_failing_report_memory_is_bounded_per_window_integer(monkeypatch, n):
    # The window [5^n, 5^(n + 1)) at r = 2 with its first value dropped:
    # one missing value, found by the second walk.
    basis = PrimeBasis.first(2)
    interval = theorems.theorem1_interval(basis, n)
    enumerate_interval = theorems.enumerate_interval

    def first_dropped(form, spec):
        stream = enumerate_interval(form, spec)
        next(stream)
        return stream

    monkeypatch.setattr(theorems, "enumerate_interval", first_dropped)
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
