"""gen and oracle output through the chunked writer, against per-value print."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primewheel
from primewheel import oracle
from primewheel.cli import CHUNK_LINES, main
from primewheel.enumeration import IntervalSpec, count_interval, enumerate_interval
from primewheel.forms import decompose
from primewheel.wheel import PrimeBasis, build_canonical

FORMATS = ("text", "csv", "json-lines")
COUNTS = (0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1)


def _windows(values, counts=COUNTS):
    """One [lo, hi) per count, holding exactly that many of the sorted values."""
    start = 10
    windows = {0: (values[start] + 1, values[start + 1])}
    for k in counts:
        if k:
            windows[k] = (values[start], values[start + k - 1] + 1)
    return windows


def _reference_gen(r, lo, hi, fmt, explain):
    """stdout of gen as it was printed one value at a time."""
    out = io.StringIO()
    form = build_canonical(PrimeBasis.first(r))
    if fmt == "csv":
        columns = ["z", "t", *(f"h{j}" for j in range(2, r + 1))] if explain else ["z"]
        print(",".join(columns), file=out)
    for z in enumerate_interval(form, IntervalSpec(lo, hi)):
        if explain:
            t, h = decompose(form, z)
            ordered = [h[j] for j in sorted(h)]
            if fmt == "json-lines":
                print(json.dumps({"z": str(z), "t": t, "h": ordered}), file=out)
            elif fmt == "csv":
                print(",".join([str(z), str(t)] + [str(v) for v in ordered]), file=out)
            else:
                print(f"{z} t={t} h=[{','.join(str(v) for v in ordered)}]", file=out)
        elif fmt == "json-lines":
            print(json.dumps({"z": str(z)}), file=out)
        else:
            print(z, file=out)
    return out.getvalue()


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


# 2**63 - 500 puts the wider windows across sys.maxsize on 64-bit builds.
@pytest.mark.parametrize("r, base", [(1, 0), (3, 10**20), (5, 10**12), (4, 2**63 - 500)])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("explain", [False, True])
def test_gen_matches_per_value_print(capsys, r, base, fmt, explain):
    form = build_canonical(PrimeBasis.first(r))
    values = list(enumerate_interval(form, IntervalSpec(base, base + 30 * (CHUNK_LINES + 20))))
    for k, (lo, hi) in _windows(values).items():
        assert count_interval(form, IntervalSpec(lo, hi)) == k
        argv = ["gen", "--r", str(r), "--lo", str(lo), "--hi", str(hi), "--format", fmt]
        out = _run(capsys, *argv, *(["--explain"] if explain else []))
        assert out == _reference_gen(r, lo, hi, fmt, explain), (k, argv)
        lines = out.splitlines()
        if fmt == "csv":
            header = lines[0]
            assert header.startswith("z")
            assert lines.count(header) == 1
            assert len(lines) == k + 1
        else:
            assert len(lines) == k


def test_oracle_primes_matches_per_value_print(capsys):
    primes = oracle.primes_in(IntervalSpec(0, 20_000))
    for k, (lo, hi) in _windows(primes).items():
        out = _run(capsys, "oracle", "primes", "--lo", str(lo), "--hi", str(hi))
        expect = io.StringIO()
        for p in oracle.primes_in(IntervalSpec(lo, hi)):
            print(p, file=expect)
        assert out == expect.getvalue()
        assert len(out.splitlines()) == k


@pytest.mark.parametrize("how", [("--r", "4"), ("--moduli", "4,9,25")])
def test_oracle_scan_matches_per_value_print(capsys, how):
    moduli = PrimeBasis.first(4).primes if how[0] == "--r" else (4, 9, 25)
    values = oracle.coprime_scan(IntervalSpec(0, 20_000), moduli)
    for k, (lo, hi) in _windows(values).items():
        out = _run(capsys, "oracle", "scan", "--lo", str(lo), "--hi", str(hi), *how)
        expect = io.StringIO()
        for m in oracle.coprime_scan(IntervalSpec(lo, hi), moduli):
            print(m, file=expect)
        assert out == expect.getvalue()
        assert len(out.splitlines()) == k


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--r", "3", "--lo", "1", "--hi", "1000000"],
        ["oracle", "scan", "--lo", "0", "--hi", "1000000", "--r", "3"],
    ],
)
def test_closed_pipe_exits_quietly(argv):
    src = str(Path(primewheel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "primewheel", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip().isdigit()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert (code, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--r", "3", "--lo", "1", "--hi", "100000"],
        ["coeffs", "3"],
        ["verify", "theorem1", "--r", "3", "--n", "1"],
    ],
)
def test_failed_write_exits_4_with_one_error_line(argv):
    # gen fails in a write past the buffer; coeffs and verify in the last flush.
    src = str(Path(primewheel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "primewheel", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("error: cannot write output: ")
    assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
