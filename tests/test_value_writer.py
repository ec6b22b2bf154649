"""The block writer of value streams against per-value print.

gen (all three formats), oracle scan and oracle primes write their values
straight from the sieve's masks, one write per block of cli.BLOCK
integers. Their stdout must equal, byte for byte, printing each value on
its own: at the block edges, across every power of ten a prefix grows
at, past 2^63 and 2^64, across sieve segment seams, and for steps that
do not divide the block.
"""

import io
import json
import sys

import pytest

from primewheel import cli, enumeration, oracle
from primewheel.cli import BLOCK, main
from primewheel.enumeration import IntervalSpec, enumerate_interval, value_segments
from primewheel.wheel import PrimeBasis, build_canonical, build_coprime_wheel

FORMATS = ("text", "csv", "json-lines")


def _printed(values, fmt="text", name="z") -> str:
    """The values as print wrote them, one call per value."""
    out = io.StringIO()
    if fmt == "csv":
        print(name, file=out)
    for v in values:
        print(json.dumps({name: str(v)}) if fmt == "json-lines" else v, file=out)
    return out.getvalue()


def _differ(out: str, want: str):
    """None when equal, else the first difference and the text around it on
    both sides (a plain assert would diff the whole outputs)."""
    if out == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), min(len(out), len(want)))
    return at, out[max(0, at - 60) : at + 60], want[max(0, at - 60) : at + 60]


def _across(x, below=700, above=1300):
    return (max(0, x - below), x + above)


# [lo, hi) windows: lo at the first block's edges; each power of ten a
# prefix grows at; one window inside a block; two with no value in them;
# 2^63 +- 2, 2^64 and 10^30, each crossed and started at.
WINDOWS = [(lo, lo + w) for lo in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1) for w in (1, 7, 2500)]
WINDOWS += [_across(10**k, 1500, 1500) for k in range(3, 23)]
WINDOWS += [(10**6 + 10, 10**6 + 90), (1000, 1001), (1005, 1006)]
for _x in (2**63 - 2, 2**63 + 2, 2**64, 10**30):
    WINDOWS += [_across(_x), (_x, _x + 3)]


def _run(capsys, *argv) -> str:
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), argv
    return out


@pytest.mark.parametrize("r", [1, 3, 6])
@pytest.mark.parametrize("fmt", FORMATS)
def test_gen_equals_per_value_print(capsys, r, fmt):
    form = build_canonical(PrimeBasis.first(r))
    for lo, hi in WINDOWS:
        out = _run(capsys, "gen", "--r", r, "--lo", lo, "--hi", hi, "--format", fmt)
        values = enumerate_interval(form, IntervalSpec(lo, hi))
        assert _differ(out, _printed(values, fmt)) is None, (lo, hi)


@pytest.mark.parametrize("how", [("--r", 1), ("--r", 4), ("--moduli", "4,9,25")])
def test_oracle_scan_equals_per_value_print(capsys, how):
    moduli = PrimeBasis.first(how[1]).primes if how[0] == "--r" else (4, 9, 25)
    for lo, hi in WINDOWS:
        out = _run(capsys, "oracle", "scan", "--lo", lo, "--hi", hi, *how)
        want = _printed(oracle.coprime_scan(IntervalSpec(lo, hi), moduli))
        assert _differ(out, want) is None, (lo, hi)


def test_oracle_primes_equals_per_value_print(capsys):
    # The base primes in the window are flagged in their segment like any other prime.
    for lo, hi in [w for w in WINDOWS if w[1] <= 2 * 10**6] + [(1, 5000), (990, 3300)]:
        out = _run(capsys, "oracle", "primes", "--lo", lo, "--hi", hi)
        assert _differ(out, _printed(oracle.primes_in(IntervalSpec(lo, hi)))) is None, (lo, hi)


@pytest.mark.parametrize("fmt", FORMATS)
def test_blocks_straddling_sieve_segments(capsys, monkeypatch, fmt):
    # Segments of 61 candidates (122 integers for gen, 61 for the scan) cut
    # every block several times, at offsets that move from block to block.
    monkeypatch.setattr(enumeration, "SEGMENT", 61)
    monkeypatch.setattr(oracle, "_SEGMENT", 61)
    form = build_canonical(PrimeBasis.first(3))
    for lo in (0, 1, 10**12 - 2 * 61 * 2 - 5, 2**64 - 3000):
        hi = lo + 6000
        out = _run(capsys, "gen", "--r", 3, "--lo", lo, "--hi", hi, "--format", fmt)
        want = _printed(enumerate_interval(form, IntervalSpec(lo, hi)), fmt)
        assert _differ(out, want) is None, lo
        if fmt == "text":
            out = _run(capsys, "oracle", "scan", "--r", 3, "--lo", lo, "--hi", hi)
            want = _printed(oracle.coprime_scan(IntervalSpec(lo, hi), form.moduli))
            assert _differ(out, want) is None, lo


def test_window_wider_than_two_segments(capsys):
    # At the real SEGMENT a window of over 2 * SEGMENT * 2 integers has
    # three segments, and the blocks at both seams straddle two of them.
    lo = 10**12 - 3001
    hi = lo + 2 * enumeration.SEGMENT * 2 + 6000
    form = build_canonical(PrimeBasis.first(3))
    out = _run(capsys, "gen", "--r", 3, "--lo", lo, "--hi", hi)
    assert len(list(value_segments(form, IntervalSpec(lo, hi)))) == 3
    want = "".join(f"{v}\n" for v in enumerate_interval(form, IntervalSpec(lo, hi)))
    assert _differ(out, want) is None


@pytest.mark.parametrize(
    "moduli, h1",
    # q1 = 3 and 9 do not divide BLOCK, so a block's first offset mod q1
    # moves from block to block; q1 = 2003 leaves at most one candidate
    # per block, and 7 strikes some of them, leaving blocks with no survivor.
    [((3, 5, 7, 11), 1), ((3, 5, 7, 11), 2), ((9, 4, 25), 3), ((2003, 7), 5)],
)
@pytest.mark.parametrize("segment", [enumeration.SEGMENT, 61])
def test_pinned_coprime_wheel_steps_that_do_not_divide_the_block(
    capsys, monkeypatch, moduli, h1, segment
):
    monkeypatch.setattr(enumeration, "SEGMENT", segment)
    form = build_coprime_wheel(moduli, h1=h1)
    for lo, hi in WINDOWS + [(0, 20000), _across(2**64, 5000, 15000)]:
        spec = IntervalSpec(lo, hi)
        for fmt in FORMATS:
            cli.write_values(fmt, "z", value_segments(form, spec))
            want = _printed(enumerate_interval(form, spec), fmt)
            assert _differ(capsys.readouterr().out, want) is None, (spec, fmt)


class _Writes(io.StringIO):
    """A stdout that keeps each write call's text."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", FORMATS)
def test_one_write_per_block(monkeypatch, fmt):
    # Block 0's values, below BLOCK, take one write as any later block's do;
    # so do oracle primes' base primes, below 100, with the rest of block 0.
    def check(write, values, lo):
        spec = IntervalSpec(lo, lo + 10 * BLOCK)
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        write(spec)
        blocks = out.calls[1:] if fmt == "csv" else out.calls
        assert len(blocks) == 10, lo
        for k, text in enumerate(blocks):
            block = IntervalSpec(spec.lo + k * BLOCK, spec.lo + (k + 1) * BLOCK)
            want = _printed(values(block), fmt).removeprefix("z\n")
            assert _differ(text, want) is None, (lo, k)

    form = build_canonical(PrimeBasis.first(3))
    for lo in (0, 10**6):
        check(lambda spec: cli.write_values(fmt, "z", value_segments(form, spec)),
              lambda block: enumerate_interval(form, block), lo)
    if fmt == "text":
        check(lambda spec: main(["oracle", "primes", "--lo", "0", "--hi", str(spec.hi)]),
              oracle.primes_in, 0)
