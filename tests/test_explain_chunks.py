"""gen --explain, which decomposes a chunk of values at a time, against
per-value code: values by trial division, rows from decompose one value
at a time, and every row put back through evaluate."""

import json
import math

import pytest

from primewheel.cli import CHUNK_LINES, main
from primewheel.wheel import (
    PrimeBasis,
    build_canonical,
    build_coprime_wheel,
    decompose,
    decompose_rows,
    evaluate,
)

FORMATS = ("text", "csv", "json-lines")
# Windows that end inside, on and just past a chunk edge, and past two.
COUNTS = (CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1, 2 * CHUNK_LINES + 1)
BASES = (1, 2**64 + 12345)


def _values(primes, lo, count):
    """The first `count` integers from lo divisible by no prime of `primes`."""
    out, z = [], lo
    while len(out) < count:
        if all(z % p for p in primes):
            out.append(z)
        z += 1
    return out


def _per_value(form, zs, fmt):
    """gen --explain's stdout for zs, one decompose call per value."""
    names = ["z", "t", *(f"h{j}" for j in range(2, form.r + 1))]
    lines = [",".join(names)] if fmt == "csv" else []
    for z in zs:
        t, h = decompose(form, z)
        hs = [h[j] for j in sorted(h)]
        if fmt == "json-lines":
            lines.append(json.dumps({"z": str(z), "t": t, "h": hs}))
        elif fmt == "csv":
            lines.append(",".join(map(str, [z, t, *hs])))
        else:
            lines.append(f"{z} t={t} h=[{','.join(map(str, hs))}]")
    return "".join(line + "\n" for line in lines)


def _rows(out, fmt):
    """(z, t, [h_2, ..., h_r]) per line of gen --explain's stdout."""
    lines = out.splitlines()
    if fmt == "json-lines":
        return [(int(d["z"]), d["t"], d["h"]) for d in map(json.loads, lines)]
    if fmt == "csv":
        fields = [line.split(",") for line in lines[1:]]
    else:  # "z t=T h=[h2,h3]" read as "z,T,h2,h3"
        fields = [
            line.replace(" t=", ",").replace(" h=[", ",").rstrip("]").rstrip(",").split(",")
            for line in lines
        ]
    return [(int(z), int(t), [int(h) for h in hs]) for z, t, *hs in fields]


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("fmt", FORMATS)
def test_explain_equals_per_value_rows_across_chunk_edges(capsys, r, fmt):
    form = build_canonical(PrimeBasis.first(r))
    for base in BASES:
        values = _values(form.moduli, base, max(COUNTS))
        for count in COUNTS:
            zs = values[:count]
            argv = ["gen", "--r", str(r), "--lo", str(zs[0]), "--hi", str(zs[-1] + 1)]
            code = main([*argv, "--format", fmt, "--explain"])
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), argv
            assert out == _per_value(form, zs, fmt), (argv, fmt)
            rows = _rows(out, fmt)
            assert [z for z, _, _ in rows] == zs
            for z, t, hs in rows:
                h = dict(zip(range(2, r + 1), hs))
                assert evaluate(form, t, h) == z
                assert hs == [z % p for p in form.moduli[1:]]


def test_decompose_rows_agrees_with_decompose_on_a_chunk():
    form = build_canonical(PrimeBasis.first(5))
    zs = _values(form.moduli, 10**30, 300)
    ts, columns = decompose_rows(form, zs)
    assert len(columns) == 4 and all(len(c) == len(zs) for c in [ts, *columns])
    for i, z in enumerate(zs):
        assert decompose(form, z) == (ts[i], {j: columns[j - 2][i] for j in range(2, 6)})
    assert decompose_rows(form, []) == ([], [[], [], [], []])


@pytest.mark.parametrize(
    "zs, message",
    [
        ([31, 35, 49], "35 is divisible by 5, so it is not a value of this form"),
        ([31, 49, 25, 35], "25 is divisible by 5, so it is not a value of this form"),
        ([31, 30, 35], "30 is divisible by 2, so it is not a value of this form"),
        ([31, 49, 15], "15 is divisible by 3, so it is not a value of this form"),
    ],
)
def test_decompose_rows_names_the_first_offender_in_chunk_order(zs, message):
    form = build_canonical(PrimeBasis.first(3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        decompose_rows(form, zs)
    first_bad = next(z for z in zs if math.gcd(z, 30) > 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        decompose(form, first_bad)


@pytest.mark.parametrize(
    "zs, message",
    [
        ([7, 11, 10], r"11 = 2 \(mod 3\) but the form pins h1 = 1"),
        ([7, 10, 11], "10 is divisible by 5, so it is not a value of this form"),
        ([7, 9], "9 is divisible by 3, so it is not a value of this form"),
    ],
)
def test_decompose_rows_checks_the_pinned_slice_in_chunk_order(zs, message):
    wheel = build_coprime_wheel([3, 5], h1=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        decompose_rows(wheel, zs)
