"""Byte-exact CLI outputs in every format, and the row shape of each table."""

import json
import random
import sys
from fractions import Fraction

import pytest

from primewheel.cli import CHUNK_LINES, FORMATS, main, write_rows


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


GOLDENS = {
    ("count", "--r", "3", "--block", "--format", "csv"): "phi,interior\n8,7\n",
    ("count", "--r", "3", "--block", "--format", "json-lines"): '{"phi": "8", "interior": "7"}\n',
    ("count", "--r", "1", "--block", "--format", "csv"): "phi,interior\n1,0\n",
    ("count", "--r", "3", "--pi-approx", "--format", "csv"): (
        "approx,exact,rel_error\n14.433,15,0.0378\n"
    ),
    ("count", "--r", "3", "--pi-approx", "--format", "json-lines"): (
        '{"approx": "433/30", "exact": "15", "rel_error": "17/450"}\n'
    ),
    ("count", "--r", "1", "--pi-approx", "--format", "json-lines"): (
        '{"approx": "1", "exact": "4", "rel_error": "3/4"}\n'
    ),
    ("count", "--r", "4", "--lo", "1", "--hi", "211", "--format", "csv"): "count\n48\n",
    ("count", "--r", "4", "--lo", "1", "--hi", "211", "--format", "json-lines"): (
        '{"count": "48"}\n'
    ),
    ("coeffs", "4", "--raw", "--format", "csv"): (
        "term,coefficient\nt,210\nh4,90\nh3,2184\nh2,4550\nconstant,-1\n"
    ),
    ("coeffs", "4", "--raw", "--format", "json-lines"): (
        '{"r": 4, "primorial": "210", "coeffs": {"2": "4550", "3": "2184", "4": "90"}, '
        '"constant": "-1", "convention": "minus-h", '
        '"representatives": {"2": ["1", "1"], "3": ["5", "4"], "4": ["13", "3"]}}\n'
    ),
    ("coeffs", "1", "--format", "csv"): "term,coefficient\nt,2\nconstant,1\n",
    # csv is not a report format: verify prints its text report.
    ("verify", "identity26", "--r", "4", "--e", "2", "--format", "csv"): (
        "claim: identity26[r=4,e=2,k=0]\n"
        "verdict: pass\n"
        "checked: 1\n"
        "witnesses_pass: 1\n"
        "counterexamples: none\n"
        'detail lhs: "70"\n'
        'detail lhs_residue: "70"\n'
        'detail modulus: "210"\n'
        'detail rhs: "-4550"\n'
        'detail rhs_residue: "70"\n'
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDENS), ids=" ".join)
def test_golden(capsys, argv):
    assert run(capsys, *argv) == GOLDENS[argv]


def test_bench_rows_with_the_timing_masked(capsys):
    out = run(capsys, "bench", "--r", "3", "--width", "300", "--reps", "2")
    lines = out.splitlines()
    assert lines[0] == "method,interval_width,values_emitted,wall_time"
    masked = [line.rsplit(",", 1) for line in lines[1:]]
    assert [row for row, _ in masked] == ["wheel,300,80", "sieve,300,80"] * 2
    for _, wall in masked:
        whole, frac = wall.split(".")
        assert whole.isdigit() and len(frac) == 6 and frac.isdigit()
    assert out.endswith("\n") and "\n\n" not in out


def _tables(r):
    """argv of every command that prints rows at this r, without --format."""
    yield "gen", "--r", str(r), "--lo", "1", "--hi", "300"
    yield "gen", "--r", str(r), "--lo", "1", "--hi", "300", "--explain"
    yield "count", "--r", str(r), "--block"
    yield "count", "--r", str(r), "--pi-approx"
    yield "count", "--r", str(r), "--lo", "1", "--hi", "300"
    yield "coeffs", str(r)
    if r > 2:
        yield "coeffs", str(r), "--raw"


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_csv_rows_have_as_many_fields_as_the_header(capsys, r):
    tables = [*_tables(r), ("bench", "--r", str(r), "--width", "100", "--reps", "2")]
    for argv in tables:
        fmt = () if argv[0] == "bench" else ("--format", "csv")
        header, *rows = run(capsys, *argv, *fmt).splitlines()
        assert rows, argv
        width = len(header.split(","))
        assert all(name for name in header.split(",")), (argv, header)
        assert all(len(row.split(",")) == width for row in rows), (argv, header)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_json_lines_are_objects(capsys, r):
    for argv in [*_tables(r), ("verify", "theorem1", "--r", str(r), "--n", "1")]:
        lines = run(capsys, *argv, "--format", "json-lines").splitlines()
        assert lines, argv
        assert all(isinstance(json.loads(line), dict) for line in lines), argv


@pytest.fixture
def no_digit_limit():
    """The int-to-str digit limit lifted, as main lifts it while a command runs."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    yield
    if limit:
        sys.set_int_max_str_digits(limit)


def _cell(rng):
    """An int of 1 to past 4,300 digits (mostly short), a str or a Fraction."""
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(["wheel", "0.0378", "pass", ""])
    if kind == 1:
        return Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
    digits = rng.choices([1, 2, 19, 20, 300, 4300, 4301, 5000], [20, 20, 20, 20, 4, 1, 1, 1])[0]
    return rng.choice([1, -1]) * rng.randrange(10 ** (digits - 1), 10**digits)


def _per_row(fmt, header, rows, text=None, json=None):
    """The table printed with one str.format call per row."""
    lines = [",".join(header)] if fmt == "csv" else []
    braces = {name: t.replace("{", "{{").replace("}", "}}").replace("%s", "{}")
              for name, t in (("text", text), ("json", json)) if t}
    if fmt == "csv":
        template = ",".join(["{}"] * len(header))
    elif fmt == "json-lines":
        template = braces.get("json", "{{" + ", ".join(f'"{n}": "{{}}"' for n in header) + "}}")
    else:
        default = " ".join(f"{n}={{}}" for n in header) if header[1:] else "{}"
        template = braces.get("text", default)
    lines += [template.format(*row) for row in rows]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("width", range(1, 8))
def test_write_rows_matches_per_row_format(capsys, no_digit_limit, width):
    rng = random.Random(4300 + width)
    header = tuple(f"c{i}" for i in range(width))
    lengths = (0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1)
    chunks = [tuple([_cell(rng) for _ in range(n)] for _ in header) for n in lengths]
    rows = [row for columns in chunks for row in zip(*columns)]
    custom = {
        "text": " | ".join(["%s"] * width) + " ;",
        "json": '{"row": [' + ", ".join(['"%s"'] * width) + "]}",
    }
    for fmt in FORMATS:
        for templates in ({}, custom):
            write_rows(fmt, header, chunks, **templates)
            expected = _per_row(fmt, header, rows, **templates)
            assert capsys.readouterr().out == expected, (fmt, templates)
