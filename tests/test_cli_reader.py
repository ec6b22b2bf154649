"""cli.read_argv, the command-line reader that runs without argparse, against argparse.

On every argv the reader reads, its namespace must equal the one
cli.build_parser() gives, func included; everything else it must decline,
so that main hands it to argparse. The argvs are seeded ones from the fuzz
makers, a fixed list of spellings the reader must decline, and every argv
the benchmark's workloads run, which must all take the reader's path.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from primewheel import cli
from test_cli_fuzz import MAKERS

SEED = 43
CASES_PER_COMMAND = 250
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parsed(parser, argv) -> dict | None:
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def _mismatch(parser, argv) -> str | None:
    """Why the reader's answer for argv is wrong, or None when it declined or agrees."""
    read = cli.read_argv(argv)
    if read is None:
        return None
    parsed = _parsed(parser, argv)
    return None if vars(read) == parsed else f"read {vars(read)}, argparse {parsed}"


@pytest.mark.parametrize("command", sorted(MAKERS))
def test_the_reader_agrees_with_argparse_on_seeded_argvs(command):
    parser, rng = cli.build_parser(), random.Random(f"{SEED}-{command}")
    argvs = [MAKERS[command](rng) for _ in range(CASES_PER_COMMAND)]
    found = [(argv, why) for argv in argvs if (why := _mismatch(parser, argv))]
    assert not found, found[:5]
    # Most seeded argvs are well formed, so most must be read, not declined.
    read = sum(cli.read_argv(argv) is not None for argv in argvs)
    assert read >= CASES_PER_COMMAND // 2, read


DECLINED = [
    [],
    ["--help"],
    ["-h"],
    ["bogus"],
    ["gen", "-h"],
    ["gen", "--r", "3", "--lo", "1", "--hi", "9", "--help"],
    ["gen", "--r=3", "--lo", "1", "--hi", "9"],
    ["gen", "--r", "3", "--lo", "1", "--hi", "9", "--expl"],
    ["gen", "--r", "3", "--lo", "1", "--hi", "9", "--r", "4"],
    ["gen", "--r", "3", "--lo", "1", "--hi", "9", "--explain", "--explain"],
    ["gen", "--r", "3", "--lo", "1", "--", "--hi", "9"],
    ["gen", "--r", "3", "--lo", "--hi", "5"],
    ["gen", "--r", "3", "--lo", "-1", "--hi", "9"],
    ["gen", "--r", "3", "--lo", "1", "--hi"],
    ["gen", "--r", "3", "--lo", "1"],
    ["gen", "--r", "x", "--lo", "1", "--hi", "9"],
    ["gen", "--r", "3", "--lo", "1", "--hi", "9" * 5000],
    ["gen", "--r", "3", "--lo", "1", "--hi", "9", "--format", "xml"],
    ["gen", "--r", "3", "--lo", "1", "--hi", "9", "extra"],
    ["count", "--r", "3", "--block", "--pi-approx"],
    ["count", "--r", "3", "-"],
    ["verify", "identity26", "--r", "5", "--k", "-2"],
    ["verify", "--r", "3", "theorem1"],
    ["verify", "theorem1", "theorem1", "--r", "3"],
    ["verify", "theorem9", "--r", "3"],
    ["verify", "--r", "3"],
    ["coeffs", "--raw", "4"],
    ["coeffs"],
    ["coeffs", "-4"],
    ["oracle", "--lo", "1", "scan"],
    ["oracle", "scan", "--moduli", "-3"],
    ["bench", "--r", "3"],
]


@pytest.mark.parametrize("argv", DECLINED, ids=lambda argv: " ".join(argv)[:60] or "no-arguments")
def test_the_reader_declines_every_other_spelling(argv):
    assert cli.read_argv(argv) is None


def test_a_declined_spelling_runs_through_argparse(capsys):
    assert cli.main(["gen", "--r=3", "--lo", "1", "--hi=60", "--expl"]) == 0
    spelled = capsys.readouterr()
    assert cli.main(["gen", "--r", "3", "--lo", "1", "--hi", "60", "--explain"]) == 0
    assert capsys.readouterr() == spelled and spelled.out.startswith("1 t=-1 h=[1,1]\n")


def _benchmark_argvs() -> list[list[str]]:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return [
        list(job.argv)
        for workload in workloads.WORKLOADS
        for seed in range(3)
        for job in workloads.jobs_for(workload, seed)
    ]


def test_every_benchmark_argv_takes_the_reader():
    parser, argvs = cli.build_parser(), _benchmark_argvs()
    heads = {tuple(argv[:2]) for argv in argvs}
    claims = ("theorem1", "corollary2", "identity25", "identity26")
    assert {("verify", claim) for claim in claims} <= heads
    assert {("oracle", probe) for probe in ("primes", "scan", "omega")} <= heads
    assert {"gen", "count", "--explain", "--pi-approx", "--budget", "--format"} <= {
        token for argv in argvs for token in argv
    }
    for argv in argvs:
        read = cli.read_argv(argv)
        assert read is not None, argv
        assert vars(read) == _parsed(parser, argv), argv
