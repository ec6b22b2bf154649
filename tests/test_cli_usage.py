"""Help and usage output of the primewheel process, byte for byte.

Each case runs `python -m primewheel` in a fresh interpreter with COLUMNS
fixed at 80, which sets argparse's wrap width, and compares stdout,
stderr and the exit code exactly. The texts are argparse's as of
Python 3.11.
"""

import os
import subprocess
import sys

import pytest


TOP_HELP = (
    "usage: primewheel [-h] {coeffs,gen,count,verify,bench,oracle} ...\n"
    "\n"
    "Linear wheel forms: construct, stream, count and verify.\n"
    "\n"
    "positional arguments:\n"
    "  {coeffs,gen,count,verify,bench,oracle}\n"
    "    coeffs              print the form for the first r primes\n"
    "    gen                 stream wheel values in [lo, hi)\n"
    "    count               count values per block or interval\n"
    "    verify              run a claim checker\n"
    "    bench               time wheel enumeration against a rough sieve\n"
    "    oracle              brute-force spot checks\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)

# argv: (exit code, stdout, stderr)
USAGE = {
    ("--help",): (0, TOP_HELP, ""),
    ("gen", "--help"): (
        0,
        (
            "usage: primewheel gen [-h] --r R --lo LO --hi HI [--explain]\n"
            "                      [--format {text,csv,json-lines}]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --r R\n"
            "  --lo LO\n"
            "  --hi HI\n"
            "  --explain             print (t, h) per value\n"
            "  --format {text,csv,json-lines}\n"
        ),
        "",
    ),
    ("verify", "--help"): (
        0,
        (
            "usage: primewheel verify [-h] --r R [--n N] [--s S] [--e E] [--k K]\n"
            "                         [--bound BOUND] [--format {text,csv,json-lines}]\n"
            "                         [--budget BUDGET]\n"
            "                         {theorem1,corollary2,identity25,identity26}\n"
            "\n"
            "positional arguments:\n"
            "  {theorem1,corollary2,identity25,identity26}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --r R\n"
            "  --n N\n"
            "  --s S\n"
            "  --e E\n"
            "  --k K                 unit-equation representative index\n"
            "  --bound BOUND\n"
            "  --format {text,csv,json-lines}\n"
            "  --budget BUDGET       work budget (also PRIMEWHEEL_SCAN_BUDGET)\n"
        ),
        "",
    ),
    ("coeffs", "--help"): (
        0,
        (
            "usage: primewheel coeffs [-h] [--raw] [--format {text,csv,json-lines}]\n"
            "                         [--budget BUDGET]\n"
            "                         r\n"
            "\n"
            "positional arguments:\n"
            "  r\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --raw                 pre-reduction coefficients\n"
            "  --format {text,csv,json-lines}\n"
            "  --budget BUDGET       work budget (also PRIMEWHEEL_SCAN_BUDGET)\n"
        ),
        "",
    ),
    ("count", "--help"): (
        0,
        (
            "usage: primewheel count [-h] --r R [--block | --pi-approx] [--lo LO] [--hi HI]\n"
            "                        [--format {text,csv,json-lines}] [--budget BUDGET]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --r R\n"
            "  --block\n"
            "  --pi-approx\n"
            "  --lo LO\n"
            "  --hi HI\n"
            "  --format {text,csv,json-lines}\n"
            "  --budget BUDGET       work budget (also PRIMEWHEEL_SCAN_BUDGET)\n"
        ),
        "",
    ),
    ("bench", "--help"): (
        0,
        (
            "usage: primewheel bench [-h] --r R --width WIDTH [--lo LO] [--reps REPS]\n"
            "                        [--budget BUDGET]\n"
            "\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --r R\n"
            "  --width WIDTH\n"
            "  --lo LO\n"
            "  --reps REPS\n"
            "  --budget BUDGET  work budget (also PRIMEWHEEL_SCAN_BUDGET)\n"
        ),
        "",
    ),
    ("oracle", "--help"): (
        0,
        (
            "usage: primewheel oracle [-h] [--n N] [--lo LO] [--hi HI] [--r R]\n"
            "                         [--moduli MODULI] [--budget BUDGET]\n"
            "                         {omega,spf,factor,primes,scan}\n"
            "\n"
            "positional arguments:\n"
            "  {omega,spf,factor,primes,scan}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --n N\n"
            "  --lo LO\n"
            "  --hi HI\n"
            "  --r R\n"
            "  --moduli MODULI       comma-separated moduli for scan\n"
            "  --budget BUDGET       work budget (also PRIMEWHEEL_SCAN_BUDGET)\n"
        ),
        "",
    ),
    (): (2, TOP_HELP, ""),
    ("bogus",): (
        2,
        "",
        (
            "usage: primewheel [-h] {coeffs,gen,count,verify,bench,oracle} ...\n"
            "primewheel: error: argument command: invalid choice: 'bogus' "
            "(choose from 'coeffs', 'gen', 'count', 'verify', 'bench', 'oracle')\n"
        ),
    ),
    ("gen", "--r", "x"): (
        2,
        "",
        (
            "usage: primewheel gen [-h] --r R --lo LO --hi HI [--explain]\n"
            "                      [--format {text,csv,json-lines}]\n"
            "primewheel gen: error: argument --r: invalid int value: 'x'\n"
        ),
    ),
    ("gen", "--r", "3"): (
        2,
        "",
        (
            "usage: primewheel gen [-h] --r R --lo LO --hi HI [--explain]\n"
            "                      [--format {text,csv,json-lines}]\n"
            "primewheel gen: error: the following arguments are required: --lo, --hi\n"
        ),
    ),
    ("verify", "--r", "3"): (
        2,
        "",
        (
            "usage: primewheel verify [-h] --r R [--n N] [--s S] [--e E] [--k K]\n"
            "                         [--bound BOUND] [--format {text,csv,json-lines}]\n"
            "                         [--budget BUDGET]\n"
            "                         {theorem1,corollary2,identity25,identity26}\n"
            "primewheel verify: error: the following arguments are required: claim\n"
        ),
    ),
    ("count", "--r", "3", "--block", "--pi-approx"): (
        2,
        "",
        (
            "usage: primewheel count [-h] --r R [--block | --pi-approx] [--lo LO] [--hi HI]\n"
            "                        [--format {text,csv,json-lines}] [--budget BUDGET]\n"
            "primewheel count: error: argument --pi-approx: not allowed with argument --block\n"
        ),
    ),
}


@pytest.mark.parametrize("argv", list(USAGE), ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage(argv):
    env = {**os.environ, "COLUMNS": "80"}
    done = subprocess.run(
        [sys.executable, "-m", "primewheel", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == USAGE[argv]
