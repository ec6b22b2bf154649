"""What a fresh primewheel process loads and how it exits, and the frozen
records that replaced dataclasses.

Each subcommand runs cli.main in its own interpreter, which reports the
modules that were not loaded before primewheel was imported. The process
entry point, and only it, freezes the collector before exit. The record
literals below (reprs, equality across classes, hashing, refused
assignment) and the package's public names are those of the
@dataclass(frozen=True) records and the eagerly importing package they
replaced.
"""

import copy
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import primewheel
from primewheel import (
    Counterexample,
    FactorProfile,
    IntervalSpec,
    PrimeBasis,
    SolutionFamily,
    VerificationReport,
    build_canonical,
    build_coprime_wheel,
    build_raw,
    check_identity26,
    count_block,
    factor_profile,
    solve_unit,
    sorted_block_residues,
)


# Runs {body} and prints the modules it newly loaded, one per line, on stderr.
_REPORT = """import sys
before = set(sys.modules)
{body}
sys.stderr.write("\\n".join(sorted(set(sys.modules) - before)))
"""


def _loaded(body: str, *argv: str, flags: tuple[str, ...] = ()) -> set[str]:
    done = subprocess.run(
        [sys.executable, *flags, "-c", _REPORT.format(body=body), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split("\n"))


_MAIN = "from primewheel import cli\nassert cli.main(sys.argv[1:]) == 0\nsys.stdout.flush()"
# Fails the run if a loaded module defines the raw form, that is, compiled it.
_NO_RAW_FORM = (
    "assert not [m for m in list(sys.modules.values()) if 'RawWheelForm' in vars(m)]"
)


def _run_main(*argv: str, flags: tuple[str, ...] = ()) -> set[str]:
    return _loaded(_MAIN, *argv, flags=flags)


PAPER_ONLY = {"primewheel.theorems", "primewheel.oracle", "dataclasses", "fractions"}


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--r", "4", "--lo", "1", "--hi", "500"),
        ("gen", "--r", "4", "--lo", "1", "--hi", "500", "--format", "csv"),
        ("gen", "--r", "4", "--lo", "1", "--hi", "500", "--explain"),
    ],
)
def test_gen_loads_only_the_form_and_its_stream(argv):
    loaded = _run_main(*argv)
    assert {"primewheel.cli", "primewheel.wheel", "primewheel.enumeration"} <= loaded
    assert not loaded & (PAPER_ONLY | {"json"})


@pytest.mark.parametrize("fmt", ["text", "csv", "json-lines"])
def test_count_interval_loads_no_claim_checker(fmt):
    loaded = _run_main("count", "--r", "5", "--lo", "1", "--hi", "10000", "--format", fmt)
    assert "primewheel.enumeration" in loaded
    assert not loaded & PAPER_ONLY


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--r", "4", "--lo", "1", "--hi", "500"),
        ("gen", "--r", "4", "--lo", "1", "--hi", "500", "--format", "csv"),
        ("gen", "--r", "4", "--lo", "1", "--hi", "500", "--format", "json-lines"),
        ("count", "--r", "5", "--lo", "1", "--hi", "10000"),
        ("count", "--r", "5", "--block"),
    ],
    ids=" ".join,
)
def test_stream_and_count_compile_neither_the_raw_form_nor_the_solver(argv):
    loaded = _loaded(f"{_MAIN}\n{_NO_RAW_FORM}", *argv)
    assert "primewheel.enumeration" in loaded
    assert not loaded & {"primewheel.forms", "primewheel.diophantine"}


@pytest.mark.parametrize(
    "argv",
    [("verify", "theorem1", "--r", "3", "--n", "2"), ("verify", "corollary2", "--r", "3")],
    ids=" ".join,
)
def test_window_claims_compile_no_raw_form(argv):
    loaded = _loaded(f"{_MAIN}\n{_NO_RAW_FORM}", *argv)
    assert "primewheel.theorems" in loaded
    assert not loaded & {"primewheel.forms", "primewheel.diophantine"}


def test_gen_without_site_loads_no_typing():
    loaded = _run_main("gen", "--r", "4", "--lo", "1", "--hi", "500", flags=("-S",))
    assert "primewheel.enumeration" in loaded
    assert "typing" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--r", "4", "--lo", "1", "--hi", "500", "--explain", "--format", "csv"),
        ("count", "--r", "5", "--lo", "1", "--hi", "10000"),
        ("verify", "theorem1", "--r", "3", "--n", "2", "--budget", "1000"),
        ("oracle", "scan", "--lo", "1", "--hi", "500", "--r", "3"),
        ("coeffs", "4", "--raw", "--format", "json-lines"),
        ("bench", "--r", "3", "--width", "1000", "--reps", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_well_formed_command_line_loads_no_argparse(argv):
    loaded = _run_main(*argv)
    assert "primewheel.cli" in loaded
    assert not loaded & {"argparse", "gettext", "locale"}


def test_bench_imports_the_oracle_before_its_first_timer():
    # Each time.perf_counter call records whether the oracle is loaded yet,
    # so no timed sieve row includes its import.
    body = (
        "import time\n"
        "timer, loaded = time.perf_counter, []\n"
        "time.perf_counter = lambda: loaded.append('primewheel.oracle' in sys.modules) or timer()\n"
        f"{_MAIN}\n"
        "assert loaded and all(loaded), loaded"
    )
    loaded = _loaded(body, "bench", "--r", "3", "--width", "1000", "--reps", "3")
    assert "primewheel.oracle" in loaded


def test_python_m_primewheel_exits_with_the_collector_frozen():
    # run_module with alter_sys runs the package's __main__ as -m does.
    body = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('frozen %d' % gc.get_freeze_count()))\n"
        "runpy.run_module('primewheel', run_name='__main__', alter_sys=True)"
    )
    done = subprocess.run(
        [sys.executable, "-c", body, "count", "--r", "3", "--block"],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "phi=8 interior=7\n")
    label, count = done.stderr.split()
    assert label == "frozen" and int(count) > 0


def test_only_the_process_entry_point_freezes_the_collector(capsys, monkeypatch):
    from primewheel import cli

    before = gc.get_freeze_count()
    assert cli.main(["count", "--r", "3", "--block"]) == 0
    assert gc.get_freeze_count() == before
    monkeypatch.setattr(sys, "argv", ["primewheel", "count", "--r", "3", "--block"])
    try:
        with pytest.raises(SystemExit) as done:
            cli.run()
        assert done.value.code == 0 and gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr() == ("phi=8 interior=7\n" * 2, "")


def test_verify_theorem1_loads_no_dataclasses_or_fractions():
    loaded = _run_main("verify", "theorem1", "--r", "3", "--n", "2")
    assert {"primewheel.theorems", "primewheel.oracle"} <= loaded
    assert not loaded & {"dataclasses", "fractions"}


def test_no_module_of_the_package_imports_dataclasses():
    names = sorted(p.stem for p in Path(primewheel.__file__).parent.glob("*.py"))
    body = "\n".join(f"import primewheel.{n}" for n in names if n != "__main__")
    loaded = _loaded(body)
    assert "primewheel.cli" in loaded and "primewheel.theorems" in loaded
    assert "dataclasses" not in loaded


def test_import_primewheel_loads_no_submodule():
    loaded = _loaded("import primewheel")
    assert {m for m in loaded if m.startswith("primewheel")} == {"primewheel"}


ALL = [
    "BlockCount", "BudgetExceeded", "CanonicalWheelForm", "CoprimeWheelForm",
    "Counterexample", "FactorProfile", "IntervalSpec", "PrimeBasis", "RawWheelForm",
    "SolutionFamily", "VerificationReport", "bertrand_condition", "build_canonical",
    "build_coprime_wheel", "build_raw", "canonicalize", "check_identity26", "compare_pi",
    "coprime_scan", "count_block", "count_interval", "decompose", "diophantine",
    "enumerate_interval", "enumeration", "errors", "evaluate", "evaluate_raw",
    "factor_profile", "form_from_json", "form_to_json", "forms", "nth_solution", "omega",
    "oracle", "pi_approx", "primes_in", "search_identity25", "sieve_segments", "solve_linear",
    "solve_unit", "sorted_block_residues", "theorem1_interval", "theorems",
    "verify_corollary2", "verify_theorem1", "wheel",
]


def test_public_names():
    assert primewheel.__all__ == ALL
    assert set(ALL) <= set(dir(primewheel))
    namespace = {}
    exec("from primewheel import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == ALL
    from primewheel import oracle

    assert oracle is sys.modules["primewheel.oracle"]
    with pytest.raises(AttributeError):
        primewheel.no_such_name


def test_dir_of_a_fresh_package():
    body = "import primewheel\nprint([n for n in dir(primewheel) if not n.startswith('_')])"
    out = subprocess.run(
        [sys.executable, "-c", body], capture_output=True, text=True, timeout=60
    ).stdout
    assert out == f"{ALL}\n"


def test_the_suite_and_its_children_see_no_primewheel_variable_and_import_this_checkout():
    # tests/conftest.py clears PRIMEWHEEL_* and sets PYTHONPATH for the whole session.
    assert not [k for k in os.environ if k.startswith("PRIMEWHEEL_")]
    body = "import os, primewheel\nprint([k for k in os.environ if 'PRIMEWHEEL_' in k])\n"
    body += "print(primewheel.__file__)"
    done = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True, timeout=60)
    init = Path(__file__).resolve().parents[1] / "src" / "primewheel" / "__init__.py"
    assert (done.stdout, done.stderr) == (f"[]\n{init}\n", "")


BASIS = PrimeBasis.first(3)
RECORDS = [
    (BASIS, "PrimeBasis(primes=(2, 3, 5))"),
    (
        build_raw(BASIS),
        "RawWheelForm(basis=PrimeBasis(primes=(2, 3, 5)), solutions=((1, 1), (5, 4)))",
    ),
    (
        build_coprime_wheel([4, 9, 5], h1=1),
        "CoprimeWheelForm(moduli=(4, 9, 5), pinned_h1=1)",
    ),
    (
        build_canonical(BASIS),
        "CanonicalWheelForm(moduli=(2, 3, 5), pinned_h1=1)",
    ),
    (IntervalSpec(1, 5), "IntervalSpec(lo=1, hi=5)"),
    (count_block(BASIS), "BlockCount(phi=8, interior=7)"),
    (solve_unit(3, BASIS), "SolutionFamily(a=5, b=6, c=1, base_x=5, base_y=4)"),
    (factor_profile(12), "FactorProfile(n=12, omega=3, spf=2, factors=(2, 2, 3))"),
    (Counterexample(12, "x"), "Counterexample(value=12, reason='x')"),
    (
        VerificationReport("c", "pass", 1, 1),
        "VerificationReport(claim='c', verdict='pass', checked=1, witnesses_pass=1, "
        "interval=None, counterexamples=(), details={})",
    ),
    (
        check_identity26(PrimeBasis.first(4), 2),
        "VerificationReport(claim='identity26[r=4,e=2,k=0]', verdict='pass', checked=1, "
        "witnesses_pass=1, interval=None, counterexamples=(), details={'lhs': '70', "
        "'rhs': '-4550', 'modulus': '210', 'lhs_residue': '70', 'rhs_residue': '70'})",
    ),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_record_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_record_equality_hash_and_copies(record, text):
    twin = copy.deepcopy(record)
    assert twin == record and not twin != record and twin is not record
    assert pickle.loads(pickle.dumps(record)) == record
    assert record != text and record != None  # noqa: E711
    if isinstance(record, VerificationReport):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(record._values())


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_record_refuses_assignment_and_deletion(record, text):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unlisted = 1
    assert repr(record) == text


def test_hash_is_the_hash_of_the_fields():
    assert hash(IntervalSpec(1, 5)) == hash((1, 5))
    assert hash(BASIS) == hash(((2, 3, 5),))


def test_equality_only_within_one_class():
    canonical = build_canonical(BASIS)
    coprime = build_coprime_wheel([2, 3, 5], h1=1)
    assert canonical._values() == coprime._values()
    assert canonical != coprime and coprime != canonical
    assert canonical == build_canonical(PrimeBasis.first(3))
    # The canonical form keeps its basis, and refuses to swap it.
    assert canonical.basis == BASIS
    with pytest.raises(AttributeError):
        canonical.basis = PrimeBasis.first(4)


def test_construction_defaults_and_validation():
    assert IntervalSpec(lo=1, hi=5) == IntervalSpec(1, hi=5) == IntervalSpec(1, 5)
    assert SolutionFamily(5, 6, 1, base_x=5, base_y=4) == solve_unit(3, BASIS)
    first, second = VerificationReport("c", "pass", 1, 1), VerificationReport("c", "pass", 1, 1)
    assert first.details == {} and first.details is not second.details
    assert VerificationReport("c", "pass", 1, 1, details=None) == first
    assert first.interval is None and first.counterexamples == ()
    with pytest.raises(ValueError, match="lo must be < hi"):
        IntervalSpec(5, 1)
    with pytest.raises(ValueError, match="base solution"):
        SolutionFamily(5, 6, 1, 5, 5)
    for bad in [(1,), (1, 2, 3)]:
        with pytest.raises(TypeError):
            IntervalSpec(*bad)
    with pytest.raises(TypeError):
        IntervalSpec(1, hi=2, lo=3)
    with pytest.raises(TypeError):
        IntervalSpec(1, 5, width=4)


def test_cached_properties_and_cache_keys():
    basis = PrimeBasis.first(4)
    assert basis.primorial == 210 and vars(basis)["primorial"] == 210
    form = build_canonical(basis)
    table = sorted_block_residues(form)
    # The table keeps no cache: each call sieves its period afresh.
    again = sorted_block_residues(build_canonical(PrimeBasis.first(4)))
    assert again == table and again is not table
    assert not hasattr(sorted_block_residues, "cache_info")
