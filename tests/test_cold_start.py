"""What a fresh primewheel process loads, and the frozen records that replaced dataclasses.

Each subcommand runs cli.main in its own interpreter, which reports the
modules that were not loaded before primewheel was imported. The record
literals below (reprs, equality across classes, hashing, refused
assignment) and the package's public names are those of the
@dataclass(frozen=True) records and the eagerly importing package they
replaced.
"""

import copy
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
    factor_profile,
    solve_unit,
    sorted_block_residues,
)

SRC = str(Path(primewheel.__file__).resolve().parents[1])

# Runs {body} and prints the modules it newly loaded, one per line, on stderr.
_REPORT = """import sys
before = set(sys.modules)
{body}
sys.stderr.write("\\n".join(sorted(set(sys.modules) - before)))
"""


def _loaded(body: str, *argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PRIMEWHEEL_SCAN_BUDGET", None)
    done = subprocess.run(
        [sys.executable, "-c", _REPORT.format(body=body), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split("\n"))


def _run_main(*argv: str) -> set[str]:
    body = "from primewheel import cli\nassert cli.main(sys.argv[1:]) == 0\nsys.stdout.flush()"
    return _loaded(body, *argv)


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
    "factor_profile", "form_from_json", "form_to_json", "is_k_almost", "nth_solution",
    "omega", "omega_sieve", "oracle", "pi_approx", "primes_in", "rough_sieve",
    "search_identity25", "solve_linear", "solve_unit", "sorted_block_residues", "spf",
    "theorem1_interval", "theorems", "verify_corollary2", "verify_theorem1", "wheel",
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
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", body], env=env, capture_output=True, text=True, timeout=60
    ).stdout
    assert out == f"{ALL}\n"


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
