"""Budget refusals: scans, sieves, the identity25 grid, the trial-division
probes, count's inclusion-exclusion terms and coeffs' coefficient bits."""

import ast
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from primewheel import diophantine, errors, oracle, theorems, wheel
from primewheel.cli import SCAN_BUDGET_ENV, main
from primewheel.errors import BudgetExceeded
from primewheel.theorems import search_identity25
from primewheel.wheel import PrimeBasis


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _assert_one_knob_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--budget" in err and SCAN_BUDGET_ENV in err


def test_identity25_refuses_its_grid_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("solved unit equations before the grid was checked")

    monkeypatch.setattr(diophantine, "solve_unit", no_work)
    code, out, err = run(capsys, "verify", "identity25", "--r", "10", "--bound", "50")
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert str(51**8) in err


def test_identity25_budget_flag_sets_the_row_limit(capsys):
    argv = ("verify", "identity25", "--r", "4", "--bound", "40")
    code, out, err = run(capsys, *argv, "--budget", "1680")
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    code, out, _ = run(capsys, *argv, "--budget", "1681", "--format", "json-lines")
    assert code == 1
    report = json.loads(out)
    assert report["checked"] == 41**3
    assert report["details"]["certificate"] == {"prime": "3", "xr_residue": "1"}


def test_identity25_library_budget():
    with pytest.raises(BudgetExceeded) as info:
        search_identity25(PrimeBasis.first(5), 40, budget=41**3 - 1)
    assert info.value.required == 41**3
    report = search_identity25(PrimeBasis.first(5), 40, budget=41**3)
    assert report.checked == 41**4
    assert report.details["certificate"] == {"prime": "3", "xr_residue": "2"}


@pytest.mark.parametrize("probe", ["omega", "spf", "factor"])
def test_trial_division_probes_check_the_root_first(capsys, monkeypatch, probe):
    def no_work(*args):
        raise AssertionError("trial-divided before the budget was checked")

    monkeypatch.setattr(oracle, "factor_profile", no_work)
    code, out, err = run(capsys, "oracle", probe, "--n", "1000000016000000063")
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert "1000000007" in err


def test_trial_division_budget_is_the_square_root(capsys):
    code, _, _ = run(capsys, "oracle", "omega", "--n", "1000000", "--budget", "999")
    assert code == 3
    code, out, _ = run(capsys, "oracle", "omega", "--n", "1000000", "--budget", "1000")
    assert (code, out) == (0, "12\n")
    code, out, _ = run(capsys, "oracle", "omega", "--n", "720720")
    assert (code, out) == (0, "10\n")


@pytest.mark.parametrize("probe,n", [("omega", "0"), ("factor", "-4"), ("spf", "1")])
def test_trial_division_probes_keep_their_usage_errors(capsys, probe, n):
    code, out, err = run(capsys, "oracle", probe, "--n", n)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "budget" not in err


@pytest.mark.parametrize(
    "argv,what,setup",
    [
        (("verify", "theorem1", "--r", "3", "--n", "8"), "omega sieve", None),
        (("oracle", "scan", "--lo", "1", "--hi", "100", "--budget", "5"), "coprime scan", None),
        (("bench", "--r", "3", "--width", "300000000"), "rough sieve", None),
        (("count", "--r", "3", "--pi-approx", "--budget", "5"), "prime sieve", None),
        (("oracle", "primes", "--lo", "1", "--hi", "100", "--budget", "5"), "prime sieve", None),
        (("verify", "theorem1", "--r", "3", "--n", "2", "--budget", "100"), "omega sieve", None),
        (("coeffs", "928"), "coefficient bits", None),
        (("coeffs", "156", "--raw"), "coefficient bits", None),
        (("count", "--r", "25", "--lo", "1", "--hi", "100000000"),
         "inclusion-exclusion over 24 axes", None),
        (("count", "--r", "5", "--lo", "1", "--hi", "100", "--budget", "15"),
         "inclusion-exclusion over 4 axes", None),
        (("verify", "identity26", "--r", "155", "--e", "2"), "coefficient bits", None),
        (("verify", "identity26", "--r", "5", "--budget", "1"), "coefficient bits", None),
    ],
)
def test_scan_refusals_name_their_knob(capsys, monkeypatch, argv, what, setup):
    if setup:
        setup(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert err.startswith(f"error: {what} needs ")


def _budget_labels():
    """The label of every check_budget call in the package, with an f-string's fields as k."""
    labels = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_budget":
                what = node.args[2]
                parts = what.values if isinstance(what, ast.JoinedStr) else [what]
                labels.add("".join(
                    part.value if isinstance(part, ast.Constant) else "k" for part in parts
                ))
    return labels


def test_every_budget_label_has_a_row_in_the_readme_cap_table():
    readme = (Path(errors.__file__).parents[2] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    named = {label for row in rows for label in re.findall(r"`([^`]+)`", row.split("|")[1])}
    labels = _budget_labels()
    assert "inclusion-exclusion over k axes" in labels and "omega sieve bits" in labels
    assert labels <= named, labels - named


def _cap_table_examples():
    """(label, example) for every backticked CLI example in the README cap table."""
    readme = (Path(errors.__file__).parents[2] / "README.md").read_text()
    for row in readme.splitlines():
        cells = row.split("|")
        if row.startswith("| `") and "library only" not in cells[-2]:
            label = re.findall(r"`([^`]+)`", cells[1])[0]
            for example in re.findall(r"`([^`]+)`", cells[-2]):
                yield label, example


def test_every_cli_example_in_the_readme_cap_table_is_refused_by_its_row(capsys, monkeypatch):
    monkeypatch.delenv(SCAN_BUDGET_ENV, raising=False)
    examples = list(_cap_table_examples())
    assert len(examples) >= 13
    for label, example in examples:
        code, out, err = run(capsys, *shlex.split(example))
        what = re.sub(r"\bk\b", r"\\d+", re.escape(label))
        assert code == 3 and re.match(f"error: {what} needs ", err), (example, err)


def test_refusal_past_the_int_string_limit_names_its_knob(capsys):
    # (10^600 + 1)^8 grid rows are 4,801 digits (15,946 bits), past the
    # 4,300-digit limit on int-to-str conversion.
    bound = str(10**600)
    code, out, err = run(capsys, "verify", "identity25", "--r", "10", "--bound", bound)
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert err.startswith("error: identity25 grid needs a number of 15946 bits but the budget is ")


def test_a_large_identity25_grid_is_refused_before_it_is_built(capsys, monkeypatch):
    # (10^999 + 1)^5998 rows would be a number of 19,905,000 bits, about 5 s and
    # 12 MB to build; the lower bound on its bits refuses it first.
    monkeypatch.delenv(SCAN_BUDGET_ENV, raising=False)
    run(capsys, "verify", "identity25", "--r", "3", "--bound", "1")  # imports, outside the trace
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "identity25", "--r", "6000", "--bound", str(10**999))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    _assert_one_knob_error(err)
    assert err.startswith("error: identity25 grid needs a number of at least 19901365 bits but ")
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("seed", range(4))
def test_identity25_grid_bound_refuses_only_grids_over_budget(monkeypatch, seed):
    # With no grid built for its message, the lower bound on the bits of
    # (bound + 1)^(r - 2) alone must refuse exactly the grids over budget.
    monkeypatch.setattr(theorems, "GRID_BUILD_BITS", 0)
    rng = random.Random(seed)
    for _ in range(200):
        r, bound = rng.randrange(3, 12), rng.choice([0, 1, 2, 3, rng.randrange(1 << 12)])
        budget = rng.choice([1, 2, 3, rng.randrange(1 << rng.randrange(1, 80))])
        rows, low = (bound + 1) ** (r - 2), (r - 2) * ((bound + 1).bit_length() - 1) + 1
        try:
            search_identity25(PrimeBasis.first(r), bound, budget)
        except BudgetExceeded as exc:
            assert rows > budget, (r, bound, budget)
            assert exc.required == rows or exc.required == low <= rows.bit_length()
        else:
            assert rows <= budget, (r, bound, budget)


@pytest.mark.parametrize(
    "argv",
    [
        ("theorem1", "--r", "3", "--n", "100000000000"),
        ("corollary2", "--r", "3", "--s", "2", "--n", "100000000000"),
    ],
)
def test_a_claim_window_past_the_bit_cap_is_refused_before_it_is_built(argv):
    # (n + 1) * bits(p) is within the budget of 10^12, but p^(10^11) would take
    # tens of gigabytes: under a 1 GB address space the child exits 3 at once
    # only if the bit cap refuses n before the power is taken.
    import resource  # POSIX only, like preexec_fn

    def one_gigabyte():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(theorems.__file__).resolve().parents[1])}
    env.pop(SCAN_BUDGET_ENV, None)
    done = subprocess.run(
        [sys.executable, "-m", "primewheel", "verify", *argv, "--budget", str(10**12)],
        env=env, capture_output=True, text=True, timeout=5, preexec_fn=one_gigabyte,
    )
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert done.stderr.startswith("error: omega sieve bits needs ") and done.stderr.count("\n") == 1
    assert "--budget" not in done.stderr


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "300"),
        ("coeffs", "300", "--format", "json-lines"),
        ("coeffs", "300", "--format", "csv"),
        ("coeffs", "40", "--raw"),
    ],
)
def test_coeffs_prints_past_the_int_string_limit(capsys, argv):
    # At the lowest limit the interpreter allows, the r = 300 primorial
    # (833 digits) and the r = 40 raw coefficients (up to 1,174) are past it.
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = run(capsys, *argv)
        sys.set_int_max_str_digits(640)
        got = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)
    assert want[0] == 0 and len(want[1]) > 640
    assert got == want


def test_refusal_messages_of_ordinary_sizes_are_unchanged():
    message = str(BudgetExceeded(required=10**4300 - 1, budget=10))
    assert message == (
        f"scan needs {10**4300 - 1} but the budget is 10; raise --budget or "
        f"{SCAN_BUDGET_ENV} to at least {10**4300 - 1} to run this"
    )
    assert str(BudgetExceeded(10**4300, 10**5000)).startswith(
        "scan needs a number of 14285 bits but the budget is a number of 16610 bits; "
    )


def test_refusal_sizes_are_decimal_below_the_limit_and_bit_lengths_from_it():
    # Powers of ten and their neighbours sit where the wording steps.
    near = [10**k + d for k in (4299, 4300, 4301, 5000, 9999, 20000) for d in (-1, 0, 1)]
    rng = random.Random(4300)
    widths = rng.sample(range(14_300, 70_000), 30)
    far = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in widths]
    for n in near + far:
        want = str(n) if n < 10**4300 else f"a number of {n.bit_length()} bits"
        assert errors._size(n) == want, n


def test_refusal_size_builds_no_integer():
    n = 1 << 20_000_000
    errors._size(1)  # the module's constants, outside the trace
    tracemalloc.start()
    try:
        # Its digit count would take a 2.5 MB power of ten to find.
        assert errors._size(n) == "a number of 20000001 bits"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--r", "4", "--lo", "-5", "--hi", "3"),
        ("count", "--r", "4", "--lo", "9", "--hi", "3"),
        ("count", "--r", "4", "--lo", "9"),
        ("verify", "theorem1", "--r", "4", "--n", "0"),
        ("verify", "corollary2", "--r", "4", "--s", "0"),
        ("verify", "corollary2", "--r", "4", "--n", "-1"),
        ("bench", "--r", "4", "--lo", "-5", "--width", "10"),
        ("verify", "identity26", "--r", "4", "--e", "1"),
        ("verify", "identity26", "--r", "4", "--e", "4"),
        ("verify", "identity25", "--r", "2"),
        ("verify", "identity25", "--r", "4", "--bound", "-1"),
    ],
)
def test_cheap_arguments_are_checked_before_the_basis(capsys, monkeypatch, argv):
    def no_basis(r):
        raise AssertionError("proved the basis primes before checking the arguments")

    monkeypatch.setattr(wheel, "_first_primes", no_basis)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_corollary2_with_a_large_shift_finds_its_primes_with_one_sieve():
    # p_{r+s} comes from one sieve up to about 2.9M, well inside the
    # default budget; the window [p, p^2) past it is then refused.
    env = {**os.environ, "PYTHONPATH": str(Path(theorems.__file__).resolve().parents[1])}
    env.pop(SCAN_BUDGET_ENV, None)
    argv = ["verify", "corollary2", "--r", "3", "--s", "200000", "--n", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "primewheel", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert (done.returncode, done.stdout) == (3, "")
    _assert_one_knob_error(done.stderr)
    assert done.stderr.startswith("error: omega sieve needs ")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "theorem1", "--r", "3", "--n", "1", "--budget", "42"),
        ("verify", "corollary2", "--r", "3", "--s", "2", "--n", "1", "--budget", "110"),
    ],
)
def test_n1_report_needs_only_its_window_and_omega_sieve_budgets(capsys, monkeypatch, argv):
    # The n = 1 primes are read from the Omega sieve, so a budget below hi
    # that covers the window's width is enough.
    monkeypatch.delenv(SCAN_BUDGET_ENV, raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out) == run(capsys, *argv[:-2])[:2]


@pytest.mark.parametrize(
    "call",
    [
        lambda budget: theorems.theorem1_interval(PrimeBasis.first(3), 1, budget=budget),
        lambda budget: theorems.bertrand_condition(3, 2, 1, budget=budget),
        lambda budget: theorems.pi_approx(PrimeBasis.first(3), budget=budget),
        lambda budget: theorems.verify_theorem1(PrimeBasis.first(3), 1, budget=budget),
    ],
    ids=["theorem1_interval", "bertrand_condition", "pi_approx", "verify_theorem1"],
)
def test_the_caller_budget_reaches_the_next_prime_sieve(call):
    # p_4 = 7 is found by a sieve below _prime_bound(4) = 12, which is
    # refused before the window [7, 49) is.
    with pytest.raises(BudgetExceeded, match="^prime sieve needs 12 "):
        call(11)


def test_compare_pi_checks_its_sieve_before_the_density_formula(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("took the density products before the sieve was checked")

    monkeypatch.setattr(theorems, "_density_estimate", no_work)
    with pytest.raises(BudgetExceeded, match="^prime sieve needs 49 "):
        theorems.compare_pi(PrimeBasis.first(3), budget=48)


@pytest.mark.parametrize("r", ["0", "2"])
def test_identity26_refuses_a_basis_too_small_before_its_e(capsys, r):
    code, out, err = run(capsys, "verify", "identity26", "--r", r, "--e", "11")
    assert (code, out, err) == (2, "", "error: the identity needs r >= 3\n")


def _decimal(n):
    """str(n) at any size, restoring the interpreter's digit limit after."""
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        return str(n)
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_count_prints_phi_past_the_int_string_limit(capsys):
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "--r", "1500", "--block")
    assert sys.get_int_max_str_digits() == before
    phi = _decimal(math.prod(p - 1 for p in PrimeBasis.first(1500).primes))
    assert (code, err) == (0, "") and len(phi) > 4300
    assert out.startswith(f"phi={phi} interior=")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_identity26_prints_its_sides_past_the_int_string_limit(capsys):
    argv = ("verify", "identity26", "--r", "400", "--e", "2", "--budget", "300000000")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    # A_2 is below the ~1,200-digit primorial; the raw side -B_2 is far past the limit.
    rhs = next(line for line in out.splitlines() if line.startswith("detail rhs: "))
    assert len(rhs) > 4300 and "verdict: pass" in out.splitlines()
