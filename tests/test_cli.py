import json
import math
import subprocess
import sys
import tracemalloc
from itertools import chain

import pytest

from primewheel import cli, oracle
from primewheel.cli import SCAN_BUDGET_ENV, main
from primewheel.enumeration import MAX_BLOCK_RESIDUES, IntervalSpec
from primewheel.theorems import verify_theorem1
from primewheel.forms import evaluate, form_from_json
from primewheel.wheel import PrimeBasis, build_canonical

COEFFS_TEXT = {
    1: "2t + 1",
    2: "6t + 4h2 + 3",
    3: "30t + 6h3 + 10h2 + 15",
    4: "210t + 120h4 + 126h3 + 70h2 + 105",
    5: "2310t + 210h5 + 330h4 + 1386h3 + 1540h2 + 1155",
    6: "30030t + 6930h6 + 16380h5 + 25740h4 + 6006h3 + 20020h2 + 15015",
    7: (
        "510510t + 450450h7 + 157080h6 + 46410h5 + 145860h4 + 306306h3 "
        "+ 170170h2 + 255255"
    ),
    8: (
        "9699690t + 9189180h8 + 9129120h7 + 3730650h6 + 6172530h5 "
        "+ 8314020h4 + 3879876h3 + 3233230h2 + 4849845"
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("r", sorted(COEFFS_TEXT))
def test_coeffs_text_golden(capsys, r):
    code, out, err = run(capsys, "coeffs", str(r))
    assert code == 0
    assert out == COEFFS_TEXT[r] + "\n"
    assert err == ""


def test_coeffs_raw_golden(capsys):
    code, out, _ = run(capsys, "coeffs", "3", "--raw")
    assert code == 0
    assert out == "30t + 24(h3-1) + 50(h2-1) - 1\n"


def test_coeffs_csv_golden(capsys):
    code, out, _ = run(capsys, "coeffs", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "term,coefficient",
        "t,30",
        "h3,6",
        "h2,10",
        "constant,15",
    ]


def test_coeffs_json_reconstructs_the_form(capsys):
    code, out, _ = run(capsys, "coeffs", "5", "--format", "json-lines")
    assert code == 0
    form = form_from_json(json.loads(out))
    assert form == build_canonical(PrimeBasis.first(5))


def test_coeffs_r_cap(capsys):
    # coeffs is capped by a bound on its coefficient bits, not by r.
    code, out, _ = run(capsys, "coeffs", "60")
    assert code == 0
    assert out.startswith("2464790648711579")
    assert out.count(" + ") == 60  # h60..h2 plus the constant
    code, out, err = run(capsys, "coeffs", "928")
    assert (code, out) == (3, "")
    assert err.startswith("error: coefficient bits needs ") and "--budget" in err
    code, out, _ = run(capsys, "coeffs", "928", "--budget", "20000000")
    assert code == 0
    assert out.count(" + ") == 928
    # Usage errors come before the budget, however small it is.
    for argv, message in [(("0",), "r must be at least 1"), (("2", "--raw"), "closed forms")]:
        code, out, err = run(capsys, "coeffs", *argv, "--budget", "1")
        assert (code, out) == (2, "") and message in err


def test_gen_plain_golden(capsys):
    code, out, _ = run(capsys, "gen", "--r", "3", "--lo", "7", "--hi", "49")
    assert code == 0
    assert [int(line) for line in out.splitlines()] == [
        7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]


def test_gen_explain_golden(capsys):
    code, out, _ = run(capsys, "gen", "--r", "3", "--lo", "40", "--hi", "60", "--explain")
    assert code == 0
    assert out.splitlines() == [
        "41 t=0 h=[2,1]",
        "43 t=0 h=[1,3]",
        "47 t=0 h=[2,2]",
        "49 t=0 h=[1,4]",
        "53 t=0 h=[2,3]",
        "59 t=0 h=[2,4]",
    ]


def test_gen_explain_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "gen", "--r", "4", "--lo", "100", "--hi", "300",
        "--explain", "--format", "json-lines",
    )
    assert code == 0
    form = build_canonical(PrimeBasis.first(4))
    for line in out.splitlines():
        rec = json.loads(line)
        h = {j + 2: v for j, v in enumerate(rec["h"])}
        assert evaluate(form, rec["t"], h) == int(rec["z"])


def test_gen_explain_csv_header(capsys):
    code, out, _ = run(
        capsys, "gen", "--r", "3", "--lo", "40", "--hi", "50",
        "--explain", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z,t,h2,h3"
    assert lines[1] == "41,0,2,1"


def test_gen_rejects_empty_interval(capsys):
    code, _, err = run(capsys, "gen", "--r", "3", "--lo", "9", "--hi", "9")
    assert code == 2
    assert "lo must be < hi" in err


def _r12_scan():
    return oracle.coprime_scan(IntervalSpec(0, 100), PrimeBasis.first(12).primes)


def test_gen_large_r_exceeds_budget(capsys):
    # The r = 12 period table is past MAX_BLOCK_RESIDUES; gen streams without it.
    assert math.prod(p - 1 for p in PrimeBasis.first(12).primes) > MAX_BLOCK_RESIDUES
    code, out, err = run(capsys, "gen", "--r", "12", "--lo", "0", "--hi", "100")
    assert (code, err) == (0, "")
    assert out.splitlines() == [str(v) for v in _r12_scan()]


@pytest.mark.parametrize("fmt", ["text", "csv", "json-lines"])
def test_gen_refuses_large_r_before_any_output(capsys, fmt):
    # No r is refused: each format streams the oracle's values.
    code, out, err = run(capsys, "gen", "--r", "12", "--lo", "0", "--hi", "100", "--format", fmt)
    assert (code, err) == (0, "")
    lines = [str(v) for v in _r12_scan()]
    if fmt == "csv":
        lines = ["z", *lines]
    elif fmt == "json-lines":
        lines = [json.dumps({"z": v}) for v in lines]
    assert out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "argv",
    [("theorem1", "--r", "100", "--n", "1"), ("corollary2", "--r", "20", "--s", "2", "--n", "1")],
)
def test_claims_past_the_table_cap_pass_end_to_end(argv):
    done = subprocess.run(
        [sys.executable, "-m", "primewheel", "verify", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "verdict: pass" in done.stdout.splitlines()


def test_count_block_golden(capsys):
    code, out, _ = run(capsys, "count", "--r", "3", "--block")
    assert code == 0
    assert out == "phi=8 interior=7\n"


def test_count_pi_approx_golden(capsys):
    code, out, _ = run(capsys, "count", "--r", "3", "--pi-approx")
    assert code == 0
    assert out == "approx=14.433 exact=15 rel_error=0.0378\n"


def test_count_interval_golden(capsys):
    code, out, _ = run(capsys, "count", "--r", "4", "--lo", "1", "--hi", "211")
    assert code == 0
    assert out == "48\n"


@pytest.mark.parametrize("r", [9, 10])
def test_count_interval_past_the_table_cap(capsys, r):
    basis = PrimeBasis.first(r)
    for lo, hi in ((0, 1000), (10**7, 10**7 + 5000), (basis.primorial - 700, basis.primorial + 900)):
        code, out, err = run(capsys, "count", "--r", str(r), "--lo", str(lo), "--hi", str(hi))
        assert (code, err) == (0, "")
        assert int(out) == len(oracle.coprime_scan(IntervalSpec(lo, hi), basis))


def test_count_modes_are_exclusive(capsys):
    code, _, _ = run(capsys, "count", "--r", "3", "--block", "--pi-approx")
    assert code == 2


@pytest.mark.parametrize("mode", ["--block", "--pi-approx"])
@pytest.mark.parametrize("window", [["--lo", "5"], ["--hi", "9"], ["--lo", "5", "--hi", "9"]])
def test_count_block_and_pi_approx_refuse_a_window(capsys, mode, window):
    # r = 10^9 is past the basis limit (exit 3), so this exit 2 comes before the basis.
    for r in ("3", "1000000000"):
        code, out, err = run(capsys, "count", "--r", r, mode, *window)
        assert (code, out) == (2, "")
        assert err == "error: count --block and --pi-approx take no --lo or --hi\n"


def test_verify_theorem1_passes(capsys):
    code, out, _ = run(capsys, "verify", "theorem1", "--r", "3", "--n", "1")
    assert code == 0
    assert "verdict: pass" in out
    assert "interval: [7, 49)" in out
    assert "checked: 12" in out


def test_verify_identity25_not_found_is_nonzero(capsys):
    code, out, _ = run(capsys, "verify", "identity25", "--r", "3", "--bound", "5")
    assert code == 1
    assert "verdict: not-found-within-bound" in out
    assert "checked: 36" in out


def test_verify_corollary2_text_shows_informational_extras(capsys):
    code, out, _ = run(capsys, "verify", "corollary2", "--r", "3", "--s", "2", "--n", "1")
    assert code == 0
    assert "verdict: pass" in out
    assert '"49"' in out and '"119"' in out


def test_verify_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem1", "--r", "2", "--n", "1", "--format", "json-lines"
    )
    assert code == 0
    assert json.loads(out) == verify_theorem1(PrimeBasis.first(2), 1).to_json()


def test_bench_csv_shape(capsys):
    code, out, _ = run(capsys, "bench", "--r", "1", "--width", "100", "--reps", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,interval_width,values_emitted,wall_time"
    assert len(lines) == 3
    for line, method in zip(lines[1:], ("wheel", "sieve")):
        cells = line.split(",")
        assert cells[0] == method
        assert cells[1] == "100"
        assert cells[2] == "50"
        assert float(cells[3]) >= 0


def test_bench_mismatch_exits_1_with_one_stderr_line(capsys, monkeypatch):
    # The sieve side, then the wheel side, loses its first value.
    for module, name, counts in ((oracle, "coprime_segments", "1 extra, 0 missing"),
                                 (cli, "value_segments", "0 extra, 1 missing")):
        def first_dropped(*args, make=getattr(module, name)):
            segments = make(*args)
            seg, mask = next(segments)
            mask[mask.index(1)] = 0
            return chain([(seg, mask)], segments)

        monkeypatch.setattr(module, name, first_dropped)
        code, out, err = run(capsys, "bench", "--r", "3", "--width", "100", "--reps", "1")
        monkeypatch.undo()
        assert (code, out) == (1, "")
        assert err == f"mismatch between wheel enumeration and rough sieve: {counts}\n"


def test_bench_times_each_method_once_per_repetition(capsys, monkeypatch):
    # The first repetition's two maps are the mismatch check, and no run is untimed.
    calls = []
    value_segments, coprime_segments = cli.value_segments, oracle.coprime_segments

    def wheel(*args):
        calls.append("wheel")
        return value_segments(*args)

    def sieve(*args):
        calls.append("sieve")
        return coprime_segments(*args)

    monkeypatch.setattr(cli, "value_segments", wheel)
    monkeypatch.setattr(oracle, "coprime_segments", sieve)
    code, out, _ = run(capsys, "bench", "--r", "3", "--width", "100", "--reps", "2")
    assert code == 0
    assert calls == ["sieve", "wheel"] * 2
    assert [line.split(",")[:3] for line in out.splitlines()[1:]] == [
        ["wheel", "100", "26"], ["sieve", "100", "26"]
    ] * 2
    # Each side's map holds a byte per window integer. Two maps of the window and a
    # segment's masks fit the bound; two more, kept from the first repetition, do not.
    width = 10**6
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "bench", "--r", "3", "--width", str(width), "--reps", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * width + 4 * (1 << 20), peak


def test_bench_rejects_zero_width(capsys):
    code, _, err = run(capsys, "bench", "--r", "3", "--width", "0")
    assert code == 2
    assert "width" in err


def test_oracle_probes(capsys):
    code, out, _ = run(capsys, "oracle", "omega", "--n", "12")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "oracle", "spf", "--n", "49")
    assert (code, out) == (0, "7\n")
    code, out, _ = run(capsys, "oracle", "factor", "--n", "360")
    assert code == 0
    rec = json.loads(out)
    assert rec["omega"] == 6
    assert rec["factors"] == ["2", "2", "2", "3", "3", "5"]
    code, out, _ = run(capsys, "oracle", "primes", "--lo", "1", "--hi", "30")
    assert code == 0
    assert [int(v) for v in out.split()] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    code, out, _ = run(capsys, "oracle", "scan", "--lo", "0", "--hi", "10", "--moduli", "4,9")
    assert code == 0
    assert [int(v) for v in out.split()] == [1, 2, 3, 5, 6, 7]


@pytest.mark.parametrize("moduli", ["4,0", "1,9", "4,-3"])
def test_oracle_scan_rejects_moduli_below_two(capsys, moduli):
    code, out, err = run(capsys, "oracle", "scan", "--lo", "0", "--hi", "10", "--moduli", moduli)
    assert (code, out) == (2, "")
    assert err == "error: every modulus must be at least 2\n"


@pytest.mark.parametrize("claim", ["theorem1", "corollary2"])
def test_window_claims_name_n_when_they_refuse_it(capsys, claim):
    code, out, err = run(capsys, "verify", claim, "--r", "3", "--n", "0")
    assert (code, out, err) == (2, "", "error: n must be at least 1\n")


@pytest.mark.parametrize("moduli", ["3,,", "x", "4,9.5", ""])
def test_oracle_scan_names_the_flag_for_moduli_that_are_not_integers(capsys, moduli):
    code, out, err = run(capsys, "oracle", "scan", "--lo", "0", "--hi", "10", "--moduli", moduli)
    assert (code, out) == (2, "")
    assert err == f"error: --moduli must be comma-separated integers, got {moduli!r}\n"


def test_budget_env_var_limits_scans(capsys, monkeypatch):
    monkeypatch.setenv(SCAN_BUDGET_ENV, "10")
    code, _, err = run(capsys, "count", "--r", "3", "--pi-approx")
    assert code == 3
    assert "budget is 10" in err


def test_budget_flag_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv(SCAN_BUDGET_ENV, "10")
    code, out, _ = run(capsys, "count", "--r", "3", "--pi-approx", "--budget", "1000")
    assert code == 0
    assert out.startswith("approx=")


def test_bench_checks_its_budget_before_enumerating(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("bench enumerated before the sieve budget was checked")

    monkeypatch.setattr(cli, "value_segments", no_work)
    code, out, err = run(capsys, "bench", "--r", "3", "--width", "1000", "--budget", "10")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_flag_below_one_is_usage_error(capsys, budget):
    code, out, err = run(capsys, "count", "--r", "3", "--pi-approx", "--budget", budget)
    assert (code, out) == (2, "")
    assert err == f"error: --budget must be an integer of at least 1, got {budget}\n"


@pytest.mark.parametrize("value", ["-5", "ten"])
def test_budget_env_var_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv(SCAN_BUDGET_ENV, value)
    code, out, err = run(capsys, "verify", "theorem1", "--r", "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {SCAN_BUDGET_ENV} must be") and err.count("\n") == 1


def test_gen_takes_no_budget(capsys):
    code, out, _ = run(capsys, "gen", "--r", "3", "--lo", "0", "--hi", "10", "--budget", "5")
    assert (code, out) == (2, "")


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "coeffs", "3", "--sideways")
    assert code == 2
