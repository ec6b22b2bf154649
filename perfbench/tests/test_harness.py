import json
import random
import sys
import time

import pytest

import harness
import layers
import reference
import run
import tracer
import workloads
from primewheel import (
    IntervalSpec,
    PrimeBasis,
    build_canonical,
    decompose,
    oracle,
    sorted_block_residues,
)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs(workload):
    first = workloads.jobs_for(workload, 7)
    assert [j.argv for j in first] == [j.argv for j in workloads.jobs_for(workload, 7)]
    assert [j.argv for j in first] != [j.argv for j in workloads.jobs_for(workload, 8)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_mix_does_not_depend_on_seed(workload):
    def mix(seed):
        return sorted((j.kind, j.params.get("r"), j.params.get("n"),
                       j.params.get("hi", 0) - j.params.get("lo", 0) if j.kind == "gen" else 0)
                      for j in workloads.jobs_for(workload, seed))

    assert mix(1) == mix(2) == mix(3)


def _gen_case():
    job = workloads.gen_job(4, 1000, 1400, "text")
    stdout, _ = workloads.reference_stdout(job)
    return job, workloads.expect(job), stdout


def test_checker_accepts_reference_output():
    job, want, stdout = _gen_case()
    assert workloads.check(job, want, 0, stdout, b"") is None


@pytest.mark.parametrize("edit", ["drop", "duplicate", "extra"])
def test_checker_flags_value_errors(edit):
    job, want, stdout = _gen_case()
    lines = stdout.splitlines(keepends=True)
    if edit == "drop":
        lines = lines[:5] + lines[6:]
    elif edit == "duplicate":
        lines = lines[:5] + lines[5:6] + lines[5:]
    else:
        lines = lines + [b"1401\n"]
    assert workloads.check(job, want, 0, b"".join(lines), b"") is not None


def test_checker_flags_exit_code_and_traceback():
    job, want, stdout = _gen_case()
    assert "exit code" in workloads.check(job, want, 1, stdout, b"")
    crash = b"Traceback (most recent call last):\n  ...\nMemoryError\n"
    assert "traceback" in workloads.check(job, want, 0, stdout, crash)


def test_checker_budget_job_wants_one_error_line():
    job = workloads.verify_job("theorem1", "text", r=3, n=8)
    want = workloads.expect(job)
    assert want.code == 3
    line = b"error: coprime scan needs 34588806 but the budget is 10000000\n"
    assert workloads.check(job, want, 3, b"", line) is None
    assert workloads.check(job, want, 3, b"", line * 2) is not None
    assert workloads.check(job, want, 0, b"", b"") is not None


@pytest.fixture(scope="module")
def spawner():
    with harness.Spawner() as sp:
        yield sp


def test_checker_reads_reports_in_both_formats(spawner):
    for fmt in workloads.REPORT_FORMATS:
        job = workloads.verify_job("theorem1", fmt, r=3, n=2)
        want = workloads.expect(job)
        done = spawner.run(["-m", "primewheel", *job.argv])
        assert workloads.check(job, want, done.code, done.stdout, done.stderr) is None
        wrong = done.stdout.replace(b"78", b"77")
        assert workloads.check(job, want, done.code, wrong, done.stderr) is not None


def test_checker_flags_counterexamples_in_a_text_report(spawner):
    job = workloads.verify_job("theorem1", "text", r=3, n=2)
    done = spawner.run(["-m", "primewheel", *job.argv])
    listed = b"counterexamples:\n  - value=51 reason=x"
    flagged = done.stdout.replace(b"counterexamples: none", listed)
    assert workloads.check(job, workloads.expect(job), 0, flagged, b"") is not None


def test_inclusion_exclusion_matches_rough_sieve():
    rng = random.Random(5)
    for _ in range(40):
        r = rng.randrange(1, 8)
        lo = rng.randrange(0, 10**6)
        hi = lo + rng.randrange(1, 5000)
        basis = PrimeBasis.first(r)
        want = len(oracle.rough_sieve(IntervalSpec(lo, hi), basis))
        assert reference.coprime_count(lo, hi, basis.primes) == want
        sieved = oracle.rough_sieve(IntervalSpec(lo, hi), basis)
        assert reference.rough_values(lo, hi, basis.primes) == sieved


def test_reference_primes_and_explain_match_the_package():
    for lo, hi in ((0, 2000), (999_000, 1_001_000)):
        assert reference.primes_between(lo, hi) == oracle.primes_in(IntervalSpec(max(lo, 1), hi))
    for n in (1, 2, 360, 720720, 999983, 2**20 * 3**5):
        assert reference.omega(n) == oracle.omega(n)
    basis = PrimeBasis.first(5)
    form = build_canonical(basis)
    for z in reference.rough_values(10**20, 10**20 + 500, basis.primes):
        t, h = decompose(form, z)
        assert reference.explain(z, basis.primes) == (t, [h[j] for j in sorted(h)])


def test_peak_rss_is_per_child(spawner):
    big = spawner.run(["-c", "x = bytearray(150 * 2**20)"])
    small = spawner.run(["-c", "pass"])
    assert big.code == small.code == 0
    assert big.peak_rss_mb > 150
    assert small.peak_rss_mb < 60


def test_peak_rss_leaves_out_the_benchmark_process(spawner):
    ballast = bytearray(b"x") * (200 * 2**20)  # resident memory of the benchmark itself
    done = spawner.run(["-c", "pass"])
    assert len(ballast) and done.peak_rss_mb < 60


def test_children_see_no_primewheel_variables(monkeypatch):
    monkeypatch.setenv("PRIMEWHEEL_SCAN_BUDGET", "5")
    with harness.Spawner() as sp:
        done = sp.run(["-c", "import os; print([k for k in os.environ if 'PRIMEWHEEL' in k])"])
    assert done.stdout == b"[]\n"


def test_large_output_on_both_pipes_does_not_stall(spawner):
    code = "import sys; sys.stderr.write('e' * 300000); sys.stdout.write('o' * 3000000)"
    done = spawner.run(["-c", code])
    assert (len(done.stdout), len(done.stderr)) == (3_000_000, 300_000)


def test_deadline_kills_the_job_and_stops_the_run():
    with harness.Spawner(deadline=time.perf_counter() + 1) as sp:
        done = sp.run(["-c", "import time; time.sleep(60)"])
        assert done.code == -9 and done.wall_s < 10
        with pytest.raises(TimeoutError):
            sp.run(["-c", "pass"])


def test_traced_run_matches_plain_run(spawner):
    argv = ["gen", "--r", "4", "--lo", "1000", "--hi", "3000", "--explain", "--format", "csv"]
    plain = spawner.run(["-m", "primewheel", *argv])
    traced = spawner.run(["perfbench/tracer.py", *argv], side_pipe=True)
    assert (traced.code, traced.stdout, traced.stderr) == (plain.code, plain.stdout, plain.stderr)
    m = layers.job_metrics(json.loads(traced.side), traced.wall_s, traced.stdout)
    values = plain.stdout.count(b"\n") - 1
    assert m["wheel.decompose_calls"] == m["enumeration.values"] == values
    assert m["enumeration.table_entries"] == 48
    assert m["enumeration.cache_misses"] == 1
    assert m["cli.self_s"] > 0


def test_table_bytes_sizes_every_int():
    table = (0, 1, 2, 2**30 - 1, 2**30, 2**61, 2**95)
    assert tracer.table_bytes(table) == sys.getsizeof(table) + sum(map(sys.getsizeof, table))
    form = build_canonical(PrimeBasis.first(5))
    real = sorted_block_residues(form)
    assert tracer.table_bytes(real) == sys.getsizeof(real) + sum(map(sys.getsizeof, real))


def test_traced_budget_refusal_keeps_exit_code(spawner):
    argv = ["verify", "theorem1", "--r", "3", "--n", "6", "--budget", "1000"]
    traced = spawner.run(["perfbench/tracer.py", *argv], side_pipe=True)
    assert traced.code == 3 and traced.stderr.startswith(b"error: ")
    m = layers.job_metrics(json.loads(traced.side), traced.wall_s, traced.stdout)
    assert m["theorems.budget_refusal_s"] > 0


def test_end_to_end_times_are_scaled_by_host_speed():
    jobs = [workloads.gen_job(4, 1000, 1400, "text"), workloads.count_job(7, 1, 10**9, "text")]
    expected = [workloads.Expect(0, 50), workloads.Expect(0, 0)]
    session = run.Session(None, jobs, expected)
    session.plain = [[run.Sample(0.2, 0.1, 17.0), run.Sample(0.4, 0.1, 18.0)],
                     [run.Sample(1.0, 0.9, 95.0)]]
    session.calibration = [2 * run.CALIBRATION_REFERENCE_S] * 3  # a host at half speed
    values, _ = run.end_to_end(session, [0.5, 0.7, 0.6], 7)
    assert values["wall_s"] == pytest.approx((0.3 + 1.0) / 2)
    assert values["values_per_s"] == pytest.approx(50 / 0.3 * 2)
    assert values["setup_s"] == pytest.approx(0.3)
    assert values["first_out_s.p50"] == pytest.approx((0.1 + 0.9) / 2 / 2)
    assert values["peak_rss_mb"] == 95.0


def test_tail_leaves_ten_beyond():
    assert harness.tail(list(range(1, 101))) == (90.0, 90)
    assert harness.tail([3, 1, 2]) == (pytest.approx(100 / 3), 1)


def test_benchmark_json_names_every_metric():
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
