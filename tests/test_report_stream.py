"""The segment-wise interval report against the list-and-set report it replaced.

theorems.value_segments is replaced by streams with injected faults, each
value a one-candidate piece, or by the wheel's own pieces with a fault in
their shape, and every report must equal, in to_json(), the one the old
whole-window comparison gives for the same stream of values.
"""

import random
from collections import Counter
from itertools import chain, compress, starmap

import pytest
from pieces import pieces_of

from primewheel import cli, enumeration, oracle, theorems
from primewheel.enumeration import IntervalSpec, value_segments
from primewheel.theorems import COUNTEREXAMPLE_CAP, Counterexample, VerificationReport
from primewheel.wheel import PrimeBasis, build_canonical


def _capped(values, fmt) -> list:
    return [fmt(v) for v in values[:COUNTEREXAMPLE_CAP]]


def _reference_report(claim, basis, interval, n, gate_all, got, extra_details):
    """The whole-window report: four lists and four sets, one trial division per value."""
    want = oracle.coprime_scan(interval, basis)
    counterexamples = []
    details = dict(extra_details)

    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    # Window values enumerated after a larger window value, first seen first.
    disorder, top = [], None
    for m in got:
        if interval.lo <= m < interval.hi:
            if top is not None and m < top and m not in disorder:
                disorder.append(m)
            top = m if top is None else max(top, m)
    # Window values enumerated more than once, smallest first.
    copies = Counter(m for m in got if interval.lo <= m < interval.hi)
    repeated = sorted(m for m, c in copies.items() if c > 1)
    details["set_equality"] = {
        "pass": not missing and not extra and not disorder and not repeated,
        "missing": _capped(missing, str),
        "extra": _capped(extra, str),
    }
    if disorder:
        details["set_equality"]["out_of_order"] = _capped(disorder, str)
    if repeated:
        details["set_equality"]["repeated"] = _capped(repeated, str)
    for m in missing[:COUNTEREXAMPLE_CAP]:
        counterexamples.append(Counterexample(m, "in the oracle scan but never enumerated"))
    for m in extra[:COUNTEREXAMPLE_CAP]:
        counterexamples.append(Counterexample(m, "enumerated but rejected by the oracle scan"))
    for m in disorder[:COUNTEREXAMPLE_CAP]:
        counterexamples.append(Counterexample(m, "enumerated after a larger value"))
    for m in repeated[:COUNTEREXAMPLE_CAP]:
        counterexamples.append(Counterexample(m, "enumerated more than once"))

    omega_bad = [(m, oracle.omega(m)) for m in sorted(set(got))]
    omega_bad = [(m, om) for m, om in omega_bad if not 1 <= om <= n]
    details["omega_bound"] = {
        "pass": not omega_bad,
        "n": n,
        "violations": _capped(omega_bad, lambda v: {"value": str(v[0]), "omega": v[1]}),
    }
    if gate_all:
        for m, om in omega_bad[:COUNTEREXAMPLE_CAP]:
            counterexamples.append(Counterexample(m, f"has {om} prime factors, outside 1..{n}"))

    if n == 1:
        primes = oracle.primes_in(interval)
        pe_missing = sorted(set(primes) - set(got))
        pe_extra = sorted(set(got) - set(primes))
        details["prime_equality"] = {
            "pass": not pe_missing and not pe_extra,
            "missing": _capped(pe_missing, str),
            "extra": _capped(pe_extra, str),
        }
        if gate_all:
            for m in pe_missing[:COUNTEREXAMPLE_CAP]:
                counterexamples.append(Counterexample(m, "prime in the window but never enumerated"))
            for m in pe_extra[:COUNTEREXAMPLE_CAP]:
                counterexamples.append(Counterexample(m, "enumerated in the n = 1 window but not prime"))

    bad_values = {c.value for c in counterexamples}
    checked = len(got)
    return VerificationReport(
        claim=claim,
        verdict="pass" if not counterexamples and checked > 0 else "fail",
        checked=checked,
        witnesses_pass=sum(1 for m in got if m not in bad_values),
        interval=interval,
        counterexamples=tuple(counterexamples),
        details=details,
    )


# (r, n, shift): the window [q^n, q^(n+1)) for q the prime `shift` places after p_r.
# Shift 1 is a theorem1 window, shift 2 a corollary2 one with natural
# factor-count violations.
WINDOWS = [(3, 1, 1), (3, 2, 1), (2, 3, 1), (3, 1, 2), (2, 2, 2)]


def _window(r, n, shift):
    q = theorems._primes_after(PrimeBasis.first(r), shift)[-1]
    return IntervalSpec(q**n, q ** (n + 1))


def _replayed(monkeypatch, basis, interval, n, gate_all, pieces):
    """The report when each value_segments walk reads the pieces that pieces() gives."""
    walks = []

    def replay(form, spec):
        walks.append(spec)
        return pieces()

    monkeypatch.setattr(theorems, "value_segments", replay)
    report = theorems._interval_report("claim", basis, interval, n, gate_all, None, {"tag": 1})
    assert len(walks) <= 2, (len(walks), report.verdict)
    return report


def _streamed(monkeypatch, basis, interval, n, gate_all, stream):
    return _replayed(monkeypatch, basis, interval, n, gate_all, lambda: pieces_of(stream))


def _check_interval(monkeypatch, basis, interval, n, fault):
    stream = fault(oracle.coprime_scan(interval, basis), interval)
    for gate_all in (True, False):
        got = _streamed(monkeypatch, basis, interval, n, gate_all, stream)
        want = _reference_report("claim", basis, interval, n, gate_all, stream, {"tag": 1})
        assert got.to_json() == want.to_json(), (interval, n, gate_all, stream)
    return got


def _check(monkeypatch, r, n, shift, fault):
    return _check_interval(monkeypatch, PrimeBasis.first(r), _window(r, n, shift), n, fault)


def _insert(values, *new):
    return sorted(values + list(new))


def _first_with_factors_above(n, window):
    return next(m for m in range(window.lo, window.hi) if oracle.omega(m) > n)


def _even(window):
    return window.lo + 1 if window.lo % 2 else window.lo


def _off_window_repeat(values, window):
    # 2^k >= 2 * hi has k > 3 >= n prime factors. It is enumerated first and
    # again after ten smaller values off the window, so it is an Omega fault
    # but not one of the ten smallest extra values: both copies still leave
    # witnesses_pass.
    big = 1 << (window.hi.bit_length() + 1)
    return [big] + values + list(range(window.hi, window.hi + 10)) + [big]


FAULTS = {
    "none": lambda v, w: v,
    "missing": lambda v, w: v[:2] + v[3:],
    "missing_first_and_last": lambda v, w: v[1:-1],
    "extra_even": lambda v, w: _insert(v, _even(w)),
    # More copies of one window value than a byte counts.
    "extra_even_300_times": lambda v, w: _insert(v, *[_even(w)] * 300),
    "off_window_repeat": _off_window_repeat,
    "too_many_factors": lambda v, w: _insert(v, _first_with_factors_above(3, w)),
    "duplicate": lambda v, w: v[:4] + [v[4]] + v[4:],
    "duplicate_last": lambda v, w: v + [v[-1], v[-1]],
    "below_lo_and_at_hi": lambda v, w: [w.lo - 1] + v + [w.hi],
    "outside_midstream": lambda v, w: v[:3] + [w.hi + 6, 1, w.hi + 6] + v[3:] + [1],
    "missing_among_duplicates": lambda v, w: v[:5] + [v[4], v[6], v[6]] + v[7:],
    "empty": lambda v, w: [],
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("r,n,shift", WINDOWS)
def test_streamed_report_equals_whole_window_report(monkeypatch, fault, r, n, shift):
    for segment in (oracle.OMEGA_SEGMENT, 1, 3):
        monkeypatch.setattr(oracle, "OMEGA_SEGMENT", segment)
        _check(monkeypatch, r, n, shift, FAULTS[fault])


def test_fault_free_stream_passes(monkeypatch):
    report = _check(monkeypatch, 3, 2, 1, FAULTS["none"])
    assert report.verdict == "pass"


@pytest.mark.parametrize(
    "r,n,shift,omega_pass",
    # r = 5, n = 4 spans 21 segments of 2^14; corollary2 --r 3 --s 2 --n 1
    # fails the factor count and the primes, informationally.
    [(5, 4, 1, True), (3, 5, 1, True), (3, 1, 2, False)],
    ids=["theorem1 r=5 n=4", "theorem1 r=3 n=5", "corollary2 r=3 s=2 n=1"],
)
def test_fault_free_claim_windows_equal_the_whole_window_report(
    monkeypatch, r, n, shift, omega_pass
):
    report = _check(monkeypatch, r, n, shift, FAULTS["none"])
    assert report.verdict == "pass"
    assert report.details["omega_bound"]["pass"] is omega_pass


def _watch_oracle(monkeypatch):
    """Record the widths of the segments sieve_segments yields, the
    value_segments walks made and the values factored by trial division."""
    seen = {"scan_widths": [], "walks": 0, "omega": []}
    segments, pieces = oracle.sieve_segments, theorems.value_segments
    omega = oracle.omega

    def watched_segments(interval, moduli, budget=None):
        for seg, flags, omegas in segments(interval, moduli, budget):
            seen["scan_widths"].append(len(seg))
            yield seg, flags, omegas

    def watched_pieces(form, spec):
        seen["walks"] += 1
        return pieces(form, spec)

    def watched_omega(m):
        seen["omega"].append(m)
        return omega(m)

    monkeypatch.setattr(oracle, "sieve_segments", watched_segments)
    monkeypatch.setattr(theorems, "value_segments", watched_pieces)
    monkeypatch.setattr(oracle, "omega", watched_omega)
    return seen


@pytest.mark.parametrize(
    "check, omega_pass",
    [
        (lambda basis: theorems.verify_theorem1(basis, 2), True),
        # Both fail the factor count, and n = 1 the prime equality, informationally.
        (lambda basis: theorems.verify_corollary2(basis, 2, 1), False),
        (lambda basis: theorems.verify_corollary2(basis, 2, 2), False),
    ],
    ids=["theorem1 r=3 n=2", "corollary2 r=3 s=2 n=1", "corollary2 r=3 s=2 n=2"],
)
def test_passing_report_streams(monkeypatch, check, omega_pass):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    seen = _watch_oracle(monkeypatch)
    report = check(PrimeBasis.first(3))
    assert report.verdict == "pass" and report.details["set_equality"]["pass"]
    assert report.details["omega_bound"]["pass"] is omega_pass
    assert seen["scan_widths"] and max(seen["scan_widths"]) <= oracle.OMEGA_SEGMENT
    assert seen["walks"] == 1
    assert seen["omega"] == []


@pytest.mark.parametrize(
    "n, value, omega, reasons",
    [
        # 49 = 7^2 read as Omega 3 in the window [49, 343).
        (2, 49, 3, ["has 3 prime factors, outside 1..2"]),
        # The prime 13 read as Omega 2 in [7, 49): too many factors, and not prime.
        (1, 13, 2, [
            "has 2 prime factors, outside 1..1", "enumerated in the n = 1 window but not prime",
        ]),
    ],
)
def test_stream_equal_to_the_scan_is_walked_once_when_a_subcheck_fails(
    monkeypatch, n, value, omega, reasons
):
    segments = oracle.sieve_segments

    def misread(interval, moduli, budget=None):
        for seg, flags, omegas in segments(interval, moduli, budget):
            if value in seg:
                assert flags[value - seg.start]
                omegas = bytearray(omegas)
                omegas[value - seg.start] = omega
            yield seg, flags, bytes(omegas)

    monkeypatch.setattr(oracle, "sieve_segments", misread)
    seen = _watch_oracle(monkeypatch)
    report = theorems.verify_theorem1(PrimeBasis.first(3), n)
    assert seen["walks"] == 1
    assert report.verdict == "fail" and report.details["set_equality"]["pass"]
    assert report.details["omega_bound"]["violations"] == [{"value": str(value), "omega": omega}]
    assert [(c.value, c.reason) for c in report.counterexamples] == [(value, r) for r in reasons]
    assert report.witnesses_pass == report.checked - 1


@pytest.mark.parametrize("fault", ["missing", "extra_even_300_times", "off_window_repeat"])
@pytest.mark.parametrize("r,n,shift", WINDOWS)
def test_failing_report_calls_no_coprime_scan(monkeypatch, fault, r, n, shift):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    basis, interval = PrimeBasis.first(r), _window(r, n, shift)
    stream = FAULTS[fault](oracle.coprime_scan(interval, basis), interval)
    wants = [_reference_report("claim", basis, interval, n, g, stream, {"tag": 1}) for g in (1, 0)]

    def refused(*args, **kwargs):
        raise AssertionError("a window report called coprime_scan")

    monkeypatch.setattr(oracle, "coprime_scan", refused)
    for gate_all, want in zip((True, False), wants):
        got = _streamed(monkeypatch, basis, interval, n, gate_all, stream)
        assert got.verdict == "fail"
        assert got.to_json() == want.to_json()


@pytest.mark.parametrize("fault", ["missing", "duplicate", "off_window_repeat"])
@pytest.mark.parametrize("r,n,shift", WINDOWS)
def test_failing_report_walks_the_sieve_once_to_recount(monkeypatch, fault, r, n, shift):
    # The first walk stops where the stream leaves the scan; _recount then
    # walks sieve_segments once and never joins the window's Omega bytes. A
    # duplicate leaves the scan and, as in the whole-window report, fails
    # the set equality as a repeated value.
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    basis, interval = PrimeBasis.first(r), _window(r, n, shift)
    stream = FAULTS[fault](oracle.coprime_scan(interval, basis), interval)
    wants = [_reference_report("claim", basis, interval, n, g, stream, {"tag": 1}) for g in (1, 0)]
    seen, segments, recount = [], oracle.sieve_segments, theorems._recount

    def watched_segments(interval, moduli, budget=None):
        seen.append("sieve_segments")
        return segments(interval, moduli, budget)

    def watched_recount(*args):
        seen.append("_recount")
        return recount(*args)

    monkeypatch.setattr(oracle, "sieve_segments", watched_segments)
    monkeypatch.setattr(theorems, "_recount", watched_recount)
    for gate_all, want in zip((True, False), wants):
        seen.clear()
        got = _streamed(monkeypatch, basis, interval, n, gate_all, stream)
        assert seen == ["sieve_segments", "_recount", "sieve_segments"]
        assert got.to_json() == want.to_json()


def test_stepped_back_window_values_are_not_trial_divided(monkeypatch):
    basis = PrimeBasis.first(3)
    interval = _window(3, 2, 1)
    scan = oracle.coprime_scan(interval, basis)
    stream = scan[:5] + [scan[6], scan[5]] + scan[7:] + [scan[0]]
    seen = _watch_oracle(monkeypatch)
    report = _streamed(monkeypatch, basis, interval, 2, True, stream)
    assert report.details["set_equality"]["out_of_order"] == [str(scan[5]), str(scan[0])]
    assert seen["omega"] == []


def test_witnesses_pass_counts_duplicated_counterexamples(monkeypatch):
    # 8 is extra and has 3 factors; enumerated three times, all three are
    # left out of witnesses_pass, and the missing 11 takes nothing away.
    def fault(v, w):
        return [8, 8, 8] + v[1:]

    report = _check(monkeypatch, 3, 1, 1, fault)
    assert report.checked == 14
    assert report.witnesses_pass == 11


def _many_faults(seed):
    """Random faults of every kind, more than COUNTEREXAMPLE_CAP of each,
    spread over the whole window; window values stay in ascending order."""

    def fault(values, w):
        rng = random.Random(seed)
        kept = [v for v in values if rng.random() > 0.25]
        kept += [m for m in range(w.lo, w.hi) if m % 2 == 0 and rng.random() < 0.1]
        kept += [
            m for m in range(w.lo, w.hi) if m % 6 == 1 and oracle.omega(m) > 2 and rng.random() < 0.5
        ]
        kept.sort()
        out = []
        for v in kept:
            out.append(v)
            if rng.random() < 0.08:
                out.append(v)
            if rng.random() < 0.04:
                out.append(rng.choice([rng.randrange(1, w.lo), rng.randrange(w.hi, 2 * w.hi)]))
        return out

    return fault


def _seam_swaps(seed):
    """The faults of _many_faults(seed), then two window values next to each
    other in different segments swapped: the first such pair, and others
    at random."""

    def fault(values, w):
        rng = random.Random(seed)
        out = _many_faults(seed)(values, w)
        segment = [(v - w.lo) // oracle.OMEGA_SEGMENT if w.lo <= v < w.hi else None for v in out]
        pairs = enumerate(zip(segment, segment[1:]))
        seams = [i for i, (a, b) in pairs if a is not None and b is not None and a != b]
        for i in seams[:1] + [i for i in seams[1:] if rng.random() < 0.3]:
            out[i], out[i + 1] = out[i + 1], out[i]
        return out

    return fault


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("r,n,shift", WINDOWS)
def test_many_faults_across_segment_seams(monkeypatch, seed, r, n, shift):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    _check(monkeypatch, r, n, shift, _many_faults(seed))
    report = _check(monkeypatch, r, n, shift, _seam_swaps(seed))
    assert report.details["set_equality"]["out_of_order"]


def test_many_faults_count_past_the_cap(monkeypatch):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    report = _check(monkeypatch, 3, 2, 1, _many_faults(0))
    details = report.details
    assert len(details["set_equality"]["missing"]) == COUNTEREXAMPLE_CAP
    assert len(details["set_equality"]["extra"]) == COUNTEREXAMPLE_CAP
    assert len(details["omega_bound"]["violations"]) == COUNTEREXAMPLE_CAP


@pytest.mark.parametrize("r,n,shift", [(3, 1, 2), (3, 2, 1)])
@pytest.mark.parametrize("sides", ["below", "above", "both"])
def test_out_of_window_values_keep_the_smallest(monkeypatch, r, n, shift, sides):
    # More distinct values outside the window than the cap, descending and
    # repeated, so kept values are evicted by smaller ones.
    def fault(v, w):
        above = [w.hi + k for k in range(30, 0, -1)] if sides != "below" else []
        below = list(range(w.lo - 1, 0, -1)) if sides != "above" else []
        return below + v + above + below[:3] + above[-4:]

    _check(monkeypatch, r, n, shift, fault)


@pytest.mark.parametrize("fault", ["none", "missing", "duplicate", "extra_even"])
def test_window_from_one(monkeypatch, fault):
    # 1 is in the scan and has no prime factor, so it fails the factor count.
    basis, interval = PrimeBasis.first(3), IntervalSpec(1, 49)
    report = _check_interval(monkeypatch, basis, interval, 1, FAULTS[fault])
    assert {"value": "1", "omega": 0} in report.details["omega_bound"]["violations"]


@pytest.mark.parametrize(
    "fault",
    [
        lambda v: v[:3] + [v[4], v[3]] + v[5:],
        lambda v: v[:-1] + [v[0]],
        lambda v: v[len(v) // 2 :] + v[: len(v) // 2],
        lambda v: v[::-1],
    ],
)
@pytest.mark.parametrize("segment", [16, 1 << 12])
def test_stream_that_steps_back_never_passes(monkeypatch, fault, segment):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", segment)
    basis = PrimeBasis.first(3)
    interval = _window(3, 2, 1)
    stream = fault(oracle.coprime_scan(interval, basis))
    for gate_all in (True, False):
        report = _streamed(monkeypatch, basis, interval, 2, gate_all, stream)
        assert report.verdict != "pass"
        assert report.details["set_equality"]["pass"] is False
        assert report.details["set_equality"]["out_of_order"]
        assert report.checked == len(stream)


@pytest.mark.parametrize(
    "r,n,tail",
    [
        # An even value that steps back into a closed segment of an n = 1
        # window: extra for the scan and the primes, with 3 prime factors.
        (4, 1, lambda w: [11, 12]),
        # More stepped-back values than the cap, descending, some in the scan.
        (3, 2, lambda w: [m for m in range(w.lo + 60, w.lo, -1) if m % 2 == 0 or m % 7 == 0]),
        (3, 1, lambda w: list(range(w.hi - 1, w.lo - 1, -3))),
    ],
)
def test_stepped_back_values_are_checked_like_the_rest(monkeypatch, r, n, tail):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    basis = PrimeBasis.first(r)
    interval = _window(r, n, 1)
    stream = oracle.coprime_scan(interval, basis) + tail(interval)
    for gate_all in (True, False):
        got = _streamed(monkeypatch, basis, interval, n, gate_all, stream)
        want = _reference_report("claim", basis, interval, n, gate_all, stream, {"tag": 1})
        assert got.to_json() == want.to_json()
        assert got.details["set_equality"]["out_of_order"]
        assert got.verdict == "fail"


def test_stepped_back_even_value_is_extra(monkeypatch):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    basis = PrimeBasis.first(4)
    interval = _window(4, 1, 1)
    stream = oracle.coprime_scan(interval, basis) + [11, 12]
    assert stream[-3:] == [113, 11, 12]
    details = _streamed(monkeypatch, basis, interval, 1, True, stream).details
    # 11 is enumerated twice, once in order and once after 113.
    assert details["set_equality"] == {
        "pass": False, "missing": [], "extra": ["12"], "out_of_order": ["11", "12"],
        "repeated": ["11"],
    }
    assert details["prime_equality"]["extra"] == ["12"]
    assert details["omega_bound"]["violations"] == [{"value": "12", "omega": 3}]


def test_value_enumerated_after_its_segment_closed_is_not_missing(monkeypatch):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    basis = PrimeBasis.first(4)
    interval = _window(4, 1, 1)
    scan = oracle.coprime_scan(interval, basis)
    stream = [v for v in scan if v != 13] + [13]
    for gate_all in (True, False):
        report = _streamed(monkeypatch, basis, interval, 1, gate_all, stream)
        details = report.details
        assert details["set_equality"] == {
            "pass": False, "missing": [], "extra": [], "out_of_order": ["13"],
        }
        primes = details["prime_equality"]
        assert (primes["missing"], primes["extra"]) == ([], [])
        assert [c.value for c in report.counterexamples] == [13]
        assert report.verdict == "fail"
        assert report.witnesses_pass == len(scan) - 1


def test_late_value_leaves_a_full_missing_list(monkeypatch):
    # The first value comes last: the eleven values after it are missing,
    # and the list holds the ten smallest of them, as the whole window does.
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    report = _check(monkeypatch, 3, 2, 1, lambda v, w: v[12:] + [v[0]])
    assert len(report.details["set_equality"]["missing"]) == COUNTEREXAMPLE_CAP
    assert report.details["set_equality"]["out_of_order"] == [str(_window(3, 2, 1).lo)]


def test_failing_report_prints_its_counterexamples_as_text(monkeypatch, capsys):
    window = IntervalSpec(7, 49)
    stream = FAULTS["missing"](oracle.coprime_scan(window, PrimeBasis.first(3)), window)
    monkeypatch.setattr(theorems, "value_segments", lambda form, spec: pieces_of(stream))
    assert cli.main(["verify", "theorem1", "--r", "3", "--n", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1:8] == [
        "verdict: fail",
        "interval: [7, 49)",
        "checked: 11",
        "witnesses_pass: 11",
        "counterexamples:",
        "  - value=13 reason=in the oracle scan but never enumerated",
        "  - value=13 reason=prime in the window but never enumerated",
    ]


@pytest.mark.parametrize("fault", ["duplicate", "duplicate_last", "missing_among_duplicates"])
def test_repeated_window_value_fails_set_equality(monkeypatch, fault):
    report = _check(monkeypatch, 3, 2, 1, FAULTS[fault])
    scan = oracle.coprime_scan(_window(3, 2, 1), PrimeBasis.first(3))
    repeated = {
        "duplicate": [scan[4]], "duplicate_last": [scan[-1]],
        "missing_among_duplicates": [scan[4], scan[6]],
    }
    assert report.verdict == "fail" and not report.details["set_equality"]["pass"]
    assert report.details["set_equality"]["repeated"] == [str(m) for m in repeated[fault]]
    reasons = [c.value for c in report.counterexamples if c.reason == "enumerated more than once"]
    assert reasons == repeated[fault]
    # Every copy of a repeated value is left out of witnesses_pass.
    stream = FAULTS[fault](scan, _window(3, 2, 1))
    assert report.witnesses_pass == sum(1 for v in stream if stream.count(v) == 1 and v in scan)


def test_the_report_reads_no_int_stream():
    assert not hasattr(theorems, "enumerate_interval")


def _no_recount(*args):
    raise AssertionError("a fault-free window was recounted")


@pytest.mark.parametrize("segment", [1, 3, 16, oracle.OMEGA_SEGMENT])
@pytest.mark.parametrize("r,n,shift", WINDOWS)
def test_wheel_pieces_across_segment_seams_pass_in_one_walk(monkeypatch, segment, r, n, shift):
    # Seven candidates of step 2 span 14 integers, so pieces straddle the sieve's seams,
    # or one piece spans many segments.
    monkeypatch.setattr(enumeration, "SEGMENT", 7)
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", segment)
    monkeypatch.setattr(theorems, "_recount", _no_recount)
    basis, interval = PrimeBasis.first(r), _window(r, n, shift)
    scan = oracle.coprime_scan(interval, basis)
    for gate_all in (True, False):
        got = theorems._interval_report("claim", basis, interval, n, gate_all, None, {"tag": 1})
        want = _reference_report("claim", basis, interval, n, gate_all, scan, {"tag": 1})
        assert got.to_json() == want.to_json()
        assert got.details["set_equality"]["pass"]


def _overlapping(pieces, w):
    # The second piece starts two candidates back, inside the first.
    (_, first), (candidates, mask) = pieces[:2]
    back = range(candidates.start - 2 * candidates.step, candidates.stop, candidates.step)
    return [pieces[0], (back, bytes(first[-2:]) + bytes(mask)), *pieces[2:]]


def _stepped_back(pieces, w):
    return [pieces[0], pieces[2], pieces[1], *pieces[3:]]


def _below_lo(pieces, w):
    # The first piece gains a candidate before it, below lo.
    (candidates, mask), *rest = pieces
    below = range(candidates.start - candidates.step, candidates.stop, candidates.step)
    return [(below, b"\x01" + bytes(mask)), *rest]


def _empty_then_hi(pieces, w):
    # A walk that took an empty range for the end would never see hi.
    return [*pieces, (range(w.hi, w.hi), b""), (range(w.hi, w.hi + 1), b"\x01")]


@pytest.mark.parametrize("fault", [_overlapping, _stepped_back, _below_lo, _empty_then_hi])
@pytest.mark.parametrize("r,n,shift", WINDOWS)
def test_pieces_that_leave_the_scan_are_recounted(monkeypatch, fault, r, n, shift):
    monkeypatch.setattr(enumeration, "SEGMENT", 7)
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 16)
    basis, interval = PrimeBasis.first(r), _window(r, n, shift)
    pieces = fault(list(value_segments(build_canonical(basis), interval)), interval)
    stream = list(chain.from_iterable(starmap(compress, pieces)))
    recounts, recount = [], theorems._recount

    def watched_recount(*args):
        recounts.append(args)
        return recount(*args)

    monkeypatch.setattr(theorems, "_recount", watched_recount)
    for gate_all in (True, False):
        recounts.clear()
        got = _replayed(monkeypatch, basis, interval, n, gate_all, lambda: iter(pieces))
        want = _reference_report("claim", basis, interval, n, gate_all, stream, {"tag": 1})
        assert len(recounts) == 1
        assert got.to_json() == want.to_json()
