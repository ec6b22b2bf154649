import math
import random
import sys
import tracemalloc
from bisect import bisect_left
from itertools import islice

import pytest

from primewheel import enumeration, oracle, theorems
from primewheel.enumeration import (
    MAX_BLOCK_RESIDUES,
    BlockCount,
    IntervalSpec,
    count_block,
    count_interval,
    enumerate_interval,
    sorted_block_residues,
)
from primewheel.errors import DEFAULT_SCAN_BUDGET, BudgetExceeded
from primewheel.forms import decompose, decompose_rows, evaluate
from primewheel.wheel import PrimeBasis, build_canonical, build_coprime_wheel


def test_interval_spec_validation():
    spec = IntervalSpec(7, 49)
    assert spec.width == 42
    with pytest.raises(ValueError):
        IntervalSpec(5, 5)
    with pytest.raises(ValueError):
        IntervalSpec(9, 3)
    with pytest.raises(ValueError):
        IntervalSpec(-1, 3)


def test_enumerate_frozen_windows():
    form3 = build_canonical(PrimeBasis.first(3))
    assert list(enumerate_interval(form3, IntervalSpec(7, 49))) == [
        7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]
    assert list(enumerate_interval(form3, IntervalSpec(1, 31))) == [
        1, 7, 11, 13, 17, 19, 23, 29,
    ]
    form2 = build_canonical(PrimeBasis.first(2))
    assert list(enumerate_interval(form2, IntervalSpec(25, 35))) == [25, 29, 31]


def test_enumerate_output_is_sorted_and_coprime():
    rng = random.Random(577215)
    for _ in range(200):
        r = rng.randrange(1, 7)
        basis = PrimeBasis.first(r)
        form = build_canonical(basis)
        lo = rng.randrange(0, 10**7)
        hi = lo + rng.randrange(1, 5000)
        values = list(enumerate_interval(form, IntervalSpec(lo, hi)))
        assert values == sorted(values)
        for z in values:
            assert lo <= z < hi
            assert all(z % p for p in basis.primes)


def test_count_block_frozen():
    assert count_block(PrimeBasis.first(3)) == BlockCount(phi=8, interior=7)
    assert count_block(PrimeBasis.first(1)) == BlockCount(phi=1, interior=0)
    assert count_block(PrimeBasis.first(6)) == BlockCount(phi=5760, interior=5759)
    assert count_block([2, 3, 5, 7]) == BlockCount(phi=48, interior=47)


def test_count_block_against_full_scan():
    for r in range(1, 6):
        basis = PrimeBasis.first(r)
        period = basis.primorial
        phi = sum(
            1 for n in range(period) if all(math.gcd(n, p) == 1 for p in basis.primes)
        )
        assert count_block(basis).phi == phi


def test_count_interval_frozen():
    form = build_canonical(PrimeBasis.first(3))
    assert count_interval(form, IntervalSpec(0, 30)) == 8
    assert count_interval(form, IntervalSpec(1, 31)) == 8
    assert count_interval(form, IntervalSpec(29, 31)) == 1


def test_count_matches_stream_random():
    """count_interval and the generator agree on random windows."""
    rng = random.Random(1618033)
    for _ in range(1000):
        r = rng.randrange(2, 9)
        form = build_canonical(PrimeBasis.first(r))
        lo = rng.randrange(0, 10**9)
        hi = lo + rng.randrange(1, 3000)
        spec = IntervalSpec(lo, hi)
        assert count_interval(form, spec) == sum(1 for _ in enumerate_interval(form, spec))


def test_block_translation_invariance():
    rng = random.Random(41421)
    form = build_canonical(PrimeBasis.first(5))
    period = form.period
    base = count_interval(form, IntervalSpec(0, period))
    for _ in range(100):
        start = rng.randrange(0, 10**12)
        assert count_interval(form, IntervalSpec(start, start + period)) == base


def test_residue_table_is_sorted_and_distinct():
    for r in range(1, 9):
        form = build_canonical(PrimeBasis.first(r))
        table = sorted_block_residues(form)
        assert len(table) == count_block(PrimeBasis.first(r)).phi
        assert list(table) == sorted(set(table))
        assert all(0 <= v < form.period for v in table)


def test_budget_refuses_oversized_tables():
    form = build_canonical(PrimeBasis.first(9))
    with pytest.raises(BudgetExceeded) as info:
        sorted_block_residues(form)
    err = info.value
    assert err.required == 36495360
    assert err.budget == MAX_BLOCK_RESIDUES
    assert str(err.required) in str(err)


def test_enumerate_agrees_with_direct_scan():
    for r in range(2, 7):
        basis = PrimeBasis.first(r)
        form = build_canonical(basis)
        spec = IntervalSpec(1, 2 * basis.primorial + 11)
        mine = list(enumerate_interval(form, spec))
        naive = [
            n
            for n in range(spec.lo, spec.hi)
            if all(math.gcd(n, p) == 1 for p in basis.primes)
        ]
        assert mine == naive, f"r={r}"


def test_enumerate_wide_window_r6():
    basis = PrimeBasis.first(6)
    form = build_canonical(basis)
    spec = IntervalSpec(10**6, 2 * 10**6)
    values = list(enumerate_interval(form, spec))
    assert len(values) == count_interval(form, spec)
    assert len(values) == 191809
    assert values[0] == 1000001
    assert values[-1] == 1999999
    step = basis.primorial
    assert count_interval(form, spec) == (10**6 // step) * 5760 + count_interval(
        form, IntervalSpec(10**6, 10**6 + (10**6 % step))
    )


def test_enumeration_works_for_coprime_wheels():
    wheel = build_coprime_wheel([4, 9, 5, 7], h1=None)
    spec = IntervalSpec(0, wheel.period)
    values = list(enumerate_interval(wheel, spec))
    assert len(values) == 576
    naive = [
        n
        for n in range(wheel.period)
        if n % 4 and n % 9 and n % 5 and n % 7
    ]
    assert values == naive


def _coprime_moduli(rng):
    """2 to 4 pairwise coprime moduli of at least 2 with a product of at most 3000."""
    count = rng.randint(2, 4)
    while True:
        mods = []
        for q in rng.sample(range(2, 30), 28):
            if all(math.gcd(q, m) == 1 for m in mods) and math.prod(mods) * q <= 3000:
                mods.append(q)
                if len(mods) == count:
                    return tuple(mods)


# Every pinned class of each moduli set, including classes that share a
# factor with the first modulus (h1 = 3 mod 9), which no canonical form pins.
COPRIME_MODULI = [(4, 9, 5, 7), (9, 4, 25)] + [_coprime_moduli(random.Random(s)) for s in range(3)]
COPRIME_WHEELS = [
    build_coprime_wheel(moduli, h1=h1)
    for moduli in COPRIME_MODULI
    for h1 in (None, *range(1, moduli[0]))
]


def _oracle_count(form, spec):
    """Count of the form's values in spec, from the brute-force divisibility scan."""
    values = oracle.coprime_scan(spec, form.moduli)
    if getattr(form, "pinned_h1", None) is not None:
        values = [x for x in values if x % form.moduli[0] == form.pinned_h1]
    return len(values)


def _walk_and_sort_table(form):
    """The residue table as first built: every assignment evaluated, then sorted."""
    period = form.period
    residues = [form.constant % period]
    for modulus, coeff in zip(form.residue_classes()[2], form.coeffs):
        steps = [(coeff * h) % period for h in range(1, modulus)]
        residues = [(base + step) % period for base in residues for step in steps]
    return tuple(sorted(residues))


def test_count_interval_matches_oracle_scan():
    rng = random.Random(1959)
    forms = [build_canonical(PrimeBasis.first(r)) for r in range(1, 9)] + COPRIME_WHEELS
    for form in forms:
        period = form.period
        windows = [IntervalSpec(0, rng.randrange(1, 3000)), IntervalSpec(0, min(period, 10**5))]
        straddle = rng.randrange(1, 4) * period
        windows.append(
            IntervalSpec(max(0, straddle - rng.randrange(1, 1500)), straddle + rng.randrange(1, 1500))
        )
        for _ in range(20):
            lo = rng.randrange(0, 10**9)
            windows.append(IntervalSpec(lo, lo + rng.randrange(1, 3000)))
        for spec in windows:
            assert count_interval(form, spec) == _oracle_count(form, spec), (form, spec)


def test_count_interval_is_additive_past_two_to_the_64():
    rng = random.Random(1982)
    for form in [build_canonical(PrimeBasis.first(r)) for r in (3, 8, 12)] + COPRIME_WHEELS:
        for _ in range(20):
            lo = 2**64 + rng.randrange(0, 10**30)
            mid = lo + rng.randrange(1, 10**12)
            hi = mid + rng.randrange(1, 10**12)
            whole = count_interval(form, IntervalSpec(lo, hi))
            parts = count_interval(form, IntervalSpec(lo, mid)) + count_interval(
                form, IntervalSpec(mid, hi)
            )
            assert whole == parts
        spec = IntervalSpec(2**64 + 12345, 2**64 + 12345 + form.period)
        assert count_interval(form, spec) == math.prod(m - 1 for m in form.residue_classes()[2])


def test_decompose_and_evaluate_are_inverse_past_two_to_the_64():
    # decompose's t is the exact quotient of z's body by the period; this
    # holds the invariant for every form type, pinned and unpinned.
    rng = random.Random(2**64)
    for form in [build_canonical(PrimeBasis.first(r)) for r in range(1, 13)] + COPRIME_WHEELS:
        axes = tuple(zip(form.free_indices, form.residue_classes()[2]))
        for _ in range(20):
            t = rng.randrange(2**64, 2**64 + 10**30)
            h = {j: rng.randrange(1, q) for j, q in axes}
            z = evaluate(form, t, h)
            assert z > 2**64 and decompose(form, z) == (t, h), (form, t, h)
        lo = 2**64 + rng.randrange(0, 10**30)
        zs = list(islice(enumerate_interval(form, IntervalSpec(lo, lo + 10**6)), 200))
        ts, columns = decompose_rows(form, zs)
        for i, z in enumerate(zs):
            h = {j: column[i] for j, column in zip(form.free_indices, columns)}
            assert evaluate(form, ts[i], h) == z, (form, z)


def test_count_interval_refuses_too_many_terms_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("counting started before the term budget was checked")

    # Every counted term takes one modular inverse.
    monkeypatch.setattr(enumeration, "pow", no_work, raising=False)
    # r = 25 has 2^24 terms below 10^8, past the default budget; r = 23 has 2^22.
    with pytest.raises(BudgetExceeded) as info:
        count_interval(build_canonical(PrimeBasis.first(25)), IntervalSpec(0, 10**8))
    assert info.value.required == 2**24
    assert info.value.budget == DEFAULT_SCAN_BUDGET
    with pytest.raises(BudgetExceeded) as info:
        count_interval(build_canonical(PrimeBasis.first(23)), IntervalSpec(0, 10**8), 2**22 - 1)
    assert (info.value.required, info.value.budget) == (2**22, 2**22 - 1)
    # Below 2^k the window's hi bounds the terms, each with its own product below hi.
    with pytest.raises(BudgetExceeded) as info:
        count_interval(build_canonical(PrimeBasis.first(40)), IntervalSpec(5, 10**6), 10**6 - 1)
    assert (info.value.required, info.value.budget) == (10**6, 10**6 - 1)


def _struck_products(rng, struck, count):
    """`count` products of 1 to 3 distinct moduli from `struck`, none if it is empty."""
    if not struck:
        return []
    return [math.prod(rng.sample(struck, rng.randint(1, min(3, len(struck))))) for _ in range(count)]


def test_count_interval_matches_the_scan_and_the_stream_on_narrow_windows():
    rng = random.Random(1959)
    forms = [build_canonical(PrimeBasis.first(r)) for r in range(1, 31)] + COPRIME_WHEELS
    for form in forms:
        struck = form.residue_classes()[2]
        windows = [IntervalSpec(0, rng.randrange(1, 3000))]
        # hi one below, at and one above a product of struck moduli, where
        # the terms with that product start counting nothing.
        for s in _struck_products(rng, struck, 3):
            for hi in (s - 1, s, s + 1):
                windows.append(IntervalSpec(max(0, hi - rng.randrange(1, 3000)), hi))
        if len(struck) <= 14:  # past 2^64 every one of the 2^k terms is counted
            lo = 2**64 + rng.randrange(10**20)
            windows.append(IntervalSpec(lo, lo + rng.randrange(1, 3000)))
        for spec in windows:
            got = count_interval(form, spec)
            assert got == _oracle_count(form, spec), (form, spec)
            assert got == sum(1 for _ in enumerate_interval(form, spec)), (form, spec)


def test_residue_table_equals_walk_and_sort_table():
    forms = [build_canonical(PrimeBasis.first(r)) for r in range(1, 8)] + COPRIME_WHEELS
    for form in forms:
        table = sorted_block_residues(form)
        assert type(table) is tuple
        assert table == _walk_and_sort_table(form), form


def test_residue_table_refusal_names_the_fixed_cap():
    with pytest.raises(BudgetExceeded) as info:
        sorted_block_residues(build_canonical(PrimeBasis.first(9)))
    message = str(info.value)
    assert "budget" in message and "36495360" in message
    assert "fixed" in message and "count" in message


def _table_walk(table, period, spec):
    """The values in spec, block by block over one period's sorted table."""
    values = []
    for base in range(spec.lo - spec.lo % period, spec.hi, period):
        start = bisect_left(table, spec.lo - base)
        stop = bisect_left(table, spec.hi - base)
        values += map(base.__add__, table[start:stop])
    return values


def test_sieve_path_equals_table_walk(monkeypatch):
    # A small segment puts many seams inside every window; the widths
    # pin*segment - 1, pin*segment and pin*segment + 1 end one at a seam.
    segment = 61
    monkeypatch.setattr(enumeration, "SEGMENT", segment)
    rng = random.Random(1977)
    forms = [build_canonical(PrimeBasis.first(r)) for r in range(1, 9)] + COPRIME_WHEELS
    for form in forms:
        table = _walk_and_sort_table(form)
        struck = form.residue_classes()[2]
        pin = form.period // math.prod(struck)
        size = pin * math.prod(m - 1 for m in struck)
        widths = [1, 2, rng.randrange(1, 3000)]
        if size <= 10**6:
            widths += [size - 1, size, size + 1]
        widths += [pin * segment - 1, pin * segment, pin * segment + 1]
        straddle = rng.randrange(1, 4) * form.period
        los = [0, max(0, straddle - rng.randrange(0, 1000)), rng.randrange(0, 10**9)]
        los += [2**64 + rng.randrange(0, 10**20) for _ in range(2)]
        # Segments on both sides of sys.maxsize, where the segment's
        # iterator changes; the seam widths end one at sys.maxsize + 1.
        los += [sys.maxsize - rng.randrange(0, 3000), sys.maxsize + 1 - pin * segment]
        for lo in los:
            for width in widths:
                spec = IntervalSpec(lo, lo + width)
                walked = _table_walk(table, form.period, spec)
                assert list(enumerate_interval(form, spec)) == walked, (form, spec)


def test_narrow_window_builds_no_table(monkeypatch):
    def no_table(form):
        raise AssertionError("a narrow window built the residue table")

    monkeypatch.setattr(enumeration, "sorted_block_residues", no_table)
    form = build_canonical(PrimeBasis.first(8))
    spec = IntervalSpec(10**9, 10**9 + 1000)
    values = list(enumerate_interval(form, spec))
    assert values == oracle.coprime_scan(spec, form.moduli)
    assert theorems.verify_theorem1(PrimeBasis.first(8), 1).verdict == "pass"


def test_enumerate_refuses_oversized_tables_before_iterating(monkeypatch):
    # Only the period table is capped: it is refused before any sieving,
    # and the stream over the same form needs no table.
    def no_work(*args):
        raise AssertionError("sieved the period before the table cap was checked")

    form = build_canonical(PrimeBasis.first(9))
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_sieve", no_work)
        with pytest.raises(BudgetExceeded) as info:
            sorted_block_residues(form)
    assert info.value.required == 36495360
    assert info.value.budget == MAX_BLOCK_RESIDUES
    assert "fixed" in str(info.value)
    # The first 50 values lie below 400: 1 and the primes from 29 on.
    for width in (10, 10**12):
        head = list(islice(enumerate_interval(form, IntervalSpec(0, width)), 50))
        assert head == oracle.coprime_scan(IntervalSpec(0, min(width, 400)), form.moduli)[:50]


@pytest.mark.parametrize("r", range(9, 15))
def test_enumerate_past_the_table_cap_matches_the_scan(monkeypatch, r):
    rng = random.Random(1000 + r)
    form = build_canonical(PrimeBasis.first(r))
    # A small segment puts many seams inside every window.
    for segment in (enumeration.SEGMENT, rng.randrange(3, 40)):
        monkeypatch.setattr(enumeration, "SEGMENT", segment)
        straddle = sys.maxsize - rng.randrange(0, 3000)
        for lo in (0, rng.randrange(0, 10**9), straddle, 2**64 + rng.randrange(0, 10**20)):
            spec = IntervalSpec(lo, lo + rng.randrange(1, 3000))
            values = list(enumerate_interval(form, spec))
            assert values == oracle.coprime_scan(spec, form.moduli), (segment, spec)
            assert len(values) == count_interval(form, spec)


def test_residue_table_for_a_large_axis_modulus():
    # One lift per class of a 100003-class axis: shifting every admissible
    # class per lift made this quadratic in the modulus.
    form = build_coprime_wheel([3, 100003], h1=1)
    table = sorted_block_residues(form)
    assert len(table) == 100002
    assert table == _walk_and_sort_table(form)


def test_wide_r8_window_builds_no_table(monkeypatch):
    def no_table(form):
        raise AssertionError("a wide window built the residue table")

    monkeypatch.setattr(enumeration, "sorted_block_residues", no_table)
    form = build_canonical(PrimeBasis.first(8))
    spec = IntervalSpec(10**12 + 1, 10**12 + 4 * 10**6)
    values = list(enumerate_interval(form, spec))
    assert len(values) == count_interval(form, spec)
    assert values == sorted(set(values))
    # The window spans 2e6 candidates, so one segment seam lies inside it.
    seam = spec.lo + 2 * enumeration.SEGMENT
    near = IntervalSpec(seam - 1000, seam + 1000)
    assert [v for v in values if near.lo <= v < near.hi] == oracle.coprime_scan(near, form.moduli)


@pytest.mark.parametrize("lo", [10**12, 10**20])
def test_stream_holds_one_mask_not_a_segment_of_values(lo):
    # One r = 4 segment holds about 480,000 values at lo = 1e20: a list of
    # them peaks near 23 MB, where the stream holds one mask of SEGMENT bytes.
    form = build_canonical(PrimeBasis.first(4))
    tracemalloc.start()
    try:
        stream = enumerate_interval(form, IntervalSpec(lo, lo + 4 * enumeration.SEGMENT))
        head = list(islice(stream, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(head) == 1000
    assert peak < 4 * 2**20, peak


def test_stream_at_large_r_derives_no_big_integer():
    form = build_canonical(PrimeBasis.first(20000))
    assert list(enumerate_interval(form, IntervalSpec(1, 2))) == [1]
    assert not {"coeffs", "constant", "period"} & vars(form).keys()


@pytest.mark.parametrize("r", [23, 5000])
def test_count_refusal_reads_no_constant(r):
    form = build_canonical(PrimeBasis.first(r))
    with pytest.raises(BudgetExceeded) as info:
        count_interval(form, IntervalSpec(1, 2**r), budget=2 ** (r - 1) - 1)
    assert info.value.required == 2 ** (r - 1)
    assert "constant" not in vars(form)


def test_count_at_large_r_derives_no_big_integer():
    form = build_canonical(PrimeBasis.first(20000))
    assert count_interval(form, IntervalSpec(1, 100)) == 1
    assert not {"coeffs", "constant", "period"} & vars(form).keys()


def test_canonical_build_runs_no_lcm_or_product(monkeypatch):
    def no_work(*args):
        raise AssertionError("a canonical form was checked or multiplied out when built")

    basis = PrimeBasis.first(20000)
    monkeypatch.setattr(math, "lcm", no_work)
    monkeypatch.setattr(math, "prod", no_work)
    form = build_canonical(basis)
    assert form.free_indices == tuple(range(2, 20001))
