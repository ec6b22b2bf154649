"""The segmented Omega sieve, sieve_segments with no moduli, against trial
division, and the one striking scan behind coprime_scan against a per-value
test; the segment size rule, and the flags sieve_segments strikes in the same walk."""

import math
import random
from itertools import chain, compress

import pytest

from primewheel import oracle, theorems
from primewheel.enumeration import IntervalSpec
from primewheel.errors import BudgetExceeded
from primewheel.oracle import coprime_scan, factor_profile, sieve_segments
from primewheel.wheel import PrimeBasis


def _omegas(interval, budget=None):
    """The Omega bytes of sieve_segments with no moduli, one bytes per segment."""
    return [omegas for _, _, omegas in sieve_segments(interval, (), budget)]


def _sieved(lo, hi, budget=None):
    return list(chain.from_iterable(_omegas(IntervalSpec(lo, hi), budget)))


def _assert_matches_trial_division(lo, hi):
    assert _sieved(lo, hi) == [factor_profile(m).omega for m in range(lo, hi)], (lo, hi)


@pytest.mark.parametrize("lo,hi", [(1, 2), (1, 3), (2, 3), (1, 5000), (2, 5000), (1, 10), (2, 10)])
def test_omega_sieve_from_one_and_two(lo, hi):
    _assert_matches_trial_division(lo, hi)


def _rounding_margin_values():
    # Each odd factor loses up to 1 to the floor of its log weight, so
    # powers of 3 lose the most; a power of 2 loses nothing.
    yield from (3**k for k in range(1, 21))
    yield from (2**a * 3**b for a in range(1, 30, 3) for b in range(1, 20, 2) if 2**a * 3**b < 10**10)
    # Prime squares just below 2^20, past 2^32 and just below 10^13.
    yield from (1021**2, 65537**2, 3162277**2)


def test_omega_sieve_at_prime_powers_and_prime_squares():
    for p in (2, 3, 5, 7, 31, 97, 1009):
        for k in range(1, 8):
            q = p**k
            if q > 10**10:
                break
            _assert_matches_trial_division(max(1, q - 3), q + 4)
            # q is the last value, so sqrt(hi - 1) is exactly p when k = 2.
            _assert_matches_trial_division(max(1, q - 40), q + 1)
    for q in _rounding_margin_values():
        # q is the last value, then the first one past hi.
        _assert_matches_trial_division(max(1, q - 6), q + 1)
        _assert_matches_trial_division(max(1, q - 6), q)


def test_omega_sieve_with_a_cofactor_prime_above_the_root():
    # 998 = 2 * 499, 997 and 999 = 27 * 37 below hi = 1000, whose root is 31.
    _assert_matches_trial_division(990, 1000)
    big = 1_000_003  # prime
    for k in (2, 3, 6, 30):
        _assert_matches_trial_division(k * big - 5, k * big + 1)
    # Base primes up to 3.16 * 10^6, and 10^13 + 37 is prime.
    _assert_matches_trial_division(10**13 - 30, 10**13 + 38)


@pytest.mark.parametrize("segment", [1, 2, 7, 64, 1 << 14])
def test_omega_sieve_across_segment_seams(monkeypatch, segment):
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", segment)
    lists = _omegas(IntervalSpec(95, 420))
    assert all(len(part) == segment for part in lists[:-1])
    assert 1 <= len(lists[-1]) <= segment
    _assert_matches_trial_division(95, 420)
    _assert_matches_trial_division(1, 3 * segment + 1)
    # Each crosses a power of two, where the cofactor cut changes, inside
    # a segment once the segment is wider than 7.
    for j in (8, 17, 33):
        _assert_matches_trial_division(2**j - 5, 2**j + 3)


def _theorem1_cases():
    # The theorem1 jobs of the benchmark's verify-claims workload.
    return [(r, n) for r, top in ((3, 5), (4, 4), (5, 4)) for n in range(1, top + 1)]


@pytest.mark.parametrize("r,n", _theorem1_cases())
def test_omega_sieve_on_theorem1_windows(r, n):
    window = theorems.theorem1_interval(PrimeBasis.first(r), n)
    values = _sieved(window.lo, window.hi)
    assert len(values) == window.width
    # Trial division of a whole 342,732-wide window takes seconds, so the
    # wide windows are checked on their first, middle and last 3 segments.
    span = 3 * oracle.OMEGA_SEGMENT
    middle = window.width // 2
    for start in sorted({0, max(0, middle - span // 2), max(0, window.width - span)}):
        part = range(window.lo + start, min(window.hi, window.lo + start + span))
        assert values[start : start + len(part)] == [factor_profile(m).omega for m in part]


def test_omega_sieve_checks_width_and_root_before_sieving():
    with pytest.raises(BudgetExceeded) as info:
        sieve_segments(IntervalSpec(1, 1002), (), budget=1000)
    assert info.value.required == 1001
    # A narrow window far out walks the base primes up to its square root.
    with pytest.raises(BudgetExceeded, match="^omega sieve needs ") as info:
        sieve_segments(IntervalSpec(10**12, 10**12 + 10), (), budget=10**5)
    assert info.value.required == math.isqrt(10**12 + 9)
    with pytest.raises(BudgetExceeded, match="^omega sieve needs 100000000 "):
        sieve_segments(IntervalSpec(10**16, 10**16 + 2), ())
    with pytest.raises(ValueError):
        sieve_segments(IntervalSpec(0, 10), ())


def test_omega_sieve_refuses_a_window_past_its_bit_cap(monkeypatch):
    # hi - 1 has one bit more than the cap; base primes up to 2^63 would be
    # sieved for it. The cap refuses it first, whether the budget admits it or not.
    def no_sieve(*args):
        raise AssertionError("sieved the base primes of a window past the cap")

    monkeypatch.setattr(oracle, "_base_primes", no_sieve)
    cap = oracle.OMEGA_MAX_BITS
    window = IntervalSpec(2**cap, 2**cap + 2)
    with pytest.raises(BudgetExceeded) as info:
        sieve_segments(window, (), budget=2**cap)
    assert str(info.value).startswith(f"omega sieve bits needs {cap + 1} but the budget is {cap}; no flag")
    with pytest.raises(BudgetExceeded, match=f"^omega sieve bits needs {cap + 1} "):
        sieve_segments(window, ())


def _floor_log3(m):
    k = 0
    while m >= 3:
        m, k = m // 3, k + 1
    return k


def _margins(hi, tops_only=False):
    """(U, L) of sieve_segments' docstring for the pieces [2^j, min(hi, 2^(j+1)))
    of [1, hi), the widest it reads: a piece inside one of them has no
    larger U and no smaller L. With tops_only, only the piece that ends at hi."""
    b = (hi - 1).bit_length()
    scale, root = 255 // b, math.isqrt(hi - 1)
    for j in range(b - 1 if tops_only else 0, b):
        y = min(hi, 2 << j)
        # bits(x^S) - 1 = S * j at x = 2^j.
        yield oracle._cut(y, root, scale) - 1, scale * j - _floor_log3(y - 1)


def test_omega_sieve_weight_margin_separates_the_cofactor():
    # Below the top piece, U and L depend on hi only through b and root.
    seen = set()
    for hi in range(2, 2**18):
        key = ((hi - 1).bit_length(), math.isqrt(hi - 1))
        assert all(u < low for u, low in _margins(hi, tops_only=key in seen)), hi
        seen.add(key)
    rng = random.Random(20141)
    cap = oracle.OMEGA_MAX_BITS
    his = [hi for b in range(2, cap + 1) for hi in (2 ** (b - 1) + 1, 2**b)]
    for _ in range(2000):
        b = rng.randrange(2, cap + 1)
        his.append(rng.randrange(2 ** (b - 1), 2**b) + 1)
    for hi in his:
        assert all(u < low for u, low in _margins(hi)), hi
    # One bit more and S = 1: the margin fails, so the cap is where it must be.
    assert any(u >= low for u, low in _margins(2**cap + 1))


def _per_value_scan(interval, moduli):
    return [m for m in range(interval.lo, interval.hi) if all(m % q for q in moduli)]


def test_striking_scan_matches_per_value_test():
    rng = random.Random(7919)
    cases = [
        (IntervalSpec(0, 10), [4, 9]),
        (IntervalSpec(0, 1000), [4, 9]),
        (IntervalSpec(0, 1), [2]),
        (IntervalSpec(0, 500), [4, 9, 25, 7]),
        (IntervalSpec(10**20, 10**20 + 3000), [2, 3, 5, 7, 11]),
    ]
    for _ in range(30):
        moduli = rng.sample(range(2, 60), rng.randrange(1, 6))
        lo = rng.randrange(0, 10**6)
        cases.append((IntervalSpec(lo, lo + rng.randrange(1, 5000)), moduli))
    for interval, moduli in cases:
        want = _per_value_scan(interval, moduli)
        assert coprime_scan(interval, moduli) == want, (interval, moduli)
    basis = PrimeBasis.first(4)
    interval = IntervalSpec(0, 2000)
    assert coprime_scan(interval, basis) == _per_value_scan(interval, basis.primes)


def test_striking_scan_across_its_segment_seam(monkeypatch):
    monkeypatch.setattr(oracle, "_SEGMENT", 37)
    interval = IntervalSpec(5, 1000)
    assert coprime_scan(interval, [4, 9, 5]) == _per_value_scan(interval, [4, 9, 5])


def _base_primes_window(count, below, above):
    """[q^2 - below, q^2 + above) for q the count-th prime: the base primes of
    its hi - 1 are exactly the first count primes while hi <= p_(count+1)^2."""
    q, after = oracle.primes_in(IntervalSpec(2, 20000))[count - 1 : count + 1]
    assert q * q + above <= after * after
    return IntervalSpec(q * q - below, q * q + above)


@pytest.mark.parametrize(
    "count,size",
    [(63, 1 << 14), (127, 1 << 14), (128, 1 << 15), (200, 3 << 14), (1023, 15 << 14)]
    + [(1024, 1 << 18), (1500, 1 << 18)],
)
def test_segment_grows_with_the_base_primes_up_to_its_cap(count, size):
    window = _base_primes_window(count, 2 * size, 3)
    assert [len(seg) for seg, _, _ in oracle.sieve_segments(window, ())] == [size, size, 3]


# With OMEGA_SEGMENT at 3 and the cap at 15, every size the rule picks is
# reached: 3 below 128 base primes, then 6, 9 and 12, and 15 from 320 up.
RULE_SIZES = {
    2: 3, 63: 3, 64: 3, 127: 3, 128: 6, 191: 6, 192: 9, 256: 12, 319: 12, 320: 15, 400: 15,
}


@pytest.mark.parametrize("count", sorted(RULE_SIZES))
@pytest.mark.parametrize("seam", [-1, 0, 1, 2])
def test_one_walk_equals_trial_division_and_the_scan_at_every_rule_size(monkeypatch, count, seam):
    # A segment starts at q^2 + seam, for q the largest base prime: the seams
    # split q^2 - 2 | q^2 - 1, q^2 - 1 | q^2, q^2 | q^2 + 1 and q^2 + 1 | q^2 + 2.
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT", 3)
    monkeypatch.setattr(oracle, "OMEGA_SEGMENT_MAX", 15)
    size = RULE_SIZES[count]
    window = _base_primes_window(count, 2 * size - seam, seam + size + 2)
    for moduli in (PrimeBasis.first(min(count, 5)).primes, (4, 9, 35)):
        segments = list(sieve_segments(window, moduli))
        assert [seg.start for seg, _, _ in segments] == list(range(window.lo, window.hi, size))
        assert _omegas(window) == [omegas for _, _, omegas in segments]
        for seg, flags, omegas in segments:
            assert isinstance(omegas, bytes)
            assert list(omegas) == [factor_profile(m).omega for m in seg], (count, seam, seg)
            got = list(compress(seg, flags))
            assert got == coprime_scan(IntervalSpec(seg.start, seg.stop), moduli), (count, seg)
