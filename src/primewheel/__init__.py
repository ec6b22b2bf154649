"""Exact linear wheel forms over the first r primes.

Builds the linear function whose value set is precisely the integers
divisible by none of the first r primes (or of arbitrary pairwise coprime
moduli), streams and counts those values over intervals, and verifies the
associated window and counting claims against brute-force oracles.
"""

from .diophantine import SolutionFamily, nth_solution, solve_linear, solve_unit
from .enumeration import (
    BlockCount,
    IntervalSpec,
    count_block,
    count_interval,
    enumerate_interval,
    sorted_block_residues,
)
from .errors import BudgetExceeded
from .oracle import (
    FactorProfile,
    coprime_scan,
    factor_profile,
    is_k_almost,
    omega,
    omega_sieve,
    primes_in,
    rough_sieve,
    spf,
)
from .theorems import (
    Counterexample,
    VerificationReport,
    bertrand_condition,
    check_identity26,
    compare_pi,
    pi_approx,
    search_identity25,
    theorem1_interval,
    verify_corollary2,
    verify_theorem1,
)
from .wheel import (
    CanonicalWheelForm,
    CoprimeWheelForm,
    PrimeBasis,
    RawWheelForm,
    build_canonical,
    build_coprime_wheel,
    build_raw,
    canonicalize,
    decompose,
    evaluate,
    evaluate_raw,
    form_from_json,
    form_to_json,
)

__version__ = "0.1.0"
