"""Exact linear wheel forms over the first r primes.

Builds the linear function whose value set is precisely the integers
divisible by none of the first r primes (or of arbitrary pairwise coprime
moduli), streams and counts those values over intervals, and verifies the
associated window and counting claims against brute-force oracles.

The public names below are imported from their submodules on first
access (PEP 562), so `import primewheel` loads no submodule and a caller
pays only for the modules it uses.
"""

from importlib import import_module as _import_module

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "diophantine": "SolutionFamily nth_solution solve_linear solve_unit",
        "enumeration": "BlockCount IntervalSpec count_block count_interval enumerate_interval "
        "sorted_block_residues",
        "errors": "BudgetExceeded",
        "oracle": "FactorProfile coprime_scan factor_profile is_k_almost omega omega_sieve "
        "primes_in rough_sieve spf",
        "theorems": "Counterexample VerificationReport bertrand_condition check_identity26 "
        "compare_pi pi_approx search_identity25 theorem1_interval verify_corollary2 "
        "verify_theorem1",
        "wheel": "CanonicalWheelForm CoprimeWheelForm PrimeBasis RawWheelForm build_canonical "
        "build_coprime_wheel build_raw canonicalize decompose evaluate evaluate_raw "
        "form_from_json form_to_json",
    }.items()
    for name in names.split()
}
_SUBMODULES = sorted(set(_EXPORTS.values()))

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
