"""Reference answers for the benchmark's job checks.

Nothing here imports primewheel: the values a job must print are worked
out from first principles (sieves, inclusion-exclusion, the CRT
definition of the canonical form), so a defect in the wheel code, or in
the package's own oracle module, cannot make the check agree with it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import compress


def small_primes(limit: int) -> list[int]:
    """Primes <= limit by plain Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), flags))


def first_primes(r: int) -> list[int]:
    """The first r primes."""
    limit = 16
    while True:
        primes = small_primes(limit)
        if len(primes) > r:
            return primes[:r]
        limit *= 2


def next_prime(p: int) -> int:
    """Smallest prime strictly above p."""
    q = p + 1
    while any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        q += 1
    return q


def rough_values(lo: int, hi: int, primes) -> list[int]:
    """Integers in [lo, hi) divisible by none of `primes`, by striking multiples."""
    flags = bytearray(b"\x01") * (hi - lo)
    for p in primes:
        start = -lo % p
        flags[start::p] = bytes(len(range(start, hi - lo, p)))
    return list(compress(range(lo, hi), flags))


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by a windowed sieve of Eratosthenes."""
    lo = max(lo, 2)
    if lo >= hi:
        return []
    flags = bytearray(b"\x01") * (hi - lo)
    for p in small_primes(math.isqrt(hi - 1)):
        start = max(p * p, -(-lo // p) * p) - lo
        if start < hi - lo:
            flags[start::p] = bytes(len(range(start, hi - lo, p)))
    return list(compress(range(lo, hi), flags))


def omega(n: int) -> int:
    """Number of prime factors of n >= 1, counted with multiplicity."""
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (n > 1)


def coprime_count(lo: int, hi: int, primes) -> int:
    """#{m in [lo, hi) : no p in `primes` divides m}, by inclusion-exclusion
    over the squarefree divisors of prod(primes) (Legendre's phi)."""
    terms = [(1, 1)]
    for p in primes:
        terms += [(d * p, -sign) for d, sign in terms]
    return sum(sign * ((hi - 1) // d - (lo - 1) // d) for d, sign in terms)


def explain(z: int, primes) -> tuple[int, list[int]]:
    """(t, [h_2..h_r]) with z = t*P + sum(A_j*h_j) + P/2, where A_j is the CRT
    idempotent for p_j (A_j = 1 mod p_j, 0 mod the other primes)."""
    period = math.prod(primes)
    hs = [z % p for p in primes[1:]]
    body = z - period // 2
    for p, h in zip(primes[1:], hs):
        m = period // p
        body -= m * pow(m, -1, p) * h
    t, rem = divmod(body, period)
    if rem:
        raise ValueError(f"{z} is not a value of the canonical form")
    return t, hs


def gen_output(values, primes, fmt: str, explained: bool) -> bytes:
    """The exact stdout of `primewheel gen` for these values."""
    r = len(primes)
    lines = []
    if fmt == "csv":
        lines.append("z,t," + ",".join(f"h{j}" for j in range(2, r + 1)) if explained else "z")
    for z in values:
        if not explained:
            lines.append(f'{{"z": "{z}"}}' if fmt == "json-lines" else str(z))
            continue
        t, hs = explain(z, primes)
        if fmt == "json-lines":
            lines.append(json.dumps({"z": str(z), "t": t, "h": hs}))
        elif fmt == "csv":
            lines.append(",".join(map(str, [z, t, *hs])))
        else:
            lines.append(f"{z} t={t} h=[{','.join(map(str, hs))}]")
    return "".join(line + "\n" for line in lines).encode()


def lines_output(values) -> bytes:
    """One decimal value per line, as the oracle subcommands print them."""
    return "".join(f"{v}\n" for v in values).encode()


def count_output(total: int, fmt: str) -> bytes:
    if fmt == "json-lines":
        return f'{{"count": "{total}"}}\n'.encode()
    if fmt == "csv":
        return f"count\n{total}\n".encode()
    return f"{total}\n".encode()


def pi_approx_output(r: int, fmt: str) -> bytes:
    """`count --pi-approx`: the density estimate r + q^2 * (phi - 1) / P for the
    prime count below q^2 (q the (r+1)-th prime), next to the sieved count."""
    primes = first_primes(r)
    q = next_prime(primes[-1])
    phi = math.prod(p - 1 for p in primes)
    approx = r + Fraction(q * q * (phi - 1), math.prod(primes))
    exact = len(primes_between(1, q * q))
    rel = abs(approx - exact) / exact
    if fmt == "json-lines":
        text = json.dumps({"approx": str(approx), "exact": str(exact), "rel_error": str(rel)})
    else:
        text = f"approx={float(approx):.3f} exact={exact} rel_error={float(rel):.4f}"
        if fmt == "csv":
            text = f"approx,exact,rel_error\n{float(approx):.3f},{exact},{float(rel):.4f}"
    return (text + "\n").encode()


def parse_report(stdout: bytes, fmt: str) -> dict:
    """verdict, checked, witnesses_pass, interval and number of
    counterexamples of a `verify` report in either output format."""
    text = stdout.decode()
    if fmt == "json-lines":
        data = json.loads(text)
        interval = data["interval"]
        return {
            "verdict": data["verdict"],
            "checked": int(data["checked"]),
            "witnesses_pass": int(data["witnesses_pass"]),
            "interval": None if interval is None else (int(interval["lo"]), int(interval["hi"])),
            "counterexamples": len(data["counterexamples"]),
        }
    lines = text.splitlines()
    fields = dict(
        line.split(": ", 1)
        for line in lines
        if ": " in line and not line.startswith(("detail ", " "))
    )
    interval = fields.get("interval")
    if interval is not None:
        lo, hi = interval.strip("[)").split(", ")
        interval = (int(lo), int(hi))
    return {
        "verdict": fields["verdict"],
        "checked": int(fields["checked"]),
        "witnesses_pass": int(fields["witnesses_pass"]),
        "interval": interval,
        "counterexamples": sum(line.startswith("  - value=") for line in lines),
    }
