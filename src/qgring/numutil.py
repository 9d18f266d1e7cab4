"""Small number-theory helpers: orders, valuations, CRT, primality."""

from __future__ import annotations

import math

from .errors import NotCoprime, NotPrime


def is_prime(n: int) -> bool:
    """Trial-division primality test, fine for the sizes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Return {prime: exponent} for n >= 1."""
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def ord_mod(m: int, r: int) -> int:
    """Multiplicative order of r modulo m (m >= 1, gcd(m, r) = 1)."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m == 1:
        return 1
    r %= m
    if math.gcd(m, r) != 1:
        raise NotCoprime(f"gcd({m}, {r}) != 1")
    k, x = 1, r
    while x != 1:
        x = x * r % m
        k += 1
    return k


def padic_valuation(p: int, n: int) -> int:
    """Largest e with p^e dividing n (p prime, n != 0)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def crt(residues: list[int], moduli: list[int]) -> int:
    """Least nonnegative x with x = residues[i] (mod moduli[i]); pairwise coprime moduli."""
    x, m = 0, 1
    for r, mod in zip(residues, moduli):
        g = math.gcd(m, mod)
        if g != 1:
            raise NotCoprime(f"moduli {m} and {mod} are not coprime")
        # x + m*k = r (mod mod)
        k = (r - x) * pow(m, -1, mod) % mod
        x += m * k
        m *= mod
    return x % m


def element_of_order(p: int, k: int) -> int | None:
    """Smallest r in (Z/p)* of multiplicative order exactly k, or None."""
    if (p - 1) % k != 0:
        return None
    for r in range(1, p):
        if pow(r, k, p) == 1 and ord_mod(p, r) == k:
            return r
    return None
