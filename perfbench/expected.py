"""Expected answers for the three benchmark corpora, written by hand.

Nothing here imports qgring: every answer comes from the classification
theorems or from the group's character theory, never from the code under
test. An answer holds

    verdict, reason   the ND verdict and its reason (None for family-sweep,
                      whose op stops at the matrix count)
    count             the matrix-component count in `--json` form: an int,
                      or [lo, None] when only a lower bound is certified
    dims              the sorted Q-dimensions of the primitive central
                      idempotents the pipeline reports

The Q-dimension of the simple component of an irreducible character chi is
chi(1)^2 * [Q(chi):Q]. For an abelian group the components are the fields
Q(zeta_|C|), one per cyclic subgroup C, so `abelian_dims` counts cyclic
subgroups by order.

`ANALYZE_DIGESTS` holds the sha256 of `qgring analyze <spec> --json` at the
commit that introduced the benchmark; the `--json` output must stay
byte-identical, so any other digest is a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

Count = Union[int, list]


@dataclass(frozen=True)
class Answer:
    verdict: Optional[str]
    reason: Optional[str]
    count: Count
    dims: tuple[int, ...]


HAS = ("HasND", "OneMatrixComponent")
NOT = ("NotND", "WitnessFound")
UNKNOWN = ("Unknown", "BudgetExhausted")


# ---------------------------------------------------------------------------
# number theory, independent of the library


def phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def ord_mod(m: int, r: int) -> int:
    k, x = 1, r % m
    while x != 1 % m:
        x = x * r % m
        k += 1
    return k


def valuation(p: int, n: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def abelian_dims(orders: list[int]) -> list[int]:
    """phi(|C|) for every cyclic subgroup C of the product of C_n, n in orders."""
    exponent = math.lcm(*orders) if orders else 1
    dims: list[int] = []
    for d in divisors(exponent):
        # elements of order exactly d, by Moebius inversion over divisors
        exact = sum(_mobius(d // e) * math.prod(math.gcd(e, n) for n in orders)
                    for e in divisors(d))
        dims += [phi(d)] * (exact // phi(d))
    return dims


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


# ---------------------------------------------------------------------------
# Theorem A families (nilpotent)


def bj1(p: int, m: int, n: int) -> Answer:
    """<a, b | a^(p^m) = b^(p^n) = 1, b a b^-1 = a^(1+p^(m-1))>.

    G' = <a^(p^(m-1))> has order p and G/G' = C_(p^(m-1)) x C_(p^n). The
    nonlinear characters have degree p and vanish off Z(G) = <a^p> x <b^p>;
    they match the central characters mu = (x, y) with x a unit mod
    p^(m-1). A Galois orbit of mu of order o gives a component of dimension
    p^2 phi(o), and o = p^max(m-1, j) when y has order p^j. Odd p gives
    matrix algebras only (Roquette). For p = 2 a component is a matrix
    algebra unless its center is Q, and for m = 2 the orbit j = 1 is the
    quotient Q8, a division ring; j = 0 is the quotient D8.
    """
    dims = abelian_dims([p ** (m - 1), p ** n])
    components = 0
    for j in range(n):
        o = p ** max(m - 1, j)
        orbits = phi(p ** (m - 1)) * phi(p ** j) // phi(o)
        dims += [p * p * phi(o)] * orbits
        components += orbits
    count = components - 1 if (p == 2 and m == 2 and n >= 2) else components
    return Answer(None, None, count, tuple(sorted(dims)))


def bj2(p: int, z_order: int) -> Answer:
    """G0 o C_|Z| with G0 nonabelian of order p^3: G/G' = C_p^2 x C_(|Z|/p)
    and one fully ramified Galois orbit over the faithful characters of Z,
    the component M_p(Q(zeta_|Z|)) of dimension p^2 phi(|Z|)."""
    dims = abelian_dims([p, p, z_order // p]) + [p * p * phi(z_order)]
    return Answer(None, None, 1, tuple(sorted(dims)))


def quaternion_times_abelian(orders: list[int]) -> tuple[int, ...]:
    """Q[Q8 x A] = (4Q + H(Q)) (x) Q[A]: four copies of Q(zeta_d) and one
    H(Q) (x) Q(zeta_d) for each cyclic subgroup of A of order d."""
    dims: list[int] = []
    for f in abelian_dims(orders):
        dims += [f] * 4 + [4 * f]
    return tuple(sorted(dims))


def bj3(n: int) -> Answer:
    """Q8 x C_(2^n): H(Q) (x) Q(zeta_(2^j)) splits exactly for j >= 2."""
    return Answer(None, None, n - 1, quaternion_times_abelian([2 ** n]))


def hamiltonian(e_rank: int, odd_order: int) -> Answer:
    """Q8 x C_2^e x C_m, m odd: H(Q(zeta_d)) splits iff ord_d(2) is even,
    once for each of the 2^e elementary abelian 2-parts."""
    splits = sum(1 for d in divisors(odd_order)
                 if d > 1 and ord_mod(d, 2) % 2 == 0)
    return Answer(None, None, 2 ** e_rank * splits,
                  quaternion_times_abelian([2] * e_rank + [odd_order]))


# The six single groups of Theorem A. G/G' is elementary abelian of order
# 16 (BJ9, D8cpQ8), 8 (BJ8) or C2 x C4 (BJ5, Q16 has C2 x C2); BJ4 has
# G/G' = C3 x C3. Nonlinear parts:
#   BJ4    one orbit of 2 characters of degree 3 over Q(zeta_3) and one of
#          6 faithful ones over Q(zeta_9): 9*2 + 9*6; odd p, both matrix.
#   BJ5    quotient D8 gives M_2(Q), quotient C4:C4 over mu(b^2) = -1 gives
#          H(Q), the faithful orbit over Q(i) gives a 16-dimensional
#          matrix algebra: two matrix components.
#   Q16    quotient D8 gives M_2(Q); the faithful pair over Q(sqrt 2) is a
#          quaternion division algebra.
#   D8cpQ8 one faithful character of degree 4: M_2(H(Q)).
#   BJ8    exponent 4: the two 8-dimensional components have center Q(i)
#          and split; the two 4-dimensional ones come from a C2 x Q8
#          quotient and are H(Q).
#   BJ9    one faithful-on-mu rational character of degree 4 for each of
#          the three nontrivial central characters of Z = C2^2: three
#          16-dimensional matrix components.
NAMED = {
    "BJ4": Answer(None, None, 2, (1, 2, 2, 2, 2, 18, 54)),
    "BJ5": Answer(None, None, 2, (1, 1, 1, 1, 2, 2, 4, 4, 16)),
    "Q16": Answer(None, None, 1, (1, 1, 1, 1, 4, 8)),
    "D8cpQ8": Answer(None, None, 1, (1,) * 16 + (16,)),
    "BJ8": Answer(None, None, 2, (1,) * 8 + (4, 4, 8, 8)),
    "BJ9": Answer(None, None, 3, (1,) * 16 + (16, 16, 16)),
}


# ---------------------------------------------------------------------------
# Theorem B families (solvable, not nilpotent)


def faithful_cyclic(p: int, q: int) -> Answer:
    """C_p : C_q acting faithfully: Q[C_q] plus M_q(F), [F:Q] = (p-1)/q."""
    dims = [phi(d) for d in divisors(q)] + [q * (p - 1)]
    return Answer(None, None, 1, tuple(sorted(dims)))


def faithful_vector(p: int, n: int, q: int) -> Answer:
    """C_p^n : C_q, q prime, irreducible fixed-point-free action: Q[C_q]
    plus v = (p^n - 1)/((p - 1) q) copies of M_q(Q(zeta_p))."""
    v = (p ** n - 1) // ((p - 1) * q)
    dims = [1, q - 1] + [q * q * (p - 1)] * v
    return Answer(None, None, v, tuple(sorted(dims)))


def nonfaithful_division(p: int, q: int, k0: int, j: int) -> bool:
    """Level-j component of C_p : C_(q^k) with kernel level k0 is a division
    ring (valuation form of Amitsur's criterion)."""
    if q ** k0 == 2 and q ** (j - k0) == 2:
        return True
    d = ord_mod(q ** (j - k0), p)
    return valuation(q, p ** d - 1) == j - k0


def nonfaithful(p: int, q: int, k: int, k0: int) -> Answer:
    """C_p : C_(q^k), the action through C_(q^k0). Q[C_(q^k)] plus one
    component per level j = k0..k of dimension (p-1) q^k0 phi(q^(j-k0));
    level k0 is a matrix ring, level j > k0 one unless it is a division
    ring."""
    dims = [phi(q ** j) for j in range(k + 1)]
    dims += [(p - 1) * q ** k0 * phi(q ** (j - k0)) for j in range(k0, k + 1)]
    count = 1 + sum(1 for j in range(k0 + 1, k + 1)
                    if not nonfaithful_division(p, q, k0, j))
    return Answer(None, None, count, tuple(sorted(dims)))


# ---------------------------------------------------------------------------
# analyze-large and witness-search: single groups, answers spelled out


ANALYZE = {
    # D_2n, n = 100: four linear characters and M_2(Q(zeta_d)^+) for each
    # d | 100 with d > 2; every one is a matrix algebra.
    "D(200)": Answer(*NOT, 7, (1, 1, 1, 1, 4, 8, 8, 16, 40, 40, 80)),
    # Q8 x C25: ord_5(2) = 4 and ord_25(2) = 20 are even.
    "X(Q(8),C(25))": Answer(*NOT, 2, (1, 1, 1, 1, 4, 4, 4, 4, 4, 16,
                                      20, 20, 20, 20, 80)),
    # Q8 x C27: ord_3(2) = 2, ord_9(2) = 6, ord_27(2) = 18 are even.
    "X(Q(8),C(27))": Answer(*NOT, 3, (1, 1, 1, 1, 2, 2, 2, 2, 4, 6, 6, 6, 6,
                                      8, 18, 18, 18, 18, 24, 72)),
    # C7 : C27 with kernel level 1; levels 2 and 3 are division rings.
    "SdCyc(7,27,2)": Answer(*HAS, 1, (1, 2, 6, 18, 18, 36, 108)),
    "BJ9": Answer(*NOT, 3, NAMED["BJ9"].dims),
    # (C3 x C3) : C8, Singer action: Q[C8] plus M_8(Q).
    "C3C3rC8": Answer(*HAS, 1, (1, 1, 2, 4, 64)),
    # A5 reports only its documented Shoda pair (A4, V4): the component
    # M_5(Q) of the degree-5 character; the other three stay uncounted.
    "A5": Answer(*NOT, [1, None], (25,)),
}

ANALYZE_DIGESTS = {
    "D(200)": "90c8cd265f7ecdef9ea5b15971184b541e59ecd80c9c7ae9c67f15a68e8e825f",
    "X(Q(8),C(25))": "589ed2ef3b5332db6b44381efbbf3146e4a189021042c09c96a0d4bc0d29fe2b",
    "X(Q(8),C(27))": "c5335ac6391fbb19bf69ce5ece64d57e5acf5ed6392603e832bf92baa78569a1",
    "SdCyc(7,27,2)": "3f1b517b5c7d1c4d437196f53aad49420442298faa3a110d7459f05d0855b9a6",
    "BJ9": "8b48188a9243feb90457a66d28d0f5a8fb3bb287dabf987802346d62265769da",
    "C3C3rC8": "3c619435cb494770bfea13e469bdb0524cb7cdda77649589f2bcd059f6266ab5",
    "A5": "d2164b330791ac4bc64a42a7d24458bd3409473789065ec2cf61123f8ef086e8",
}

# Every group here has at least two matrix components, so HasND would be
# unsound; Unknown records only that the budget ran out, and a NotND whose
# witness passes re-verification is accepted in its place.
WITNESS = {
    "SdCyc(3,8,2)": Answer(*UNKNOWN, 2, (1, 1, 2, 4, 4, 4, 8)),
    "SdCyc(5,8,2)": Answer(*UNKNOWN, 2, (1, 1, 2, 4, 16, 16)),
    "SdCyc(3,16,2)": Answer(*UNKNOWN, 2, (1, 1, 2, 4, 4, 4, 8, 8, 16)),
    "SdCyc(5,16,2)": Answer(*UNKNOWN, 2, (1, 1, 2, 4, 8, 16, 16, 32)),
    "SdCyc(13,8,5)": Answer(*UNKNOWN, 2, (1, 1, 2, 4, 48, 48)),
    # Q[G x C2] = Q[G] (x) (Q + Q): two copies of Q[C3 : C8].
    "X(SdCyc(3,8,2),C(2))": Answer(*NOT, 4, tuple(sorted((1, 1, 2, 4, 4, 4, 8) * 2))),
}
