"""Reference implementations of the central-idempotent checks.

These are the original `center_rank` (the rank of the class sums times e,
by fraction-free elimination in `exact_rank`), `centralizer_subgroup`
(which tests every element of G), the centrality and idempotency tests
(full products, not memoized) and the pairwise-orthogonality loop of
`metabelian_pcis`. The library decides the same facts at the class
representatives and skips whole cosets; the tests in test_central_layer.py
require identical results from both. `reference_fixed_field_degree` is the
closure walk over the action exponents that the split components' field
degree once came from; test_components.py checks phi(h) / |N : H| against
it.
"""

from __future__ import annotations

import math

from qgring.algebra import AlgElem
from qgring.errors import NotCentralIdempotent, SoundnessError
from qgring.groups import FiniteGroup, Subgroup, subgroup_from_mask
from qgring.numutil import euler_phi


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            if ri[col]:
                g = math.gcd(pr[col], ri[col])
                fa, fb = ri[col] // g, pr[col] // g
                for j in range(ncols):
                    ri[j] = ri[j] * fb - pr[j] * fa
                rg = 0
                for v in ri:
                    rg = math.gcd(rg, v)
                    if rg == 1:
                        break
                if rg > 1:
                    for j in range(ncols):
                        ri[j] //= rg
        rank += 1
        if rank == len(rows):
            break
    return rank


def reference_is_central(e: AlgElem) -> bool:
    """True iff conjugation by every generator of G fixes the element."""
    G = e.group
    nums = e.nums
    for g in G.generators():
        for x in range(G.order):
            if nums[G.conj(x, g)] != nums[x]:
                return False
    return True


def reference_is_idempotent(e: AlgElem) -> bool:
    return e * e == e


def reference_center_rank(G: FiniteGroup, e: AlgElem) -> int:
    """Q-dimension of the center of Q[G]e: rank of the class sums times e."""
    if not reference_is_central(e):
        raise NotCentralIdempotent("input is not central")
    if not reference_is_idempotent(e):
        raise NotCentralIdempotent("input is not idempotent")
    rows = []
    for cls in G.conjugacy_classes():
        nums = [0] * G.order
        for g in cls:
            nums[g] = 1
        rows.append((AlgElem(G, nums, 1, _normalized=True) * e).nums)
    return exact_rank(rows)


def reference_centralizer_subgroup(alpha: AlgElem) -> Subgroup:
    """Cen_G(alpha) = {g : g*alpha = alpha*g}, testing every g in G."""
    G = alpha.group
    nums = alpha.nums
    support = alpha.support
    mask = 0
    for g in range(G.order):
        if all(nums[G.conj(x, g)] == nums[x] for x in support):
            mask |= 1 << g
    return subgroup_from_mask(G, mask)


def reference_check_orthogonal(idempotents: list[AlgElem]) -> None:
    """The pairwise-orthogonality postcondition of metabelian_pcis."""
    for i, e in enumerate(idempotents):
        for f in idempotents[i + 1:]:
            if not (e * f).is_zero():
                raise SoundnessError("PCIs must be pairwise orthogonal")


def reference_fixed_field_degree(h: int, exps: list[int]) -> int:
    """Degree over Q of the fixed field of the given Galois exponents in
    the h-th cyclotomic field, by a closure walk over the subgroup of
    (Z/h)^x they generate."""
    group = {1 % h if h > 1 else 0}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for a in exps:
            y = x * a % h if h > 1 else 0
            if y not in group:
                group.add(y)
                frontier.append(y)
    return euler_phi(h) // len(group)
