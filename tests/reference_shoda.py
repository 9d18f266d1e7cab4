"""Reference implementations of the Shoda-pair layer.

These are the original `epsilon` (the product of tilde(K) - tilde(M) over
the minimal normal subgroups M/K of H/K, for any H/K, read off the
standalone quotient of reference_sections.py), `section_generator` (one
element of H at a time), the maximal-abelian pair
enumeration of `metabelian_pcis` (over G's whole subgroup lattice, every
candidate tested for a cyclic H/K), `_strong_shoda` (which
compares the centralizer of epsilon with N_G(K) before its orthogonality
loop), `is_shoda_pair`, `e_idem` (a sum of conjugates over a transversal
of that centralizer), the centrality test `_fixed_by_generators` (conjugation by
each generator of G) and `AlgElem.conjugate` (one `G.conj` per element
of the support); `reference_normalizer`, which tests every element, also
for a normal subgroup, is reference_groups.py's. Nothing here reads or
fills a group's memo but the quotients that reference_epsilon builds
through reference_sections.py. The library computes epsilon of a cyclic
H/K only, in closed form from the coset exponents, proves
Cen_G(epsilon) = N_G(K) for a strong pair from the orthogonality test,
and decides centrality from class constancy; the tests in test_pair_layer.py require identical
results from both.
"""

from __future__ import annotations

from typing import Optional

from qgring.algebra import AlgElem, tilde
from qgring.errors import NotNormalInH, SoundnessError
from qgring.groups import (
    FiniteGroup,
    Subgroup,
    commutator_subgroup,
    normalizes,
)
from qgring.numutil import prime_factors
from reference_groups import reference_normalizer


def _is_normal_in(H: Subgroup, K: Subgroup) -> bool:
    """K normal in H (both subgroups of the same parent)."""
    return K <= H and normalizes(H.parent, H.gens or H.members, K)


def reference_epsilon(H: Subgroup, K: Subgroup) -> AlgElem:
    """The idempotent of Q[H] built from K normal in H, for any H/K."""
    from reference_sections import reference_minimal_normal_subgroups_of_quotient

    if not _is_normal_in(H, K):
        raise NotNormalInH("K must be normal in H")
    if H.mask == K.mask:
        return tilde(H)
    out = None
    tk = tilde(K)
    for M in reference_minimal_normal_subgroups_of_quotient(H, K):
        factor = tk - tilde(M)
        out = factor if out is None else out * factor
    if out is None:
        raise SoundnessError("H/K is nontrivial but has no minimal normal subgroup")
    return out


def reference_conjugate(alpha: AlgElem, g: int) -> AlgElem:
    """g^-1 * alpha * g (coefficient permutation)."""
    G = alpha.group
    out = [0] * G.order
    for x in alpha.support:
        out[G.conj(x, g)] = alpha.nums[x]
    return AlgElem(G, out, alpha.den, _normalized=True)


def reference_fixed_by_generators(e: AlgElem) -> bool:
    G = e.group
    nums = e.nums
    for g in G.generators():
        for x in range(G.order):
            if nums[G.conj(x, g)] != nums[x]:
                return False
    return True


def reference_section_generator(H: Subgroup, K: Subgroup) -> Optional[int]:
    """The first h in H whose coset hK generates H/K (K normal in H), or
    None when H/K is not cyclic. hK has order n = [H : K] iff h^(n/p) is
    outside K for every prime p dividing n."""
    G = H.parent
    n = H.order // K.order
    steps = [n // p for p in prime_factors(n)]
    for h in H.members:
        if not any(K.contains(G.power(h, k)) for k in steps):
            return h
    return None


def reference_maximal_abelian_pairs(
        subs: list[Subgroup], A: Subgroup) -> list[tuple[Subgroup, Subgroup]]:
    """The pairs (H, K) of subgroups in subs with H maximal among the B
    with A <= B and B' <= K <= B, and H/K cyclic; H descending by order,
    K ascending, as metabelian_pcis tests them."""
    G = A.parent
    over_A = [(B, commutator_subgroup(G, B.members, B.members))
              for B in subs if A <= B]
    pairs = []
    for K in subs:
        cands = [B for B, derived in over_A if derived <= K <= B]
        for H in cands:
            if (not any(H < C for C in cands)
                    and reference_section_generator(H, K) is not None):
                pairs.append((H, K))
    pairs.sort(key=lambda hk: (-hk[0].order, hk[0].mask, hk[1].order, hk[1].mask))
    return pairs


def _right_transversal(G: FiniteGroup, C: Subgroup, reverse: bool = False) -> list[int]:
    """Representatives of the right cosets C*t, scanned in index order."""
    seen = 0
    reps = []
    order = range(G.order - 1, -1, -1) if reverse else range(G.order)
    for g in order:
        if seen >> g & 1:
            continue
        reps.append(g)
        for c in C.members:
            seen |= 1 << G.table[c][g]
    return reps


def reference_epsilon_and_centralizer(G: FiniteGroup, H: Subgroup,
                                  K: Subgroup) -> tuple[AlgElem, Subgroup]:
    """epsilon(H, K) and its centralizer in G, computed afresh."""
    eps = reference_epsilon(H, K)
    return eps, eps.centralizer_subgroup()


def reference_e_idem(G: FiniteGroup, H: Subgroup, K: Subgroup) -> AlgElem:
    """e(G, H, K): sum of the G-conjugates of epsilon(H, K) over a right
    transversal of its centralizer."""
    eps, C = reference_epsilon_and_centralizer(G, H, K)
    out = AlgElem.zero(G)
    for t in _right_transversal(G, C):
        out = out + eps.conjugate(t)
    if not reference_fixed_by_generators(out):
        raise SoundnessError("e(G,H,K) must be central")
    return out


def reference_strong_shoda(G: FiniteGroup, H: Subgroup, K: Subgroup) -> bool:
    if not _is_normal_in(H, K):
        return False
    N = reference_normalizer(G, K)
    if not _is_normal_in(N, H):
        return False
    x = reference_section_generator(H, K)
    if x is None:
        return False
    # H/K = <xK> maximal abelian in N/K  <=>  {m in N : (m, x) in K} = H
    if any(K.contains(G.commutator(m, x)) != H.contains(m) for m in N.members):
        return False
    # N <= Cen(eps) always (H and the minimal normal subgroups over K are
    # N-stable), so any g in Cen(eps) outside N already violates
    # orthogonality; the strong condition forces Cen(eps) = N exactly.
    eps, C = reference_epsilon_and_centralizer(G, H, K)
    if C.mask != N.mask:
        return False
    for t in _right_transversal(G, C):
        if N.contains(t):
            continue
        if not (eps * eps.conjugate(t)).is_zero():
            return False
    return True


def reference_is_shoda_pair(G: FiniteGroup, H: Subgroup, K: Subgroup) -> bool:
    """K normal in H, H/K cyclic, and every g outside H has some h in H
    with commutator (h, g) in H minus K."""
    if not _is_normal_in(H, K):
        return False
    if reference_section_generator(H, K) is None:
        return False
    for g in range(G.order):
        if H.contains(g):
            continue
        if not any(H.contains(c) and not K.contains(c)
                   for c in (G.commutator(h, g) for h in H.members)):
            return False
    return True
