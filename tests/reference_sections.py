"""Reference implementations of the section computations.

These are the original `section_quotient` (H/K built as a standalone,
validated group from `Subgroup.induced` and `quotient`), the
`minimal_normal_subgroups_of_quotient` that reads the normal subgroups of
that group (the library has none: reference_shoda.py's epsilon, general
in H/K, reads it), `_quotient_cyclic` (one closure <h, K> per h),
`_strong_shoda` with its maximal-abelian test (a centralizer in N_G(K)/K)
and the crossed-product data of `describe_component` (read off N_G(K)/K
and (N_G(K)/K)/(H/K)). The library computes every section from cosets
inside G; the tests in test_sections.py require identical results from
both.
"""

from __future__ import annotations

from qgring.errors import NotNormal
from qgring.groups import (
    FiniteGroup,
    Subgroup,
    _closure,
    centralizer,
    full_subgroup,
    normal_subgroups,
    quotient,
    subgroup_from_mask,
)
from reference_shoda import (
    _is_normal_in,
    _right_transversal,
    reference_epsilon_and_centralizer,
    reference_normalizer,
)


def section_quotient(H: Subgroup, K: Subgroup) -> tuple[FiniteGroup, dict[int, int]]:
    """The quotient H/K for K normal in H, and the map from each element of
    H (a parent index) to its coset index in H/K. Built once per pair."""
    key = ("section_quotient", H.mask, K.mask)
    if key not in H.parent._cache:
        Hgrp, to_parent = H.induced()
        pos = {g: i for i, g in enumerate(to_parent)}
        kmask = 0
        for g in K.members:
            kmask |= 1 << pos[g]
        Q, proj = quotient(Hgrp, subgroup_from_mask(Hgrp, kmask))
        H.parent._cache[key] = Q, {g: proj[i] for i, g in enumerate(to_parent)}
    return H.parent._cache[key]


def reference_minimal_normal_subgroups_of_quotient(H, K: Subgroup) -> list[Subgroup]:
    """Preimages of the minimal nontrivial normal subgroups of H/K.

    H may be a FiniteGroup or a Subgroup containing K; K must be normal
    in H. Results are subgroups M of H's parent with K < M <= H.
    """
    if isinstance(H, FiniteGroup):
        G = H
        Hsub = full_subgroup(G)
    else:
        G = H.parent
        Hsub = H
    if not (K <= Hsub):
        raise NotNormal("K is not contained in H")
    Q, proj = section_quotient(Hsub, K)  # raises NotNormal if K not normal in H
    normals = [M for M in normal_subgroups(Q) if M.order > 1]
    out = []
    for M in normals:
        if any(P.order < M.order and P <= M for P in normals):
            continue
        mask = 0
        for g, c in proj.items():
            if M.contains(c):
                mask |= 1 << g
        out.append(subgroup_from_mask(G, mask))
    out.sort(key=lambda s: (s.order, s.mask))
    return out


def reference_quotient_cyclic(H: Subgroup, K: Subgroup) -> bool:
    """H/K cyclic: some h in H has <h, K> = H."""
    G = H.parent
    if H.mask == K.mask:
        return True
    for h in H.members:
        if K.contains(h):
            continue
        if _closure(G, (h,), K) == H.mask:
            return True
    return False


def reference_strong_shoda(G: FiniteGroup, H: Subgroup, K: Subgroup) -> bool:
    if not _is_normal_in(H, K):
        return False
    N = reference_normalizer(G, K)
    if not _is_normal_in(N, H):
        return False
    if not reference_quotient_cyclic(H, K):
        return False
    # H/K maximal abelian in N/K  <=>  centralizer of H/K in N/K is H/K
    Q, proj = section_quotient(N, K)
    h_img = sorted({proj[h] for h in H.members})
    h_mask = 0
    for i in h_img:
        h_mask |= 1 << i
    cen = centralizer(Q, h_img)
    if cen.mask != h_mask:
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


def reference_crossed_product(G: FiniteGroup, H: Subgroup, K: Subgroup) -> dict:
    """matrix_size_n, cyclotomic_order_h, nh_order, nh_cyclic, action,
    twisting, gen_action_exp and gen_twist_exp of a strong Shoda pair."""
    N = reference_normalizer(G, K)
    n = G.order // N.order
    h = H.order // K.order

    NK, proj1 = section_quotient(N, K)

    h_img = sorted({proj1[g] for g in H.members})
    # generator of the cyclic group H/K and its discrete log table
    xbar = min(g for g in h_img if NK.element_order(g) == h)
    dlog = {}
    cur = 0
    for k in range(h):
        dlog[cur] = k
        cur = NK.table[cur][xbar]
    hk_mask = 0
    for g in h_img:
        hk_mask |= 1 << g
    HKloc = subgroup_from_mask(NK, hk_mask)
    NH, proj2 = quotient(NK, HKloc)
    nh = NH.order
    reps = [-1] * nh
    for x in range(NK.order):
        if reps[proj2[x]] < 0:
            reps[proj2[x]] = x

    action: dict[int, int] = {}
    for a in range(nh):
        action[a] = dlog[NK.conj(xbar, reps[a])]
    twisting: dict[tuple[int, int], int] = {}
    for a in range(nh):
        for b in range(nh):
            ab = NH.table[a][b]
            val = NK.table[NK.table[reps[a]][reps[b]]][NK.inverse[reps[ab]]]
            twisting[(a, b)] = dlog[val]

    gen_action = gen_twist = None
    nh_cyclic = any(NH.element_order(a) == nh for a in range(nh))
    if nh_cyclic:
        sigma = min(a for a in range(nh) if NH.element_order(a) == nh)
        c = reps[sigma]
        gen_action = dlog[NK.conj(xbar, c)]
        gen_twist = dlog[NK.power(c, nh)]

    return {
        "matrix_size_n": n, "cyclotomic_order_h": h, "nh_order": nh,
        "nh_cyclic": nh_cyclic, "action": action, "twisting": twisting,
        "gen_action_exp": gen_action, "gen_twist_exp": gen_twist,
    }
