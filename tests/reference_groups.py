"""Reference implementations of the subgroup scans and commutator subgroups.

These are the original `normalizer`, `centralizer`, `subgroup_from_mask`
(with the greedy generator scan it used), `is_normal`,
`commutator_subgroup`, `Subgroup.is_abelian` and the conjugacy-class loop.
Each scan tests every element and then recovers generators greedily; the
commutator subgroup is generated by all commutators of members; classes
close each orbit under conjugation by every element. The library states
each membership test as a mask, wraps it with one greedy generator scan
(`groups.subgroup_from_mask`) and builds commutator subgroups as normal
closures of generator commutators; the tests in test_group_layer.py
require identical results from both. Where
the original read `G.generators()`, these read `reference_generators(G)`,
so no library scan is involved.
"""

from __future__ import annotations

from typing import Iterable

from qgring.errors import InconsistentSpec
from qgring.groups import FiniteGroup, Subgroup, _closure, subgroup_generated
from qgring.numutil import prime_factors


def _greedy_generators(G: FiniteGroup, members: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Scan members in order, keeping each one not yet generated by those
    kept; returns (kept, mask of their closure)."""
    gens: list[int] = []
    have = Subgroup(G, 1)
    for g in members:
        if not have.mask >> g & 1:
            gens.append(g)
            have = Subgroup(G, _closure(G, (g,), have))
    return tuple(gens), have.mask


def reference_generators(G: FiniteGroup) -> tuple[int, ...]:
    return _greedy_generators(G, range(G.order))[0]


def reference_subgroup_from_mask(G: FiniteGroup, mask: int) -> Subgroup:
    """Wrap a mask known to be closed; generators recovered greedily."""
    gens, have = _greedy_generators(
        G, (i for i in range(G.order) if mask >> i & 1))
    if have != mask:
        raise InconsistentSpec("mask is not closed under multiplication")
    return Subgroup(G, mask, gens)


def reference_is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    gens = H.gens if H.gens else H.members
    for g in reference_generators(G):
        for h in gens:
            if not H.contains(G.conj(h, g)):
                return False
    return True


def reference_normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    gens = H.gens if H.gens else H.members
    mask = 0
    for g in range(G.order):
        if all(H.contains(G.conj(h, g)) for h in gens):
            mask |= 1 << g
    return reference_subgroup_from_mask(G, mask)


def reference_centralizer(G: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    elems = list(elems)
    mask = 0
    t = G.table
    for g in range(G.order):
        if all(t[g][x] == t[x][g] for x in elems):
            mask |= 1 << g
    return reference_subgroup_from_mask(G, mask)


def reference_commutator_subgroup(G: FiniteGroup, A: Iterable[int],
                                  B: Iterable[int]) -> Subgroup:
    """<[a, b] : a in A, b in B>, generated by its sorted nontrivial
    commutators."""
    B = list(B)
    comms = {G.commutator(a, b) for a in A for b in B}
    comms.discard(0)
    return subgroup_generated(G, sorted(comms))


def reference_derived_subgroup(G: FiniteGroup) -> Subgroup:
    return reference_commutator_subgroup(G, range(G.order), range(G.order))


def reference_is_nilpotent_group(G: FiniteGroup) -> bool:
    """Lower central series reaches 1."""
    cur = Subgroup(G, (1 << G.order) - 1)
    while True:
        nxt = reference_commutator_subgroup(G, cur.members, range(G.order))
        if nxt.mask == cur.mask:
            return cur.order == 1
        cur = nxt


def _int_log(base: int, value: int) -> int:
    e, v = 0, 1
    while v < value:
        v *= base
        e += 1
    if v != value:
        raise ValueError(f"{value} is not a power of {base}")
    return e


def reference_abelian_invariants(G: FiniteGroup, H: Subgroup) -> list[int]:
    """Prime-power invariants of an abelian subgroup, sorted.

    Uses the count of elements of order dividing p^i: it equals
    p^(sum_j min(lambda_j, i)) for type (lambda_1 >= lambda_2 >= ...).
    """
    out: list[int] = []
    orders = [G.element_order(g) for g in H.members]
    for p in prime_factors(H.order):
        p_orders = [o for o in orders
                    if o == 1 or set(prime_factors(o)) == {p}]
        total = len(p_orders)
        f = [0]  # f[i] = log_p #{elements with order dividing p^i}
        while p ** f[-1] != total:
            i = len(f)
            cnt = sum(1 for o in p_orders if p ** i % o == 0)
            f.append(_int_log(p, cnt))
        ge = [f[i] - f[i - 1] for i in range(1, len(f))]  # #parts >= i
        for i in range(len(ge), 0, -1):
            exactly = ge[i - 1] - (ge[i] if i < len(ge) else 0)
            out.extend([p ** i] * exactly)
    return sorted(out)


def reference_is_solvable_group(G: FiniteGroup) -> bool:
    cur = Subgroup(G, (1 << G.order) - 1)
    while True:
        nxt = reference_commutator_subgroup(G, cur.members, cur.members)
        if nxt.mask == cur.mask:
            return cur.order == 1
        cur = nxt


def reference_is_abelian(H: Subgroup) -> bool:
    m = H.members
    return all(H.parent.table[a][b] == H.parent.table[b][a]
               for i, a in enumerate(m) for b in m[i + 1:])


def reference_conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    seen = 0
    classes = []
    for g in range(G.order):
        if seen >> g & 1:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for t in range(G.order):
                y = G.conj(x, t)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            seen |= 1 << x
        classes.append(tuple(sorted(orbit)))
    return classes
