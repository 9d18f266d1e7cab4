"""Cheap isomorphism invariants, used by the tests as a sanity check on
group constructions, and the subgroup, spec and relabelling operations
and the call recorder only the tests use.
Equal fingerprints do not make groups isomorphic (SdCyc(8,4,3) and
SdCyc(8,4,7) share one); the library identifies groups through
find_isomorphism only."""

import random
from typing import Optional

from qgring.catalog import build_spec
from qgring.groups import (
    FiniteGroup,
    Subgroup,
    _closure,
    center,
    commutator_subgroup,
    derived_subgroup,
    from_table,
    quotient,
    subgroup_from_mask,
    subgroup_generated,
)


def fingerprint(G: FiniteGroup) -> tuple:
    orders: dict[int, int] = {}
    for o in G.element_orders():
        orders[o] = orders.get(o, 0) + 1
    der = derived_subgroup(G)
    series = [G.order]
    cur = der
    while True:
        series.append(cur.order)
        if cur.order == 1 or cur.order == series[-2]:
            break  # reached 1, or stabilized (perfect subgroup)
        cur = commutator_subgroup(G, cur.members, cur.members)
    ab, _ = quotient(G, der)
    ab_profile = tuple(sorted(ab.element_order(g) for g in range(ab.order)))
    return (
        G.order,
        tuple(sorted(orders.items())),
        center(G).order,
        tuple(series),
        ab_profile,
        len(G.conjugacy_classes()),
    )


def conjugate_subgroup(G: FiniteGroup, H: Subgroup, g: int) -> Subgroup:
    mask = 0
    for h in H.members:
        mask |= 1 << G.conj(h, g)
    return Subgroup(G, mask, tuple(G.conj(h, g) for h in H.gens))


def join(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    """<A, B>, generated by the generators of A and B, or by the members
    of either one that was built without generators."""
    a_gens, b_gens = A.gens or A.members, B.gens or B.members
    return Subgroup(G, _closure(G, b_gens, A), tuple(dict.fromkeys(a_gens + b_gens)))


def intersect(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    return subgroup_from_mask(G, A.mask & B.mask)


def quotient_of_spec(spec: str, generator_words: list[str],
                     cap: Optional[int] = None) -> FiniteGroup:
    """Quotient of a spec-built group by the subgroup generated by the
    given element words (which must already be normal)."""
    G = build_spec(spec, cap=cap)
    N = subgroup_generated(G, tuple(G.word(w) for w in generator_words))
    Q, _ = quotient(G, N)
    return Q


def subgroup_of_spec(spec: str, generator_words: list[str],
                     cap: Optional[int] = None) -> FiniteGroup:
    """Standalone group on the subgroup generated by the given words."""
    G = build_spec(spec, cap=cap)
    H = subgroup_generated(G, tuple(G.word(w) for w in generator_words))
    out, _ = H.induced()
    return out


def relabelling(order: int, seed: int) -> list[int]:
    """The permutation of relabel: old index -> new index, fixing 0."""
    perm = list(range(1, order))
    random.Random(seed).shuffle(perm)
    return [0] + perm


def relabel(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G with its non-identity elements shuffled, rebuilt through from_table
    (so element names are lost too)."""
    perm = relabelling(G.order, seed)
    table = [[0] * G.order for _ in range(G.order)]
    for a, row in enumerate(G.table):
        for b, ab in enumerate(row):
            table[perm[a]][perm[b]] = perm[ab]
    return from_table(table)


def record_calls(monkeypatch, owner, name):
    """The positional arguments of every call of owner.name (a module's
    function or a class's method) from here on."""
    calls = []
    orig = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls
