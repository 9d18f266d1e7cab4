"""Cheap isomorphism invariants, used by the tests as a sanity check on
group constructions. Equal fingerprints do not make groups isomorphic
(SdCyc(8,4,3) and SdCyc(8,4,7) share one); the library identifies groups
through find_isomorphism only."""

from qgring.groups import (
    FiniteGroup,
    _element_orders,
    center,
    commutator_subgroup,
    derived_subgroup,
    quotient,
)


def fingerprint(G: FiniteGroup) -> tuple:
    orders: dict[int, int] = {}
    for o in _element_orders(G):
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
