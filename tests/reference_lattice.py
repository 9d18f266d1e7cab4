"""Reference implementations of the subgroup lattice and of SN/SSN.

These are the original `subgroups`, `is_sn` and `is_ssn` (with the
closure and join they used): every join is closed again from its
generators, and SSN builds a standalone group for each subgroup and runs
SN on that group's own lattice. The library builds joins by cosets and
decides SN/SSN on G's lattice alone; the tests in test_lattice.py require
identical results from both. Results are cached under their own keys, so
the two never share a lattice.
"""

from __future__ import annotations

from typing import Iterable, Optional

from qgring.errors import OrderCapExceeded
from qgring.groups import (
    MAX_SUBGROUPS,
    FiniteGroup,
    Subgroup,
    _check_cap,
    is_normal,
)


def reference_closure(G: FiniteGroup, gens: Iterable[int]) -> int:
    gens = list(gens)
    mask = 1
    table = G.table
    queue = [0]
    while queue:
        row = table[queue.pop()]
        for g in gens:
            y = row[g]
            if not mask >> y & 1:
                mask |= 1 << y
                queue.append(y)
    return mask


def reference_subgroups(G: FiniteGroup, cap: Optional[int] = None) -> list[Subgroup]:
    _check_cap(G.order, cap)
    if "reference_subgroups" not in G._cache:
        cyclic: dict[int, Subgroup] = {}
        for g in range(G.order):
            gens = (g,) if g else ()
            sub = Subgroup(G, reference_closure(G, gens), gens)
            cyclic.setdefault(sub.mask, sub)
        seen: dict[int, Subgroup] = dict(cyclic)
        frontier = list(cyclic.values())
        cyc_list = list(cyclic.values())
        full = (1 << G.order) - 1
        while frontier:
            new: list[Subgroup] = []
            for H in frontier:
                if H.mask == full:
                    continue
                for C in cyc_list:
                    if C.mask | H.mask == H.mask:
                        continue
                    gens = tuple(dict.fromkeys(H.gens + C.gens))
                    mask = reference_closure(G, gens)
                    if mask not in seen:
                        sub = Subgroup(G, mask, gens)
                        seen[mask] = sub
                        new.append(sub)
            if len(seen) > MAX_SUBGROUPS:
                raise OrderCapExceeded(
                    f"{G.name} has more than {MAX_SUBGROUPS} subgroups")
            frontier = new
        subs = sorted(seen.values(), key=lambda s: (s.order, s.mask))
        G._cache["reference_subgroups"] = subs
    return G._cache["reference_subgroups"]


def reference_join(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    gens = tuple(dict.fromkeys(A.gens + B.gens))
    return Subgroup(G, reference_closure(G, gens), gens)


def reference_is_sn(G: FiniteGroup) -> bool:
    """Exhaustive check: N normal, Y any subgroup => N <= Y or YN normal."""
    subs = reference_subgroups(G)
    for N in [H for H in subs if is_normal(G, H)]:
        if N.order == 1:
            continue
        for Y in subs:
            if N <= Y:
                continue
            if not is_normal(G, reference_join(G, Y, N)):
                return False
    return True


def reference_is_ssn(G: FiniteGroup) -> bool:
    """Every subgroup, viewed standalone, has SN."""
    if "reference_ssn" not in G._cache:
        verdict = True
        for H in reversed(reference_subgroups(G)):
            if H.order <= 5:
                continue  # groups of order <= 5 are abelian, SN is automatic
            Hgrp, _ = H.induced()
            if not reference_is_sn(Hgrp):
                verdict = False
                break
        G._cache["reference_ssn"] = verdict
    return G._cache["reference_ssn"]
