"""Reference implementations of the subgroup lattice and of SN/SSN/NCN.

These are the original `subgroups`, `is_sn`, `is_ssn` and `is_ncn` (with
the closure and join they used): every join is closed again from its
generators, SSN builds a standalone group for each subgroup and runs SN
on that group's own lattice, and NCN tests every non-cyclic subgroup.
The library builds joins by cosets and decides SN, SSN and NCN on cyclic
subgroups, one per conjugacy class; the tests in test_lattice.py require
identical results from both. Results are cached under their own keys, so
the two never share a lattice.

`coset_subgroups` is the library's lattice before it scanned one member
per conjugacy class: it builds every join by cosets, as the library does,
but scans every seed and every subgroup. It is fast enough to compare on
groups where the original closure is too slow.

`reference_is_minimal_nonabelian` and `reference_acts_reducibly` are the
scans of the library's lattice that `classify_ssn` made for BJ1's
minimality and for type (i), each on a twin of G with its own caches.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Optional

from qgring.errors import OrderCapExceeded
from qgring.groups import (
    MAX_SUBGROUPS,
    FiniteGroup,
    Subgroup,
    _check_cap,
    _check_subgroup_count,
    _closure,
    _cyclic_join,
    _cyclic_seeds,
    _joins_by_order,
    cyclic_subgroups,
    is_normal,
    normalizes,
    subgroups,
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


def lattice_is_sn(G: FiniteGroup) -> bool:
    """SN as the library scanned G's own lattice before it needed none:
    for each normal N != 1 and each Y not normal in G with N not in Y,
    YN is the first subgroup of the sorted lattice, from order |Y u N|
    on, whose mask holds Y u N, and it must be normal."""
    subs = subgroups(G)
    orders = [S.order for S in subs]
    normal = {S.mask for S in subs if is_normal(G, S)}
    for N in subs:
        if N.mask not in normal or N.order == 1:
            continue
        for Y in subs:
            key = Y.mask | N.mask
            if Y.mask in normal or key == Y.mask:
                continue
            i = bisect_left(orders, key.bit_count())
            while subs[i].mask | key != subs[i].mask:
                i += 1
            if subs[i].mask not in normal:
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


def reference_is_ncn(G: FiniteGroup) -> bool:
    """Every non-cyclic subgroup is normal: a subgroup is cyclic when one
    of its members generates it."""
    return all(is_normal(G, H) for H in reference_subgroups(G)
               if not any(reference_closure(G, (g,)) == H.mask for g in H.members))


def _twin(G: FiniteGroup) -> FiniteGroup:
    """G with caches of its own, so that a scan of its lattice leaves G's
    caches as they were."""
    return FiniteGroup(G.table, G.names, name=G.name)


def reference_is_minimal_nonabelian(G: FiniteGroup) -> bool:
    """Every proper subgroup of G is abelian: the scan of the lattice that
    props._ncn_family made before it read Redei's criterion."""
    T = _twin(G)
    return all(H.is_abelian() for H in subgroups(T) if H.order < T.order)


def reference_acts_reducibly(G: FiniteGroup, P: Subgroup, gen: int) -> bool:
    """gen normalizes a subgroup of P other than 1 and P: the scan of the
    lattice that props.classify_ssn made for type (i) before it read
    normal closures."""
    T = _twin(G)
    return any(normalizes(T, (gen,), S) for S in subgroups(T)
               if S.mask & P.mask == S.mask and 1 < S.order < P.order)


def coset_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All subgroups of G, each exactly once, sorted by (order, mask).

    Seeds with the cyclic subgroups C_k = <c_k> of _cyclic_seeds and closes
    under the joins <H, c>, one level at a time, H in the order found and c
    in seed order; a join keeps the generators H.gens + (c,) of the first H
    and c that reach it.

    Each H keeps `join`, seed k -> mask of <H, C_k>, for the joins it can
    name, and skips the seeds in it. It starts with H's own seeds (C_k <= H)
    and two naming rules:
    - on the first level, H = C_i takes the joins <C_j, C_i> of the earlier
      seeds, which complete the table J(s, q) = <C_s, C_q> by the level's
      end;
    - from the second level on, for each seed C_s of a generator of H,
      every seed q with H <= J(s, q) has <H, C_q> = J(s, q): that join holds
      H and C_q, and <H, C_q> holds C_s and C_q. The joins J(s, .) are
      grouped and sorted by order the first time such an H needs them.
    A seed not in it is joined as follows.
    - If c normalizes H (tested on H.gens), <H, c> is _cyclic_join's product
      set, and the elements it returns name it.
    - Else every x = hch' of HcH names it, as c = h^-1 x h'^-1. HcH is built
      one left coset yH at a time. If a seed C_j of it is in `join`, the
      join is read off that seed, and every y*h with y a generator of C_j
      and h in H names it too: <H, y*h> = <H, y> = <H, C_j>. Else it is
      the product set again when H normalizes <c>, and is closed
      (_closure with base H) when not.
    <H, x> depends on <x> only, so x names its join through its seed. Each
    named join was reached before: a first-level join J(s, q) when its
    level ended, and any other when it was computed for H or, on the first
    level, for an earlier seed. So it is already in `seen`: the list, every
    gens and the point where OrderCapExceeded is raised (as soon as more
    than MAX_SUBGROUPS subgroups are found) are those of closing every join.
    """
    if "coset_subgroups" not in G._cache:
        table, conj = G.table, G.conj
        bits = [1 << x for x in range(G.order)]
        seed_powers, seed_of = _cyclic_seeds(G)[:2]
        seed_at = seed_of.__getitem__
        seeds = cyclic_subgroups(G)
        units: dict[int, list[int]] = {}  # seed j -> the generators of C_j
        seen: dict[int, Subgroup] = {1: Subgroup(G, 1)}
        seen.update((C.mask, C) for C in seeds)
        _check_subgroup_count(G, seen)
        full = (1 << G.order) - 1
        frontier, first = seeds, True
        seed_joins: list[dict[int, int]] = []  # J(s, q), by s then q
        joins_of: dict[int, list] = {}  # s -> _joins_by_order(J(s, .))
        while frontier:
            new: list[Subgroup] = []
            for i, H in enumerate(frontier):
                members = H.members
                join = dict.fromkeys(map(seed_at, members), H.mask)
                if first:
                    join.update((j, J[i]) for j, J in enumerate(seed_joins))
                    seed_joins.append(join)
                else:
                    for s in dict.fromkeys(map(seed_at, H.gens)):
                        if s not in joins_of:
                            joins_of[s] = _joins_by_order(seed_joins[s])
                        for size, mask, qs in joins_of[s]:
                            if size <= H.order:  # J(s, q) = H or H is not in it
                                break
                            if H.mask | mask == mask:
                                join.update(dict.fromkeys(qs, mask))
                if H.mask == full:
                    continue
                left_coset = itemgetter(*members)  # of a row; |H| >= 2
                for k in range(i + 1, len(seeds)) if first else range(len(seeds)):
                    if k in join:
                        continue
                    c = seed_powers[k][0]
                    if all(H.mask >> conj(s, c) & 1 for s in H.gens):
                        mask, names = _cyclic_join(table, bits, H, left_coset,
                                                   seed_powers[k])
                    else:
                        names = set()  # HcH
                        for h in members:
                            y = table[h][c]
                            if y not in names:
                                names.update(left_coset(table[y]))
                        hit = next(filter(join.__contains__, map(seed_at, names)), None)
                        if hit is not None:
                            mask = join[hit]
                            if hit not in units:
                                p = seed_powers[hit]
                                units[hit] = [x for e, x in enumerate(p, 1)
                                              if math.gcd(e, len(p)) == 1]
                            for y in units[hit]:
                                names.update(left_coset(table[y]))
                        elif all(seeds[k].mask >> conj(c, s) & 1 for s in H.gens):
                            mask, more = _cyclic_join(table, bits, H, left_coset,
                                                      seed_powers[k])
                            names.update(more)
                        else:
                            mask = _closure(G, (c,), H)
                    if mask not in seen:
                        sub = Subgroup(G, mask, H.gens + (c,))
                        seen[mask] = sub
                        new.append(sub)
                        _check_subgroup_count(G, seen)
                    join.update(dict.fromkeys(map(seed_at, names), mask))
            frontier = new
            first = False
        subs = sorted(seen.values(), key=lambda s: (s.order, s.mask))
        G._cache["coset_subgroups"] = subs
    return G._cache["coset_subgroups"]
