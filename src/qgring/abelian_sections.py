"""Subgroups read off abelian sections, with no subgroup lattice.

For a metabelian G the strong Shoda pairs of Olivieri, del Rio and
Simon's Theorem 4.7 need only two kinds of subgroup: the B over a
maximal abelian A >= G' (subgroups_over), the preimages of the subgroups
of the abelian G/A; and, for each B, the K over B' with B/K cyclic
(cocyclic_subgroups), the kernels of the linear characters of B/B'.
This is Olivieri and del Rio's algorithm for metabelian groups (J.
Symbolic Comput. 35 (2003)). Both work on cosets and bit masks, with no
quotient group and no lattice of G.

A cyclic section H/K is told by the one test groups.section_generator,
which the kernels here, the pair layer (shoda), the component
descriptors, the SSN classification and the lattice's generator rule
ask; the powers of its x and the coset exponents x^j K -> j are read
off x's walk in the one table of cyclic subgroups (groups._cyclic_seeds).
A kernel gets generators by the one closure-free rule (groups._beside).
"""

from __future__ import annotations

import functools
import itertools
from operator import and_, itemgetter, mul
from typing import Optional, Sequence

from .errors import NotNormal
from .groups import (
    Subgroup,
    _beside,
    _cyclic_seeds,
    _few_generators,
    derived_subgroup,
    full_subgroup,
    require_subgroups,
    section_generator,
    subgroup_from_mask,
)
from .numutil import prime_factors


def section_powers(H: Subgroup, K: Subgroup) -> Optional[list[int]]:
    """The x^j, 0 <= j < [H : K], for x = section_generator(H, K), read off
    the walk of x's cyclic seed (x is its least generator); None when H/K
    is not cyclic."""
    x = section_generator(H, K)
    if not x:
        return None if x is None else [0]
    table = _cyclic_seeds(H.parent)
    return [0, *table.walks[table.seed_of[x]][:H.order // K.order - 1]]


def section_exponents(H: Subgroup, K: Subgroup) -> list[int]:
    """For each element of G, j when it lies in x^j K, 0 <= j < [H : K],
    where x = section_generator(H, K) generates the cyclic H/K, and -1,
    which no element's exponent is, outside H. epsilon(H, K) and the
    crossed-product data read it; a strong pair's record keeps it."""
    G = H.parent
    exps = [-1] * G.order
    for j, xj in enumerate(section_powers(H, K)):
        row = G.table[xj]
        for z in K.members:
            exps[row[z]] = j
    return exps


def subgroups_over(A: Subgroup) -> list[Subgroup]:
    """The subgroups B >= A of G, sorted by (order, mask), for an A that
    contains G' (NotNormal otherwise, from cocyclic_subgroups(G, A)), with
    no lattice of G. Each such B is normal and G/A is abelian, and a
    subgroup of a finite abelian group is the intersection of the kernels
    of the characters trivial on it. So the B are the K >= A with G/K
    cyclic (cocyclic_subgroups), with the generators built for them, and
    the intersections of their masks, closed under AND and wrapped with
    their greedy generators (subgroup_from_mask); A keeps its own. When
    G/A is cyclic they are the A<x^k>, k | [G : A], and no intersection
    is new."""
    G = A.parent
    found: dict[int, Optional[Subgroup]] = {
        K.mask: K for K in cocyclic_subgroups(full_subgroup(G), A)}
    found[A.mask] = A
    masks = list(found)
    for b in masks:  # masks grows while it is walked
        for c in masks:
            if b & c not in found:
                found[b & c] = None
                masks.append(b & c)
    return sorted((S or subgroup_from_mask(G, b) for b, S in found.items()),
                  key=lambda S: (S.order, S.mask))


def _coset_masks(listed: list[int], size: int) -> list[int]:
    """The masks of the consecutive runs of size elements of listed."""
    return [sum(map((1).__lshift__, listed[v:v + size]))
            for v in range(0, len(listed), size)]


def _cyclic_kernels(B: Subgroup, D: Subgroup, powers: list[int],
                    avoid: Sequence[Subgroup]) -> list[Subgroup]:
    """cocyclic_subgroups(B, D, avoid) for a cyclic B/D, given the x^j,
    j < [B : D], for an x with B = <x>D (section_powers): the D<x^k>,
    k | [B : D], each the union of the cosets x^j D with k | j, that
    contain no member of avoid, generated by D and x^k (_beside)."""
    G = B.parent
    n, members = len(powers), D.members
    size = len(members)
    listed = powers if size == 1 else list(itertools.chain.from_iterable(
        map(G.table[xj].__getitem__, members) for xj in powers))
    coset_masks = _coset_masks(listed, size)
    # for each member of avoid, the j of the cosets x^j D of its generators
    avoided = [[listed.index(y) // size for y in d.gens or d.members[1:]]
               for d in avoid]
    dgens = _few_generators(D)
    return [_beside(G, sum(coset_masks[::k]), dgens, powers[k:k + 1])
            for k in range(1, n + 1)
            if not n % k and not any(all(j % k == 0 for j in js) for js in avoided)]


def _primary_basis(B: Subgroup, D: Subgroup
                   ) -> tuple[list[int], dict[int, list[tuple[int, int, list[int]]]]]:
    """A basis of B/D, for D normal in B with B/D abelian, as (listed,
    basis): basis[p] lists the (x, order of xD, [1, x, ..., x^(order-1)])
    of its elements of p-power order, and listed is B coset by coset, the
    x^c D with c in mixed radix, the first basis element the lowest digit.
    With D = 1 the orders are the invariants of an abelian B.

    The basis is found prime by prime, from the cyclic subgroups C of B
    of p-power order alone: the order of C modulo a subgroup S >= D is
    |C| / |C meet S|. With S = D plus the basis so far, the next basis
    element generates a C of greatest order modulo S with C meet S = C
    meet D. One exists: the p-part of the corrected lift in the usual proof
    that such a basis exists generates one."""
    G = B.parent
    table = G.table
    dmask, bmask = D.mask, B.mask
    listed, smask = list(D.members), dmask  # S = D times the basis so far
    basis: dict[int, list[tuple[int, int, list[int]]]] = {}  # p -> [(x, order, powers)]
    for p in sorted(prime_factors(B.order // D.order)):
        # (order modulo D, C meet D, C, walk) for each C <= B of p-power
        # order outside D, greatest order first: the next basis element
        # generates the first whose C meets S in D only
        cands = sorted(((o // (c & dmask).bit_count(), c & dmask, c, walk)
                        for o, c, walk, q in _cyclic_seeds(G).by_order
                        if q == p and c & bmask == c and c & dmask != c),
                       key=itemgetter(0), reverse=True)
        basis[p] = []
        while cands:
            top, _, _, walk = cands[0]
            powers = [0] + walk[:top - 1]
            listed = list(itertools.chain.from_iterable(
                map(table[xj].__getitem__, listed) for xj in powers))
            smask = sum(map((1).__lshift__, listed))
            basis[p].append((walk[0], top, powers))
            cands = [c for c in cands if c[2] & smask == c[1]]
    return listed, basis


def cocyclic_subgroups(B: Subgroup, D: Subgroup,
                       avoid: Sequence[Subgroup] = ()) -> list[Subgroup]:
    """The K with D <= K <= B and B/K cyclic that contain no member of
    avoid (each d in avoid with D <= d <= B), for B' <= D <= B, that is D
    normal in B with B/D abelian (NotNormal otherwise): the kernels of the
    linear characters of B/D, one per cyclic subgroup of its dual. No
    lattice, quotient table or closure is built.

    B is listed coset by coset along a basis of B/D (_primary_basis), so
    each coset's mask is read off that list, and an element's coordinates
    off its place in it.

    Per prime p, with p^E the greatest basis order, a character sends x_i
    (of order p^e_i) to w_i / p^E, w_i a multiple of p^(E - e_i). Of the
    generators of one cyclic subgroup of the dual, exactly one has
    w_i = p^v at the first i of least valuation v, so that one is listed.
    Its kernel is generated by D, the x_j x_i^(-w_j / p^v) (j != i) and
    x_i^(p^(E - v)). A K is one such kernel per prime, with the generators
    of each; its mask is the AND over p of the union of the cosets whose
    p-coordinates lie in p's kernel. It contains d iff each prime's
    character is trivial on d's generators, so a K that would is never
    built.

    When B/D is cyclic (section_generator), generated by xD, the K are
    the D<x^k>, one per divisor k of [B : D]: this is read off the cosets
    x^j D directly."""
    G = B.parent
    table = G.table
    dmask, size, bmask = D.mask, D.order, B.mask
    require_subgroups(G, D)
    if dmask & ~bmask:
        raise NotNormal(f"{D!r} is not contained in {B!r}")
    if derived_subgroup(B).mask & ~dmask:
        raise NotNormal(f"{D!r} does not contain the derived subgroup of {B!r}")
    if section_generator(B, D) is not None:
        return _cyclic_kernels(B, D, section_powers(B, D), avoid)
    listed, basis = _primary_basis(B, D)
    coset_masks = _coset_masks(listed, size)
    # a coset's index is sum over p of its p-block u_p times the stride of
    # p's block, u_p being its coordinates in p's basis in mixed radix;
    # at_p[p][u]: the mask of the cosets with p-block u, the others free
    block, at_p, strides = 1, {}, {}
    for p, xs in basis.items():
        strides[p] = list(itertools.accumulate([1] + [o for _, o, _ in xs[:-1]], mul))
        span = strides[p][-1] * xs[-1][1]
        if len(basis) == 1:
            at_p[p] = coset_masks
        else:
            at_p[p] = [0] * span
            for v, mask in enumerate(coset_masks):
                at_p[p][v // block % span] |= mask
        block *= span

    def coordinates(y: int) -> dict[int, list[int]]:
        v, coords = listed.index(y) // size, {}
        for p, xs in basis.items():
            coords[p] = [v // st % o for st, (_, o, _) in zip(strides[p], xs)]
            v //= strides[p][-1] * xs[-1][1]
        return coords

    # the coordinates of each d's generators, d by d
    avoided = [list(map(coordinates, d.gens or d.members[1:])) for d in avoid]
    everyone = (1 << len(avoid)) - 1
    options = []  # per prime: (the avoided d its kernel holds, its mask, gens)
    for p, xs in basis.items():
        orders, st = [o for _, o, _ in xs], strides[p]
        top = max(orders)
        ys_p = [[y[p] for y in ys] for ys in avoided]
        mine = [(everyone, bmask, [x for x, _, _ in xs])]  # the trivial character
        # a listed character: w_lead = p^v, w_j / p^v a multiple of p for
        # j < lead (its valuation exceeds v) and of p^(E - e_j - v) for all j
        for lead, (_, o, powers) in enumerate(xs):
            q = o
            while q > 1:  # q = p^(E - v), the order of the character
                low = top // q
                ranges = [range(0, q, max(p if j < lead else 1, top // orders[j] // low))
                          if j != lead else (1,) for j in range(len(xs))]
                for steps in itertools.product(*ranges):
                    # u is in the kernel iff sum of u_j w_j / p^v = 0 mod q
                    holds = sum(1 << t for t, us in enumerate(ys_p)
                                if not any(sum(map(mul, u, steps)) % q for u in us))
                    if holds and len(basis) == 1:
                        continue  # this K holds a member of avoid
                    pairs = [(0, 0)]  # (offset, sum of u_j w_j / p^v mod q)
                    gens = []
                    for j, step in enumerate(steps):
                        if j != lead:
                            sj = st[j]
                            pairs = [(a + t * sj, (r + t * step) % q)
                                     for t in range(orders[j]) for a, r in pairs]
                            gens.append(table[xs[j][0]][powers[-step % o]])
                    if q < o:
                        gens.append(powers[q])
                    offsets = [a + (-r % q + k) * st[lead] for k in range(0, o, q)
                               for a, r in pairs]
                    mine.append((holds, sum(map(at_p[p].__getitem__, offsets)), gens))
                q //= p
        options.append(mine)
    dgens = _few_generators(D)  # for a K's generators
    out = []
    for choice in itertools.product(*options):
        if functools.reduce(and_, (holds for holds, _, _ in choice), everyone):
            continue
        # K is the intersection of the kernels of its characters' p-parts
        _, mask, gens = choice[0]
        for _, more_mask, more in choice[1:]:
            mask &= more_mask
            gens = gens + more
        out.append(_beside(G, mask, dgens, gens))
    return out

