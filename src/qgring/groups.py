"""Finite groups as dense multiplication tables, with the constructions
needed for rational group algebra analysis: cyclic/dihedral/quaternion
families, metacyclic presentations with fusion, semidirect and central
products, cyclic extensions of an arbitrary base, and A5.

Elements are integers 0..order-1 with the identity always at index 0.
Groups and subgroups are immutable after construction; derived data
(subgroup lattice, center, conjugacy classes, ...) is cached per group.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import add, itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    BNotAbelian,
    InconsistentSpec,
    NotNormal,
    OrderCapExceeded,
)
from .numutil import is_prime, ord_mod, prime_factors

DEFAULT_ORDER_CAP = 250


def _check_cap(order: int, cap: Optional[int]) -> None:
    cap = DEFAULT_ORDER_CAP if cap is None else cap
    if order > cap:
        raise OrderCapExceeded(f"group order {order} exceeds cap {cap}")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a][b] is the index of the product a*b; index 0 is the identity.
    """

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str],
                 name: str = "G", letters: tuple[str, ...] = (),
                 _ints: bool = False):
        self.order = len(table)
        self.table: list[list[int]] = [list(row) for row in table]
        # entries that are not ints (floats, numpy integers) are coerced;
        # the builders' tables (_ints=True) are ints by construction
        entries = itertools.chain.from_iterable(self.table)
        if not _ints and not set(map(type, entries)) <= {int}:
            self.table = [list(map(int, row)) for row in self.table]
        self.names: list[str] = [str(s) for s in names]
        self.name = name
        self.letters = tuple(letters)
        self.identity = 0
        self._cache: dict = {}
        if len(self.names) != self.order:
            raise InconsistentSpec("names/table size mismatch")
        self._name_to_idx = {}
        for i, nm in enumerate(self.names):
            if nm in self._name_to_idx:
                raise InconsistentSpec(f"duplicate element name {nm!r}")
            self._name_to_idx[nm] = i
        self._validate()
        self.inverse: list[int] = self._compute_inverses()

    # -- construction checks ------------------------------------------------

    def _validate(self) -> None:
        """Exact check that the table is a group with identity 0.

        A table is accepted when its entries lie in 0..n-1 (one set of all
        of them), index 0 is a two-sided identity, every row holds 0 and
        Light's test passes. Light's test checks (x*g)*y = x*(g*y) for all
        x, y and each g of a generating set only: the elements a with
        (x*a)*y = x*(a*y) for all x, y are closed under the product, so
        they make up the whole table. The row of x*g is then the row of x
        read at the entries of g's row. So the table is a monoid in which
        every x has a right inverse y (x*y = 0, as row x holds 0), and such
        a monoid is a group: with y*z = 0 too, x = x*(y*z) = (x*y)*z = z,
        so y*x = 0. This accepts exactly the groups, the tables with
        permutation rows, two-sided identity and associativity. Only a
        table that fails is checked again, defect by defect, to name the
        first: entries out of range, identity, rows, columns, associativity.
        """
        n = self.order
        table = self.table
        ident = list(range(n))
        if (n and all(len(row) == n for row in table)
                and set(itertools.chain.from_iterable(table)) <= set(ident)
                and table[0] == ident and [row[0] for row in table] == ident
                and all(0 in row for row in table) and self._is_associative()):
            return
        if not n or any(len(row) != n or min(row) < 0 or max(row) >= n
                        for row in table):
            raise InconsistentSpec("table entries out of range")
        if table[0] != ident or [row[0] for row in table] != ident:
            raise InconsistentSpec("index 0 is not a two-sided identity")
        for i, row in enumerate(table):
            if len(set(row)) != n:
                raise InconsistentSpec(f"row {i} is not a permutation")
        for j, col in enumerate(zip(*table)):
            if len(set(col)) != n:
                raise InconsistentSpec(f"column {j} is not a permutation")
        raise InconsistentSpec("multiplication table is not associative")

    def _is_associative(self) -> bool:
        """Light's test, on a table with entries in range and index 0 as
        identity: every element is a product of the generators that
        stabilizer picks."""
        table = self.table
        # not cached: a new group's _cache starts empty
        for g in stabilizer(self, lambda g: True).gens:
            times_g = itemgetter(*table[g])  # n > 1 when there is a generator
            if any(table[row[g]] != list(times_g(row)) for row in table):
                return False
        return True

    def _compute_inverses(self) -> list[int]:
        inv = [row.index(0) for row in self.table]
        for g, h in enumerate(inv):
            if self.table[h][g] != 0:
                raise InconsistentSpec(f"element {g} has no two-sided inverse")
        return inv

    # -- basics ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse[a], -k
        out = 0
        while k:
            if k & 1:
                out = self.table[out][a]
            a = self.table[a][a]
            k >>= 1
        return out

    def conj(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        return self.table[self.table[self.inverse[g]][x]][g]

    def conj_left(self, x: int, g: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def commutator(self, h: int, g: int) -> int:
        """(h, g) = h^-1 g^-1 h g."""
        t = self.table
        return t[t[t[self.inverse[h]][self.inverse[g]]][h]][g]

    def element_orders(self) -> list[int]:
        """The order of each element: that of the cyclic subgroup it
        generates, read off the power walks of _cyclic_seeds."""
        if "element_orders" not in self._cache:
            walks, seed_of = _cyclic_seeds(self)
            self._cache["element_orders"] = [len(walks[k]) if k >= 0 else 1
                                             for k in seed_of]
        return self._cache["element_orders"]

    def element_order(self, a: int) -> int:
        return self.element_orders()[a]

    def element(self, name: str) -> int:
        """Look up an element by its display name."""
        try:
            return self._name_to_idx[name]
        except KeyError:
            raise KeyError(f"no element named {name!r} in {self.name}") from None

    def word(self, expr: str) -> int:
        """Evaluate a word like 'a^2*b*c^-1' over element names."""
        out = 0
        for token in expr.replace(" ", "").split("*"):
            if not token:
                continue
            if token in self._name_to_idx:
                out = self.table[out][self._name_to_idx[token]]
                continue
            if "^" in token:
                base, _, exp = token.rpartition("^")
                out = self.table[out][self.power(self.element(base), int(exp))]
            else:
                out = self.table[out][self.element(token)]
        return out

    def generators(self) -> tuple[int, ...]:
        """A small generating set (greedy, deterministic)."""
        if "generators" not in self._cache:
            self._cache["generators"] = stabilizer(self, lambda g: True).gens
        return self._cache["generators"]

    def is_abelian(self) -> bool:
        if "abelian" not in self._cache:
            gens = self.generators()
            self._cache["abelian"] = all(
                self.table[a][b] == self.table[b][a]
                for a in gens for b in gens)
        return self._cache["abelian"]

    def is_p_group(self) -> tuple[bool, int]:
        """(True, p) if |G| is a power of the prime p; (False, 0) otherwise."""
        n = self.order
        if n == 1:
            return True, 1
        fac = prime_factors(n)
        if len(fac) == 1:
            return True, next(iter(fac))
        return False, 0

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        if "classes" not in self._cache:
            seen = 0
            classes = []
            for g in range(self.order):
                if seen >> g & 1:
                    continue
                orbit = {g}
                frontier = [g]
                gens = self.generators()
                while frontier:
                    x = frontier.pop()
                    for t in gens:
                        y = self.conj(x, t)
                        if y not in orbit:
                            orbit.add(y)
                            frontier.append(y)
                for x in orbit:
                    seen |= 1 << x
                classes.append(tuple(sorted(orbit)))
            self._cache["classes"] = classes
        return self._cache["classes"]

    def class_of(self, x: int) -> tuple[int, ...]:
        """The conjugacy class of x, as listed by conjugacy_classes()."""
        if "class_of" not in self._cache:
            index: list[tuple[int, ...]] = [()] * self.order
            for cls in self.conjugacy_classes():
                for y in cls:
                    index[y] = cls
            self._cache["class_of"] = index
        return self._cache["class_of"][x]


# ---------------------------------------------------------------------------
# closure helpers (bitmask based)


def _cyclic_seeds(G: FiniteGroup) -> tuple[list[list[int]], list[int]]:
    """The cyclic subgroups <g> != 1, g in index order, each as the walk
    g, g^2, ..., g^m = 1 over the powers of its least generator g; and
    seed_of[x], the index of <x> (-1 for the identity). Each power g^k with
    gcd(k, m) = 1 generates the same subgroup, so one walk per subgroup.
    """
    if "cyclic_seeds" not in G._cache:
        table = G.table
        walks: list[list[int]] = []
        seed_of = [-1] * G.order
        for g in range(1, G.order):
            if seed_of[g] < 0:
                powers = [g]
                while powers[-1]:
                    powers.append(table[powers[-1]][g])
                m = len(powers)  # powers[k - 1] = g^k
                for k, x in enumerate(powers, 1):
                    if math.gcd(k, m) == 1:
                        seed_of[x] = len(walks)
                walks.append(powers)
        G._cache["cyclic_seeds"] = walks, seed_of
    return G._cache["cyclic_seeds"]


def _closure(G: FiniteGroup, gens: Iterable[int],
             base: Optional[Subgroup] = None) -> int:
    """Mask of the subgroup generated by base (trivial when None) and gens.

    The set grows from base by whole left cosets y*base, so it stays
    closed under right multiplication by base; each element reached is
    right-multiplied by gens only. A set closed under both that contains
    1 is the subgroup <base, gens>.
    """
    gens = list(gens)
    table = G.table
    if base is None:
        mask, coset = 1, (0,)
    else:
        mask, coset = base.mask, base.members
    queue = list(coset)
    while queue:
        row = table[queue.pop()]
        for g in gens:
            y = row[g]
            if not mask >> y & 1:
                yrow = table[y]
                for h in coset:
                    z = yrow[h]
                    mask |= 1 << z
                    queue.append(z)
    return mask


def stabilizer(G: FiniteGroup, keeps: Callable[[int], bool]) -> Subgroup:
    """The subgroup {g in G : keeps(g)}, for a test keeps that some
    subgroup passes exactly.

    Elements are tested in index order, skipping those already known to be
    inside (the closure of the elements that passed) or outside: if g
    failed, so does every c*g with c inside. The elements that passed are
    the generators: each is the first element of the subgroup outside the
    closure of those before it.
    """
    gens: list[int] = []
    inside = Subgroup(G, 1)
    members = inside.members
    outside = 0
    table = G.table
    for g in range(G.order):
        if (inside.mask | outside) >> g & 1:
            continue
        if keeps(g):
            gens.append(g)
            inside = Subgroup(G, _closure(G, (g,), inside))
            members = inside.members
        else:
            for c in members:
                outside |= 1 << table[c][g]
    return Subgroup(G, inside.mask, tuple(gens))


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a bitmask over element indices."""

    __slots__ = ("parent", "mask", "gens", "_members")
    _ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")

    def __init__(self, parent: FiniteGroup, mask: int, gens: tuple[int, ...] = ()):
        self.parent = parent
        self.mask = mask
        self.gens = gens
        self._members: Optional[tuple[int, ...]] = None

    @property
    def members(self) -> tuple[int, ...]:
        if self._members is None:
            # the mask's bits as bytes 0/1, lowest first, select the members
            bits = f"{self.mask:b}".encode().translate(self._ZERO_ONE)[::-1]
            self._members = tuple(itertools.compress(itertools.count(), bits))
        return self._members

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def contains(self, idx: int) -> bool:
        return bool(self.mask >> idx & 1)

    __contains__ = contains

    def __le__(self, other: "Subgroup") -> bool:
        return self.mask | other.mask == other.mask

    def __lt__(self, other: "Subgroup") -> bool:
        return self <= other and self.mask != other.mask

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.mask == self.mask)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        names = ",".join(self.parent.names[g] for g in self.gens) or "1"
        return f"Subgroup(<{names}>, order={self.order})"

    def is_abelian(self) -> bool:
        m = self.gens or self.members
        return all(self.parent.table[a][b] == self.parent.table[b][a]
                   for i, a in enumerate(m) for b in m[i + 1:])

    def is_cyclic(self) -> bool:
        orders = self.parent.element_orders()
        return self.order in map(orders.__getitem__, self.members)

    def induced(self) -> tuple[FiniteGroup, list[int]]:
        """Standalone group on this subgroup's members (parent names kept).

        Returns (group, to_parent) with to_parent[i] the parent index of
        the i-th element.
        """
        key = ("induced", self.mask)
        if key not in self.parent._cache:
            mem = list(self.members)
            pos = {g: i for i, g in enumerate(mem)}
            table = [[pos[self.parent.table[a][b]] for b in mem] for a in mem]
            names = [self.parent.names[g] for g in mem]
            H = FiniteGroup(table, names,
                            name=f"{self.parent.name}|{repr(self)}",
                            letters=self.parent.letters, _ints=True)
            self.parent._cache[key] = (H, mem)
        return self.parent._cache[key]


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    gens = tuple(gens)
    return Subgroup(G, _closure(G, gens), gens)


def subgroup_from_mask(G: FiniteGroup, mask: int) -> Subgroup:
    """Wrap a mask known to be closed; generators recovered greedily."""
    sub = stabilizer(G, lambda g: mask >> g & 1)
    if sub.mask != mask:
        raise InconsistentSpec("mask is not closed under multiplication")
    return sub


def full_subgroup(G: FiniteGroup) -> Subgroup:
    """G as a subgroup of itself; built once per group."""
    if "full" not in G._cache:
        G._cache["full"] = Subgroup(G, (1 << G.order) - 1, G.generators())
    return G._cache["full"]


def cosets(S: Subgroup, within: Optional[Subgroup] = None,
           left: bool = False) -> tuple[list[int], list[int]]:
    """The right cosets S*g, or with left the left cosets g*S, of the
    elements g of within (G when None; S <= within), numbered in order of
    their least element.

    Returns (index, reps): reps[i] is the least element of coset i and
    index[x] is x's coset number, or -1 for x outside within. Both lists
    are built once per group and shared by every caller: never mutate them.
    """
    G = S.parent
    key = ("cosets", S.mask, None if within is None else within.mask, left)
    if key in G._cache:
        return G._cache[key]
    table = G.table
    index = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order) if within is None else within.members:
        if index[g] < 0:
            i = len(reps)
            reps.append(g)
            if left:
                row = table[g]
                for s in S.members:
                    index[row[s]] = i
            else:
                for s in S.members:
                    index[table[s][g]] = i
    G._cache[key] = index, reps
    return index, reps


# ---------------------------------------------------------------------------
# lattice operations


# groups whose subgroup lattice exceeds this are outside the intended
# desk scale (e.g. high-rank elementary abelian 2-groups)
MAX_SUBGROUPS = 20_000


def _check_subgroup_count(G: FiniteGroup, found: dict) -> None:
    if len(found) > MAX_SUBGROUPS:
        raise OrderCapExceeded(f"{G.name} has more than {MAX_SUBGROUPS} subgroups")


def _cyclic_join(table: list[list[int]], bits: list[int], H: Subgroup,
                 left_coset: Callable[[list[int]], tuple[int, ...]],
                 powers: list[int]) -> tuple[int, Iterable[int]]:
    """<H, c>, for c normalizing H or normalized by H, as the union of the
    left cosets c^j H, j < m for c^m the first power of c in H (powers: c,
    c^2, ..., 1; left_coset: a row -> its entries at H's members); and the
    elements of the c^j H with gcd(j, m) = 1, each of which generates it
    with H: <H, c^j h> holds c^j, so also c, a power of c^j times h' in H.
    """
    cosets = []
    for y in powers:  # c^j, j = 1, 2, ...
        if H.mask >> y & 1:
            break
        cosets.append(left_coset(table[y]))
    m = len(cosets) + 1
    mask = H.mask | sum(map(bits.__getitem__, itertools.chain.from_iterable(cosets)))
    return mask, itertools.chain.from_iterable(
        yH for j, yH in enumerate(cosets, 1) if math.gcd(j, m) == 1)


def subgroups(G: FiniteGroup) -> list[Subgroup]:
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
      H and C_q, and <H, C_q> holds C_s and C_q.
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
    if "subgroups" not in G._cache:
        table, conj = G.table, G.conj
        bits = [1 << x for x in range(G.order)]
        seed_powers, seed_of = _cyclic_seeds(G)
        seed_at = seed_of.__getitem__
        seeds = [Subgroup(G, sum(map(bits.__getitem__, p)), (p[0],))
                 for p in seed_powers]
        units: dict[int, list[int]] = {}  # seed j -> the generators of C_j
        seen: dict[int, Subgroup] = {1: Subgroup(G, 1)}
        seen.update((C.mask, C) for C in seeds)
        _check_subgroup_count(G, seen)
        full = (1 << G.order) - 1
        frontier, first = seeds, True
        seed_joins: list[dict[int, int]] = []  # J(s, q), by s then q
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
            if first:  # each J(s, .) as (order, mask, its seeds q), largest first
                joins_of = []
                for J in seed_joins:
                    by_mask: dict[int, list[int]] = {}
                    for q, mask in J.items():
                        by_mask.setdefault(mask, []).append(q)
                    joins_of.append(sorted(((m.bit_count(), m, qs) for m, qs
                                            in by_mask.items()), reverse=True))
            frontier = new
            first = False
        subs = sorted(seen.values(), key=lambda s: (s.order, s.mask))
        G._cache["subgroups"] = subs
    return G._cache["subgroups"]


def normalizes(G: FiniteGroup, by: Iterable[int], S: Subgroup) -> bool:
    """Conjugation by each element of by maps S into itself."""
    sgens = S.gens or S.members
    conj = G.conj
    return all(S.mask >> conj(s, g) & 1 for g in by for s in sgens)


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    """Whether H is normal in G; decided once per subgroup and group, so
    normal_subgroups, normalizer and quotient share each verdict."""
    known = G._cache.setdefault("normal", {})
    if H.mask not in known:
        known[H.mask] = normalizes(G, G.generators(), H)
    return known[H.mask]


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """N_G(H); G itself, with the stabilizer scan's generators, when H is
    normal."""
    if is_normal(G, H):
        return full_subgroup(G)
    return stabilizer(G, lambda g: normalizes(G, (g,), H))


def centralizer(G: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    elems = list(elems)
    t = G.table
    return stabilizer(G, lambda g: all(t[g][x] == t[x][g] for x in elems))


def center(G: FiniteGroup) -> Subgroup:
    if "center" not in G._cache:
        G._cache["center"] = centralizer(G, G.generators())
    return G._cache["center"]


def commutator_subgroup(G: FiniteGroup, A: Iterable[int],
                        B: Iterable[int]) -> Subgroup:
    """[<A>, <B>], the normal closure in <A u B> of the commutators [a, b]
    with a in A and b in B; generated by the sorted nontrivial ones and
    the conjugates added to close it."""
    A, B = list(A), list(B)
    comms = {G.commutator(a, b) for a in A for b in B}
    comms.discard(0)
    gens = sorted(comms)
    S = Subgroup(G, _closure(G, gens))
    by = list(dict.fromkeys(A + B))
    for s in gens:  # gens grows while it is scanned
        for x in by:
            y = G.conj(s, x)
            if not S.mask >> y & 1:
                gens.append(y)
                S = Subgroup(G, _closure(G, (y,), S))
    return Subgroup(G, S.mask, tuple(gens))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    if "derived" not in G._cache:
        gens = G.generators()
        G._cache["derived"] = commutator_subgroup(G, gens, gens)
    return G._cache["derived"]


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    if "normals" not in G._cache:
        G._cache["normals"] = [H for H in subgroups(G) if is_normal(G, H)]
    return G._cache["normals"]


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Quotient group G/N and the projection map element -> coset index.

    Coset representatives are the minimal element of each coset; the
    identity coset is index 0.
    """
    key = ("quotient", N.mask)
    if key in G._cache:
        return G._cache[key]
    if not is_normal(G, N):
        raise NotNormal(f"{N!r} is not normal in {G.name}")
    proj, reps = cosets(N)
    table = [[proj[G.table[a][b]] for b in reps] for a in reps]
    names = ["1"] + [f"[{G.names[r]}]" for r in reps[1:]]
    Q = FiniteGroup(table, names, name=f"{G.name}/{repr(N)}", letters=G.letters,
                    _ints=True)
    G._cache[key] = (Q, proj)
    return Q, proj


def minimal_normal_subgroups_of_quotient(H, K: Subgroup) -> list[Subgroup]:
    """Preimages of the minimal nontrivial normal subgroups of H/K.

    H may be a FiniteGroup or a Subgroup containing K; K must be normal
    in H. Results are the minimal M normal in H with K < M <= H, read off
    the subgroup lattice of H's parent, sorted by (order, mask); building
    that lattice raises OrderCapExceeded for a parent with more than
    MAX_SUBGROUPS subgroups.
    """
    if isinstance(H, FiniteGroup):
        H = full_subgroup(H)
    G = H.parent
    hgens = H.gens or H.members
    if not (K <= H):
        raise NotNormal("K is not contained in H")
    if not normalizes(G, hgens, K):
        raise NotNormal(f"{K!r} is not normal in {H!r}")
    out: list[Subgroup] = []
    for M in subgroups(G):
        if (K < M <= H and not any(P <= M for P in out)
                and normalizes(G, hgens, M)):
            out.append(M)
    return out


def all_maximal_abelian_over(G: FiniteGroup, B: Subgroup) -> list[Subgroup]:
    if not B.is_abelian():
        raise BNotAbelian("seed subgroup is not abelian")
    # by descending (order, mask), a candidate not under a maximum found
    # so far is itself maximal
    found: list[Subgroup] = []
    for H in reversed(subgroups(G)):
        if B <= H and H.is_abelian() and not any(H <= M for M in found):
            found.append(H)
    return found[::-1]


def maximal_abelian_over(G: FiniteGroup, B: Subgroup) -> Subgroup:
    """A maximal abelian subgroup containing B (smallest mask tie-break)."""
    return min(all_maximal_abelian_over(G, B), key=lambda s: s.mask)


def is_nilpotent_group(G: FiniteGroup) -> bool:
    """Lower central series reaches 1."""
    if "nilpotent" not in G._cache:
        cur = full_subgroup(G)
        while True:
            nxt = commutator_subgroup(G, cur.gens, G.generators())
            if nxt.mask == cur.mask:
                G._cache["nilpotent"] = cur.order == 1
                break
            cur = nxt
    return G._cache["nilpotent"]


def is_solvable_group(G: FiniteGroup) -> bool:
    cur = full_subgroup(G)
    while True:
        nxt = commutator_subgroup(G, cur.gens, cur.gens)
        if nxt.mask == cur.mask:
            return cur.order == 1
        cur = nxt


# ---------------------------------------------------------------------------
# isomorphism invariants and isomorphisms


def _extend_hom(G: FiniteGroup, H: FiniteGroup,
                pairs: dict[int, int]) -> Optional[list[int]]:
    """The homomorphism on <pairs' keys> with the given generator images, as
    images with -1 outside that subgroup; None if there is none.

    It checks img(x*g) = img(x)*img(g) for every reached x and every
    generator g; writing b as a word in the generators, induction on its
    length then gives img(x*b) = img(x)*img(b) for all reached x and b, so
    the map is multiplicative.
    """
    img = [-1] * G.order
    img[0] = 0
    frontier = [0]
    gens = list(pairs.items())
    while frontier:
        x = frontier.pop()
        for g, hg in gens:
            y = G.table[x][g]
            hy = H.table[img[x]][hg]
            if img[y] < 0:
                img[y] = hy
                frontier.append(y)
            elif img[y] != hy:
                return None
    return img


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[list[int]]:
    """An isomorphism G -> H as the list of images, or None if there is none.

    Groups whose orders or multisets of element orders differ are rejected
    first. Otherwise a backtracking search assigns images to G's greedy
    generators g_1, ..., g_k in turn: g_i goes to an element of H of the
    same order, its own index first (so a group with H's table costs one
    check), and the assignment is kept only if it extends to an injective
    homomorphism on <g_1, ..., g_i>. At i = k that is a bijection onto H.
    """
    if G.order != H.order:
        return None
    og, oh = G.element_orders(), H.element_orders()
    if sorted(og) != sorted(oh):
        return None
    gens = G.generators()

    def search(i: int, pairs: dict[int, int], img: list[int]) -> Optional[list[int]]:
        if i == len(gens):
            return img
        g = gens[i]
        used = set(img)
        for h in itertools.chain((g,), range(g), range(g + 1, H.order)):
            if oh[h] != og[g] or h in used:
                continue
            pairs[g] = h
            nxt = _extend_hom(G, H, pairs)
            if nxt is not None:
                reached = [v for v in nxt if v >= 0]
                if len(set(reached)) == len(reached):
                    found = search(i + 1, pairs, nxt)
                    if found is not None:
                        return found
        pairs.pop(g, None)
        return None

    return search(0, {}, [0] + [-1] * (G.order - 1))


# ---------------------------------------------------------------------------
# builders


def _name_power(letter: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return letter
    return f"{letter}^{e}"


def _join_name(parts: list[str]) -> str:
    parts = [p for p in parts if p]
    return "*".join(parts) if parts else "1"


# The builders make each table row with a constant number of C-level calls
# (range slices, itemgetter, map), never one Python step per entry. Most
# rows are products of two rows already built: (x*y)*z = x*(y*z), so the
# row of x*y is the row of x read at the entries of the row of y.


def _times(q: list[int]) -> Callable[[list[int]], list[int]]:
    """p -> the row of x*y, for p the row of x and q the row of y."""
    if len(q) == 1:  # itemgetter of one index returns no tuple
        return lambda p: [p[q[0]]]
    get = itemgetter(*q)
    return lambda p: list(get(p))


def cyclic(n: int, letter: str = "x", cap: Optional[int] = None) -> FiniteGroup:
    if n < 1:
        raise InconsistentSpec("cyclic group order must be positive")
    _check_cap(n, cap)
    table = [[*range(i, n), *range(i)] for i in range(n)]
    names = [_join_name([_name_power(letter, i)]) for i in range(n)]
    return FiniteGroup(table, names, name=f"C{n}", letters=(letter,), _ints=True)


def abelian(orders: Sequence[int], letters: Sequence[str],
            cap: Optional[int] = None, name: Optional[str] = None) -> FiniteGroup:
    """Direct product of cyclic groups with one generator letter each."""
    if len(orders) != len(letters):
        raise InconsistentSpec("orders/letters length mismatch")
    _check_cap(math.prod(orders), cap)
    factors = [cyclic(o, letter, cap=cap) for o, letter in zip(orders, letters)]
    G = factors[-1]
    for F in reversed(factors[:-1]):
        G = direct_product(F, G, cap=cap)
    if name:
        G.name = name
    return G


def elementary_abelian(p: int, rank: int, cap: Optional[int] = None) -> FiniteGroup:
    if not is_prime(p):
        raise InconsistentSpec(f"{p} is not prime")
    if rank < 1 or rank > 8:
        raise InconsistentSpec("rank must be between 1 and 8")
    letters = "abcdefgh"[:rank]
    return abelian([p] * rank, list(letters), cap=cap, name=f"EA({p},{rank})")


def metacyclic(m: int, n: int, t: int, r: int, letters=("a", "b"),
               cap: Optional[int] = None, name: Optional[str] = None) -> FiniteGroup:
    """<a, b | a^m = 1, b^n = a^t, b a b^-1 = a^r>, of order m*n.

    Requires r^n = 1 (mod m) and t*r = t (mod m) so the presentation is
    consistent with |a| = m.
    """
    if m < 1 or n < 1:
        raise InconsistentSpec("orders must be positive")
    _check_cap(m * n, cap)
    r %= max(m, 1)
    t %= max(m, 1)
    if pow(r, n, m) % m != 1 % m:
        raise InconsistentSpec(f"r^n != 1 mod m for (m,n,t,r)=({m},{n},{t},{r})")
    if t * r % m != t % m:
        raise InconsistentSpec(f"a^t is not centralized by b for (m,n,t,r)=({m},{n},{t},{r})")
    la, lb = letters
    # a^i b^j is element j*m + i: <a> occupies the lowest indices, so it
    # wins smallest-bitset tie-breaks among maximal abelian subgroups.
    # a^i * a^i2 b^j2 = a^(i+i2) b^j2
    offsets = [j * m for j in range(n) for _ in range(m)]
    a_rows = [list(map(add, offsets, [*range(i, m), *range(i)] * n))
              for i in range(m)]
    # b * a^i2 b^j2 = a^(r*i2) b^(j2+1), and b^n = a^t
    times_b = _times([(j2 + 1) % n * m + (r * i2 + (t if j2 == n - 1 else 0)) % m
                      for j2 in range(n) for i2 in range(m)])
    b_rows = [list(range(m * n))]
    for _ in range(n - 1):
        b_rows.append(times_b(b_rows[-1]))
    table = []
    for b_row in b_rows:
        times_bj = _times(b_row)
        table.extend(times_bj(a_row) for a_row in a_rows)
    names = [_join_name([_name_power(la, i), _name_power(lb, j)])
             for j in range(n) for i in range(m)]
    gname = name or f"Metacyclic({m},{n},{t},{r})"
    return FiniteGroup(table, names, name=gname, letters=tuple(letters),
                       _ints=True)


def dihedral(order: int, cap: Optional[int] = None) -> FiniteGroup:
    if order % 2 or order < 2:
        raise InconsistentSpec("dihedral order must be even and >= 2")
    n = order // 2
    return metacyclic(n, 2, 0, (n - 1) % max(n, 1), cap=cap, name=f"D{order}")


def quaternion(order: int, cap: Optional[int] = None) -> FiniteGroup:
    if order % 4 or order < 8:
        raise InconsistentSpec("generalized quaternion order must be a multiple of 4, >= 8")
    n = order // 4
    return metacyclic(2 * n, 2, n, 2 * n - 1, cap=cap, name=f"Q{order}")


def metacyclic_amitsur(m: int, r: int, cap: Optional[int] = None) -> FiniteGroup:
    """<A, B | A^m = 1, B^n = A^t, B A B^-1 = A^r> with s = gcd(r-1, m),
    t = m/s, n = ord_m(r)."""
    if math.gcd(m, r) != 1:
        raise InconsistentSpec(f"gcd({m},{r}) != 1")
    s = math.gcd(r - 1, m) if m > 1 else 1
    t = m // s
    n = ord_mod(m, r)
    return metacyclic(m, n, t, r, cap=cap, name=f"G({m},{r})")


def semidirect_cyclic(p: int, n: int, r0: int, cap: Optional[int] = None) -> FiniteGroup:
    """<x, y | x^p = y^n = 1, y x y^-1 = x^r0>."""
    if pow(r0, n, p) != 1 % p:
        raise InconsistentSpec(f"r0^n != 1 mod p for ({p},{n},{r0})")
    return metacyclic(p, n, 0, r0, letters=("x", "y"), cap=cap,
                      name=f"C{p}:C{n}(r0={r0})")


def cyclic_extension(base: FiniteGroup, conj_images: dict[int, int], n_ext: int,
                     power_elem: int, new_letter: str,
                     cap: Optional[int] = None, name: Optional[str] = None) -> FiniteGroup:
    """Extend base by a new generator c with c^n_ext = power_elem in base and
    x^c = c^-1 x c given on generators by conj_images.

    Consistency (checked): the extension of conj_images is an automorphism
    phi of base, phi fixes power_elem, and phi^n_ext is conjugation by
    power_elem.
    """
    order = base.order * n_ext
    _check_cap(order, cap)
    img = _extend_hom(base, base, conj_images)
    if img is None or -1 in img or len(set(img)) != base.order:
        raise InconsistentSpec("conjugation images do not extend to an automorphism")
    phi_r = img
    phi_l = [0] * base.order
    for x, y in enumerate(phi_r):
        phi_l[y] = x
    z = power_elem
    if phi_r[z] != z:
        raise InconsistentSpec("c^n must be fixed by conjugation by c")
    # phi_l^n_ext must equal conjugation x -> z x z^-1
    cur = list(range(base.order))
    for _ in range(n_ext):
        cur = [phi_l[x] for x in cur]
    for x in range(base.order):
        if cur[x] != base.conj_left(x, z):
            raise InconsistentSpec("action order does not match the extension degree")

    # x c^k is element x*n_ext + k, and x c^k = x * c^k.
    # x * x2 c^k2 = (x x2) c^k2
    blocks = [range(v * n_ext, v * n_ext + n_ext) for v in range(base.order)]
    x_rows = [list(itertools.chain.from_iterable(map(blocks.__getitem__, row)))
              for row in base.table]
    # c * x2 c^k2 = phi_l(x2) c^(k2+1), and c^n_ext = z
    times_c = _times([phi_l[x2] * n_ext + k2 + 1 if k2 + 1 < n_ext
                      else base.table[phi_l[x2]][z] * n_ext
                      for x2 in range(base.order) for k2 in range(n_ext)])
    c_rows = [list(range(order))]
    for _ in range(n_ext - 1):
        c_rows.append(times_c(c_rows[-1]))
    times_ck = [_times(c_row) for c_row in c_rows]
    table = [times(x_row) for x_row in x_rows for times in times_ck]
    names = []
    for x, k in itertools.product(range(base.order), range(n_ext)):
        bn = base.names[x]
        parts = [] if bn == "1" else [bn]
        parts.append(_name_power(new_letter, k))
        names.append(_join_name(parts))
    gname = name or f"{base.name}.C{n_ext}"
    return FiniteGroup(table, names, name=gname,
                       letters=base.letters + (new_letter,), _ints=True)


def _mat_mul(A, B, p):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)]


def _mat_eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_has_order(M, q, p) -> bool:
    """Whether M has multiplicative order exactly q over F_p: M^q = I and
    M^(q/r) != I for each prime r dividing q."""
    eye = _mat_eye(len(M))
    return (q >= 1 and _mat_pow(M, q, p) == eye
            and all(_mat_pow(M, q // r, p) != eye for r in prime_factors(q)))


def semidirect_vector(p: int, rank: int, matrix: Sequence[Sequence[int]], q: int,
                      cap: Optional[int] = None) -> FiniteGroup:
    """(C_p)^rank semidirect C_q; the C_q generator c acts by x^c = M x
    on exponent vectors."""
    if not is_prime(p):
        raise InconsistentSpec(f"{p} is not prime")
    _check_cap(p ** rank * q, cap)
    M = [[v % p for v in row] for row in matrix]
    if len(M) != rank or any(len(row) != rank for row in M):
        raise InconsistentSpec("action matrix has wrong shape")
    if not _mat_has_order(M, q, p):
        raise InconsistentSpec("action matrix is not of order q")
    base = elementary_abelian(p, rank, cap=cap)
    # base elements are exponent tuples in lexicographic order
    elems = list(itertools.product(*(range(p) for _ in range(rank))))
    pos = {e: i for i, e in enumerate(elems)}
    conj_images = {}
    for k in range(rank):
        e = tuple(1 if i == k else 0 for i in range(rank))
        img = tuple(sum(M[i][j] * e[j] for j in range(rank)) % p for i in range(rank))
        conj_images[pos[e]] = pos[img]
    letter = "abcdefgh"[rank]
    return cyclic_extension(base, conj_images, q, 0, letter, cap=cap,
                            name=f"EA({p},{rank}):C{q}")


def _product_names(G1: FiniteGroup, G2: FiniteGroup
                   ) -> tuple[Callable[[int, int], str], tuple[str, ...]]:
    """The name of (a, b) in G1 x G2, and the product's letters; G2's
    letters that G1 also uses are renamed to unused ones."""
    names2 = G2.names
    letters2 = G2.letters
    shared = set(G1.letters) & set(G2.letters)
    if shared:
        unused = [c for c in "abcdefghijklmnopqrstuvwxyz"
                  if c not in G1.letters and c not in G2.letters]
        ren = {}
        for l in G2.letters:
            ren[l] = unused.pop(0) if l in shared else l
        pat = re.compile("|".join(re.escape(l) for l in ren))
        names2 = [pat.sub(lambda m: ren[m.group(0)], nm) for nm in G2.names]
        letters2 = tuple(ren[l] for l in G2.letters)

    def name(a: int, b: int) -> str:
        return _join_name([nm for nm in (G1.names[a], names2[b]) if nm != "1"])

    return name, G1.letters + letters2


def direct_product(G1: FiniteGroup, G2: FiniteGroup,
                   cap: Optional[int] = None) -> FiniteGroup:
    _check_cap(G1.order * G2.order, cap)
    n2 = G2.order
    # (a, b) is element a*n2 + b; (a, b)(a2, b2) = (a a2, b b2), whose index
    # is the sum of (a a2)*n2, from G1's row a, and b b2, from G2's row b
    blocks = [[v * n2] * n2 for v in range(G1.order)]
    tiles = [r2 * G1.order for r2 in G2.table]
    table = []
    for r1 in G1.table:
        left = list(itertools.chain.from_iterable(map(blocks.__getitem__, r1)))
        table.extend(list(map(add, left, tile)) for tile in tiles)
    name, letters = _product_names(G1, G2)
    names = [name(a, b) for a in range(G1.order) for b in range(n2)]
    return FiniteGroup(table, names, name=f"{G1.name}x{G2.name}", letters=letters,
                       _ints=True)


def central_product(G1: FiniteGroup, G2: FiniteGroup, ident_exp: int = 1,
                    cap: Optional[int] = None) -> FiniteGroup:
    """Quotient of G1 x G2 identifying Z(G1) with the unique central cyclic
    subgroup of G2 of the same order, via generator -> generator^ident_exp.

    Built from the factors' tables, never from G1 x G2 itself: with (a, b)
    at index a*|G2| + b, each coset of the central N = <(z0, w0^-ident_exp)>
    is represented by its least element and named [name], as `quotient`
    picks and names them.
    """
    Z1 = center(G1)
    if not Z1.is_cyclic():
        raise InconsistentSpec("center of the first factor must be cyclic")
    m = Z1.order
    if m == 1:
        return direct_product(G1, G2, cap=cap)
    z0 = min(g for g in Z1.members if G1.element_order(g) == m)
    Z2 = center(G2)
    targets = []
    for w in sorted(Z2.members):
        if G2.element_order(w) == m:
            sub = subgroup_generated(G2, (w,))
            if sub.mask not in [t.mask for t in targets]:
                targets.append(sub)
    if len(targets) != 1:
        raise InconsistentSpec(
            f"need exactly one central cyclic subgroup of order {m} in the "
            f"second factor, found {len(targets)}")
    if math.gcd(ident_exp, m) != 1:
        raise InconsistentSpec("identification exponent must be a unit")
    w0 = min(g for g in targets[0].members if G2.element_order(g) == m)
    _check_cap(G1.order * G2.order // m, cap)
    w = G2.power(G2.inv(w0), ident_exp)
    N = [(G1.power(z0, k), G2.power(w, k)) for k in range(m)]
    t1, t2, n2 = G1.table, G2.table, G2.order
    proj = [-1] * (G1.order * n2)
    reps: list[tuple[int, int]] = []
    for a in range(G1.order):
        for b in range(n2):
            if proj[a * n2 + b] < 0:
                for z, y in N:
                    proj[t1[z][a] * n2 + t2[y][b]] = len(reps)
                reps.append((a, b))
    # the row of (a1, b1): the coset of (a1 a2)*n2 + b1 b2 at each rep
    # (a2, b2); there are at least |G1| >= m >= 2 reps
    at1 = itemgetter(*(a for a, _ in reps))
    at2 = itemgetter(*(b for _, b in reps))
    scaled = range(0, G1.order * n2, n2)
    rows1 = [itemgetter(*at1(row))(scaled) for row in t1]
    rows2 = [at2(row) for row in t2]
    table = [list(map(proj.__getitem__, map(add, rows1[a1], rows2[b1])))
             for a1, b1 in reps]
    name, letters = _product_names(G1, G2)
    names = ["1"] + [f"[{name(a, b)}]" for a, b in reps[1:]]
    return FiniteGroup(table, names, name=f"{G1.name}~{G2.name}", letters=letters,
                       _ints=True)


def alternating5(cap: Optional[int] = None) -> FiniteGroup:
    """A5 as permutations of 5 points; names in cycle notation.

    Product convention: (p*q) means apply p first, then q.
    """
    _check_cap(60, cap)
    # the even permutations, in lexicographic order
    perms = [p for p in itertools.permutations(range(5))
             if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    pos = {p: i for i, p in enumerate(perms)}
    # itemgetter(*p)(q) = (q[p[0]], ..., q[p[4]]): p, then q
    table = [list(map(pos.__getitem__, map(itemgetter(*p), perms))) for p in perms]

    def cycle_name(p):
        seen = [False] * 5
        parts = []
        for i in range(5):
            if seen[i] or p[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = p[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = p[j]
            parts.append("(" + ",".join(str(k + 1) for k in cyc) + ")")
        return "".join(parts) if parts else "1"

    names = [cycle_name(p) for p in perms]
    return FiniteGroup(table, names, name="A5", letters=(), _ints=True)


def from_table(table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None,
               name: str = "G", cap: Optional[int] = None) -> FiniteGroup:
    _check_cap(len(table), cap)
    if names is None:
        names = ["1"] + [f"g{i}" for i in range(1, len(table))]
    return FiniteGroup(table, names, name=name)


# ---------------------------------------------------------------------------
# finite field helper: matrices of prime order for vector-family sweeps


def _mat_pow(M, e, p):
    """M^e over F_p, by square-and-multiply."""
    out = _mat_eye(len(M))
    while e:
        if e & 1:
            out = _mat_mul(out, M, p)
        M = _mat_mul(M, M, p)
        e >>= 1
    return out


def order_q_matrix(p: int, n: int, q: int) -> list[list[int]]:
    """A rank-n matrix over F_p of multiplicative order q with irreducible
    characteristic polynomial (so the action on (C_p)^n is irreducible).

    Requires ord_q(p) = n. Then Phi_q splits over F_p into irreducible
    factors of degree n, and x^q - 1 = (x - 1) Phi_q has no repeated
    factor, so each monic degree-n divisor f of x^q - 1 other than x - 1
    is irreducible. The companion matrix M of f has minimal polynomial f,
    so f divides x^q - 1 iff M^q = I, and f = x - 1 iff M = I. The result
    is the first companion matrix, in coefficient order, with M^q = I and
    M != I.
    """
    if ord_mod(q, p) != n:
        raise InconsistentSpec(f"ord_{q}({p}) != {n}; no irreducible order-{q} action")
    for coeffs in itertools.product(range(p), repeat=n):
        # companion matrix of f = x^n + coeffs (action x * v in F_p[x]/(f))
        M = [[0] * n for _ in range(n)]
        for j in range(n - 1):
            M[j + 1][j] = 1
        for i in range(n):
            M[i][n - 1] = (-coeffs[i]) % p
        if _mat_has_order(M, q, p):
            return M
    raise InconsistentSpec(f"no order-{q} irreducible matrix found for p={p}, n={n}")
