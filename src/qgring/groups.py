"""Finite groups as dense multiplication tables, with the constructions
needed for rational group algebra analysis: cyclic/dihedral/quaternion
families, metacyclic presentations with fusion, semidirect and central
products, cyclic extensions of an arbitrary base, and A5.

Elements are integers 0..order-1 with the identity always at index 0.
Groups and subgroups are immutable after construction; derived data is
cached per group, and every conjugacy-class fact is read from one build
over the generators' conjugation permutations (_classes).
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left
from operator import add, eq, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    BNotAbelian,
    GroupMismatch,
    InconsistentSpec,
    NotNormal,
    OrderCapExceeded,
    SoundnessError,
)
from .numutil import is_prime, ord_mod, prime_factors

DEFAULT_ORDER_CAP = 250


def _check_cap(order: int, cap: Optional[int]) -> None:
    cap = DEFAULT_ORDER_CAP if cap is None else cap
    if order > cap:
        # str() refuses an int of more than 4 300 digits
        shown = order if order.bit_length() < 10_000 else f"of {order.bit_length()} bits"
        raise OrderCapExceeded(f"group order {shown} exceeds cap {cap}")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a][b] is the index of the product a*b; index 0 is the identity.
    """

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str],
                 name: str = "G", letters: tuple[str, ...] = ()):
        self.order = len(table)
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
        # a list or bytes row is read as is; any other (a numpy row's buffer
        # is not its values) is copied to a list first
        self.inverse: list[int] = self._compute_inverses(self._validate(
            [row if type(row) is list or type(row) is bytes else list(row)
             for row in table]))

    # -- construction checks ------------------------------------------------

    def _validate(self, rows: list) -> list:
        """Exact check that rows make a group with identity 0. Sets table,
        the rows with int entries, and the generators Light's test ran on;
        returns the checked rows: bytes up to order 256 when bytes() takes
        every entry, else int lists, an entry taken only when it equals its
        int (1.0 and True are; 0.5, "0", None and nan are out of range).

        A table is accepted when its entries lie in 0..n-1, index 0 is a
        two-sided identity, every row holds 0 and Light's test passes.
        Light's test checks (x*g)*y = x*(g*y) for all x, y and each g of a
        generating set only: the elements a with (x*a)*y = x*(a*y) for all
        x, y are closed under the product, so they make up the whole
        table. So the table is a monoid in which every x has a right
        inverse y (x*y = 0, as row x holds 0), and such a monoid is a
        group: with y*z = 0 too, x = x*(y*z) = (x*y)*z = z, so y*x = 0.
        Any other table raises InconsistentSpec naming its first defect:
        entries out of range, identity, rows, columns, else associativity.
        """
        n = self.order
        row = _row_type(n)
        if row is bytes:
            try:
                checked = list(map(bytes, rows))
            except (TypeError, ValueError):  # an entry that is no int in 0..255
                row = list
        if row is list:
            try:
                checked = [list(map(int, r)) for r in rows]
            except (TypeError, ValueError, OverflowError):
                raise InconsistentSpec("table entries out of range") from None
        ident = row(range(n))
        if not n or any(len(r) != n for r in checked) or (
                b"".join(checked).translate(None, ident) if row is bytes
                else any(min(r) < 0 or max(r) >= n or type(orig) is list and r != orig
                         for r, orig in zip(checked, rows))):
            raise InconsistentSpec("table entries out of range")
        if checked[0] != ident or row(map(itemgetter(0), checked)) != ident:
            raise InconsistentSpec("index 0 is not a two-sided identity")
        self.table = checked if row is list else list(map(list, checked))
        self._generators = subgroup_from_mask(self, (1 << n) - 1).gens
        # Light's test: the row of x*g is x's row read at the entries of
        # g's row; on byte rows, g's row translated through x's row padded
        # to 256 bytes
        if row is bytes:
            pad = bytes(256 - n)
            maps = [r + pad for r in checked]
            read = lambda q: list(map(q.translate, maps))
        else:  # itemgetter(*q) gives tuples: n > 1 when there is a generator
            read = lambda q: list(map(list, map(itemgetter(*q), checked)))
        if all(0 in r for r in checked) and all(
                list(map(checked.__getitem__, map(itemgetter(g), checked)))
                == read(checked[g]) for g in self._generators):
            return checked
        for i, r in enumerate(checked):
            if len(set(r)) != n:
                raise InconsistentSpec(f"row {i} is not a permutation")
        for j, col in enumerate(zip(*checked)):
            if len(set(col)) != n:
                raise InconsistentSpec(f"column {j} is not a permutation")
        raise InconsistentSpec("multiplication table is not associative")

    def _compute_inverses(self, rows: list) -> list[int]:
        """Each element's inverse: its right inverse, the index of 0 in its
        row of rows (the checked rows, bytes up to order 256), checked to
        be two-sided."""
        inv = [row.index(0) for row in rows]
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
            walks, seed_of = _cyclic_seeds(self)[:2]
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
        """A small generating set (greedy, deterministic): the one Light's
        test of _validate ran on."""
        return self._generators

    def is_abelian(self) -> bool:
        return full_subgroup(self).is_abelian()

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
        """The conjugacy classes, as the class build lists them (_classes)."""
        return _classes(self)[1]

    def class_of(self, x: int) -> tuple[int, ...]:
        """The conjugacy class of x, as listed by conjugacy_classes()."""
        return _classes(self)[1][_classes(self)[2][x]]


# ---------------------------------------------------------------------------
# closure helpers (bitmask based)


class _CyclicTable(NamedTuple):
    """The cyclic subgroups <g> != 1 of a group, g their least generator,
    in seed order (g in index order). Built once per group (_cyclic_seeds):
    never mutate it."""

    walks: list[list[int]]  # per seed, the walk g, g^2, ..., g^m = 1
    seed_of: list[int]      # x -> the seed <x>; -1 for the identity
    least: dict[int, int]   # a seed's mask -> g, in seed order
    # (order, mask, walk, p) per seed, by descending order, then in seed
    # order; p when the order is a power of the prime p, else 0
    by_order: list[tuple[int, int, list[int], int]]


def _cyclic_seeds(G: FiniteGroup) -> _CyclicTable:
    """The table of the cyclic subgroups <g> != 1 of G. Each power g^k
    with gcd(k, m) = 1 generates the same subgroup, so one walk per
    subgroup, over the powers of its least generator g."""
    if "cyclic_seeds" not in G._cache:
        table = G.table
        walks: list[list[int]] = []
        seed_of = [-1] * G.order
        least: dict[int, int] = {}
        for g in range(1, G.order):
            if seed_of[g] < 0:
                powers = [g]
                while powers[-1]:
                    powers.append(table[powers[-1]][g])
                m = len(powers)  # powers[k - 1] = g^k
                for k, x in enumerate(powers, 1):
                    if math.gcd(k, m) == 1:
                        seed_of[x] = len(walks)
                least[sum(map((1).__lshift__, powers))] = g
                walks.append(powers)
        prime = {}
        for m in set(map(len, walks)):
            primes = prime_factors(m)
            prime[m] = next(iter(primes)) if len(primes) == 1 else 0
        by_order = sorted(((len(w), mask, w, prime[len(w)])
                           for mask, w in zip(least, walks)),
                          key=itemgetter(0), reverse=True)
        G._cache["cyclic_seeds"] = _CyclicTable(walks, seed_of, least, by_order)
    return G._cache["cyclic_seeds"]


def cyclic_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """The cyclic subgroups <g> != 1 of _cyclic_seeds, in seed order, each
    generated by its least generator g. Built once per group: never
    mutate the list."""
    if "cyclic_subgroups" not in G._cache:
        G._cache["cyclic_subgroups"] = [
            Subgroup(G, mask, (g,)) for mask, g in _cyclic_seeds(G).least.items()]
    return G._cache["cyclic_subgroups"]


def _conjugation(G: FiniteGroup, g: int) -> list[int]:
    """The permutation x -> x^g = g^-1 x g of G's elements."""
    table = G.table
    return [table[y][g] for y in table[G.inverse[g]]]


def conjugate_mask(G: FiniteGroup, S: Subgroup, t: int) -> int:
    """The mask of S^t = t^-1 S t: the elements t^-1 (t^-1 s)^-1 = (s^-1)^t,
    read through the row of t^-1, as s^-1 ranges over S with s."""
    at = G.table[G.inverse[t]].__getitem__
    return sum(map((1).__lshift__, map(at, map(G.inverse.__getitem__,
                                                map(at, S.members)))))


def _classes(G: FiniteGroup) -> tuple[list[list[int]], list[tuple[int, ...]],
                                      list[int], list[int], list[int]]:
    """G's conjugacy classes, built once per group as (perms, classes,
    index, first, points): perms[j] is _conjugation(G, t) for the j-th
    generator t; classes the orbits under perms, sorted, by least element;
    index[x] the number of x's class, first[x] its least element; points
    the g^-1 r, for g in a class with least element r, for center_rank."""
    if "classes" not in G._cache:
        perms = [_conjugation(G, t) for t in G.generators()]
        index, classes = [-1] * G.order, []
        for g in range(G.order):
            if index[g] < 0:
                index[g], orbit = len(classes), [g]
                for x in orbit:  # orbit grows while it is walked
                    for y in map(itemgetter(x), perms):
                        if index[y] < 0:
                            index[y] = index[g]
                            orbit.append(y)
                classes.append(tuple(sorted(orbit)))
        first = [classes[k][0] for k in index]
        points = [G.table[G.inverse[g]][cls[0]] for cls in classes for g in cls]
        G._cache["classes"] = perms, classes, index, first, points
    return G._cache["classes"]


def _seed_classes(G: FiniteGroup) -> tuple[list[int], list[int], list[list[int]]]:
    """The conjugacy classes of the seeds of _cyclic_seeds, as (rep, by,
    moves): rep[k] is the first seed of C_k's class in seed order, by[k]
    an element g with C_k = C_rep[k]^g, and moves[j][k] the seed of C_k^t
    for the j-th generator t, read off t's permutation in _classes. A
    class is the orbit of its first seed under the moves."""
    if "seed_classes" not in G._cache:
        walks, seed_of = _cyclic_seeds(G)[:2]
        table, gens = G.table, G.generators()
        moves = [[seed_of[perm[p[0]]] for p in walks] for perm in _classes(G)[0]]
        n = len(walks)
        rep, by = [-1] * n, [0] * n
        for r in range(n):
            if rep[r] < 0:
                rep[r] = r
                orbit = [r]
                for s in orbit:
                    for t, move in zip(gens, moves):
                        q = move[s]
                        if rep[q] < 0:
                            rep[q], by[q] = r, table[by[s]][t]
                            orbit.append(q)
        G._cache["seed_classes"] = rep, by, moves
    return G._cache["seed_classes"]


def _rational_points(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """The rational classes of G, x ~ y when <x> and <y> are conjugate, as
    (at, points): at[x] is the least generator of the first seed conjugate
    to <x> (the identity for x = 1), and points lists the values of at,
    the identity first and then in seed order, one per class: there are
    artin_count(G) of them. Built once per group."""
    if "rational_points" not in G._cache:
        walks, seed_of = _cyclic_seeds(G)[:2]
        first = [walks[r][0] for r in _seed_classes(G)[0]] + [0]  # [-1]: 1
        G._cache["rational_points"] = (list(map(first.__getitem__, seed_of)),
                                       list(dict.fromkeys([0] + first)))
    return G._cache["rational_points"]


def artin_count(G: FiniteGroup) -> int:
    """The number of conjugacy classes of cyclic subgroups of G, the trivial
    one included: by Artin's induction theorem, the number of simple
    components of Q[G] (Serre, Linear Representations of Finite Groups,
    13.1)."""
    return len(set(_seed_classes(G)[0])) + 1


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
        """Containment, for subgroups of one group (GroupMismatch otherwise:
        the masks of two groups number different elements)."""
        if other.parent is not self.parent:
            require_subgroups(self.parent, other)
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
        """1 or one of the cyclic subgroups of _cyclic_seeds."""
        return self.mask == 1 or self.mask in _cyclic_seeds(self.parent).least

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
                            letters=self.parent.letters)
            self.parent._cache[key] = (H, mem)
        return self.parent._cache[key]


def require_subgroups(G: FiniteGroup, *subs: Subgroup) -> None:
    """Raise GroupMismatch unless each of subs is a subgroup of G: the
    per-group memos are keyed by a subgroup's mask alone."""
    for S in subs:
        if S.parent is not G:
            raise GroupMismatch(
                f"{S!r} is a subgroup of {S.parent.name}, not {G.name}")


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    gens = tuple(gens)
    return Subgroup(G, _closure(G, gens), gens)


def subgroup_from_mask(G: FiniteGroup, mask: int) -> Subgroup:
    """Wrap a mask known to be closed, with its greedy generators: the
    members in index order, each the first outside the closure of those
    before it. This is the one scan that turns a membership test into a
    subgroup: a caller states its test as a mask first. The closure of
    the generators holds every member, so it is the mask iff the mask is
    closed (InconsistentSpec if not)."""
    gens: list[int] = []
    inside = Subgroup(G, 1)
    for g in Subgroup(G, mask).members:
        if not inside.mask >> g & 1:
            gens.append(g)
            inside = Subgroup(G, _closure(G, (g,), inside))
    if inside.mask != mask:
        raise InconsistentSpec("mask is not closed under multiplication")
    return Subgroup(G, mask, tuple(gens))


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
    Every subgroup's cosets, the trivial one's and within's own included,
    are listed by one walk over within. A within of another group raises
    GroupMismatch.
    """
    G = S.parent
    if within is not None:
        require_subgroups(G, within)
    key = ("cosets", S.mask, None if within is None else within.mask, left)
    if key in G._cache:
        return G._cache[key]
    table, smembers = G.table, S.members
    index = [-1] * G.order
    reps: list[int] = []
    members = range(G.order) if within is None else within.members
    for g in members:
        if index[g] < 0:
            i = len(reps)
            reps.append(g)
            if left:
                row = table[g]
                for s in smembers:
                    index[row[s]] = i
            else:
                for s in smembers:
                    index[table[s][g]] = i
    G._cache[key] = index, reps
    return index, reps


def section_generator(H: Subgroup, K: Subgroup) -> Optional[int]:
    """The first h in H whose coset hK generates H/K (K normal in H), or
    None when H/K is not cyclic; 0 when H = K. Decided once per pair; a K
    not inside H raises NotNormal. This is the one test of a cyclic
    section.

    hK generates H/K iff <h>K = H, that is iff C = <h> has
    |C| = [H : K] * |C meet K|: a test on the mask of a cyclic seed of H.
    The generators of one C pass or fail together, so the first h that
    passes is the least generator of the first seed of H that does, and
    seeds are numbered in the order of their least generators. Only seeds
    of order at least [H : K] can pass, and the table lists them first."""
    G = H.parent
    if K.parent is not G:
        require_subgroups(G, K)
    key = ("section", H.mask, K.mask)
    if key not in G._cache:
        hm, km = H.mask, K.mask
        if km & ~hm:
            raise NotNormal(f"{K!r} is not contained in {H!r}")
        n = H.order // K.order
        x = 0 if n == 1 else None
        seeds = _cyclic_seeds(G).by_order if n > 1 else []
        for order, mask, walk, _ in seeds:
            if order < n:
                break
            if (mask & hm == mask and order == n * (mask & km).bit_count()
                    and (x is None or walk[0] < x)):
                x = walk[0]
        G._cache[key] = x
    return G._cache[key]


def is_metacyclic(G: FiniteGroup) -> bool:
    """G has a normal cyclic subgroup C with G/C cyclic: a cyclic seed
    that is normal and passes section_generator. Decided once per group,
    with no lattice."""
    if "metacyclic" not in G._cache:
        full = full_subgroup(G)
        G._cache["metacyclic"] = G.order == 1 or any(
            is_normal(G, C) and section_generator(full, C) is not None
            for C in cyclic_subgroups(G))
    return G._cache["metacyclic"]


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


def _joins_by_order(J: dict[int, int]) -> list[tuple[int, int, list[int]]]:
    """The joins J(s, q) of one seed s as (order, mask, its seeds q),
    largest first."""
    by_mask: dict[int, list[int]] = {}
    for q, mask in J.items():
        by_mask.setdefault(mask, []).append(q)
    return sorted(((m.bit_count(), m, qs) for m, qs in by_mask.items()),
                  reverse=True)


def _conjugated_row(G: FiniteGroup, i: int, seed_joins: list[dict[int, int]],
                    seen: dict[int, Subgroup],
                    ) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """The join row J(i, .) of a seed C_i = C_r^g (_seed_classes), from the
    complete rows of the seeds before it: J(i, k) = J(r, q)^g for the seed
    q with C_q^g = C_k, that of C_k^(g^-1), read off the permutation of
    G by g^-1 (_conjugation) at C_k's least generator. Each distinct
    J of C_r's row is conjugated once, through k, the least seed with
    J(i, k) = J^g: for k < i, J^g = J(k, i) is read off an earlier row,
    and for k >= i it is the image of J's members. Returns the row and its
    new joins, the (k, J^g) with k > i in order of k: every other J^g is
    in an earlier row or is C_i, so already in seen."""
    rep, by = _seed_classes(G)[:2]
    seeds = _cyclic_seeds(G)
    back, seed_of = _conjugation(G, G.inverse[by[i]]), seeds.seed_of
    masks = list(map(seed_joins[rep[i]].__getitem__,  # J(r, q), by k
                     [seed_of[back[x]] for x in seeds.least.values()]))
    # the last value given to a key stays: each mask keeps its least k
    least = dict(zip(reversed(masks), range(len(masks) - 1, -1, -1)))
    image: dict[int, int] = {}
    new: list[tuple[int, int]] = []
    for mask, k in least.items():
        if k < i:
            image[mask] = seed_joins[k][i]
            continue
        image[mask] = conjugate_mask(G, seen[mask], by[i])
        if k > i:
            new.append((k, image[mask]))
    new.sort()
    return dict(enumerate(map(image.__getitem__, masks))), new


def _first_conjugates(G: FiniteGroup, frontier: list[Subgroup],
                      seed_joins: list[dict[int, int]]) -> list[int]:
    """For each H = J(a, b) = <C_a, C_b> of frontier, the index of the first
    conjugate of H in frontier, for a frontier that holds every conjugate of
    its members. The conjugates are read off the join table as
    J(a, b)^t = J(a^t, b^t), for t in G.generators() (_seed_classes)."""
    seed_of, moves = _cyclic_seeds(G).seed_of, _seed_classes(G)[2]
    first_of: dict[int, int] = {}
    for i, H in enumerate(frontier):
        if H.mask not in first_of:
            first_of[H.mask] = i
            pairs = [tuple(map(seed_of.__getitem__, H.gens))]
            for a, b in pairs:
                for move in moves:
                    pair = move[a], move[b]
                    mask = seed_joins[pair[0]][pair[1]]
                    if mask not in first_of:
                        first_of[mask] = i
                        pairs.append(pair)
    return [first_of[H.mask] for H in frontier]


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
      H and C_q, and <H, C_q> holds C_s and C_q. The joins J(s, .) are
      grouped and sorted by order the first time such an H needs them.
    A seed not in it is joined as follows.
    - If c normalizes H (tested on H.gens), <H, c> is _cyclic_join's product
      set, and the elements it returns name it.
    - Else every x = hch' of HcH names it, as c = h^-1 x h'^-1. HcH is built
      one left coset yH at a time. If a seed of it is in `join`, the join
      is read off that seed; else it is closed (_closure with base H).
    <H, x> depends on <x> only, so x names its join through its seed. Each
    named join was reached before: a first-level join J(s, q) when its
    level ended, and any other when it was computed for H or, on the first
    level, for an earlier seed. So it is already in `seen`.

    Two shortcuts scan one member per conjugacy class. The subgroups found
    by level l are the joins of at most l + 1 cyclic subgroups, a set that
    conjugation maps onto itself, so a conjugate of a scanned subgroup
    joins to conjugates of its joins.
    - First level: a seed C_i = C_r^g, C_r the first of its class, takes
      C_r's row conjugated (_conjugated_row).
    - Second level: the 2-generated subgroups are classed through the join
      table (_first_conjugates), and H = R^g, R earlier, is skipped when no
      join of R is new at this level: each <H, C_k> = <R, C_k'>^g was
      found by the first level too.
    So the list, every gens and the point where OrderCapExceeded is raised
    (as soon as more than MAX_SUBGROUPS subgroups are found) are those of
    closing every join of every seed and subgroup.
    """
    if "subgroups" not in G._cache:
        table = G.table
        bits = [1 << x for x in range(G.order)]
        seed_powers, seed_of = _cyclic_seeds(G)[:2]
        seed_at = seed_of.__getitem__
        seeds = cyclic_subgroups(G)
        rep = _seed_classes(G)[0]
        seen: dict[int, Subgroup] = {1: Subgroup(G, 1)}
        seen.update((C.mask, C) for C in seeds)
        _check_subgroup_count(G, seen)
        full = (1 << G.order) - 1
        frontier, level = seeds, 1
        seed_joins: list[dict[int, int]] = []  # J(s, q), by s then q
        joins_of: dict[int, list] = {}  # s -> _joins_by_order(J(s, .))

        def found(mask: int, gens: tuple[int, ...]) -> None:
            seen[mask] = Subgroup(G, mask, gens)
            new.append(seen[mask])
            fresh.add(mask)
            _check_subgroup_count(G, seen)

        while frontier:
            new: list[Subgroup] = []
            fresh: set[int] = set()  # the masks of new
            # with every seed normal (G is Dedekind) each class is one subgroup
            first = (_first_conjugates(G, frontier, seed_joins)
                     if level == 2 and len(set(rep)) < len(rep)
                     else range(len(frontier)))
            shared = {r for i, r in enumerate(first) if r != i}
            clean: dict[int, bool] = {}  # r in shared -> no join of it is new
            for i, H in enumerate(frontier):
                if first[i] != i and clean[first[i]]:
                    continue
                if level == 1 and rep[i] != i:
                    join, new_joins = _conjugated_row(G, i, seed_joins, seen)
                    seed_joins.append(join)
                    for k, mask in new_joins:
                        if mask not in seen:
                            found(mask, H.gens + (seed_powers[k][0],))
                    continue
                members = H.members
                join = dict.fromkeys(map(seed_at, members), H.mask)
                if level == 1:
                    join.update(zip(range(i), map(itemgetter(i), seed_joins)))
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
                for k in range(i + 1, len(seeds)) if level == 1 else range(len(seeds)):
                    if k in join:
                        continue
                    c = seed_powers[k][0]
                    if normalizes(G, (c,), H):
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
                        else:
                            mask = _closure(G, (c,), H)
                    if mask not in seen:
                        found(mask, H.gens + (c,))
                    join.update(dict.fromkeys(map(seed_at, names), mask))
                if i in shared:
                    clean[i] = fresh.isdisjoint(join.values())
            frontier = new
            level += 1
        subs = sorted(seen.values(), key=lambda s: (s.order, s.mask))
        G._cache["subgroups"] = subs
    return G._cache["subgroups"]


def lattice_generators(G: FiniteGroup, S: Subgroup) -> tuple[int, ...]:
    """The generators that subgroups(G) gives S, by the lattice's own rule
    where it has a closed form, else read off the lattice. Decided once
    per subgroup.

    The rule: S's generators are the lexicographically least among the
    shortest tuples of least generators of seeds (_cyclic_seeds) that
    generate S. subgroups() finds the subgroups that need d seeds on level
    d - 1, each as a join <H, c> with H from the level before, H in the
    order found and c in seed order, and keeps H.gens + (c,) of the first
    join that reaches it. By induction a level finds its subgroups in the
    order of the tuples it keeps, and each kept tuple is the least: for
    the least tuple (a_1, ..., a_d) of S, T = <a_1, ..., a_(d-1)> needs
    d - 1 seeds (else S would need fewer than d) and its least tuple is
    (a_1, ..., a_(d-1)) (a lesser one would give S a lesser tuple), so the
    join of T and a_d reaches S, and any join before it would give S a
    lesser tuple.

    The tuple has a closed form when
    - S = 1, with (), or S = <g> is cyclic, with (g,), g least;
    - S is nilpotent, by Burnside's basis theorem (_basis_generators);
    - G is metacyclic: every subgroup then is 2-generated, and the tuple
      is the first pair that generates S (_pair_generators).
    Otherwise, and whenever the lattice is already built, the lattice is
    read."""
    require_subgroups(G, S)
    key = ("lattice_gens", S.mask)
    if key not in G._cache:
        least = _cyclic_seeds(G).least
        if S.mask == 1 or S.mask in least:
            gens = (least[S.mask],) if S.mask > 1 else ()
        elif "subgroups" in G._cache:
            gens = _lattice_entry(G, S).gens
        else:
            seeds = [(mask, g) for mask, g in least.items() if mask & S.mask == mask]
            gens = _basis_generators(G, S, seeds)
            if gens is None:
                gens = (_pair_generators(G, S, seeds) if is_metacyclic(G)
                        else _lattice_entry(G, S).gens)
        G._cache[key] = gens
    return G._cache[key]


def _lattice_entry(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """The subgroup of subgroups(G), sorted by (order, mask), with S's mask."""
    subs = subgroups(G)
    return subs[bisect_left(subs, (S.order, S.mask), key=lambda T: (T.order, T.mask))]


def _sylow_masks(G: FiniteGroup, mask: int) -> Optional[dict[int, int]]:
    """p -> the mask of the elements of p-power order of the subgroup S
    with this mask, for each prime p dividing |S|; None when S is not
    nilpotent. These elements are the union of S's seeds (_cyclic_seeds)
    of p-power order, and S is nilpotent iff each Sylow subgroup is
    normal, that is iff, for every p, they number |S|_p."""
    primes = prime_factors(mask.bit_count())
    sylow = dict.fromkeys(primes, 1)
    for _, c, _, p in _cyclic_seeds(G).by_order:
        if p and c & mask == c:
            sylow[p] |= c
    if any(sylow[p].bit_count() != p ** e for p, e in primes.items()):
        return None
    return sylow


def _basis_generators(G: FiniteGroup, S: Subgroup,
                      seeds: list[tuple[int, int]]) -> Optional[tuple[int, ...]]:
    """The least shortest tuple of lattice_generators for a nilpotent S,
    from its seeds (mask, least generator) in seed order; None when S is
    not nilpotent (_sylow_masks).

    A nilpotent S is the direct product of its Sylow subgroups S_p, so g_1,
    ..., g_k generate S iff, for each p, their p-parts generate S_p, that
    is (Burnside's basis theorem) span S_p/Phi(S_p), a space over F_p of
    some dimension d_p; and d = max d_p. A seed's p-part is a power of its
    generator that generates the Sylow p-subgroup of the seed. An entry
    can be any seed whose p-parts reach, at each p, the dimensions still
    missing: S holds an element with any given p-parts. So the least
    tuple is greedy: each entry is the least seed after the one before
    that leaves, at each p, no more dimensions missing than entries left.
    Phi(S_p) is the normal closure in S_p of the x^p and [x, y], for x and
    y among the p-parts of generators of S."""
    sylow = _sylow_masks(G, S.mask)
    if sylow is None:
        return None
    table = _cyclic_seeds(G)
    walks, seed_of = table.walks, table.seed_of
    primes = prime_factors(S.order)
    parts = []  # per seed, p -> its p-part, 1 (index 0) when p does not divide
    for _, g in seeds:
        walk = walks[seed_of[g]]
        m, at = len(walk), prime_factors(len(walk))
        parts.append({p: walk[m // p ** at[p] - 1] if p in at else 0 for p in primes})
    gens = S.gens or subgroup_from_mask(G, S.mask).gens
    span, missing = {}, {}
    for p in primes:
        xs = [G.power(x, m // p ** prime_factors(m).get(p, 0))
              for x, m in zip(gens, map(G.element_order, gens))]
        span[p] = normal_closure(G, [G.power(x, p) for x in xs] + [
            G.commutator(x, y) for i, x in enumerate(xs) for y in xs[:i]], xs)
        missing[p] = prime_factors(sylow[p].bit_count() // span[p].order).get(p, 0)
    out: list[int] = []
    start = 0
    for left in range(max(missing.values()) - 1, -1, -1):  # entries left after this
        for i in range(start, len(seeds)):
            gains = {p: x for p, x in parts[i].items() if not span[p].mask >> x & 1}
            if all(missing[p] - (p in gains) <= left for p in primes):
                break
        else:
            raise SoundnessError(f"no basis entry for {S!r}")
        out.append(seeds[i][1])
        start = i + 1
        for p, x in gains.items():
            span[p] = Subgroup(G, _closure(G, (x,), span[p]))
            missing[p] -= 1
    return tuple(out)


def _pair_generators(G: FiniteGroup, S: Subgroup,
                     seeds: list[tuple[int, int]]) -> tuple[int, int]:
    """The first pair (a, b), a < b, of least generators of S's seeds
    (mask, least generator), in seed order, with <a, b> = S, for S not
    cyclic in a metacyclic G. When b normalizes <a> or a normalizes <b>,
    <a, b> is the product set <a><b>, whose order the masks give; any
    other pair is closed."""
    conj = G.conj
    for i, (amask, a) in enumerate(seeds):
        A = Subgroup(G, amask)
        for bmask, b in seeds[i + 1:]:
            if amask >> conj(a, b) & 1 or bmask >> conj(b, a) & 1:
                if (amask.bit_count() * bmask.bit_count()
                        == S.order * (amask & bmask).bit_count()):
                    return a, b
            elif _closure(G, (b,), A) == S.mask:
                return a, b
    raise SoundnessError(f"{S!r} of the metacyclic {G.name} is not 2-generated")


def normalizes(G: FiniteGroup, by: Iterable[int], S: Subgroup) -> bool:
    """Conjugation by each element of by maps S into itself."""
    sgens = S.gens or S.members
    conj = G.conj
    return all(S.mask >> conj(s, g) & 1 for g in by for s in sgens)


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    """Whether H is normal in G; decided once per subgroup and group, so
    normal_subgroups, normalizer and quotient share each verdict. Each of
    H's generators is read through the conjugation permutations of G's
    generators that the class build keeps (_classes), with no G.conj."""
    require_subgroups(G, H)
    known = G._cache.setdefault("normal", {})
    if H.mask not in known:
        mask, hgens = H.mask, H.gens or H.members
        known[H.mask] = all(mask >> perm[h] & 1
                            for perm in _classes(G)[0] for h in hgens)
    return known[H.mask]


def is_normal_in(H: Subgroup, K: Subgroup) -> bool:
    """K normal in H (both subgroups of the same parent G). A K that the
    is_normal memo knows to be normal in G is normal in H, and for H = G
    the verdict is is_normal's; otherwise H's generators are tested."""
    G = H.parent
    require_subgroups(G, K)
    if not K <= H:
        return False
    if G._cache.get("normal", {}).get(K.mask) or H.order == G.order:
        return is_normal(G, K)
    return normalizes(G, H.gens or H.members, K)


def normalizer_mask(G: FiniteGroup, H: Subgroup) -> int:
    """The mask of N_G(H), with at most one normality test per right coset
    Hg, as hg normalizes H iff g does, and no closure. When g normalizes
    H, so does each power of g, and when it does not, neither does any
    generator of <g>: the cosets these lie in are not tested again."""
    index, reps = cosets(H)
    walks, seed_of = _cyclic_seeds(G)[:2]
    known: list[Optional[bool]] = [True] + [None] * (len(reps) - 1)
    for i, g in enumerate(reps):
        if known[i] is None:
            passed = normalizes(G, (g,), H)
            s = seed_of[g]
            for x in walks[s]:
                if passed or seed_of[x] == s:
                    known[index[x]] = passed
    return sum(1 << x for x, i in enumerate(index) if known[i])


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """N_G(H), with the generators subgroup_from_mask finds on its mask;
    G itself, with the scan's generators, when H is normal."""
    if is_normal(G, H):
        return full_subgroup(G)
    return subgroup_from_mask(G, normalizer_mask(G, H))


def centralizer(G: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    """Cen_G(elems): the elements that commute with each of elems, the
    AND of their commuting masks, with the scan's generators."""
    mask = (1 << G.order) - 1
    for x in elems:
        mask &= _commuting_mask(G, x)
    return subgroup_from_mask(G, mask)


def center(G: FiniteGroup) -> Subgroup:
    if "center" not in G._cache:
        G._cache["center"] = centralizer(G, G.generators())
    return G._cache["center"]


def normal_closure(G: FiniteGroup, gens: Iterable[int],
                   by: Iterable[int]) -> Subgroup:
    """The normal closure of <gens> in <by u gens>: generated by gens and
    the conjugates s^x, x in by, added while some generator s has one
    outside, each closed over the subgroup so far."""
    gens, by = list(gens), list(dict.fromkeys(by))
    S = Subgroup(G, _closure(G, gens))
    for s in gens:  # gens grows while it is scanned
        for x in by:
            y = G.conj(s, x)
            if not S.mask >> y & 1:
                gens.append(y)
                S = Subgroup(G, _closure(G, (y,), S))
    return Subgroup(G, S.mask, tuple(gens))


def commutator_subgroup(G: FiniteGroup, A: Iterable[int],
                        B: Iterable[int]) -> Subgroup:
    """[<A>, <B>], the normal closure in <A u B> of the commutators [a, b]
    with a in A and b in B; generated by the sorted nontrivial ones and
    the conjugates added to close it."""
    A, B = list(A), list(B)
    comms = {G.commutator(a, b) for a in A for b in B}
    comms.discard(0)
    return normal_closure(G, sorted(comms), A + B)


def derived_subgroup(S: FiniteGroup | Subgroup) -> Subgroup:
    """The derived subgroup of a group or of a subgroup S, from S's
    generators (its members when it has none); built once per subgroup."""
    if isinstance(S, FiniteGroup):
        S = full_subgroup(S)
    G, key = S.parent, ("derived", S.mask)
    if key not in G._cache:
        gens = S.gens or S.members[1:]
        G._cache[key] = commutator_subgroup(G, gens, gens)
    return G._cache[key]


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    if "normals" not in G._cache:
        G._cache["normals"] = [H for H in subgroups(G) if is_normal(G, H)]
    return G._cache["normals"]


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Quotient group G/N and the projection map element -> coset index.

    Coset representatives are the minimal element of each coset; the
    identity coset is index 0.
    """
    require_subgroups(G, N)
    key = ("quotient", N.mask)
    if key in G._cache:
        return G._cache[key]
    if not is_normal(G, N):
        raise NotNormal(f"{N!r} is not normal in {G.name}")
    proj, reps = cosets(N)
    table = [[proj[G.table[a][b]] for b in reps] for a in reps]
    names = ["1"] + [f"[{G.names[r]}]" for r in reps[1:]]
    Q = FiniteGroup(table, names, name=f"{G.name}/{repr(N)}", letters=G.letters)
    G._cache[key] = (Q, proj)
    return Q, proj


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


_BOOL_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _commuting_mask(G: FiniteGroup, a: int) -> int:
    """The mask of the elements that commute with a: where a's row and
    a's column of the table agree, as bits read lowest first."""
    agree = bytes(map(eq, G.table[a], map(itemgetter(a), G.table)))
    return int(agree.translate(_BOOL_DIGITS)[::-1], 2)


def maximal_abelian_over(G: FiniteGroup, B: Subgroup) -> Subgroup:
    """A maximal abelian subgroup containing the abelian B, with no
    lattice: B extended by the least element that centralizes it, until no
    element outside centralizes it. One scan in index order does this, as
    an element that does not centralize A does not centralize any larger A
    either: the candidates are the elements that commute with each
    generator so far, a mask that only shrinks. Each <A, g> is a closure
    over A; the generators are those of B and the elements added, by the
    closure-free rule of _beside.

    This greedy rule replaced the least mask among all_maximal_abelian_over
    (the lattice's pick). The two agree on every catalog, benchmark and
    product group tested; metabelian_pcis gives the same idempotents for
    any maximal abelian A over G', so only its representative pairs could
    differ where they do not."""
    require_subgroups(G, B)
    if not B.is_abelian():
        raise BNotAbelian("seed subgroup is not abelian")
    A, added = B, []
    centralizing = (1 << G.order) - 1
    for a in _few_generators(B):
        centralizing &= _commuting_mask(G, a)
    while centralizing & ~A.mask:
        left = centralizing & ~A.mask
        g = (left & -left).bit_length() - 1  # the least one
        added.append(g)
        A = Subgroup(G, _closure(G, (g,), A))
        centralizing &= _commuting_mask(G, g)
    return _beside(G, A.mask, _few_generators(B), added)


def _beside(G: FiniteGroup, mask: int, base: Iterable[int],
            gens: Sequence[int] = ()) -> Subgroup:
    """The subgroup of G with this mask, generated by base and gens, with
    generators read off the cyclic subgroups and no closure: its least
    generator when it is cyclic, else the elements of base that lie in no
    <g>, g in gens, then gens."""
    table = _cyclic_seeds(G)
    if mask in table.least:
        return Subgroup(G, mask, (table.least[mask],))
    seeds, seed_of = cyclic_subgroups(G), table.seed_of
    for g in gens:
        if g:  # <1> drops no d
            inside = seeds[seed_of[g]].mask
            base = [d for d in base if not inside >> d & 1]
    return Subgroup(G, mask, (*base, *gens))


def _few_generators(S: Subgroup) -> tuple[int, ...]:
    """S's least generator when S is cyclic, else its generators (its
    members but 1 when it has none): _beside with S's own."""
    return _beside(S.parent, S.mask, S.gens or S.members[1:]).gens


def is_nilpotent_group(G: FiniteGroup) -> bool:
    """Every Sylow subgroup of G is normal (_sylow_masks)."""
    if "nilpotent" not in G._cache:
        G._cache["nilpotent"] = _sylow_masks(G, (1 << G.order) - 1) is not None
    return G._cache["nilpotent"]


def is_solvable_group(G: FiniteGroup) -> bool:
    cur = full_subgroup(G)
    while True:
        nxt = derived_subgroup(cur)
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


def _powers(letter: str, n: int) -> list[str]:
    """The names of letter^e, e < n."""
    return ["1", letter, *(f"{letter}^{e}" for e in range(2, n))][:n]


def _join(x: str, y: str) -> str:
    """The name of x*y, from the names of x and y."""
    return y if x == "1" else x if y == "1" else f"{x}*{y}"


# The builders make each table row with a constant number of C-level calls
# (range slices, map, translate), never one Python step per entry. Most
# rows are products of two rows already built: (x*y)*z = x*(y*z), so the
# row of x*y is the row of x read at the entries of the row of y. Up to
# order 256 a row is bytes, FiniteGroup checks it as it is, and that read
# is one bytes.translate; above, a row is a list and the read an itemgetter.


def _row_type(order: int) -> type:
    """The builders' row type for a group of this order."""
    return bytes if order <= 256 else list


def _times(q: bytes | list[int]) -> Callable:
    """p -> the row of x*y, for p the row of x and q the row of y."""
    if type(q) is bytes:
        pad = bytes(256 - len(q))
        return lambda p: q.translate(p + pad)
    get = itemgetter(*q)  # a list row has over 256 entries
    return lambda p: list(get(p))


def _row_powers(q: bytes | list[int], k: int) -> list:
    """The rows of 1, y, ..., y^(k-1), for q the row of y."""
    times, rows = _times(q), [type(q)(range(len(q)))]
    for _ in range(k - 1):
        rows.append(times(rows[-1]))
    return rows


def _spread(table: list[list[int]], k: int, row: type) -> list:
    """For each row r of table, the row with entry r[i]*k + j at i*k + j:
    that of (x, 1) in a group whose element i*k + j is (i, j)."""
    blocks = [range(v * k, v * k + k) for v in range(len(table))]
    return [row(itertools.chain.from_iterable(map(blocks.__getitem__, r)))
            for r in table]


def cyclic(n: int, letter: str = "x", cap: Optional[int] = None) -> FiniteGroup:
    if n < 1:
        raise InconsistentSpec("cyclic group order must be positive")
    _check_cap(n, cap)
    ident = _row_type(n)(range(n))
    table = [ident[i:] + ident[:i] for i in range(n)]
    return FiniteGroup(table, _powers(letter, n), name=f"C{n}", letters=(letter,))


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
    if rank < 1 or rank > 8:
        raise InconsistentSpec("rank must be between 1 and 8")
    # the cap before the primality test, whose cost grows with sqrt(p)
    _check_cap(p ** rank, cap)
    if not is_prime(p):
        raise InconsistentSpec(f"{p} is not prime")
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
    row = _row_type(m * n)
    # a^i b^j is element j*m + i: <a> occupies the lowest indices, so it
    # wins smallest-bitset tie-breaks among maximal abelian subgroups.
    # a * a^i2 b^j2 = a^(i2+1) b^j2
    offsets = [j * m for j in range(n) for _ in range(m)]
    a_rows = _row_powers(row(map(add, offsets, [*range(1, m), 0] * n)), m)
    # b * a^i2 b^j2 = a^(r*i2) b^(j2+1), and b^n = a^t
    b_rows = _row_powers(row([(j2 + 1) % n * m + (r * i2 + (t if j2 == n - 1 else 0)) % m
                              for j2 in range(n) for i2 in range(m)]), n)
    table = []
    for b_row in b_rows:  # the row of a^i b^j, the row of a^i read at b^j's
        table.extend(map(_times(b_row), a_rows))
    powers_a = _powers(la, m)
    names = [_join(x, y) for y in _powers(lb, n) for x in powers_a]
    gname = name or f"Metacyclic({m},{n},{t},{r})"
    return FiniteGroup(table, names, name=gname, letters=tuple(letters))


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
    if m < 1:
        raise InconsistentSpec("m must be positive")
    if math.gcd(m, r) != 1:
        raise InconsistentSpec(f"gcd({m},{r}) != 1")
    # |G| = m * ord_m(r) >= m: the cap before ord_mod, whose cost grows with m
    _check_cap(m, cap)
    s = math.gcd(r - 1, m) if m > 1 else 1
    t = m // s
    n = ord_mod(m, r)
    return metacyclic(m, n, t, r, cap=cap, name=f"G({m},{r})")


def semidirect_cyclic(p: int, n: int, r0: int, cap: Optional[int] = None) -> FiniteGroup:
    """<x, y | x^p = y^n = 1, y x y^-1 = x^r0>."""
    if p < 1:
        raise InconsistentSpec("p must be positive")
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
    row = _row_type(order)
    x_rows = _spread(base.table, n_ext, row)
    # c * x2 c^k2 = phi_l(x2) c^(k2+1), and c^n_ext = z
    c_rows = _row_powers(row([phi_l[x2] * n_ext + k2 + 1 if k2 + 1 < n_ext
                              else base.table[phi_l[x2]][z] * n_ext
                              for x2 in range(base.order) for k2 in range(n_ext)]),
                         n_ext)
    times_ck = list(map(_times, c_rows))
    table = [times(x_row) for x_row in x_rows for times in times_ck]
    powers_c = _powers(new_letter, n_ext)
    names = [_join(x, y) for x in base.names for y in powers_c]
    gname = name or f"{base.name}.C{n_ext}"
    return FiniteGroup(table, names, name=gname,
                       letters=base.letters + (new_letter,))


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
    if q < 1:
        raise InconsistentSpec("q must be positive")
    # the cap before the primality test, whose cost grows with sqrt(p), and
    # before any power it refuses: for p >= 2, p^rank >= 2^rank is over
    # every cap of at most rank bits
    bound = DEFAULT_ORDER_CAP if cap is None else cap
    if p >= 2 and rank >= bound.bit_length():
        raise OrderCapExceeded(f"group order {p}^{rank}*{q} exceeds cap {bound}")
    _check_cap(p ** rank * q, cap)
    if not is_prime(p):
        raise InconsistentSpec(f"{p} is not prime")
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
    letter = "abcdefghi"[rank]
    return cyclic_extension(base, conj_images, q, 0, letter, cap=cap,
                            name=f"EA({p},{rank}):C{q}")


def _product_names(G1: FiniteGroup, G2: FiniteGroup
                   ) -> tuple[list[str], tuple[str, ...]]:
    """G2's element names as factor of G1 x G2, and the product's letters;
    G2's letters that G1 also uses are renamed to unused ones."""
    names2 = G2.names
    letters2 = G2.letters
    shared = set(G1.letters) & set(G2.letters)
    if shared:
        unused = [c for c in "abcdefghijklmnopqrstuvwxyz"
                  if c not in G1.letters and c not in G2.letters]
        if len(unused) < len(shared):
            raise InconsistentSpec("a product needs more than 26 generator letters")
        ren = {}
        for l in G2.letters:
            ren[l] = unused.pop(0) if l in shared else l
        pat = re.compile("|".join(re.escape(l) for l in ren))
        names2 = [pat.sub(lambda m: ren[m.group(0)], nm) for nm in G2.names]
        letters2 = tuple(ren[l] for l in G2.letters)
    return names2, G1.letters + letters2


def direct_product(G1: FiniteGroup, G2: FiniteGroup,
                   cap: Optional[int] = None) -> FiniteGroup:
    _check_cap(G1.order * G2.order, cap)
    n1, n2 = G1.order, G2.order
    row = _row_type(n1 * n2)
    # (a, b) is element a*n2 + b, and (a, b) = (a, 1)(1, b), with
    # (a, 1)(a2, b2) = (a a2, b2) and (1, b)(a2, b2) = (a2, b b2)
    offsets = [a2 * n2 for a2 in range(n1) for _ in range(n2)]
    times_b = [_times(row(map(add, offsets, r2 * n1))) for r2 in G2.table]
    table = [times(r) for r in _spread(G1.table, n2, row) for times in times_b]
    names2, letters = _product_names(G1, G2)
    names = [_join(x, y) for x in G1.names for y in names2]
    return FiniteGroup(table, names, name=f"{G1.name}x{G2.name}", letters=letters)


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
    z0 = _cyclic_seeds(G1).least[Z1.mask]  # Z1's least generator
    z2 = center(G2).mask
    # the walks of the central cyclic subgroups of order m of G2
    targets = [walk for order, mask, walk, _ in _cyclic_seeds(G2).by_order
               if order == m and mask & z2 == mask]
    if len(targets) != 1:
        raise InconsistentSpec(
            f"need exactly one central cyclic subgroup of order {m} in the "
            f"second factor, found {len(targets)}")
    if math.gcd(ident_exp, m) != 1:
        raise InconsistentSpec("identification exponent must be a unit")
    w0 = targets[0][0]  # its least generator
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
    # the row of coset [(a, b)] is that of [(a, 1)] times that of [(1, b)],
    # with [(a, 1)][(a2, b2)] = [(a a2, b2)] and [(1, b)][(a2, b2)] =
    # [(a2, b b2)]; there are at least |G1| >= m >= 2 reps
    row = _row_type(len(reps))
    at1, at2 = [a for a, _ in reps], [b for _, b in reps]
    scaled1 = [a * n2 for a in at1]
    get1, get2 = itemgetter(*at1), itemgetter(*at2)
    rows1 = {a: row(map(proj.__getitem__, map(add, map(n2.__mul__, get1(t1[a])), at2)))
             for a in dict.fromkeys(at1)}
    times2 = [_times(row(map(proj.__getitem__, map(add, scaled1, get2(r)))))
              for r in t2]
    table = [times2[b](rows1[a]) for a, b in reps]
    names2, letters = _product_names(G1, G2)
    names = ["1"] + [f"[{_join(G1.names[a], names2[b])}]" for a, b in reps[1:]]
    return FiniteGroup(table, names, name=f"{G1.name}~{G2.name}", letters=letters)


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
    return FiniteGroup(table, names, name="A5", letters=())


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
