"""Exact arithmetic in the rational group algebra Q[G].

An AlgElem stores a common positive denominator and one integer numerator
per group element, always normalized so gcd(den, gcd(nums)) = 1. All
arithmetic is exact; no floats anywhere. Elements are immutable values.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Optional

from .errors import (GroupMismatch, NonIntegerDimension, NotCentralIdempotent,
                     SoundnessError)
from .groups import FiniteGroup, Subgroup, _closure, cosets, stabilizer


class AlgElem:
    """An element sum(c_g * g) of Q[G] with exact rational coefficients."""

    __slots__ = ("group", "den", "nums", "_support")

    def __init__(self, group: FiniteGroup, nums: list[int], den: int = 1,
                 _normalized: bool = False):
        self.group = group
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, nums = -den, [-v for v in nums]
        if not _normalized:
            g = den
            for v in nums:
                if v:
                    g = math.gcd(g, v)
                    if g == 1:
                        break
            if g > 1:
                den //= g
                nums = [v // g for v in nums]
        self.den = den
        self.nums = nums
        self._support: Optional[tuple[int, ...]] = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(G: FiniteGroup) -> "AlgElem":
        return AlgElem(G, [0] * G.order, 1, _normalized=True)

    @staticmethod
    def one(G: FiniteGroup) -> "AlgElem":
        nums = [0] * G.order
        nums[0] = 1
        return AlgElem(G, nums, 1, _normalized=True)

    @staticmethod
    def basis(G: FiniteGroup, g: int) -> "AlgElem":
        nums = [0] * G.order
        nums[g] = 1
        return AlgElem(G, nums, 1, _normalized=True)

    @staticmethod
    def from_coeffs(G: FiniteGroup, coeffs: dict[int, Fraction | int]) -> "AlgElem":
        den = 1
        for c in coeffs.values():
            den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
        nums = [0] * G.order
        for g, c in coeffs.items():
            f = Fraction(c)
            nums[g] = f.numerator * (den // f.denominator)
        return AlgElem(G, nums, den)

    # -- queries ---------------------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        if self._support is None:
            self._support = tuple(itertools.compress(itertools.count(), self.nums))
        return self._support

    def is_zero(self) -> bool:
        return not any(self.nums)

    def coeff(self, g: int) -> Fraction:
        return Fraction(self.nums[g], self.den)

    def coeffs(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.nums]

    def augmentation(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def key(self) -> tuple:
        """Canonical hashable key (used for dedup and deterministic sort)."""
        return (self.den, tuple(self.nums))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgElem) and other.group is self.group
                and other.den == self.den and other.nums == self.nums)

    def __hash__(self) -> int:
        return hash((id(self.group), self.den, tuple(self.nums)))

    def __repr__(self) -> str:
        parts = []
        for g in self.support[:8]:
            c = self.coeff(g)
            parts.append(f"{c}*{self.group.names[g]}")
        more = "" if len(self.support) <= 8 else f" ... ({len(self.support)} terms)"
        return "AlgElem(" + (" + ".join(parts) if parts else "0") + more + ")"

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other: "AlgElem") -> None:
        if other.group is not self.group:
            raise GroupMismatch("elements live over different groups")

    def __add__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        d = self.den * other.den // math.gcd(self.den, other.den)
        f1, f2 = d // self.den, d // other.den
        nums = [a * f1 + b * f2 for a, b in zip(self.nums, other.nums)]
        return AlgElem(self.group, nums, d)

    def __sub__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        d = self.den * other.den // math.gcd(self.den, other.den)
        f1, f2 = d // self.den, d // other.den
        nums = [a * f1 - b * f2 for a, b in zip(self.nums, other.nums)]
        return AlgElem(self.group, nums, d)

    def __neg__(self) -> "AlgElem":
        return AlgElem(self.group, [-v for v in self.nums], self.den, _normalized=True)

    def __mul__(self, other) -> "AlgElem":
        if isinstance(other, AlgElem):
            self._check(other)
            table = self.group.table
            out = [0] * self.group.order
            bn = other.nums
            bsup = other.support
            for g in self.support:
                ag = self.nums[g]
                row = table[g]
                for h in bsup:
                    out[row[h]] += ag * bn[h]
            return AlgElem(self.group, out, self.den * other.den)
        f = Fraction(other)
        return AlgElem(self.group, [v * f.numerator for v in self.nums],
                       self.den * f.denominator)

    def __rmul__(self, other) -> "AlgElem":
        return self.__mul__(other)

    def conjugate(self, g: int) -> "AlgElem":
        """g^-1 * self * g (coefficient permutation)."""
        G = self.group
        out = [0] * G.order
        for x in self.support:
            out[G.conj(x, g)] = self.nums[x]
        return AlgElem(G, out, self.den, _normalized=True)

    def conjugate_left(self, g: int) -> "AlgElem":
        """g * self * g^-1."""
        G = self.group
        out = [0] * G.order
        for x in self.support:
            out[G.conj_left(x, g)] = self.nums[x]
        return AlgElem(G, out, self.den, _normalized=True)

    # -- predicates ---------------------------------------------------------------

    def is_integral(self) -> bool:
        return self.den == 1

    def is_central(self) -> bool:
        """True iff the coefficients are constant on each conjugacy class:
        conjugation by g maps each class onto itself, so then it fixes the
        element, and a central element has g^-1 x g and x with the same
        coefficient. Decided once per element and group."""
        return _memo(self, "central", _constant_on_classes)

    def is_idempotent(self) -> bool:
        return self * self == self

    def is_central_idempotent(self) -> bool:
        """True iff the element is central and e*e = e. Decided once per
        element and group. For a central e, e*e is central too, so it
        equals e iff the two agree at the class representatives; with
        N = ker e, one representative per N-coset and |supp e|/|N|
        products each (_idempotent_at_classes)."""
        return self.is_central() and _memo(self, "idempotent", _idempotent_at_classes)

    def is_nilpotent(self) -> bool:
        """True iff some power vanishes; uses repeated squaring up to the
        first power of two >= |G| (nilpotency index is at most dim Q[G])."""
        n = self.group.order
        x = self
        if x.is_zero():
            return True
        e = 1
        while e < n:
            x = x * x
            if x.is_zero():
                return True
            e *= 2
        return x.is_zero()

    def centralizer_subgroup(self) -> Subgroup:
        """Cen_G(alpha) = {g : g*alpha = alpha*g}.

        Conjugation by g permutes G, so it fixes alpha iff it keeps the
        coefficient of each element of the support: it then maps the
        support onto itself and the zero coefficients onto zeros.
        """
        nums = self.nums
        support = self.support
        table, inverse = self.group.table, self.group.inverse

        def keeps(g: int) -> bool:
            row = table[inverse[g]]
            return all(nums[table[row[x]][g]] == nums[x] for x in support)

        return stabilizer(self.group, keeps)

    # -- serialization ----------------------------------------------------------

    def to_json(self, spec: Optional[str] = None) -> str:
        return json.dumps({"group": spec or self.group.name,
                           "coeffs": coeff_strings(self)})

    @staticmethod
    def from_json(G: FiniteGroup, data: str) -> "AlgElem":
        obj = json.loads(data)
        coeffs = obj["coeffs"]
        if len(coeffs) != G.order:
            raise GroupMismatch("coefficient count does not match group order")
        return AlgElem.from_coeffs(
            G, {i: Fraction(int(n), int(d)) for i, (n, d) in enumerate(coeffs)})


def coeff_strings(x: AlgElem) -> list[list[str]]:
    """Each coefficient v/den of x in lowest terms as the strings
    [numerator, denominator] that Fraction gives: the sign stays on the
    numerator, and 0 is ["0", "1"]."""
    gcds = [math.gcd(v, x.den) for v in x.nums]
    return [[str(v // g), str(x.den // g)] for v, g in zip(x.nums, gcds)]


# ---------------------------------------------------------------------------
# central elements at the class representatives


def _memo(e: AlgElem, fact: str, decide) -> bool:
    """decide(e), computed once per element and group."""
    key = (fact, e.den, tuple(e.nums))
    cache = e.group._cache
    if key not in cache:
        cache[key] = decide(e)
    return cache[key]


def _constant_on_classes(e: AlgElem) -> bool:
    G = e.group
    if "class_first" not in G._cache:
        G._cache["class_first"] = [G.class_of(g)[0] for g in range(G.order)]
    return list(map(e.nums.__getitem__, G._cache["class_first"])) == e.nums


def _fixes(e: AlgElem) -> Callable[[int], bool]:
    """The test g -> (g*e = e). Since (g*e)(gx) = e(x), g*e = e iff
    e(gx) = e(x) for every x in supp e: then x -> gx maps the support into
    itself, hence onto it, and so the zeros onto zeros. Such a g has
    e(g) = e(1), which is tested first."""
    nums, support, table = e.nums, e.support, e.group.table
    values = list(map(nums.__getitem__, support))
    return lambda g: nums[g] == nums[0] and list(
        map(nums.__getitem__, map(table[g].__getitem__, support))) == values


def _record_kernel(e: AlgElem, N: Subgroup) -> None:
    """Record N as a subgroup of ker e = {g : g*e = e} for
    _idempotent_at_classes, after checking exactly that each of N.gens
    fixes e (SoundnessError if not): the elements that fix e are a group."""
    if not all(map(_fixes(e), N.gens)):
        raise SoundnessError(f"{N!r} does not fix the central element it "
                             "was proposed as a kernel of")
    e.group._cache[("kernel", e.den, tuple(e.nums))] = N


def _idempotent_at_classes(e: AlgElem) -> bool:
    """e*e = e for a central e, decided in G/ker e.

    Let N = {g : g*e = e}, a subgroup (the test is _fixes); for a central e
    it is also {g : e*g = e}, and it is normal, as (hgh^-1)*e = h(g*e)h^-1.
    So e is constant on each coset xN = Nx. With S the least elements of
    the left cosets of N,
    (e*e)(r) = sum over x in G of e(x) e(x^-1 r)
             = |N| * sum over s in S of e(s) e(s^-1 r),
    since x = sn gives e(x) = e(s), and x^-1 r = n^-1 s^-1 r lies in
    N s^-1 r = s^-1 r N. Both e*e and e are central and constant on
    N-cosets, so they are equal iff they agree at one class representative
    per N-coset that holds any.

    All of this holds for any subgroup N of ker e, with more cosets when N
    is smaller. N is the one recorded by _record_kernel (metabelian_pcis
    records core_G(K) for e(G, H, K)); only when none is, ker e is found
    by stabilizer.
    """
    G = e.group
    nums, table = e.nums, G.table
    N = G._cache.get(("kernel", e.den, tuple(nums)))
    if N is None:
        N = stabilizer(G, _fixes(e))
    index, reps = cosets(N, left=True)
    terms = [(nums[s], table[G.inverse[s]]) for s in reps if nums[s]]
    checked = set()
    for cls in G.conjugacy_classes():
        r = cls[0]
        if index[r] in checked:
            continue
        checked.add(index[r])
        if N.order * sum(c * nums[row[r]] for c, row in terms) != nums[r] * e.den:
            return False
    return True


def product_at_classes(a: AlgElem, b: AlgElem) -> list[int]:
    """The numerators, over a.den * b.den, of a*b at the first element of
    each conjugacy class: sum of a[g] * b[g^-1 r] over g in supp a. A
    central product is determined by these values, so it is zero (or equal
    to another central element) iff it is so at these points."""
    a._check(b)
    G = a.group
    coeffs = [a.nums[g] for g in a.support]
    rows = [G.table[G.inverse[g]] for g in a.support]
    at = b.nums.__getitem__
    return [sum(map(mul, coeffs, map(at, map(itemgetter(cls[0]), rows))))
            for cls in G.conjugacy_classes()]


def _require_central_idempotent(G: FiniteGroup, e: AlgElem) -> None:
    if not e.is_central():
        raise NotCentralIdempotent("input is not central")
    if not e.is_central_idempotent():
        raise NotCentralIdempotent("input is not idempotent")


def component_dimension(G: FiniteGroup, e: AlgElem) -> int:
    """dim_Q of Q[G]e = |G| * (coefficient of 1 in e): the trace of right
    multiplication by the idempotent e.

    A non-integer trace signals a non-idempotent input and is reported as
    NonIntegerDimension before the idempotency test."""
    if not e.is_central():
        raise NotCentralIdempotent("input is not central")
    d = G.order * e.coeff(0)
    if d.denominator != 1:
        raise NonIntegerDimension(f"|G|*coeff_1(e) = {d} is not an integer")
    if not e.is_central_idempotent():
        raise NotCentralIdempotent("input is not idempotent")
    return int(d)


def center_rank(G: FiniteGroup, e: AlgElem) -> int:
    """Q-dimension of the center of Q[G]e: the rank of multiplication by e
    on Z(Q[G]). For a central idempotent e that map is idempotent, so its
    rank is its trace in the basis of class sums C_i: the sum over i of
    the coefficient of the representative r_i in C_i * e, which is the sum
    of e[g^-1 r_i] over g in C_i."""
    _require_central_idempotent(G, e)
    rows = list(map(G.table.__getitem__, G.inverse))  # the row of g^-1 at g
    at = e.nums.__getitem__
    trace = sum(sum(map(at, map(itemgetter(cls[0]), map(rows.__getitem__, cls))))
                for cls in G.conjugacy_classes())
    rank, rem = divmod(trace, e.den)
    if rem:
        raise SoundnessError(f"the trace {trace}/{e.den} of a central idempotent "
                             "is not an integer")
    return rank


# ---------------------------------------------------------------------------
# subgroup sums


def hat(H: Subgroup) -> AlgElem:
    """Sum of the elements of H, in Z[G]."""
    G = H.parent
    nums = [0] * G.order
    for g in H.members:
        nums[g] = 1
    return AlgElem(G, nums, 1, _normalized=True)


def tilde(H: Subgroup) -> AlgElem:
    """hat(H)/|H|, an idempotent of Q[G]."""
    return AlgElem(H.parent, hat(H).nums, H.order, _normalized=True)


def one_minus(G: FiniteGroup, g: int) -> AlgElem:
    """1 - g."""
    nums = [0] * G.order
    nums[0] += 1
    nums[g] -= 1
    return AlgElem(G, nums, 1)


def one_plus(G: FiniteGroup, g: int) -> AlgElem:
    nums = [0] * G.order
    nums[0] += 1
    nums[g] += 1
    return AlgElem(G, nums, 1)


def carry(x: AlgElem, iso: list[int], G: FiniteGroup) -> AlgElem:
    """The image of x under the group isomorphism iso onto G."""
    nums = [0] * G.order
    for g, v in enumerate(x.nums):
        nums[iso[g]] = v
    return AlgElem(G, nums, x.den, _normalized=True)


# ---------------------------------------------------------------------------
# square-zero candidate families


class SquareZeroFamily:
    """The square-zero elements (1-y) g hat(Y) ("left") and hat(Y) g (1-y)
    ("right") of Z[G], for a subgroup Y, y in Y - {1} and g in G, and their
    products with central elements e, decided without multiplying.

    With F = hat(Y) e, associativity and the centrality of e give
    (1-y) g hat(Y) e = (1-y) g F and hat(Y) g (1-y) e = F g (1-y). The
    first has coefficient F[z] - F[u z] at g z, where u = g^-1 y^-1 g; the
    second has F[z] - F[z u] at z g, where u = g y^-1 g^-1. So a product is
    zero iff F's numerators are invariant under that shift by u, and
    integral iff their residues modulo F's denominator are. The answer
    depends only on (e, side, u) and is memoized; F is computed on first
    use. Callers must pass central idempotents.

    For a fixed y both shifts run over the conjugacy class of y^-1 as g
    runs over G, each u hit by |C_G(y)| of the g, and a candidate vanishes
    iff u lies in Y. So scan() decides the 2 |C_G(y)| |cl(y^-1) - Y|
    nonzero candidates of y, times each e, as one block of decisions.
    For fixed e and side the u that pass are the stabilizer of F, a
    subgroup containing Y (y hat(Y) = hat(Y) = hat(Y) y, e is central):
    all shifts pass iff the generators of <Y, shifts> do.
    """

    def __init__(self, Y: Subgroup, idempotents: list[AlgElem],
                 residues: bool):
        self.Y = Y
        self.group = Y.parent
        self.idempotents = idempotents
        self.residues = residues
        self._hat = hat(Y)
        self._vectors: list[Optional[list[int]]] = [None] * len(idempotents)
        self._memo: dict[tuple[int, bool, int], bool] = {}

    def candidates(self):
        """Yield (y, g, left, u) for every nonzero candidate in search
        order: y in Y, then g in G, the left element before the right one.
        A candidate vanishes exactly when its shift u lies in Y."""
        for y in self.Y.members[1:]:
            for g, left, u in self._candidates_of(y):
                yield y, g, left, u

    def _candidates_of(self, y: int):
        G, Y = self.group, self.Y
        y_inv = G.inverse[y]
        for g in range(G.order):
            u = G.conj(y_inv, g)
            if not Y.contains(u):
                yield g, True, u
            u = G.conj_left(y_inv, g)
            if not Y.contains(u):
                yield g, False, u

    def scan(self, spent: int, budget: int,
             ) -> tuple[Optional[tuple[AlgElem, AlgElem]], int]:
        """Go on with a search that has made `spent` tests: test each
        candidate times each idempotent, in candidates() order, until a
        test fails or spent reaches budget. Returns ((alpha, e), spent) for
        the first failing test, else (None, spent); a search at its budget
        (so any budget below 1) makes no test.

        Each y is one block: every (e, side, u) with u in cl(y^-1) - Y is
        decided, up to the first failure. A block that passes adds its
        candidates times the idempotents, which is what testing them one
        by one would spend, capped at the budget where that loop would have
        stopped. Only a block with a failure is walked candidate by
        candidate, to find the first failing test in search order within
        the budget.

        The blocks the budget reaches are decided first by the generators
        of <Y, their shifts>: each shift that Y and the shifts before it do
        not generate. Only when one fails are the blocks decided one by
        one. Every shift before the k-th generator lies in <Y, g_1 ..
        g_(k-1)>, so the blocks decide every generator decided before their
        own first failure: deciding the generators adds no decision.
        """
        if spent >= budget:
            return None, spent
        G, Y = self.group, self.Y
        n = len(self.idempotents)
        blocks, gens, S, reach = [], [], Y, spent
        for y in Y.members[1:]:
            cls = G.class_of(G.inverse[y])
            shifts = [u for u in cls if not Y.contains(u)]
            # |C_G(y)| = |G| / |cl(y^-1)| candidates per side and shift
            blocks.append((y, shifts, n * 2 * (G.order // len(cls)) * len(shifts)))
            for u in shifts:
                if not S.contains(u):
                    gens.append(u)
                    S = Subgroup(G, _closure(G, (u,), S))
            reach += blocks[-1][2]
            if reach >= budget:
                break
        if all(self.invariant(i, left, u) for u in gens
               for left in (True, False) for i in range(n)):
            return None, min(reach, budget)
        for y, shifts, cost in blocks:
            if all(self.invariant(i, left, u) for u in shifts
                   for left in (True, False) for i in range(n)):
                spent += cost
                if spent >= budget:
                    return None, budget
                continue
            for g, left, u in self._candidates_of(y):
                for i in range(n):
                    spent += 1
                    if not self.invariant(i, left, u):
                        return (self.element(y, g, left),
                                self.idempotents[i]), spent
                    if spent >= budget:
                        return None, spent
        return None, spent

    def element(self, y: int, g: int, left: bool) -> AlgElem:
        """The candidate itself, built with real products."""
        G = self.group
        omy, gb = one_minus(G, y), AlgElem.basis(G, g)
        return omy * gb * self._hat if left else self._hat * gb * omy

    def invariant(self, i: int, left: bool, u: int) -> bool:
        """Whether candidate * idempotents[i] is zero (residues=False) or
        integral (residues=True) for a candidate with this side and u."""
        key = (i, left, u)
        hit = self._memo.get(key)
        if hit is None:
            vec = self._vectors[i]
            if vec is None:
                F = self._hat * self.idempotents[i]
                vec = [v % F.den for v in F.nums] if self.residues else F.nums
                self._vectors[i] = vec
            table = self.group.table
            # vec[u z] = vec[z] (left) or vec[z u] = vec[z] (right) for all z
            shifted = table[u] if left else map(itemgetter(u), table)
            hit = list(map(vec.__getitem__, shifted)) == vec
            self._memo[key] = hit
        return hit
