"""Exact arithmetic in the rational group algebra Q[G].

An AlgElem stores a common positive denominator and one integer numerator
per group element, always normalized so gcd(den, gcd(nums)) = 1. All
arithmetic is exact; no floats anywhere. Elements are immutable values.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable, Optional

from .errors import (GroupMismatch, NonIntegerDimension, NotCentralIdempotent,
                     SoundnessError)
from .groups import (FiniteGroup, Subgroup, _classes, _closure, _conjugation,
                     _rational_points, cosets, cyclic_subgroups, subgroup_from_mask)


class AlgElem:
    """An element sum(c_g * g) of Q[G] with exact rational coefficients."""

    __slots__ = ("group", "den", "nums", "_support", "_key", "_facts")

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
        self._key: Optional[tuple] = None
        self._facts: Optional[dict] = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(G: FiniteGroup) -> "AlgElem":
        return AlgElem(G, [0] * G.order, 1, _normalized=True)

    @staticmethod
    def one(G: FiniteGroup) -> "AlgElem":
        return AlgElem.basis(G, 0)

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

    def augmentation(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def key(self) -> tuple:
        """Canonical hashable key (den, tuple(nums)) for dedup, sort, hashing
        and the fact memo; built once, as elements are immutable values."""
        if self._key is None:
            self._key = (self.den, tuple(self.nums))
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgElem) and other.group is self.group
                and other.den == self.den and other.nums == self.nums)

    def __hash__(self) -> int:
        return hash((id(self.group),) + self.key())

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
        """g^-1 * self * g: the coefficient of y is self's at g y g^-1 =
        y^(g^-1), one gather through that conjugation permutation."""
        G = self.group
        return AlgElem(G, list(map(self.nums.__getitem__,
                                   _conjugation(G, G.inverse[g]))),
                       self.den, _normalized=True)

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
        element and group. A central idempotent is constant on rational
        classes, and then so is e*e, which equals e iff the two agree at
        one point per rational class; with N = ker e, one point per
        N-coset and |supp e|/|N| products each (_idempotent_at_classes)."""
        return self.is_central() and _memo(self, "idempotent", _idempotent_at_classes)

    def is_nilpotent(self) -> bool:
        """True iff some power vanishes; uses repeated squaring up to the
        first power of two >= |G| (nilpotency index is at most dim Q[G])."""
        x, e = self, 1
        while not x.is_zero():
            if e >= self.group.order:
                return False
            x, e = x * x, 2 * e
        return True

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

        return subgroup_from_mask(self.group, sum(map(
            (1).__lshift__, filter(keeps, range(self.group.order)))))


def coeff_strings(x: AlgElem) -> list[list[str]]:
    """Each coefficient v/den of x in lowest terms as the strings
    [numerator, denominator] that Fraction gives: the sign stays on the
    numerator, and 0 is ["0", "1"]."""
    gcds = [math.gcd(v, x.den) for v in x.nums]
    return [[str(v // g), str(x.den // g)] for v, g in zip(x.nums, gcds)]


# ---------------------------------------------------------------------------
# central elements at the class and rational-class representatives


def _facts_of(e: AlgElem) -> dict:
    """The facts of e's value: one dict in the group's memo, under
    ("facts",) + e.key(), so equal elements share them. e keeps the dict
    after its first lookup, so later queries build and hash no key."""
    if e._facts is None:
        e._facts = e.group._cache.setdefault(("facts",) + e.key(), {})
    return e._facts


def _memo(e: AlgElem, fact: str, decide) -> bool:
    """decide(e), computed once per element value and group."""
    facts = _facts_of(e)
    hit = facts.get(fact)
    if hit is None:
        hit = facts[fact] = decide(e)
    return hit


def _constant_on_classes(e: AlgElem) -> bool:
    return list(map(e.nums.__getitem__, _classes(e.group)[3])) == e.nums


def _fixes(e: AlgElem) -> Callable[[int], bool]:
    """The test g -> (g*e = e). Since (g*e)(gx) = e(x), g*e = e iff
    e(gx) = e(x) for every x in supp e: then x -> gx maps the support into
    itself, hence onto it, and so the zeros onto zeros. Such a g has
    e(g) = e(1), which is tested first."""
    nums, support, table = e.nums, e.support, e.group.table
    values = list(map(nums.__getitem__, support))
    return lambda g: nums[g] == nums[0] and list(
        map(nums.__getitem__, map(table[g].__getitem__, support))) == values


def _record_kernel(e: AlgElem, N: Subgroup,
                   left_cosets: Optional[tuple[list[int], list[int]]] = None
                   ) -> None:
    """Record N as a subgroup of ker e = {g : g*e = e} for
    _idempotent_at_classes, after checking exactly that each of N.gens
    (each member, for an N given no generators) fixes e (SoundnessError if
    not): the elements that fix e are a group.
    left_cosets, when given, is N's left cosets as (index, reps), reps any
    left transversal, as cosets(N, left=True) would number them."""
    if not all(map(_fixes(e), N.gens or N.members)):
        raise SoundnessError(f"{N!r} does not fix the central element it "
                             "was proposed as a kernel of")
    facts = _facts_of(e)
    facts["kernel"], facts["kernel_cosets"] = N, left_cosets


def _idempotent_at_classes(e: AlgElem) -> bool:
    """e*e = e for a central e, decided at one point per rational class
    in G/ker e.

    A central idempotent of Q[G] is a sum of primitive ones, and the
    coefficient of x in a primitive one is chi(1)/|G| times the sum of the
    Galois conjugates of chi(x^-1), for an irreducible character chi. As
    sigma_j maps chi(x^-1) to chi(x^-j), that sum is the same at x and at
    x^j for j prime to |G|: a central idempotent is constant on each
    rational class {y : <y> conjugate to <x>}, and an e that is not is no
    idempotent. As callers decide is_central() first, e is constant on the
    conjugacy classes that make up each rational class, so this is tested
    exactly at each class's least element r, against r's rational point.
    For an e that passes, so does e*e: for j prime to |G| the power map
    sending each class sum to that of the j-th powers is a ring
    automorphism of Z(Q[G]), acting on each central character by sigma_j,
    and it fixes e, so also e*e. So e*e = e iff the two agree at one point
    per rational class, the artin_count(G) points of _rational_points.

    Let N = {g : g*e = e}, a subgroup (the test is _fixes); for a central e
    it is also {g : e*g = e}, and it is normal, as (hgh^-1)*e = h(g*e)h^-1.
    So e is constant on each coset xN = Nx. With S any left transversal
    of N (the least elements of the cosets, unless _record_kernel was
    given others),
    (e*e)(r) = sum over x in G of e(x) e(x^-1 r)
             = |N| * sum over s in S of e(s) e(s^-1 r),
    since x = sn gives e(x) = e(s), and x^-1 r = n^-1 s^-1 r lies in
    N s^-1 r = s^-1 r N. Both e*e and e are constant on N-cosets, so a
    point whose coset holds an earlier point is skipped.

    All of this holds for any subgroup N of ker e, with more cosets when N
    is smaller. N is the one recorded by _record_kernel (metabelian_pcis
    records core_G(K) for e(G, H, K)); only when none is, ker e is found
    by testing each element and wrapping the mask (subgroup_from_mask).
    """
    G = e.group
    nums, table = e.nums, G.table
    at, points = _rational_points(G)
    if any(nums[cls[0]] != nums[at[cls[0]]] for cls in _classes(G)[1]):
        return False
    facts = _facts_of(e)
    N = facts.get("kernel")
    if N is None:
        N = subgroup_from_mask(G, sum(map(
            (1).__lshift__, filter(_fixes(e), range(G.order)))))
    index, reps = facts.get("kernel_cosets") or cosets(N, left=True)
    terms = [(nums[s], table[G.inverse[s]]) for s in reps if nums[s]]
    checked = set()
    for r in points:
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


def _require_group(G: FiniteGroup, e: AlgElem) -> None:
    if e.group is not G:
        raise GroupMismatch(f"the element lives over {e.group.name}, not {G.name}")


def _require_central_idempotent(G: FiniteGroup, e: AlgElem) -> None:
    _require_group(G, e)
    if not e.is_central():
        raise NotCentralIdempotent("input is not central")
    if not e.is_central_idempotent():
        raise NotCentralIdempotent("input is not idempotent")


def component_dimension(G: FiniteGroup, e: AlgElem) -> int:
    """dim_Q of Q[G]e = |G| * (coefficient of 1 in e): the trace of right
    multiplication by the idempotent e.

    A non-integer trace signals a non-idempotent input and is reported as
    NonIntegerDimension before the idempotency test."""
    _require_group(G, e)
    if not e.is_central():
        raise NotCentralIdempotent("input is not central")
    d, rem = divmod(G.order * e.nums[0], e.den)
    if rem:
        raise NonIntegerDimension(f"|G|*coeff_1(e) = {G.order * e.coeff(0)} "
                                  "is not an integer")
    if not e.is_central_idempotent():
        raise NotCentralIdempotent("input is not idempotent")
    return d


def center_rank(G: FiniteGroup, e: AlgElem) -> int:
    """Q-dimension of the center of Q[G]e: the rank of multiplication by e
    on Z(Q[G]). For a central idempotent e that map is idempotent, so its
    rank is its trace in the basis of class sums C_i: the sum over i of
    the coefficient of the representative r_i in C_i * e, which is the sum
    of e[g^-1 r_i] over g in C_i. The points g^-1 r_i are part of the class
    build (_classes), so the trace is one gather."""
    _require_central_idempotent(G, e)
    trace = sum(map(e.nums.__getitem__, _classes(G)[4]))
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
    iff u lies in Y: y has 2 |C_G(y)| |cl(y^-1) - Y| nonzero candidates.
    For fixed e and side the u that pass are the stabilizer of F, a
    subgroup containing Y (y hat(Y) = hat(Y) = hat(Y) y, e is central):
    all shifts pass iff the generators of <Y, shifts> do, which is what
    scan() decides first. square_zero_search walks the cyclic families.
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
        G, Y = self.group, self.Y
        for y in Y.members[1:]:
            y_inv = G.inverse[y]
            for g in range(G.order):
                u = G.conj(y_inv, g)
                if not Y.contains(u):
                    yield y, g, True, u
                u = G.conj_left(y_inv, g)
                if not Y.contains(u):
                    yield y, g, False, u

    def scan(self, spent: int, budget: int,
             ) -> tuple[Optional[tuple[AlgElem, AlgElem]], int]:
        """Go on with a search that has made `spent` tests: test each
        candidate times each idempotent, in candidates() order, until a
        test fails or spent reaches budget. Returns ((alpha, e), spent) for
        the first failing test, else (None, spent); a search at its budget
        (so any budget below 1) makes no test.

        Two stages. The first decides the generators of <Y, shifts> over
        the y the budget reaches, each shift u in cl(y^-1) - Y that Y and
        the shifts before it do not generate. When they pass, every
        candidate of those y passes, and spent grows by their candidates
        times the idempotents, |cl(y^-1) - Y| * 2 |C_G(y)| each, capped at
        the budget. Only when one fails does the second stage walk the
        candidates in search order to the first failing test within the
        budget.
        """
        if spent >= budget:
            return None, spent
        G, Y = self.group, self.Y
        n = len(self.idempotents)
        gens, S, reach = [], Y, spent
        for y in Y.members[1:]:
            cls = G.class_of(G.inverse[y])
            shifts = [u for u in cls if not Y.contains(u)]
            for u in shifts:
                if not S.contains(u):
                    gens.append(u)
                    S = Subgroup(G, _closure(G, (u,), S))
            # |C_G(y)| = |G| / |cl(y^-1)| candidates per side and shift
            reach += n * 2 * (G.order // len(cls)) * len(shifts)
            if reach >= budget:
                break
        if all(self.invariant(i, left, u) for u in gens
               for left in (True, False) for i in range(n)):
            return None, min(reach, budget)
        for y, g, left, u in self.candidates():
            for i in range(n):
                spent += 1
                if not self.invariant(i, left, u):
                    return (self.element(y, g, left), self.idempotents[i]), spent
                if spent >= budget:
                    return None, spent
        return None, spent

    def pair_tests(self) -> int:
        """The tests of the sums and differences of two left elements that
        follow the single ones: the (i < j, sign) with alpha_i + sign *
        alpha_j != 0, over the nonzero left elements in search order, times
        the idempotents. None can fail: both elements already passed every
        e, and alpha*e is linear in alpha. So they are counted, not made.

        The left element (1-y) g hat(Y) = hat(gY) - hat(ygY) is counted by
        its pair of left cosets (gY, ygY), which differ when it is nonzero;
        the |Y| elements g of one coset give the same pair for each y. Two
        of them have a zero difference iff their pairs are equal, and a
        zero sum iff the pairs are swapped."""
        G, Y = self.group, self.Y
        coset, reps = cosets(Y, left=True)
        keys: Counter[tuple[int, int]] = Counter()
        for y in Y.members[1:]:
            row = G.table[y]
            for g in reps:
                a, b = coset[g], coset[row[g]]
                if a != b:
                    keys[a, b] += Y.order
        k = sum(keys.values())
        zero = sum(c * (c - 1) // 2 for c in keys.values())
        zero += sum(c * keys[b, a] for (a, b), c in keys.items() if a < b)
        return len(self.idempotents) * (k * (k - 1) - zero)

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


def square_zero_search(G: FiniteGroup, idempotents: list[AlgElem],
                       budget: int, residues: bool,
                       ) -> tuple[Optional[tuple[AlgElem, AlgElem]], int]:
    """Scan the family of each cyclic subgroup 1 < C < G in (order, mask)
    order, each candidate times each central idempotent, for the first
    product that is not integral (residues=True) or not zero
    (residues=False). Stops at that test or once it has made `budget`
    tests, and returns ((alpha, e) or None, tests made). Only the
    integrality search follows each family with its pair tests
    (SquareZeroFamily.pair_tests): a pair stage that would reach the budget
    ends the search there.

    No family of another 1 < Y < G fails first. For C <= Y and central e,
    hat(Y) e = hat(C) e S = S' hat(C) e, with S and S' integral sums of
    coset representatives, so each test of Y's family is an integral
    multiple of the same test on some <y> <= Y, no later in the order."""
    spent = 0
    for Y in sorted((C for C in cyclic_subgroups(G) if C.order < G.order),
                    key=lambda C: (C.order, C.mask)):
        family = SquareZeroFamily(Y, idempotents, residues)
        found, spent = family.scan(spent, budget)
        if found is not None or spent >= budget:
            return found, spent
        if residues:
            spent += family.pair_tests()
            if spent >= budget:
                return None, budget
    return None, spent
