"""Central idempotents of Q[G] from subgroup pairs.

epsilon(H, K) takes K normal in H with H/K cyclic, the only sections a
Shoda pair has. For H/K = <xK> of order n it is the sum over d | rad(n)
of mu(d) tilde(<x^(n/d)>K), tilde(H) when H = K, read off the coset
exponents x^j K -> j with no lattice and no product.
Summing the G-conjugates of epsilon over a transversal of its centralizer
gives a central element e(G, H, K); for metabelian G the pairs singled
out by the maximal-abelian enumeration produce exactly the primitive
central idempotents. That enumeration reads abelian sections of G, not
its subgroup lattice: the B over a maximal abelian A >= G', and the
kernels of the linear characters of each B/B' (abelian_sections, which
also holds the coset exponents; the one test of a cyclic H/K,
section_generator, is in groups). Only a pair's label
(ShodaPair.describe) names the generators the lattice gives H and K, by
the lattice's own rule (groups.lattice_generators).

The strong Shoda check of a pair keeps what it proves in one record,
memoized per pair: N = N_G(K), which it shows to be Cen_G(epsilon), x and
the coset exponents, epsilon, the cosets of H in N and a transversal of N
in G. e(G, H, K), the cores of metabelian_pcis and the component
descriptors read that record and compute none of it again.

Each conjugation question is put to the one layer in groups: normality
of K in H (is_normal_in), N_G(K) (normalizer) and the conjugates K^t
(conjugate_mask); and epsilon^t is AlgElem.conjugate, one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul
from typing import Callable, Iterable, Optional

from .abelian_sections import (cocyclic_subgroups, section_exponents, section_powers,
                               subgroups_over)
from .algebra import AlgElem, _record_kernel, component_dimension, product_at_classes
from .errors import BNotAbelian, NotMetabelian, NotNormalInH, SoundnessError
from .groups import (
    FiniteGroup,
    Subgroup,
    artin_count,
    conjugate_mask,
    cosets,
    derived_subgroup,
    is_normal,
    is_normal_in,
    lattice_generators,
    maximal_abelian_over,
    normalizer,
    require_subgroups,
    section_generator,
    subgroup_from_mask,
)
from .numutil import prime_factors


def epsilon(H: Subgroup, K: Subgroup) -> AlgElem:
    """The idempotent of Q[H] built from K normal in H with H/K cyclic, in
    closed form."""
    if not is_normal_in(H, K) or section_generator(H, K) is None:
        raise NotNormalInH("K must be normal in H with H/K cyclic")
    return _cyclic_epsilon(H, K, section_exponents(H, K))


def _cyclic_epsilon(H: Subgroup, K: Subgroup, exponents: list[int]) -> AlgElem:
    """epsilon(H, K) for cyclic H/K of order n, from its section_exponents:
    sum over d | rad(n) of mu(d) tilde(<x^(n/d)>K). The d-th term is
    mu(d) / (d |K|) on each x^j K with (n/d) | j, so the coefficient on
    x^j K is (sum of mu(d) n/d over those d) / (n |K|), reduced over the n
    coset values."""
    G = H.parent
    n = H.order // K.order
    key = ("epsilon_values", n, K.order)
    if key not in G._cache:
        divisors = [(1, 1)]  # (squarefree d, mu(d))
        for p in prime_factors(n):
            divisors += [(d * p, -mu) for d, mu in divisors]
        at = [0] * (n + 1)  # at[-1] = at[n] = 0 for the elements outside H
        for d, mu in divisors:
            step = n // d
            for j in range(0, n, step):
                at[j] += mu * step
        g = math.gcd(n * K.order, *at)
        G._cache[key] = [v // g for v in at], n * K.order // g
    at, den = G._cache[key]
    return AlgElem(G, list(map(at.__getitem__, exponents)), den, _normalized=True)


def _conjugate_sum(eps: AlgElem, transversal: Iterable[int]) -> AlgElem:
    """The sum of eps^t = t^-1 eps t over t in transversal, added up
    coefficient by coefficient; eps itself when the transversal is [1]
    (K normal)."""
    if transversal == [0]:
        return eps
    return AlgElem(eps.group, list(map(sum, zip(*(
        eps.conjugate(t).nums for t in transversal)))), eps.den)


def e_idem(G: FiniteGroup, H: Subgroup, K: Subgroup) -> AlgElem:
    """e(G, H, K): sum of the G-conjugates of epsilon(H, K) over a right
    transversal of its centralizer, for K normal in H with H/K cyclic
    (NotNormalInH otherwise), by sum_of_conjugates. A strong pair's
    record holds epsilon and a transversal of N_G(K) = Cen_G(epsilon);
    for any other pair the centralizer is found by a scan of G."""
    pair = strong_pair(G, H, K)
    if pair is None:
        eps = epsilon(H, K)
        return sum_of_conjugates(eps, cosets(eps.centralizer_subgroup())[1])
    return sum_of_conjugates(pair.epsilon, pair.transversal)


def sum_of_conjugates(eps: AlgElem, transversal: list[int]) -> AlgElem:
    """The sum of the G-conjugates of eps over a right transversal of its
    centralizer: eps^t depends only on t's coset Cen_G(eps)t, so the sum
    does not depend on the transversal. Central in Q[G] by construction
    (SoundnessError otherwise)."""
    out = _conjugate_sum(eps, transversal)
    if not out.is_central():
        raise SoundnessError("e(G,H,K) must be central")
    return out


def is_shoda_pair(G: FiniteGroup, H: Subgroup, K: Subgroup) -> bool:
    """K normal in H, H/K cyclic, and every g outside H has some h in H
    with commutator (h, g) in H minus K."""
    require_subgroups(G, H, K)
    if not is_normal_in(H, K):
        return False
    if section_generator(H, K) is None:
        return False
    for g in range(G.order):
        if H.contains(g):
            continue
        if not any(H.contains(c) and not K.contains(c)
                   for c in (G.commutator(h, g) for h in H.members)):
            return False
    return True


@dataclass(frozen=True)
class _StrongPair:
    """What the strong Shoda check proves about (H, K). The lists are
    shared with every reader: never mutate them."""

    N: Subgroup                 # N_G(K) = Cen_G(epsilon)
    x: int                      # section_generator(H, K)
    exponents: list[int]        # section_exponents(H, K)
    epsilon: AlgElem
    h_cosets: tuple[list[int], list[int]]  # cosets(H, within=N)
    transversal: list[int]      # a right transversal of N in G, 1 first


def strong_pair(G: FiniteGroup, H: Subgroup,
                K: Subgroup) -> Optional[_StrongPair]:
    """The record of the strong Shoda pair (H, K), or None when (H, K) is
    not one. Decided once per pair."""
    require_subgroups(G, H, K)
    key = ("strong", H.mask, K.mask)
    if key not in G._cache:
        G._cache[key] = _strong_shoda(G, H, K)
    return G._cache[key]


def is_strong_shoda_pair(G: FiniteGroup, H: Subgroup, K: Subgroup) -> bool:
    """K normal in H normal in N_G(K); H/K cyclic and maximal abelian in
    N_G(K)/K; G-conjugates of epsilon(H,K) outside N_G(K) orthogonal.
    Decided once per pair."""
    return strong_pair(G, H, K) is not None


def _strong_shoda(G: FiniteGroup, H: Subgroup,
                  K: Subgroup) -> Optional[_StrongPair]:
    """The strong Shoda test: the pair's record if it passes, else None. A
    pair that passes has Cen_G(epsilon) = N_G(K)."""
    if not is_normal_in(H, K):
        return None
    N = normalizer(G, K)
    if not is_normal_in(N, H):
        return None
    x = section_generator(H, K)
    if x is None:
        return None
    # H/K = <xK> maximal abelian in N/K  <=>  {m in N : (m, x) in K} = H.
    # That set is a subgroup containing H, so one m per right coset Hm
    # other than H decides it.
    h_cosets = cosets(H, within=N)
    if any(K.contains(G.commutator(m, x)) for m in h_cosets[1][1:]):
        return None
    exponents = section_exponents(H, K)
    eps = _cyclic_epsilon(H, K, exponents)
    # N fixes each <x^(n/d)>K, so N <= Cen(eps). For t outside N,
    # eps * eps^t = 0 rules out eps^t = eps (eps is a nonzero idempotent),
    # and eps^t depends only on the coset Nt: so the test below, if it
    # passes, proves Cen(eps) = N.
    transversal = cosets(N)[1]
    if len(transversal) > 1 and not all(map(_orthogonal_to_conjugate(eps),
                                            transversal[1:])):
        return None
    return _StrongPair(N, x, exponents, eps, h_cosets, transversal)


def _orthogonal_to_conjugate(eps: AlgElem) -> Callable[[int], bool]:
    """The test t -> (eps * eps^t = 0) for an idempotent eps with
    eps(g^-1) = eps(g), as every sum of subgroup averages has, decided
    with no product.

    With a* the image of a under g -> g^-1 and tau(a) the coefficient of
    1 in a, tau(a a*) is the sum of a(g)^2, zero only for a = 0. For
    a = eps eps^t, a* = eps^t eps, as eps and eps^t are symmetric; with
    tau(uv) = tau(vu) and eps^t idempotent,
        tau(a a*) = tau(eps eps^t eps^t eps) = tau(eps eps^t)
                  = sum over g of eps(g) eps^t(g^-1)
                  = sum over g of eps(g) eps(t g t^-1).
    By symmetry eps(t g t^-1) = eps(t (tg)^-1), read through t's row
    only."""
    nums, support = eps.nums, eps.support
    inverse, table = eps.group.inverse, eps.group.table
    values = list(map(nums.__getitem__, support))

    def orthogonal(t: int) -> bool:
        at = table[t].__getitem__
        return not sum(map(mul, values, map(nums.__getitem__, map(
            at, map(inverse.__getitem__, map(at, support))))))

    return orthogonal


def _core(G: FiniteGroup, K: Subgroup, transversal: list[int]) -> Subgroup:
    """core_G(K), the intersection of the conjugates K^t = t^-1 K t over a
    right transversal of N_G(K), as K^(nt) = K^t for n in N_G(K): K itself
    when K is normal, else its mask's greedy generators."""
    mask = K.mask
    for t in transversal[1:]:
        mask &= conjugate_mask(G, K, t)
    return K if mask == K.mask else subgroup_from_mask(G, mask)


@dataclass
class ShodaPair:
    """A subgroup pair (H, K) with epsilon(H, K), its central idempotent e
    and the kind of pair that vouches for e."""

    H: Subgroup
    K: Subgroup
    epsilon: AlgElem
    e: AlgElem
    kind: str  # "strong-shoda" | "plain-shoda" (A5's documented pair)

    def describe(self) -> str:
        """The label (<H's generators>, <K's generators>). A strong pair's
        H and K come from no lattice, so their label names the generators
        that G's subgroup lattice gives them (lattice_generators), which do
        not depend on how the pair was found; a documented pair keeps its
        own."""
        G = self.H.parent
        hgens, kgens = self.H.gens, self.K.gens
        if self.kind == "strong-shoda":
            hgens, kgens = lattice_generators(G, self.H), lattice_generators(G, self.K)
        hn = ",".join(G.names[g] for g in hgens) or "1"
        kn = ",".join(G.names[g] for g in kgens) or "1"
        return f"(<{hn}>, <{kn}>)"


@dataclass
class SanityReport:
    """Completeness facts about a primitive central idempotent list."""

    sum_is_one: bool
    pairwise_orthogonal: bool
    all_central: bool
    all_idempotent: bool
    dims: list[int] = field(default_factory=list)
    dim_total: int = 0
    commutative_dim_total: int = 0
    group_order: int = 0
    commutative_budget: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.sum_is_one and self.pairwise_orthogonal and self.all_central
                and self.all_idempotent and self.dim_total == self.group_order
                and self.commutative_dim_total == self.commutative_budget)


def _maximal_abelian_pairs(G: FiniteGroup,
                           A: Subgroup) -> list[tuple[Subgroup, Subgroup]]:
    """The pairs (H, K) with H maximal among the subgroups B with A <= B
    and B' <= K <= B, and H/K cyclic; H descending by order, K ascending.
    They are read off abelian sections, with no lattice of G (Olivieri and
    del Rio's algorithm for metabelian groups): the B are the subgroups
    over the abelian A >= G' (subgroups_over), and for each B the K are
    the kernels of the linear characters of B/B' (cocyclic_subgroups). H
    is maximal iff no B2 > H has B2' <= K: one mask test per K, and the
    only place maximality is decided. Subgroups are compared by mask, and
    a K found for several B is one object."""
    over_A = subgroups_over(A)
    derived = {B.mask: derived_subgroup(B) for B in over_A}
    pairs: list[tuple[Subgroup, Subgroup]] = []
    known = {B.mask: B for B in over_A}
    for B in over_A:
        b = B.mask
        above = {derived[c].mask for c in derived if c != b and b | c == c}
        pairs += ((B, known.setdefault(K.mask, K))
                  for K in cocyclic_subgroups(B, derived[b])
                  if not any(d & K.mask == d for d in above))
    pairs.sort(key=lambda hk: (-hk[0].order, hk[0].mask, hk[1].order, hk[1].mask))
    return pairs


def metabelian_pcis(G: FiniteGroup, A: Optional[Subgroup] = None) -> list[ShodaPair]:
    """All primitive central idempotents of Q[G] for metabelian G, as
    deduplicated e(G, H, K) over the maximal-abelian pair enumeration
    (_maximal_abelian_pairs) for A = maximal_abelian_over(G, G') unless A
    is given. No subgroup lattice of G is built. Every pair it yields is a
    strong Shoda pair (Olivieri, del Rio and Simon, Theorem 4.7); one that
    fails the test raises SoundnessError.

    One pair per G-conjugacy class is decided. When H is normal in G
    (is_normal is asked; every H >= A >= G' is), each (H, K^t) with t in
    the record's transversal of N_G(K) is the image of (H, K) under
    conjugation by t, an automorphism of G: it is a strong Shoda pair
    with e(G, H, K^t) = e(G, H, K), and the enumeration yields it too,
    later in its order, so it is skipped.

    Postconditions checked (SoundnessError otherwise): there are as many
    idempotents as Q[G] has simple components, artin_count(G), and they
    are central, sum to 1 and are idempotent. The count rests on Artin's
    induction theorem, not on the strong-Shoda one: a list that leaves out
    a component, or gives two components one idempotent, is too short.
    The other three imply that the idempotents are pairwise orthogonal:
    Z(Q[G]) is a product of fields of characteristic 0, where each
    idempotent has every coordinate 0 or 1, and a sum of 0s and 1s equal
    to 1 has exactly one 1, so e_i * e_j = 0 for i != j.
    Conversely orthogonal elements summing to 1 are idempotent
    (e_i = e_i * 1 = e_i^2), so the facts certified are those of the
    pairwise check, at the cost of one square per idempotent, decided at
    artin_count(G) points, one per rational class (_idempotent_at_classes).
    Each square is taken modulo core_G(K), the kernel of e(G, H, K),
    intersected from K's conjugates; that each generator of the core fixes
    e is checked first (_record_kernel), so no scan of G looks for the
    kernel. For H = G the core is K, whose left cosets x^j K the record's
    exponents already number.
    """
    if "pcis" in G._cache and A is None:
        return G._cache["pcis"]
    Gder = derived_subgroup(G)
    if not Gder.is_abelian():
        raise NotMetabelian(f"{G.name} is not metabelian")
    if A is None:
        A = maximal_abelian_over(G, Gder)
        cache = True
    elif not A.is_abelian():
        raise BNotAbelian(f"{A!r} is not abelian")
    else:
        cache = False
    by_key: dict[tuple, ShodaPair] = {}
    conjugates: set[tuple[int, int]] = set()
    for H, K in _maximal_abelian_pairs(G, A):
        if (H.mask, K.mask) in conjugates:
            continue
        # decided first, so that e is summed over a transversal of N_G(K)
        # with no centralizer scan
        if not is_strong_shoda_pair(G, H, K):
            raise SoundnessError(
                f"the pair ({H!r}, {K!r}) of the maximal-abelian enumeration "
                "is not a strong Shoda pair")
        pair = strong_pair(G, H, K)
        if is_normal(G, H):
            conjugates.update((H.mask, conjugate_mask(G, K, t))
                              for t in pair.transversal[1:])
        e = e_idem(G, H, K)
        k = e.key()
        if k not in by_key:
            by_key[k] = ShodaPair(H, K, pair.epsilon, e, "strong-shoda")
    out = [by_key[k] for k in sorted(by_key)]
    if len(out) != artin_count(G):
        raise SoundnessError(f"{len(out)} PCIs, but Artin's count of {G.name} "
                             f"is {artin_count(G)}")
    # the numerators at the common denominator den sum to those of 1
    den = math.lcm(*(sp.e.den for sp in out))
    total = [0] * G.order
    for sp in out:
        if not sp.e.is_central():
            raise SoundnessError("PCIs must be central")
        f = den // sp.e.den
        total = list(map(add, total, map(f.__mul__, sp.e.nums) if f > 1
                         else sp.e.nums))
    if total != [den] + [0] * (G.order - 1):
        raise SoundnessError("PCIs must sum to 1")
    for sp in out:
        pair = strong_pair(G, sp.H, sp.K)
        if sp.H.order == G.order:  # x^j represents the j-th coset
            _record_kernel(sp.e, sp.K, (pair.exponents, section_powers(sp.H, sp.K)))
        else:
            _record_kernel(sp.e, _core(G, sp.K, pair.transversal))
        if not sp.e.is_central_idempotent():
            raise SoundnessError("PCIs must be idempotent")
    if cache:
        G._cache["pcis"] = out
    return out


def pci_sanity(G: FiniteGroup, pcis: list[ShodaPair]) -> SanityReport:
    """Re-verify completeness of a PCI list and collect dimension data.

    component_dimension raises unless every e is a central idempotent, so
    each product e_i * e_j is central, and zero iff it vanishes at the
    class representatives."""
    dims = [component_dimension(G, sp.e) for sp in pcis]
    total = AlgElem.zero(G)
    for sp in pcis:
        total = total + sp.e
    orth = not any(any(product_at_classes(sp.e, sq.e))
                   for i, sp in enumerate(pcis) for sq in pcis[i + 1:])
    Gder = derived_subgroup(G)
    comm_dims = sum(d for d, sp in zip(dims, pcis)
                    if Gder.mask & sp.K.mask == Gder.mask)
    rep = SanityReport(
        sum_is_one=(total == AlgElem.one(G)),
        pairwise_orthogonal=orth,
        all_central=all(sp.e.is_central() for sp in pcis),
        all_idempotent=all(sp.e.is_central_idempotent() for sp in pcis),
        dims=sorted(dims),
        dim_total=sum(dims),
        commutative_dim_total=comm_dims,
        group_order=G.order,
        commutative_budget=G.order // Gder.order,
    )
    for sp in pcis:
        if sp.kind != "strong-shoda":
            rep.warnings.append(
                f"pair {sp.describe()} is not verified strong ({sp.kind})")
    return rep
