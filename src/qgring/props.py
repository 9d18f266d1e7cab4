"""Group-property predicates and the nilpotent-decomposition verdict engine.

SN: for every normal N and subgroup Y, either N <= Y or YN is normal.
SSN: every subgroup has SN. NCN (p-groups): every non-cyclic subgroup is
normal. A group "has ND" when every nilpotent element of Z[G] stays
integral after projection by every central idempotent of Q[G]; here the
positive certificate is "at most one matrix component" and the negative
certificate is an explicit witness pair (alpha, e), re-verified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .abelian_sections import _primary_basis, section_exponents
from .algebra import (AlgElem, carry, coeff_strings, hat, one_minus,
                      one_plus, square_zero_search, tilde)
from .catalog import bj1_group, build_named, build_spec
from .components import (
    NCN_SINGLE,
    MatrixCount,
    a5_shoda_idempotent,
    count_matrix_components,
    predict_nilpotent,
    predict_nonnilpotent,
)
from .errors import (
    BNotAbelian,
    NotCentralIdempotent,
    NotMetabelian,
    NotPGroup,
    QGRingError,
    SoundnessError,
    UnknownWitness,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    _cyclic_seeds,
    _lattice_entry,
    _seed_classes,
    center,
    centralizer,
    conjugate_mask,
    cyclic_subgroups,
    derived_subgroup,
    find_isomorphism,
    full_subgroup,
    is_metacyclic,
    is_nilpotent_group,
    is_normal,
    is_solvable_group,
    lattice_generators,
    normal_closure,
    normalizer_mask,
    require_subgroups,
    section_generator,
    subgroup_from_mask,
    subgroup_generated,
    subgroups,
)
from .numutil import ord_mod, padic_valuation, prime_factors
from .shoda import e_idem


# ---------------------------------------------------------------------------
# SN / SSN / NCN


def _join_is_normal(G: FiniteGroup, N: int, k: int, by: Sequence[int]) -> bool:
    """N <= <y> or <y>N is normal in M, for N a subgroup's mask, <y> the
    seed C_k of _cyclic_seeds and by the generators of an M that contains
    y and normalizes N. No closure is made: as y normalizes N, <y>N is the
    union of the cosets y^j N, and (<y>N)^t = <y^t>N for t in M, so it is
    normal in M iff, for each t in by, some y^-j y^t lies in N."""
    walk = _cyclic_seeds(G).walks[k]
    table, inverse = G.table, G.inverse
    return N & cyclic_subgroups(G)[k].mask == N or all(
        any(N >> table[inverse[x]][yt] & 1 for x in walk)
        for yt in [G.conj(walk[0], t) for t in by])


def _is_dedekind(G: FiniteGroup) -> bool:
    """Every subgroup of G is normal. Each subgroup is the join of its
    cyclic ones, and a join of normal subgroups is normal, so the cyclic
    subgroups decide it, with no lattice."""
    return all(is_normal(G, C) for C in cyclic_subgroups(G))


def _non_normal_classes(G: FiniteGroup) -> list[Subgroup]:
    """One subgroup per conjugacy class of the subgroups not normal in G:
    the first of its class in lattice order, with its lattice generators.
    A class is the orbit of its first subgroup under conjugation by
    G.generators() (conjugate_mask)."""
    gens, seen, firsts = G.generators(), set(), []
    for S in subgroups(G):
        if S.mask not in seen and not is_normal(G, S):
            firsts.append(S)
            seen.add(S.mask)
            orbit = [S]
            for T in orbit:  # orbit grows while it is walked
                new = {conjugate_mask(G, T, t) for t in gens} - seen
                seen |= new
                orbit += [Subgroup(G, mask) for mask in new]
    return firsts


def is_sn(G: FiniteGroup) -> bool:
    """N normal, Y any subgroup => N <= Y or YN normal; decided with no
    lattice, by these reductions.

    - Y cyclic suffices. If N is not in Y, it is in no <y>, y in Y, so
      each <y>N is normal, and so is YN, the join of these.
    - N the normal closure N_g of one cyclic <g> per conjugacy class of
      seeds suffices. A normal N is the join of the N_g, g in N, so for
      N not in <y>, <y>N is the join of the <y>N_g with N_g not in <y>,
      at least one of them, each normal when the N_g pass.
    - <y> may run over one seed per conjugacy class too, as N is normal:
      (<y>N)^t = <y^t>N, and N <= <y> iff N <= <y^t>. A normal <y> passes.
    - Each (N, <y>) is _join_is_normal with M = G.
    A normal seed is its own normal closure, and when every seed is
    normal, G is Dedekind and no N is needed.
    """
    if "sn" not in G._cache:
        seeds, rep = cyclic_subgroups(G), _seed_classes(G)[0]
        firsts = [k for k in range(len(seeds)) if rep[k] == k]
        suspects = {k for k in firsts if not is_normal(G, seeds[k])}
        gens = G.generators()
        closures = {normal_closure(G, seeds[k].gens, gens).mask if k in suspects
                    else seeds[k].mask for k in firsts} if suspects else set()
        closures.discard((1 << G.order) - 1)  # <y>G = G is normal
        G._cache["sn"] = all(_join_is_normal(G, N, k, gens)
                             for N in closures for k in suspects)
    return G._cache["sn"]


def is_ssn(G: FiniteGroup) -> bool:
    """Every subgroup H of G has SN.

    Fix N != 1 and Y. The H in which N is normal are those with N <= H <=
    M = N_G(N), so (N, Y) constrains some H iff Y <= M; each such H holds
    YN, so YN normal in M is normal in each, and H = M is one. So G is SSN
    iff YN is normal in M for every N != 1 and Y <= M with N not in Y, and
    these reductions decide that:
    - Y cyclic suffices, as in is_sn: YN is the join of the <y>N, y in Y,
      and N is in no <y> when it is not in Y. Each (N, <y>), y in M, is
      _join_is_normal with M's generators.
    - For N normal in G, M = G: that is SN. So G is SSN iff it is SN and
      the N not normal in G pass; a Dedekind G (_is_dedekind) has none.
    - One N per conjugacy class suffices: conjugation by g maps N_G(N) to
      N_G(N^g), so (N, y, t) fails iff (N^g, y^g, t^g) does.
    So only an SN G that is not Dedekind reads the lattice: the classes
    (_non_normal_classes), and M as the lattice entry at normalizer_mask,
    with no closure.
    """
    def passes(N: Subgroup) -> bool:
        M = _lattice_entry(G, Subgroup(G, normalizer_mask(G, N)))
        return all(_join_is_normal(G, N.mask, k, M.gens)
                   for k, C in enumerate(cyclic_subgroups(G))
                   if C.mask & M.mask == C.mask)

    if "ssn" not in G._cache:
        G._cache["ssn"] = is_sn(G) and (_is_dedekind(G) or all(
            map(passes, _non_normal_classes(G))))
    return G._cache["ssn"]


def is_ncn(G: FiniteGroup) -> bool:
    """Every non-cyclic subgroup is normal (p-groups only). A Dedekind G
    is NCN, as each of its subgroups is normal. An NCN p-group is SN: take
    N normal and Y with N not in Y. If YN is not cyclic, it is normal. If
    YN is cyclic, its subgroups form a chain, so Y < N and YN = N is
    normal. So a G that is not SN (is_sn, no lattice) is not NCN. Only
    an SN G that is not Dedekind scans the lattice, up to the first
    non-cyclic subgroup that is not normal."""
    ok, p = G.is_p_group()
    if not ok or G.order == 1:
        raise NotPGroup(f"{G.name} is not a nontrivial p-group")
    if "ncn" not in G._cache:
        G._cache["ncn"] = _is_dedekind(G) or is_sn(G) and all(
            S.is_cyclic() or is_normal(G, S) for S in subgroups(G))
    return G._cache["ncn"]


def is_hamiltonian(G: FiniteGroup) -> bool:
    """G is non-abelian and every subgroup is normal (_is_dedekind)."""
    return not G.is_abelian() and _is_dedekind(G)


def abelian_invariants(G: FiniteGroup, H: Subgroup) -> list[int]:
    """Prime-power invariants of an abelian subgroup H of G, sorted: the
    orders of a basis of H (_primary_basis over the trivial subgroup).
    GroupMismatch when H is a subgroup of another group, BNotAbelian when
    H is not abelian."""
    require_subgroups(G, H)
    if not H.is_abelian():
        raise BNotAbelian(f"{H!r} is not abelian")
    basis = _primary_basis(H, Subgroup(G, 1))[1]
    return sorted(order for xs in basis.values() for _, order, _ in xs)


@dataclass
class SSNClass:
    tag: str  # Abelian | Hamiltonian | PGroupNCN | SolvableTypeI | SolvableTypeII | A5 | NotSSN
    params: dict = field(default_factory=dict)
    # the Theorem A/B family with its parameters, as predict_nilpotent or
    # predict_nonnilpotent takes it (e.g. {"family": "BJ1", "p": 2, "m": 3,
    # "n": 1}); None where the classification names no family
    family: Optional[dict] = field(default=None, compare=False, repr=False)

    @property
    def ssn(self) -> bool:
        return self.tag != "NotSSN"

    def prediction(self) -> Optional[dict]:
        """The Theorem A/B prediction for the family, or None."""
        if self.family is None:
            return None
        predict = (predict_nonnilpotent
                   if self.family["family"] in ("faithful", "nonfaithful")
                   else predict_nilpotent)
        try:
            pred = predict(self.family)
        except QGRingError:
            return None
        return {"family": pred.family,
                "params": {k: v for k, v in pred.params.items() if k != "family"},
                "one_matrix": pred.one_matrix, "component": pred.component,
                "nd": pred.nd, "detail": pred.detail}


def _is_minimal_nonabelian(G: FiniteGroup, p: int) -> bool:
    """Every proper subgroup of the nonabelian p-group G is abelian;
    decided by Redei's criterion, d(G) = 2 and |G'| = p, with no lattice.

    - If so, G' is central of order p, so commutators are bilinear, and
      Phi(G) = G^p G' is central: [x^p, y] = [x, y]^p = 1. A maximal
      subgroup <a>Phi(G) is then abelian.
    - Conversely, with d(G) >= 3 any two elements generate a proper, so
      abelian, subgroup, and G would be abelian. With G = <a, b>, the
      proper <a>Phi(G) and <b>Phi(G) are abelian, so Phi(G) is central,
      G' = <[a, b]> and [a, b]^p = [a^p, b] = 1.
    d(G) is the length of G's lattice generators: G is nilpotent, so
    lattice_generators reads it off Burnside's basis theorem
    (_basis_generators)."""
    return (len(lattice_generators(G, full_subgroup(G))) == 2
            and derived_subgroup(G).order == p)


def _ncn_family(G: FiniteGroup, p: int) -> tuple[Optional[str], Optional[dict]]:
    """Best-effort identification of the NCN-classification type (BJ1-BJ9)
    of a p-group (nonabelian, non-Hamiltonian): the type, or None, and its
    family record, or None where the parameters are not found. Reference
    groups are built at G's order, which G's own build admitted."""
    n = G.order
    # BJ1: metacyclic minimal nonabelian, not Q8
    if _is_minimal_nonabelian(G, p):
        if is_metacyclic(G):
            total = padic_valuation(p, n)
            for m in range(2, total):
                if find_isomorphism(bj1_group(p, m, total - m, cap=n), G) is not None:
                    return "BJ1", {"family": "BJ1", "p": p, "m": m, "n": total - m}
            return "BJ1", None
    for tag, (order, name, *_) in NCN_SINGLE.items():
        if n == order and find_isomorphism(build_named(name), G) is not None:
            return tag, {"family": tag}
    # BJ3: Q8 x C_{2^k}, k >= 2
    if p == 2 and n >= 32 and \
            find_isomorphism(build_spec(f"X(Q(8),C({n // 8}))", cap=n), G) is not None:
        return "BJ3", {"family": "BJ3", "n": (n // 8).bit_length() - 1}
    # BJ2: G0 central product cyclic Z; G' = Z(G0) of order p, Z(G) cyclic
    der, Z = derived_subgroup(G), center(G)
    if der.order == p and Z.is_cyclic() and der <= Z:
        return "BJ2", {"family": "BJ2", "p": p, "z_order": Z.order}
    return None, None


def _acts_reducibly(G: FiniteGroup, P: Subgroup, gen: int) -> bool:
    """<gen> leaves invariant a subgroup of the normal P other than 1 and
    P; decided with no lattice. The normal closure of <v> under gen is the
    least gen-invariant subgroup that holds v. Every invariant subgroup
    other than 1 holds such a closure, for each of its v != 1, so one is
    proper iff some v in P - 1 has a closure other than P."""
    return any(normal_closure(G, (v,), (gen,)).mask != P.mask
               for v in P.members[1:])


def classify_ssn(G: FiniteGroup) -> SSNClass:
    """Structural SSN classification: nilpotent branch via NCN/Hamiltonian,
    solvable non-nilpotent branch via the two semidirect families, plus the
    single non-solvable group."""
    if G.is_abelian():
        return SSNClass("Abelian", {"order": G.order})
    if is_nilpotent_group(G):
        if is_hamiltonian(G):
            # G is nilpotent, so its elements of odd order form a subgroup
            odd_sub = subgroup_from_mask(G, sum(
                1 << g for g, m in enumerate(G.element_orders()) if m % 2))
            e_rank = padic_valuation(2, G.order) - 3
            params = {"e_rank": e_rank,
                      "odd_invariants": abelian_invariants(G, odd_sub)}
            return SSNClass("Hamiltonian", params,
                            {"family": "Hamiltonian", **params})
        ok, p = G.is_p_group()
        if ok:
            if is_ncn(G):
                bj, family = _ncn_family(G, p)
                return SSNClass("PGroupNCN", {"p": p, "bj": bj}, family)
            return SSNClass("NotSSN", {"reason": "p-group without NCN"})
        return SSNClass("NotSSN",
                        {"reason": "nilpotent, neither abelian nor Hamiltonian"})
    if not is_solvable_group(G):
        # groups of order < 60 are solvable, so a non-solvable group of
        # order 60 is simple, and A5 is the only simple group of that order
        if G.order == 60:
            return SSNClass("A5", {})
        return SSNClass("NotSSN", {"reason": "non-solvable, not A5"})
    # solvable, not nilpotent: G = P : Q with P = G'
    P = derived_subgroup(G)
    if not P.is_abelian():
        return SSNClass("NotSSN", {"reason": "derived subgroup not abelian"})
    q_order = G.order // P.order
    if math.gcd(P.order, q_order) != 1:
        return SSNClass("NotSSN", {"reason": "no coprime complement"})
    # a cyclic subgroup of order |G:P| meets P trivially, as the orders are
    # coprime: the first seed of that order, y its least generator (the
    # least element of that order)
    q_mask, y = next(((mask, walk[0]) for m, mask, walk, _
                      in _cyclic_seeds(G).by_order if m == q_order), (None, None))
    if q_mask is None:
        return SSNClass("NotSSN", {"reason": "complement is not cyclic"})
    # Q acts faithfully on P iff it meets the centralizer of P trivially
    faithful = q_mask & centralizer(G, P.gens).mask == 1
    pfac = prime_factors(P.order)
    p = next(iter(pfac))
    if faithful:
        # type (i): P elementary abelian, every nontrivial subgroup of Q
        # acts irreducibly
        if len(pfac) != 1 or any(G.element_order(g) > p for g in P.members):
            return SSNClass("NotSSN", {"reason": "P not elementary abelian"})
        for ell in prime_factors(q_order):
            if _acts_reducibly(G, P, G.power(y, q_order // ell)):
                return SSNClass(
                    "NotSSN", {"reason": f"order-{ell} subgroup acts reducibly"})
        n_rank = pfac[p]
        return SSNClass("SolvableTypeI",
                        {"p": p, "n": n_rank, "q_order": q_order},
                        {"family": "faithful", "p": p, "n": n_rank, "q": q_order})
    # type (ii): |P| = p, Q a cyclic q-group of order >= q^2, non-faithful
    if P.order != p or len(pfac) != 1:
        return SSNClass("NotSSN", {"reason": "non-faithful action on non-prime P"})
    qfac = prime_factors(q_order)
    if len(qfac) != 1:
        return SSNClass("NotSSN", {"reason": "Q not a q-group"})
    q = next(iter(qfac))
    # k >= 2: a non-faithful Q of order q centralizes P, and G = P x Q is abelian
    k = qfac[q]
    trivial = subgroup_generated(G, ())
    x = section_generator(P, trivial)
    # y x y^-1 = x^r0 with 1 <= r0 < p, as y x y^-1 != 1
    r0 = section_exponents(P, trivial)[G.conj_left(x, y)]
    # ord_p(r0) = q^k0 with 1 <= k0 < k: it divides |Q| = q^k, is > 1 (a
    # trivial action makes G abelian) and < q^k (the action is not faithful)
    k0 = padic_valuation(q, ord_mod(p, r0))
    params = {"p": p, "q": q, "k": k, "k0": k0, "r0": r0}
    return SSNClass("SolvableTypeII", params,
                    {"family": "nonfaithful", **params})


# ---------------------------------------------------------------------------
# curated witnesses


@dataclass
class Witness:
    name: str
    group: FiniteGroup
    alpha: AlgElem
    e: AlgElem
    notes: str = ""


def verify_witness(w: Witness) -> dict[str, bool]:
    """The four assertions every negative certificate must satisfy."""
    prod = w.alpha * w.e
    return {
        "alpha_integral": w.alpha.is_integral(),
        "alpha_nilpotent": w.alpha.is_nilpotent(),
        "e_central_idempotent": w.e.is_central_idempotent(),
        "alpha_e_not_integral": not prod.is_integral(),
    }


def curated_witness(name: str, n: int = 3) -> Witness:
    """The worked negative examples, constructed exactly: returns
    (group, alpha, e) with alpha integral nilpotent, e a central idempotent
    and alpha*e not integral (all re-verified by the caller)."""
    if name == "D12":
        G = build_named("D12")
        a, b = G.element("a"), G.element("b")
        alpha = one_minus(G, b) * AlgElem.basis(G, a) * one_plus(G, b)
        e = tilde(subgroup_generated(G, (G.word("a^3"),))) \
            - tilde(subgroup_generated(G, (a,)))
        return Witness(name, G, alpha, e, "dihedral of order 12")

    if name == "Ex3.8":
        G = build_named("Ex38K")
        a = G.element("a")
        c4 = G.word("c^4")
        alpha = one_minus(G, c4) * AlgElem.basis(G, a) * one_plus(G, c4)
        Kp = subgroup_generated(G, (a, G.element("b")))
        e = e_idem(G, Kp, subgroup_generated(G, (a,)))
        return Witness(name, G, alpha, e, "index-2 subgroup of (C3xC3):C8")

    if name == "BJ3":
        if n < 3:
            raise UnknownWitness("BJ3 witness needs n >= 3")
        G = build_spec(f"X(Q(8),C({2 ** n}))", cap=2 ** (n + 3))
        a, b, x = G.element("a"), G.element("b"), G.element("x")
        z = G.word("a^2")
        t = G.power(x, 2 ** (n - 3))
        bt = AlgElem.basis(G, G.table[b][t])
        bt2 = AlgElem.basis(G, G.table[b][G.table[t][t]])
        amul = AlgElem.basis(G, a)
        t2 = G.power(t, 2)
        t4 = G.power(t, 4)
        r = ((amul + bt) * one_minus(G, t2) * one_plus(G, t4)
             * one_minus(G, z))
        s_elem = (amul + bt2) * one_minus(G, t4) * one_minus(G, z)
        omt = one_minus(G, t)
        alpha = Fraction(1, 2) * (r * omt + s_elem * omt * omt * omt)
        e = tilde(subgroup_generated(G, (t4,)))
        w = Witness(name, G, alpha, e, f"Q8 x C_{2 ** n}")
        if not (w.e * r == r and (w.e * s_elem).is_zero()
                and w.alpha * w.e == Fraction(1, 2) * (r * omt)):
            raise SoundnessError("BJ3 witness parts do not project as constructed")
        return w

    if name == "BJ9":
        G = build_named("BJ9")
        A = G.element("b")
        B = G.element("a")
        C = G.word("c*d")
        A2B2 = G.table[G.power(A, 2)][G.power(B, 2)]
        alpha = (one_minus(G, A2B2) * one_plus(G, A) * one_plus(G, B)
                 * AlgElem.basis(G, C))
        e = tilde(subgroup_generated(G, (G.power(A, 2),)))
        return Witness(name, G, alpha, e, "special group of order 64")

    if name == "A5":
        G = build_named("A5")
        a = G.element("(1,2,3,4,5)")
        b = G.element("(1,2)(3,4)")
        _, _, _, e = a5_shoda_idempotent(G)
        alpha = hat(subgroup_generated(G, (a,))) * AlgElem.basis(G, b) \
            * one_minus(G, a)
        return Witness(name, G, alpha, e, "alternating group of degree 5")

    raise UnknownWitness(f"no curated witness named {name!r}")


# (r, s) coefficient lists, lowest degree first, of polynomials with
# 1 + r(X)^2 + s(X)^2 an integer multiple of 1 + X + ... + X^(p-1) modulo
# X^p - 1, for the odd primes p <= 7 with ord_p(2) even (ord_7(2) = 3)
_SUM_OF_SQUARES = {3: ([0, 1, 0], [0, 0, 1]),
                   5: ([1, 0, 1, 1, 2], [0, 0, 1, 1, 0])}


def hamiltonian_witness(p: int, n: int) -> Optional[Witness]:
    """Negative ND certificate for Q8 x C_{p^n} with p = 3 or 5 and n >= 2,
    via the sum-of-two-squares polynomials of _SUM_OF_SQUARES; None for
    any other (p, n). The caller verifies it."""
    if p not in _SUM_OF_SQUARES or n < 2:
        return None
    r_coeffs, s_coeffs = _SUM_OF_SQUARES[p]
    G = build_spec(f"X(Q(8),C({p ** n}))", cap=8 * p ** n)
    x2 = G.word("a^2")  # the central involution of the quaternion factor
    c = G.power(G.element("x"), p ** (n - 2))  # order p^2
    cp = G.power(c, p)

    def poly_at(coeffs, g):
        out = AlgElem.zero(G)
        for i, v in enumerate(coeffs):
            if v:
                out = out + v * AlgElem.basis(G, G.power(g, i))
        return out

    qa = AlgElem.basis(G, G.element("a"))
    qb = AlgElem.basis(G, G.element("b"))
    qab = AlgElem.basis(G, G.word("a*b"))
    alpha_part = qa + poly_at(r_coeffs, cp) * qb + poly_at(s_coeffs, cp) * qab
    beta_part = qa + poly_at(r_coeffs, c) * qb + poly_at(s_coeffs, c) * qab

    omc = one_minus(G, c)
    omc_pow = AlgElem.one(G)
    for _ in range(p * p - p - 1):
        omc_pow = omc_pow * omc
    omc_small = AlgElem.one(G)
    for _ in range(p - 1):
        omc_small = omc_small * omc
    hat_cp = hat(subgroup_generated(G, (cp,)))
    w = Fraction(1, p) * (one_minus(G, x2) * (
        omc_pow * one_minus(G, cp) * alpha_part
        - omc_small * hat_cp * beta_part))
    e = tilde(subgroup_generated(G, (cp,)))
    return Witness(f"Q8xC{p}^{n}", G, w, e,
                   f"Hamiltonian Q8 x C_{p ** n} via polynomial witness")


# ---------------------------------------------------------------------------
# witness search

# candidate (alpha, e) tests a witness search may spend unless told otherwise
DEFAULT_WITNESS_BUDGET = 10 ** 6


def nd_witness_search(G: FiniteGroup, pcis: list[AlgElem],
                      budget: int = DEFAULT_WITNESS_BUDGET,
                      ) -> tuple[Optional[tuple[AlgElem, AlgElem]], int]:
    """Search for (alpha, e): alpha an integral square-zero element of the
    standard (1-y) g hat(C) / hat(C) g (1-y) families of the cyclic C < G,
    which stand for every subgroup (and +/- combinations of left elements
    sharing C), e a central idempotent from pcis, with alpha*e not integral.

    The budget counts candidate (alpha, e) tests in a fixed order, the pair
    tests included, and the search stops once it has spent the budget; a
    budget below 1 spends nothing. The search is
    algebra.square_zero_search: each family decides its single tests by
    coset invariance and counts its pair tests, which can never fail, and
    spent is the same as if each test had been made. Returns (pair or None,
    spent).
    """
    for e in pcis:
        if not e.is_central():
            raise NotCentralIdempotent("the witness search needs central idempotents")
    if not pcis:
        return None, 0
    return square_zero_search(G, pcis, budget, residues=True)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class NDReport:
    group_name: str
    order: int
    verdict: str  # HasND | NotND | Unknown
    reason: str   # OneMatrixComponent | WitnessFound | BudgetExhausted
    matrix_count: "MatrixCount"
    witness: Optional[tuple[AlgElem, AlgElem]] = None
    budget: int = 0
    spent: int = 0
    # the (ShodaPair, ComponentDescriptor) list behind matrix_count; not
    # serialized
    components: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self, spec: Optional[str] = None) -> dict:
        wit = None
        if self.witness is not None:
            alpha, e = self.witness
            wit = {"alpha": coeff_strings(alpha), "e": coeff_strings(e)}
        return {
            "group": spec or self.group_name,
            "verdict": self.verdict,
            "reason": {"kind": self.reason, "budget": self.budget,
                       "spent": self.spent},
            "witness": wit,
            "matrix_count": self.matrix_count.to_json(),
        }


def _curated_pass(G: FiniteGroup, components: list, left: int
                  ) -> tuple[Optional[Witness], int]:
    """A curated witness carried to G through an isomorphism from its
    group, if G is isomorphic to one. Spends no search test."""
    candidates = []  # (build the witness's group, build the witness)
    named = {12: ("D12", "D12"), 36: ("Ex3.8", "Ex38K"), 60: ("A5", "A5"),
             64: ("BJ9", "BJ9")}
    if G.order in named:
        name, ref = named[G.order]
        candidates.append((lambda: build_named(ref),
                           lambda: curated_witness(name)))
    m, rest = divmod(G.order, 8)
    fac = prime_factors(m) if m and not rest else {}
    if len(fac) == 1 and is_nilpotent_group(G):  # as Q8 x C_m is
        (p, n), = fac.items()
        if p == 2 and n >= 3:
            candidates.append((lambda: build_spec(f"X(Q(8),C({m}))", cap=G.order),
                               lambda: curated_witness("BJ3", n=n)))
        elif p > 2 and n >= 2:
            candidates.append((lambda: build_spec(f"X(Q(8),C({m}))", cap=G.order),
                               lambda: hamiltonian_witness(p, n)))
    for build, make in candidates:
        iso = find_isomorphism(build(), G)
        if iso is None:
            continue
        w = make()
        if w is not None:
            return Witness(w.name, G, carry(w.alpha, iso, G),
                           carry(w.e, iso, G), w.notes), 0
    return None, 0


def _search_pass(G: FiniteGroup, components: list, left: int
                 ) -> tuple[Optional[Witness], int]:
    """The square-zero search over the PCIs of components, within left
    tests. nd_witness_search is looked up when called, so a wrapper set on
    this module reaches it."""
    found, spent = nd_witness_search(G, [sp.e for sp, _d in components],
                                     budget=left)
    return (None if found is None else Witness("search", G, *found)), spent


# the witness passes in the order nd_verdict tries them:
# pass(G, components, tests left) -> (witness or None, tests spent)
_WITNESS_PASSES = (_curated_pass, _search_pass)


def nd_verdict(G: FiniteGroup, budget: int = DEFAULT_WITNESS_BUDGET,
               seed: int = 0) -> NDReport:
    """Decide ND where possible. Positive only via the at-most-one-matrix-
    component certificate; negative only via a verified witness; otherwise
    Unknown with the search budget recorded. seed is read by nothing, as
    no step samples; the keyword stays only for callers that still pass it.

    Without the positive certificate, the passes of _WITNESS_PASSES run in
    order, the curated witnesses first and then the square-zero search,
    until one finds a witness. They share the budget: each pass gets what
    the earlier ones left of it, and spent is the sum of their spends. A
    found witness is re-verified exactly here, whichever pass found it,
    and a failed check raises SoundnessError."""
    try:
        count, comps = count_matrix_components(G)
    except NotMetabelian:
        count, comps = MatrixCount(0, None), []

    report = NDReport(getattr(G, "spec", G.name), G.order, "Unknown",
                      "BudgetExhausted", count, budget=budget, components=comps)
    if count.hi is not None and count.hi <= 1:
        report.verdict, report.reason = "HasND", "OneMatrixComponent"
        return report
    for find in _WITNESS_PASSES:
        wit, spent = find(G, comps, budget - report.spent)
        report.spent += spent
        if wit is not None:
            failed = [name for name, ok in verify_witness(wit).items() if not ok]
            if failed:
                raise SoundnessError(
                    f"{wit.name} witness for {G.name} fails re-verification: "
                    + ", ".join(failed))
            report.verdict, report.reason = "NotND", "WitnessFound"
            report.witness = (wit.alpha, wit.e)
            return report
    return report
