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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import (AlgElem, SquareZeroFamily, carry, coeff_strings, hat,
                      one_minus, one_plus, tilde)
from .catalog import bj1_group, build_named, build_spec
from .components import (
    MatrixCount,
    a5_shoda_idempotent,
    count_matrix_components,
    predict_nilpotent,
    predict_nonnilpotent,
)
from .errors import (
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
    center,
    centralizer,
    cosets,
    derived_subgroup,
    find_isomorphism,
    full_subgroup,
    is_nilpotent_group,
    is_solvable_group,
    normal_subgroups,
    normalizes,
    stabilizer,
    subgroup_generated,
    subgroups,
)
from .numutil import ord_mod, padic_valuation, prime_factors
from .shoda import e_idem, section_exponents, section_generator


# ---------------------------------------------------------------------------
# SN / SSN / NCN


def _sn_scan(G: FiniteGroup, pairs) -> bool:
    """True iff YN is normal in M for every (N, M) in pairs, N != 1 normal
    in M, and every subgroup Y <= M with N not contained in Y.

    No closure is made. YN is the least subgroup containing Y u N, and
    subgroups(G) is sorted by (order, mask), so YN is the first subgroup
    there, from order |Y u N| on, whose mask contains Y u N. Normality in
    G is decided once per subgroup, by normal_subgroups(G). A subgroup
    normal in G is normal in every M that contains it, so no Y normal in G
    is joined with N and no YN normal in G is tested; for M = G that
    leaves no test at all. For M < G, as N is normal in M, YN is normal in
    M when Y is, so only the Y not normal in M are joined with N; normality
    in M is decided once per M for each Y and once per (M, YN) for each
    join: many N share one M.
    """
    subs = subgroups(G)
    orders = [S.order for S in subs]
    normal = {S.mask for S in normal_subgroups(G)}
    joins: dict[int, Subgroup] = {}
    scans: dict[int, tuple[list[Subgroup], dict[int, bool]]] = {}
    for N, M in pairs:
        whole = M.mask == subs[-1].mask
        if M.mask not in scans:
            scans[M.mask] = ([Y for Y in subs if Y.mask not in normal
                              and Y.mask | M.mask == M.mask
                              and (whole or not normalizes(G, M.gens, Y))], {})
        suspects, in_M = scans[M.mask]
        for Y in suspects:
            key = Y.mask | N.mask
            if key == Y.mask:
                continue
            YN = joins.get(key)
            if YN is None:
                i = bisect_left(orders, key.bit_count())
                while subs[i].mask | key != subs[i].mask:
                    i += 1
                YN = joins[key] = subs[i]
            if YN.mask in normal:
                continue
            if YN.mask not in in_M:
                in_M[YN.mask] = not whole and normalizes(G, M.gens, YN)
            if not in_M[YN.mask]:
                return False
    return True


def is_sn(G: FiniteGroup) -> bool:
    """Exhaustive check: N normal, Y any subgroup => N <= Y or YN normal."""
    if "sn" not in G._cache:
        full = full_subgroup(G)
        G._cache["sn"] = _sn_scan(
            G, ((N, full) for N in normal_subgroups(G) if N.order > 1))
    return G._cache["sn"]


def is_ssn(G: FiniteGroup) -> bool:
    """Every subgroup H of G has SN, decided on G's own lattice.

    H has SN iff YN is normal in H for all N normal in H and Y <= H with N
    not contained in Y. Fix N != 1 and Y. The subgroups H in which N is
    normal are those with N <= H <= N_G(N), so the pair (N, Y) constrains
    some H iff Y <= N_G(N). Each such H contains YN, so if YN is normal
    in N_G(N) it is normal in each of them; and H = N_G(N) is one of
    them. So G is SSN iff YN is normal in N_G(N) for every N != 1 and
    every Y <= N_G(N) with N not contained in Y: the SN scan with N_G(N)
    in place of G. For N normal in G, N_G(N) = G and that is the SN scan
    of G itself, so G is SSN iff it is SN and the scan passes over the N
    not normal in G. When every subgroup is normal, both scans are empty.

    N_G(N) is read off the lattice too, so the scan makes no closure: it
    is a union of right cosets Ng (ng normalizes N iff g does), so one
    test per coset gives its mask.
    """
    if "ssn" not in G._cache:
        subs = subgroups(G)
        by_mask = {S.mask: S for S in subs}
        normal = {S.mask for S in normal_subgroups(G)}
        G._cache["ssn"] = is_sn(G) and _sn_scan(
            G, ((N, by_mask[_normalizer_mask(G, N)]) for N in subs
                if N.mask not in normal))
    return G._cache["ssn"]


def _normalizer_mask(G: FiniteGroup, N: Subgroup) -> int:
    """The mask of N_G(N), with one normality test per right coset Ng."""
    index, reps = cosets(N)
    keep = [normalizes(G, (g,), N) for g in reps]
    mask = 0
    for x, i in enumerate(index):
        if keep[i]:
            mask |= 1 << x
    return mask


def is_ncn(G: FiniteGroup) -> bool:
    """Every non-cyclic subgroup is normal (p-groups only)."""
    ok, p = G.is_p_group()
    if not ok or G.order == 1:
        raise NotPGroup(f"{G.name} is not a nontrivial p-group")
    normal = {S.mask for S in normal_subgroups(G)}
    return all(H.mask in normal for H in subgroups(G) if not H.is_cyclic())


def is_hamiltonian(G: FiniteGroup) -> bool:
    return (not G.is_abelian()
            and len(normal_subgroups(G)) == len(subgroups(G)))


def _int_log(base: int, value: int) -> int:
    e, v = 0, 1
    while v < value:
        v *= base
        e += 1
    if v != value:
        raise ValueError(f"{value} is not a power of {base}")
    return e


def abelian_invariants(G: FiniteGroup, H: Subgroup) -> list[int]:
    """Prime-power invariants of an abelian subgroup, sorted.

    Uses the count of elements of order dividing p^i: it equals
    p^(sum_j min(lambda_j, i)) for type (lambda_1 >= lambda_2 >= ...).
    """
    if not H.is_abelian():
        raise ValueError("abelian_invariants needs an abelian subgroup")
    out: list[int] = []
    orders = [G.element_order(g) for g in H.members]
    for p in prime_factors(H.order):
        p_orders = [o for o in orders
                    if o == 1 or set(prime_factors(o)) == {p}]
        total = len(p_orders)
        f = [0]  # f[i] = log_p #{elements with order dividing p^i}
        while p ** f[-1] != total:
            i = len(f)
            cnt = sum(1 for o in p_orders if p ** i % o == 0)
            f.append(_int_log(p, cnt))
        ge = [f[i] - f[i - 1] for i in range(1, len(f))]  # #parts >= i
        for i in range(len(ge), 0, -1):
            exactly = ge[i - 1] - (ge[i] if i < len(ge) else 0)
            out.extend([p ** i] * exactly)
    return sorted(out)


@dataclass
class SSNClass:
    tag: str  # Abelian | Hamiltonian | PGroupNCN | SolvableTypeI | SolvableTypeII | A5 | NotSSN
    params: dict = field(default_factory=dict)

    @property
    def ssn(self) -> bool:
        return self.tag != "NotSSN"


# (order, catalog name, type) of the single groups of the NCN classification
_BJ_GROUPS = ((81, "BJ4", "BJ4"), (32, "BJ5", "BJ5"), (16, "Q16", "BJ6"),
              (32, "D8cpQ8", "BJ7"), (32, "BJ8", "BJ8"), (64, "BJ9", "BJ9"))


def _bj_tag(G: FiniteGroup, p: int) -> Optional[str]:
    """Best-effort identification of the NCN-classification type (BJ1-BJ9) of a
    p-group (nonabelian, non-Hamiltonian)."""
    n = G.order
    # BJ1: metacyclic minimal nonabelian, not Q8
    der = derived_subgroup(G)
    minimal_nonabelian = all(H.is_abelian() for H in subgroups(G)
                             if H.order < n)
    if minimal_nonabelian:
        # metacyclic: some cyclic normal subgroup with cyclic quotient
        full = full_subgroup(G)
        if any(N.is_cyclic() and section_generator(full, N) is not None
               for N in normal_subgroups(G)):
            return "BJ1"
    for order, name, tag in _BJ_GROUPS:
        if n == order and find_isomorphism(build_named(name), G) is not None:
            return tag
    # BJ3: Q8 x C_{2^k}, k >= 2
    if p == 2 and n >= 32 and \
            find_isomorphism(build_spec(f"X(Q(8),C({n // 8}))"), G) is not None:
        return "BJ3"
    # BJ2: G0 central product cyclic Z; G' = Z(G0) of order p, Z(G) cyclic
    Z = center(G)
    if der.order == p and Z.is_cyclic() and der <= Z:
        return "BJ2"
    return None


def bj1_params(G: FiniteGroup, p: int) -> Optional[tuple[int, int]]:
    """(m, n) with G isomorphic to BJ1(p, m, n), or None."""
    total = _int_log(p, G.order)
    for m in range(2, total):
        if find_isomorphism(bj1_group(p, m, total - m), G) is not None:
            return m, total - m
    return None


def classify_ssn(G: FiniteGroup) -> SSNClass:
    """Structural SSN classification: nilpotent branch via NCN/Hamiltonian,
    solvable non-nilpotent branch via the two semidirect families, plus the
    single non-solvable group."""
    if G.is_abelian():
        return SSNClass("Abelian", {"order": G.order})
    if is_nilpotent_group(G):
        if is_hamiltonian(G):
            # G is nilpotent, so its elements of odd order form a subgroup
            odd_sub = stabilizer(G, lambda g: G.element_order(g) % 2 == 1)
            e_rank = padic_valuation(2, G.order) - 3
            invs = abelian_invariants(G, odd_sub)
            return SSNClass("Hamiltonian",
                            {"e_rank": e_rank, "odd_invariants": invs})
        ok, p = G.is_p_group()
        if ok:
            if is_ncn(G):
                return SSNClass("PGroupNCN", {"p": p, "bj": _bj_tag(G, p)})
            return SSNClass("NotSSN", {"reason": "p-group without NCN"})
        return SSNClass("NotSSN",
                        {"reason": "nilpotent, neither abelian nor Hamiltonian"})
    if not is_solvable_group(G):
        if find_isomorphism(build_named("A5"), G) is not None:
            return SSNClass("A5", {})
        return SSNClass("NotSSN", {"reason": "non-solvable, not A5"})
    # solvable, not nilpotent: G = P : Q with P = G'
    P = derived_subgroup(G)
    if not P.is_abelian():
        return SSNClass("NotSSN", {"reason": "derived subgroup not abelian"})
    q_order = G.order // P.order
    if math.gcd(P.order, q_order) != 1:
        return SSNClass("NotSSN", {"reason": "no coprime complement"})
    # an element of order |G:P| is outside P and meets it trivially, as
    # the orders are coprime
    y = next((g for g in range(1, G.order) if G.element_order(g) == q_order),
             None)
    if y is None:
        return SSNClass("NotSSN", {"reason": "complement is not cyclic"})
    Qsub = subgroup_generated(G, (y,))
    # Q acts faithfully on P iff it meets the centralizer of P trivially
    faithful = Qsub.mask & centralizer(G, P.gens).mask == 1
    pfac = prime_factors(P.order)
    p = next(iter(pfac))
    if faithful:
        # type (i): P elementary abelian, every nontrivial subgroup of Q
        # acts irreducibly
        if len(pfac) != 1 or any(G.element_order(g) > p for g in P.members):
            return SSNClass("NotSSN", {"reason": "P not elementary abelian"})
        proper = [S for S in subgroups(G) if S <= P and 1 < S.order < P.order]
        for ell in prime_factors(q_order):
            gen = G.power(y, q_order // ell)
            for S in proper:
                if normalizes(G, (gen,), S):
                    return SSNClass(
                        "NotSSN",
                        {"reason": f"order-{ell} subgroup acts reducibly"})
        n_rank = pfac[p]
        return SSNClass("SolvableTypeI",
                        {"p": p, "n": n_rank, "q_order": q_order})
    # type (ii): |P| = p, Q a cyclic q-group of order >= q^2, non-faithful
    if P.order != p or len(pfac) != 1:
        return SSNClass("NotSSN", {"reason": "non-faithful action on non-prime P"})
    qfac = prime_factors(q_order)
    if len(qfac) != 1:
        return SSNClass("NotSSN", {"reason": "Q not a q-group"})
    q = next(iter(qfac))
    k = qfac[q]
    if k < 2:
        return SSNClass("NotSSN", {"reason": "faithless action needs |Q| >= q^2"})
    trivial = subgroup_generated(G, ())
    x = section_generator(P, trivial)
    # y x y^-1 = x^r0 with 1 <= r0 < p, as y x y^-1 != 1
    r0 = section_exponents(P, trivial)[G.conj_left(x, y)]
    ordr = ord_mod(p, r0)
    if ordr == 1:
        return SSNClass("NotSSN", {"reason": "action trivial"})
    k0 = padic_valuation(q, ordr)
    if q ** k0 != ordr or not (1 <= k0 < k):
        return SSNClass("NotSSN", {"reason": "kernel level out of range"})
    return SSNClass("SolvableTypeII",
                    {"p": p, "q": q, "k": k, "k0": k0, "r0": r0})


def _prediction_for(G: FiniteGroup, cls) -> Optional[dict]:
    """Map a structural classification to a Theorem A/B prediction."""
    try:
        if cls.tag == "Hamiltonian":
            pred = predict_nilpotent({"family": "Hamiltonian",
                                      "e_rank": cls.params["e_rank"],
                                      "odd_invariants": cls.params["odd_invariants"]})
        elif cls.tag == "PGroupNCN":
            bj = cls.params.get("bj")
            p = cls.params["p"]
            if bj == "BJ1":
                found = bj1_params(G, p)
                if found is None:
                    return None
                pred = predict_nilpotent({"family": "BJ1", "p": p,
                                          "m": found[0], "n": found[1]})
            elif bj == "BJ2":
                pred = predict_nilpotent({"family": "BJ2", "p": p,
                                          "z_order": center(G).order})
            elif bj == "BJ3":
                n = (G.order // 8).bit_length() - 1
                pred = predict_nilpotent({"family": "BJ3", "n": n})
            elif bj in ("BJ4", "BJ5", "BJ6", "BJ7", "BJ8", "BJ9"):
                pred = predict_nilpotent({"family": bj})
            else:
                return None
        elif cls.tag == "SolvableTypeI":
            pred = predict_nonnilpotent({"family": "faithful",
                                         "p": cls.params["p"],
                                         "n": cls.params["n"],
                                         "q": cls.params["q_order"]})
        elif cls.tag == "SolvableTypeII":
            pred = predict_nonnilpotent({"family": "nonfaithful",
                                         "p": cls.params["p"],
                                         "q": cls.params["q"],
                                         "k": cls.params["k"],
                                         "k0": cls.params["k0"],
                                         "r0": cls.params["r0"]})
        else:
            return None
    except QGRingError:
        return None
    return {"family": pred.family, "params": {k: v for k, v in pred.params.items()
                                              if k != "family"},
            "one_matrix": pred.one_matrix, "component": pred.component,
            "nd": pred.nd, "detail": pred.detail}


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
        G = build_spec(f"X(Q(8),C({2 ** n}))")
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
    G = build_spec(f"X(Q(8),C({p ** n}))")
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
    standard (1-y) g hat(Y) / hat(Y) g (1-y) families (and +/- combinations
    of left elements sharing Y), e a central idempotent from pcis, with
    alpha*e not integral.

    The budget counts candidate (alpha, e) tests in a fixed order, the pair
    tests included, and the search stops once it has spent the budget; a
    budget below 1 spends nothing. The single-element tests of each Y are
    decided by coset invariance (SquareZeroFamily.scan), first by the
    generators of the subgroup their shifts generate, and spent is the same
    as if each had been made: at budget 50 000 the six witness-search
    benchmark groups take 42, 36, 18, 16, 12 and 8 decisions. A pair test
    can never find a witness: both of its elements already passed every e,
    and alpha*e is linear in alpha. So the pair tests are counted per left
    coset of Y, not made. Returns (pair or None, spent).
    """
    for e in pcis:
        if not e.is_central():
            raise NotCentralIdempotent("the witness search needs central idempotents")
    if not pcis:
        return None, 0
    spent = 0
    for Y in subgroups(G)[1:-1]:
        found, spent = SquareZeroFamily(Y, pcis, residues=True).scan(spent, budget)
        if found is not None or spent >= budget:
            return found, spent
        pair_tests = len(pcis) * _nonzero_pairs(_left_keys(Y))
        if pair_tests and spent + pair_tests >= budget:
            return None, budget
        spent += pair_tests
    return None, spent


def _left_keys(Y: Subgroup) -> Counter[tuple[int, int]]:
    """The nonzero left elements (1-y) g hat(Y) = hat(gY) - hat(ygY),
    counted by their pair of left cosets (numbered in one pass over G).
    The |Y| elements g of one coset give the same pair for each y."""
    G = Y.parent
    coset, reps = cosets(Y, left=True)
    keys: Counter[tuple[int, int]] = Counter()
    for y in Y.members[1:]:
        row = G.table[y]
        for g in reps:
            a, b = coset[g], coset[row[g]]
            if a != b:
                keys[a, b] += Y.order
    return keys


def _nonzero_pairs(keys: Counter[tuple[int, int]]) -> int:
    """The number of (i < j, sign) with alpha_i + sign * alpha_j != 0, for
    elements alpha = hat(A) - hat(B) counted by their cosets (A, B), A != B:
    the difference vanishes iff the keys are equal, the sum iff they are
    swapped."""
    n = sum(keys.values())
    zero = sum(c * (c - 1) // 2 for c in keys.values())
    zero += sum(c * keys[b, a] for (a, b), c in keys.items() if a < b)
    return n * (n - 1) - zero


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class NDReport:
    group_name: str
    order: int
    verdict: str  # HasND | NotND | Unknown
    reason: str   # OneMatrixComponent | WitnessFound | BudgetExhausted
    matrix_count: "MatrixCount"
    sn: bool
    ssn: bool
    ncn: Optional[bool]
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
            "sn": self.sn,
            "ssn": self.ssn,
            "ncn": self.ncn,
        }


def _curated_for_group(G: FiniteGroup) -> Optional[Witness]:
    """A curated witness carried to G through an isomorphism from its
    group, if G is isomorphic to one."""
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
            candidates.append((lambda: build_spec(f"X(Q(8),C({m}))"),
                               lambda: curated_witness("BJ3", n=n)))
        elif p > 2 and n >= 2:
            candidates.append((lambda: build_spec(f"X(Q(8),C({m}))"),
                               lambda: hamiltonian_witness(p, n)))
    for build, make in candidates:
        iso = find_isomorphism(build(), G)
        if iso is None:
            continue
        w = make()
        if w is not None:
            return Witness(w.name, G, carry(w.alpha, iso, G),
                           carry(w.e, iso, G), w.notes)
    return None


def _require_verified(w: Witness) -> None:
    failed = [name for name, ok in verify_witness(w).items() if not ok]
    if failed:
        raise SoundnessError(
            f"{w.name} witness for {w.group.name} fails re-verification: "
            + ", ".join(failed))


def nd_verdict(G: FiniteGroup, budget: int = DEFAULT_WITNESS_BUDGET,
               seed: int = 0) -> NDReport:
    """Decide ND where possible. Positive only via the at-most-one-matrix-
    component certificate; negative only via a verified witness; otherwise
    Unknown with the search budget recorded."""
    sn = is_sn(G)
    ssn = is_ssn(G)
    okp, _p = G.is_p_group()
    ncn = is_ncn(G) if okp and G.order > 1 else None

    try:
        count, comps = count_matrix_components(G, seed=seed)
    except NotMetabelian:
        count, comps = MatrixCount(0, None), []

    name = getattr(G, "spec", G.name)
    if count.hi is not None and count.hi <= 1:
        return NDReport(name, G.order, "HasND", "OneMatrixComponent",
                        count, sn, ssn, ncn, budget=budget, components=comps)

    wit = _curated_for_group(G)
    if wit is not None:
        _require_verified(wit)
        return NDReport(name, G.order, "NotND", "WitnessFound", count,
                        sn, ssn, ncn, witness=(wit.alpha, wit.e),
                        budget=budget, components=comps)

    found, spent = nd_witness_search(G, [sp.e for sp, _d in comps], budget=budget)
    if found is not None:
        alpha, e = found
        _require_verified(Witness("search", G, alpha, e))
        return NDReport(name, G.order, "NotND", "WitnessFound", count,
                        sn, ssn, ncn, witness=found, budget=budget,
                        spent=spent, components=comps)
    return NDReport(name, G.order, "Unknown", "BudgetExhausted", count,
                    sn, ssn, ncn, budget=budget, spent=spent, components=comps)
