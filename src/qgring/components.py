"""Wedderburn component descriptors and classification.

A strong Shoda pair (H, K) describes its component as n x n matrices over a
crossed product of N_G(K)/H acting on the h-th cyclotomic field, where
n = [G : N_G(K)] and h = [H : K]. Classification runs a cascade:
commutative, trivial twisting (full matrix ring over the fixed field),
cyclic quotient with root-of-unity twisting (Amitsur's division criterion),
and finally Unknown refined by a nilpotent search certificate. Each branch
decides from the pair data and the idempotent's dimensions alone; none
looks the group up in a table.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import (AlgElem, SquareZeroFamily, carry, center_rank,
                      component_dimension)
from .catalog import build_named
from .errors import (
    InconsistentFamilyParams,
    NonIntegerDimension,
    NotCentralIdempotent,
    NotCoprime,
    NotStrongShodaPair,
    SoundnessError,
    UnknownFamily,
)
from .groups import (FiniteGroup, Subgroup, cosets, find_isomorphism,
                     subgroup_generated, subgroups)
from .numutil import (
    crt,
    element_of_order,
    euler_phi,
    is_prime,
    ord_mod,
    padic_valuation,
    prime_factors,
)
from .shoda import (
    ShodaPair,
    _epsilon_centralizer,
    e_idem,
    epsilon,
    is_strong_shoda_pair,
    metabelian_pcis,
    section_exponents,
    section_generator,
)

COMMUTATIVE = "Commutative"
MATRIX = "Matrix"
DIVISION = "DivisionNoncommutative"
UNKNOWN = "Unknown"


# ---------------------------------------------------------------------------
# component descriptors


@dataclass
class ComponentDescriptor:
    """Shape data of one Wedderburn component from a strong Shoda pair."""

    group: FiniteGroup
    H: Subgroup
    K: Subgroup
    e: AlgElem
    matrix_size_n: int            # [G : N_G(K)]
    cyclotomic_order_h: int       # [H : K]
    nh_order: int                 # |N/H|
    nh_cyclic: bool
    action: dict[int, int]        # N/H index -> i with x^a = x^i
    twisting: dict[tuple[int, int], int]  # (a, b) -> j with a'b' = x^j (ab)'
    gen_action_exp: Optional[int]  # cyclic N/H: generator acts x -> x^r
    gen_twist_exp: Optional[int]   # cyclic N/H: c^|N/H| = x^w
    dim_over_Q: int
    center_rank: int
    degree: int                   # d with dim = center_rank * d^2
    kind: str = UNKNOWN
    shape: str = ""
    trace: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "matrix_size_n": self.matrix_size_n,
            "cyclotomic_order_h": self.cyclotomic_order_h,
            "nh_order": self.nh_order,
            "nh_cyclic": self.nh_cyclic,
            "action": {str(k): v for k, v in sorted(self.action.items())},
            "twisting": {f"{a},{b}": j for (a, b), j in sorted(self.twisting.items())},
            "gen_action_exp": self.gen_action_exp,
            "gen_twist_exp": self.gen_twist_exp,
            "dim_over_Q": self.dim_over_Q,
            "center_rank": self.center_rank,
            "degree": self.degree,
            "kind": self.kind,
            "shape": self.shape,
            "trace": self.trace,
        }


def describe_component(G: FiniteGroup, H: Subgroup, K: Subgroup,
                       e: Optional[AlgElem] = None) -> ComponentDescriptor:
    """Crossed-product data for the component of a strong Shoda pair."""
    if not is_strong_shoda_pair(G, H, K):
        raise NotStrongShodaPair(f"({H!r}, {K!r}) is not a strong Shoda pair")
    if e is None:
        e = e_idem(G, H, K)
    # a strong Shoda pair has N_G(K) = Cen_G(epsilon(H, K))
    _, N = _epsilon_centralizer(G, H, K)
    n = G.order // N.order
    h = H.order // K.order
    x = section_generator(H, K)
    dlog = section_exponents(H, K)  # k for g in x^k K
    # the cosets gH in N, numbered by their least element, which is also
    # their representative: reps[a] and coset[g] for g in N
    coset, reps = cosets(H, within=N, left=True)
    nh = len(reps)
    action = {a: dlog[G.conj(x, t)] for a, t in enumerate(reps)}
    twisting: dict[tuple[int, int], int] = {}
    for a, ta in enumerate(reps):
        for b, tb in enumerate(reps):
            tab = G.table[ta][tb]
            twisting[(a, b)] = dlog[G.table[tab][G.inverse[reps[coset[tab]]]]]

    gen_action = gen_twist = None
    # H is normal in N: c is the least element of the first coset cH that
    # generates N/H
    c = section_generator(N, H)
    nh_cyclic = c is not None
    if nh_cyclic:
        gen_action = dlog[G.conj(x, c)]
        gen_twist = dlog[G.power(c, nh)]

    dim = component_dimension(G, e)
    rank = center_rank(G, e)
    d2, rem = divmod(dim, rank)
    deg = math.isqrt(d2)
    if rem or deg * deg != d2:
        raise NonIntegerDimension(
            f"dim {dim} is not center_rank {rank} times a square")
    # dim Q[G]e = n^2 * dim(crossed product) = n^2 * |N/H| * phi(h)
    if dim != n * n * nh * euler_phi(h):
        raise SoundnessError(
            "crossed-product data inconsistent with the idempotent's dimension")
    return ComponentDescriptor(
        group=G, H=H, K=K, e=e, matrix_size_n=n, cyclotomic_order_h=h,
        nh_order=nh, nh_cyclic=nh_cyclic, action=action, twisting=twisting,
        gen_action_exp=gen_action, gen_twist_exp=gen_twist,
        dim_over_Q=dim, center_rank=rank, degree=deg)


# ---------------------------------------------------------------------------
# Amitsur's criterion for cyclic algebras (Q(zeta_m), sigma_r, zeta_s)


@dataclass
class AmitsurResult:
    m: int
    r: int
    s: int
    t: int
    n: int
    division: bool
    conditions: dict = field(default_factory=dict)
    primes: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "m": self.m, "r": self.r, "s": self.s, "t": self.t, "n": self.n,
            "division": self.division, "conditions": self.conditions,
            "primes": {str(p): v for p, v in self.primes.items()},
            "diagnostics": self.diagnostics,
        }


def amitsur_division(m: int, r: int) -> AmitsurResult:
    """Decide whether (Q(zeta_m), sigma_r, zeta_s) with s = gcd(r-1, m),
    t = m/s, n = ord_m(r) is a division algebra, with a full audit trace."""
    if m < 1:
        raise ValueError("m must be positive")
    r %= m if m > 1 else 1
    if math.gcd(m, r) != 1:
        raise NotCoprime(f"gcd({m},{r}) != 1")
    if m == 1:
        return AmitsurResult(1, 0, 1, 1, 1, True,
                             conditions={"commutative": True})
    s = math.gcd(r - 1, m)
    t = m // s
    n = ord_mod(m, r)
    res = AmitsurResult(m, r, s, t, n, False)
    if n == 1:
        res.division = True
        res.conditions["commutative"] = True
        return res

    c3 = math.gcd(n, t) == 1 and math.gcd(s, t) == 1
    res.conditions["3C"] = c3
    c3d = False
    if n % 2 == 0 and s % 2 == 0 and m % 2 == 0:
        alpha = padic_valuation(2, m)
        m_odd = m >> alpha
        n_half, s_half = n // 2, s // 2
        c3d = (alpha >= 2 and m_odd % 2 == 1 and n_half % 2 == 1
               and s_half % 2 == 1 and math.gcd(n, t) == 2
               and math.gcd(s, t) == 2 and (r + 1) % (1 << alpha) == 0)
    res.conditions["3D"] = c3d
    if not (c3 or c3d):
        return res

    cond1 = n == 2 and s == 2 and (r + 1) % m == 0
    res.conditions["case1"] = cond1
    if cond1:
        res.division = True
        return res

    # case 2: for every prime q | n find a prime p | m with q not dividing
    # n_p and (2a) or (2b)
    ok_all = True
    for q in prime_factors(n):
        found = False
        for p in prime_factors(m):
            alpha_p = padic_valuation(p, m)
            M = m // p ** alpha_p
            n_p = ord_mod(M, r)
            if n_p % q == 0:
                continue
            delta_p = ord_mod(M, p)
            ppow = {}
            x = 1 % M if M > 1 else 0
            for mu2 in range(delta_p):
                ppow.setdefault(x, mu2)
                x = x * p % M if M > 1 else 0
            mu_p = None
            y = 1 % M if M > 1 else 0
            for mu in range(1, n_p * delta_p + 1):
                y = y * (r % M) % M if M > 1 else 0
                if y in ppow:
                    mu_p = mu
                    break
            if mu_p is None:
                res.diagnostics.append(
                    f"no (mu, mu') found for p={p}; treating as failure")
                continue
            num = mu_p * delta_p
            if num % n_p:
                res.diagnostics.append(
                    f"n_p={n_p} does not divide mu_p*delta_p={num} for p={p}")
                continue
            delta_prime = num // n_p
            trace = {"alpha_p": alpha_p, "n_p": n_p, "delta_p": delta_p,
                     "mu_p": mu_p, "delta_prime": delta_prime}
            res.primes[p] = trace
            if p != 2:
                val = p ** delta_prime - 1
                if val % s:
                    res.diagnostics.append(
                        f"s={s} does not divide p^delta'-1={val} for p={p}")
                    trace["2a"] = False
                else:
                    trace["2a"] = math.gcd(q, val // s) == 1
                if trace["2a"]:
                    found = True
                    break
            else:
                cond2b = (q == 2 and c3d and m % 4 == 0
                          and (m // 4) % 2 == 1 and delta_prime % 2 == 1)
                trace["2b"] = cond2b
                if cond2b:
                    found = True
                    break
        if not found:
            ok_all = False
            break
    res.conditions["case2"] = ok_all
    res.division = ok_all
    return res


# ---------------------------------------------------------------------------
# classification


def _fixed_field_degree(h: int, action_exps: list[int]) -> int:
    """Degree over Q of the fixed field of the given Galois exponents in
    the h-th cyclotomic field."""
    group = {1 % h if h > 1 else 0}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for a in action_exps:
            y = x * a % h if h > 1 else 0
            if y not in group:
                group.add(y)
                frontier.append(y)
    return euler_phi(h) // len(group)


def _split_component(desc: ComponentDescriptor, branch: str) -> str:
    """Fill desc as M_size(F), size = n * |N/H| and F the fixed field of
    the action: the component when the twisting is trivial, or becomes
    trivial after a change of coset representatives."""
    size = desc.matrix_size_n * desc.nh_order
    fdeg = _fixed_field_degree(desc.cyclotomic_order_h, list(desc.action.values()))
    if desc.degree != size or desc.center_rank != fdeg:
        raise SoundnessError(
            "pair data inconsistent with the idempotent's dimension data")
    desc.kind = MATRIX if size > 1 else COMMUTATIVE
    desc.shape = f"M_{size}(field of degree {fdeg} over Q)"
    desc.trace["branch"] = branch
    return desc.kind


def classify_component(desc: ComponentDescriptor) -> str:
    """Decide Commutative / Matrix / DivisionNoncommutative / Unknown and
    fill desc.kind, desc.shape, desc.trace."""
    G = desc.group
    h = desc.cyclotomic_order_h
    full = (1 << G.order) - 1
    if desc.H.mask == full:
        desc.kind = COMMUTATIVE
        desc.shape = f"field of degree {desc.dim_over_Q} over Q"
        desc.trace["branch"] = "H=G"
        return desc.kind

    trivial_twist = all(j % h == 0 for j in desc.twisting.values()) if h > 1 \
        else True
    if trivial_twist:
        return _split_component(desc, "trivial-twisting")

    if desc.nh_cyclic and desc.gen_twist_exp is not None:
        r = desc.gen_action_exp % h
        w = desc.gen_twist_exp % h
        s = math.gcd(r - 1, h)
        # changing the preimage c -> x^k c shifts the twist exponent by
        # k * (1 + r + ... + r^(nh-1)); the twist class lives modulo that
        trace_exp = 0
        acc = 1 % h
        for _ in range(desc.nh_order):
            trace_exp = (trace_exp + acc) % h
            acc = acc * r % h
        g = math.gcd(trace_exp, h)  # gcd(0, h) = h: no coboundary freedom
        reachable = sorted({(w + k * trace_exp) % h
                            for k in range(h // g if trace_exp else 1)})
        desc.trace["branch"] = "cyclic-amitsur"
        desc.trace["r"] = r
        desc.trace["w"] = w
        desc.trace["s"] = s
        desc.trace["twist_coboundary_step"] = trace_exp
        desc.trace["reachable_twists"] = reachable

        if 0 in reachable:
            return _split_component(desc, "trivial-twisting-coboundary")

        if desc.degree != desc.matrix_size_n * desc.nh_order:
            raise SoundnessError(
                "pair data inconsistent with the idempotent's dimension data")
        amitsur_twist = next(
            (w2 for w2 in reachable if h // math.gcd(h, w2) == s), None)
        if amitsur_twist is not None:
            desc.trace["amitsur_twist"] = amitsur_twist
            res = amitsur_division(h, r)
            desc.trace["amitsur"] = res.to_dict()
            if res.division:
                if desc.matrix_size_n == 1:
                    desc.kind = DIVISION
                    desc.shape = (f"division algebra of degree {desc.nh_order} "
                                  f"over its center")
                else:
                    desc.kind = MATRIX
                    desc.shape = (f"M_{desc.matrix_size_n}(division algebra of "
                                  f"degree {desc.nh_order})")
            else:
                desc.kind = MATRIX
                desc.shape = f"matrix algebra of degree {desc.degree} over its center"
            return desc.kind

    desc.kind = UNKNOWN
    desc.trace["branch"] = "unresolved"
    return desc.kind


# ---------------------------------------------------------------------------
# nilpotent certificates


def nilpotent_probe(G: FiniteGroup, e: AlgElem, budget: int = 2000,
                    seed: int = 0) -> Optional[AlgElem]:
    """Search for a nonzero nilpotent element of Q[G]e; finding one proves
    the component contains a proper matrix part.

    Candidates are the square-zero elements (1-y) g hat(Y) and
    hat(Y) g (1-y) projected by e, then seeded pseudorandom integral
    elements projected by e and made traceless."""
    if not e.is_central():
        raise NotCentralIdempotent("the nilpotent probe needs a central idempotent")
    spent = 0
    for Y in subgroups(G)[1:-1]:
        found, spent = SquareZeroFamily(Y, [e], residues=False).scan(spent, budget)
        if found is not None:
            return found[0] * e
        if spent >= budget:
            return None
    rng = random.Random(seed)
    e1 = e.coeff(0)
    while spent < budget:
        nums = [rng.randrange(-2, 3) for _ in range(G.order)]
        beta = AlgElem(G, nums, 1) * e
        if e1 != 0:
            beta = beta - (beta.coeff(0) / e1) * e
        spent += 1
        if not beta.is_zero() and beta.is_nilpotent():
            return beta
    return None


# ---------------------------------------------------------------------------
# matrix component counting


def a5_shoda_idempotent(G: FiniteGroup) -> tuple[Subgroup, Subgroup, AlgElem, AlgElem]:
    """(A4, K, epsilon, e) inside a group built as the standard A5, with
    K = V4: epsilon = epsilon(A4, K) = tilde(K) - tilde(A4) and
    e = e(G, A4, K) / 2, half the sum of its five conjugates."""
    b = G.element("(1,2)(3,4)")
    A4 = subgroup_generated(G, (G.element("(1,2,3)"), b))
    K = subgroup_generated(G, (b, G.element("(1,3)(2,4)")))
    e = Fraction(1, 2) * e_idem(G, A4, K)
    if not e.is_central_idempotent():
        raise SoundnessError("the A5 Shoda-pair element is not a central idempotent")
    return A4, K, epsilon(A4, K), e


def a5_special_pci(G: FiniteGroup):
    """If G is isomorphic to the standard A5, return its documented
    Shoda-pair idempotent, carried to G, as a matrix component certified
    by the nilpotent probe; else None."""
    if G.order != 60:
        return None
    ref = build_named("A5")
    iso = find_isomorphism(ref, G)
    if iso is None:
        return None
    A4, K, eps, e = a5_shoda_idempotent(ref)
    A4, K = (subgroup_generated(G, [iso[g] for g in S.gens]) for S in (A4, K))
    eps, e = carry(eps, iso, G), carry(e, iso, G)
    sp = ShodaPair(A4, K, eps, e, "plain-shoda")
    dim = component_dimension(G, e)
    rank = center_rank(G, e)
    deg = math.isqrt(dim // rank)
    if nilpotent_probe(G, e) is None:
        raise SoundnessError("the nilpotent probe certifies no A5 matrix component")
    desc = ComponentDescriptor(
        group=G, H=A4, K=K, e=e, matrix_size_n=5, cyclotomic_order_h=3,
        nh_order=1, nh_cyclic=True, action={}, twisting={},
        gen_action_exp=None, gen_twist_exp=None,
        dim_over_Q=dim, center_rank=rank, degree=deg,
        kind=MATRIX, shape=f"M_{deg}(Q)",
        trace={"branch": "nilpotent-certificate", "pair": "plain Shoda"})
    return sp, desc


@dataclass(frozen=True)
class MatrixCount:
    lo: int
    hi: Optional[int]  # None = unbounded above

    @property
    def exact(self) -> Optional[int]:
        return self.lo if self.lo == self.hi else None

    def to_json(self):
        return self.lo if self.lo == self.hi else [self.lo, self.hi]

    def __str__(self) -> str:
        return str(self.lo) if self.lo == self.hi else f"[{self.lo},{self.hi}]"


def count_matrix_components(
        G: FiniteGroup, seed: int = 0,
) -> tuple[MatrixCount, list[tuple[ShodaPair, ComponentDescriptor]]]:
    """Classify every primitive central idempotent of a metabelian group
    (A5 is special-cased to its one documented idempotent) and count the
    components of reduced degree > 1. Unknown verdicts widen the count to
    an interval."""
    special = a5_special_pci(G)
    if special is not None:
        sp, desc = special
        return MatrixCount(1, None), [(sp, desc)]

    pcis = metabelian_pcis(G)
    out = []
    lo = 0
    unknown = 0
    for sp in pcis:
        desc = describe_component(G, sp.H, sp.K, e=sp.e)
        kind = classify_component(desc)
        if kind == UNKNOWN:
            wit = nilpotent_probe(G, sp.e, seed=seed)
            if wit is not None:
                desc.kind = MATRIX
                desc.shape = (f"not a division ring (nilpotent certificate), "
                              f"degree {desc.degree} over its center")
                desc.trace["branch"] = "nilpotent-certificate"
                kind = MATRIX
        if kind == MATRIX and desc.degree > 1:
            lo += 1
        elif kind == MATRIX and desc.degree == 1:
            # a classified Matrix must have degree > 1; degree 1 would be a bug
            raise SoundnessError("Matrix verdict with degree 1")
        elif kind == UNKNOWN:
            unknown += 1
        out.append((sp, desc))
    return MatrixCount(lo, lo + unknown), out


# ---------------------------------------------------------------------------
# family predictions (classification theorems)


@dataclass
class Prediction:
    family: str
    params: dict
    one_matrix: bool
    component: Optional[str]
    nd: str  # "HasND" | "NotND" | "Open"
    detail: dict = field(default_factory=dict)


# the single groups of the NCN classification: (one matrix component,
# that component, ND verdict)
_NCN_SINGLE = {
    "BJ4": (False, None, "NotND"),
    "BJ5": (False, None, "NotND"),
    "BJ6": (True, "M_2(Q)", "HasND"),
    "BJ7": (True, "M_2(H(Q))", "HasND"),
    "BJ8": (False, None, "NotND"),
    "BJ9": (False, None, "NotND"),
}


def predict_nilpotent(params: dict) -> Prediction:
    """One-matrix / ND prediction for the nilpotent (p-group or Hamiltonian)
    families of the classification."""
    fam = params.get("family")
    if fam == "BJ1":
        p, m, n = params["p"], params["m"], params["n"]
        if not (is_prime(p) and m >= 2 and n >= 1):
            raise InconsistentFamilyParams("BJ1 needs p prime, m >= 2, n >= 1")
        one = n == 1 or (p, m, n) == (2, 2, 2)
        comp = f"M_{p}(Q(zeta_{p**(m-1)}))" if one else None
        if one:
            nd = "HasND"
        elif p == 2 and ((m == 2 and n >= 4) or (m == 3 and n >= 2)):
            nd = "NotND"
        else:
            nd = "Open"
        return Prediction("BJ1", params, one, comp, nd)
    if fam == "BJ2":
        p, z = params["p"], params["z_order"]
        fac = prime_factors(z)
        if not (is_prime(p) and list(fac) == [p] and (p != 2 or z > 2)):
            raise InconsistentFamilyParams("BJ2 needs |Z| a power of p (> 2 if p = 2)")
        return Prediction("BJ2", params, True, f"M_{p}(Q(zeta_{z}))", "HasND")
    if fam == "BJ3":
        n = params["n"]
        if n < 2:
            raise InconsistentFamilyParams("BJ3 needs cyclic factor of order > 2")
        one = n == 2
        return Prediction("BJ3", params, one,
                          "M_2(Q(zeta_4))" if one else None,
                          "HasND" if one else "NotND")
    if fam in _NCN_SINGLE:
        return Prediction(fam, params, *_NCN_SINGLE[fam])
    if fam == "Hamiltonian":
        e_rank = params.get("e_rank", 0)
        invs = list(params.get("odd_invariants", []))
        if any(len(prime_factors(q)) != 1 or q % 2 == 0 for q in invs):
            raise InconsistentFamilyParams("odd_invariants must be odd prime powers")
        # Q8 x C2^e x A has 2^e matrix components per cyclic subgroup of A
        # of an order d > 1 with ord_d(2) even: (elements of order d) / phi(d)
        orders = Counter(math.lcm(*(q // math.gcd(a, q) for a, q in zip(t, invs)))
                         for t in itertools.product(*map(range, invs)))
        matrix_positions = [d for d in sorted(orders)
                            if d > 1 and ord_mod(d, 2) % 2 == 0]
        count = 2 ** e_rank * sum(orders[d] // euler_phi(d) for d in matrix_positions)
        one = count == 1
        comp = f"M_2(Q(zeta_{matrix_positions[0]}))" if one else None
        nd = "HasND" if count <= 1 else "NotND"
        return Prediction("Hamiltonian", params, one, comp, nd,
                          detail={"matrix_component_count": count})
    raise UnknownFamily(f"unknown nilpotent family {fam!r}")


def nonfaithful_division_by_valuation(p: int, q: int, k0: int, j: int) -> bool:
    """Is the level-j component of C_p : C_{q^k} (kernel level k0) a division
    ring? Valuation route: n = s = 2 is division; otherwise
    v_q(p^(ord_{q^(j-k0)}(p)) - 1) must equal j - k0."""
    n = q ** k0
    s = q ** (j - k0)
    if n == 2 and s == 2:
        return True
    d = ord_mod(q ** (j - k0), p)
    return padic_valuation(q, p ** d - 1) == j - k0


def nonfaithful_amitsur_params(p: int, q: int, k0: int, j: int,
                               r0: int) -> tuple[int, int]:
    """(m, r) of the cyclic algebra at level j: m = p*q^(j-k0) and
    r = r0 (mod p), r = 1 (mod q^(j-k0)), least positive."""
    m = p * q ** (j - k0)
    r = crt([r0 % p, 1], [p, q ** (j - k0)])
    return m, r


def predict_nonnilpotent(params: dict) -> Prediction:
    """One-matrix prediction for the non-nilpotent solvable families."""
    fam = params.get("family")
    if fam == "faithful":
        p, n, qn = params["p"], params["n"], params["q"]
        if not is_prime(p) or n < 1 or qn < 2:
            raise InconsistentFamilyParams("faithful family needs p prime, n >= 1, |Q| >= 2")
        if n == 1:
            if (p - 1) % qn:
                raise InconsistentFamilyParams(f"|Q|={qn} does not divide p-1={p-1}")
            comp = (f"M_{qn}(fixed field of degree {(p - 1) // qn} "
                    f"in Q(zeta_{p}))")
            return Prediction("faithful", params, True, comp, "HasND",
                              detail={"v": None})
        rem = (p ** n - 1) % ((p - 1) * qn)
        if rem:
            raise InconsistentFamilyParams(
                f"|Q|={qn} incompatible: (p^n-1)/(p-1) not divisible by |Q|")
        v = (p ** n - 1) // ((p - 1) * qn)
        one = v == 1
        comp = f"M_{qn}(Q(zeta_{p}))" if one else None
        return Prediction("faithful", params, one, comp,
                          "HasND" if one else "NotND", detail={"v": v})
    if fam == "nonfaithful":
        p, q, k = params["p"], params["q"], params["k"]
        k0 = params.get("k0", 1)
        if not (is_prime(p) and is_prime(q) and p != q and k >= 2
                and 1 <= k0 < k):
            raise InconsistentFamilyParams("nonfaithful family needs distinct primes, k >= 2, 1 <= k0 < k")
        if (p - 1) % q ** k0:
            raise InconsistentFamilyParams(f"q^k0={q**k0} does not divide p-1")
        r0 = params.get("r0") or element_of_order(p, q ** k0)
        if r0 is None or ord_mod(p, r0) != q ** k0:
            raise InconsistentFamilyParams(f"r0 must have order q^k0={q**k0} mod p")
        per_j = {}
        per_j_amitsur = {}
        for j in range(k0 + 1, k + 1):
            per_j[j] = nonfaithful_division_by_valuation(p, q, k0, j)
            m, r = nonfaithful_amitsur_params(p, q, k0, j, r0)
            per_j_amitsur[j] = amitsur_division(m, r).division
        one = all(per_j.values())
        closed_form = (k0 == 1 and (
            (q != 2 and padic_valuation(q, p - 1) == 1)
            or (q == 2 and (k == 2 or p % 8 == 5))))
        comp = None
        if one:
            comp = (f"M_{q ** k0}(fixed field of sigma: zeta_p -> zeta_p^{r0} "
                    f"in Q(zeta_{p}))")
        if one:
            nd = "HasND"
        elif q == 2 and k >= 3 and p % 4 == 3:
            nd = "NotND"
        else:
            nd = "Open"
        return Prediction("nonfaithful", params | {"r0": r0}, one, comp, nd,
                          detail={"per_j_division": per_j,
                                  "per_j_division_amitsur": per_j_amitsur,
                                  "closed_form_one_matrix": closed_form})
    raise UnknownFamily(f"unknown non-nilpotent family {fam!r}")
