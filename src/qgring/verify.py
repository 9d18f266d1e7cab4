"""Cross-checks of the two classification theorems and the worked examples.

Every check is a Row with a category (for filtering), a pass/fail flag and
a human-readable detail string. Exact rational arithmetic means zero
tolerance: every comparison is equality of integers, fractions, or exact
idempotents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebra import AlgElem
from .catalog import bj1_group, bj2_group, build_named, build_spec
from .components import (
    MATRIX,
    amitsur_division,
    center_rank,
    component_dimension,
    count_matrix_components,
    nonfaithful_division_by_valuation,
    nonfaithful_amitsur_params,
    predict_nilpotent,
    predict_nonnilpotent,
)
from .groups import (
    all_maximal_abelian_over,
    derived_subgroup,
    dihedral,
    normal_subgroups,
    normalizer,
    order_q_matrix,
    quaternion,
    quotient,
    semidirect_vector,
)
from .numutil import element_of_order, is_prime, ord_mod, padic_valuation
from .props import (
    classify_ssn,
    curated_witness,
    is_ncn,
    is_sn,
    is_ssn,
    nd_verdict,
    verify_witness,
)
from .shoda import e_idem, metabelian_pcis, pci_sanity

CATEGORIES = ("decompositions", "witnesses", "snssn", "amitsur", "nilpotent",
              "nonnilpotent", "properties", "sentinel")


@dataclass
class Row:
    category: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.category:<15} {self.name}: {self.detail}"


def _check(rows: list[Row], category: str, name: str, cond: bool, detail: str):
    rows.append(Row(category, name, bool(cond), detail))


# ---------------------------------------------------------------------------
# 1. decomposition shapes


def rows_decompositions() -> list[Row]:
    rows: list[Row] = []

    G = build_named("A4")
    cnt, comps = count_matrix_components(G)
    dims = sorted(d.dim_over_Q for _, d in comps)
    _check(rows, "decompositions", "Q[A4]",
           dims == [1, 2, 9] and cnt.exact == 1,
           f"dims={dims} matrix_count={cnt}")

    G = build_named("C5rC4")
    cnt, comps = count_matrix_components(G)
    dims = sorted(d.dim_over_Q for _, d in comps)
    _check(rows, "decompositions", "Q[C5:C4]",
           dims == [1, 1, 2, 16] and cnt.exact == 1,
           f"dims={dims} matrix_count={cnt}")

    G = build_named("C3C3rC8")
    cnt, comps = count_matrix_components(G)
    comm = sum(d.dim_over_Q for _, d in comps if d.kind == "Commutative")
    big = [d for _, d in comps if d.dim_over_Q == 64]
    ok = (comm == 8 and len(big) == 1 and big[0].kind == MATRIX
          and big[0].trace.get("branch") == "trivial-twisting"
          and cnt.exact == 1)
    _check(rows, "decompositions", "Q[(C3xC3):C8]",
           ok, f"comm_dim={comm} big={[(d.dim_over_Q, d.kind, d.trace.get('branch')) for d in big]}")

    # Paper display: 2(4Q + H_Q) + 4Q(i) + M_2(Q(i)); the matrix component
    # M_2(Q(i)) has Q-dimension 8 and center rank 2.
    G = build_named("Q8xC4")
    cnt, comps = count_matrix_components(G)
    mats = [d for _, d in comps if d.kind == MATRIX]
    ok = (cnt.exact == 1 and len(mats) == 1 and mats[0].dim_over_Q == 8
          and mats[0].center_rank == 2)
    _check(rows, "decompositions", "Q[Q8xC4]",
           ok, f"matrix_count={cnt} matrix_dim={[(d.dim_over_Q, d.center_rank) for d in mats]}")

    G = build_named("D8cpD8")
    cnt, comps = count_matrix_components(G)
    dims = sorted(d.dim_over_Q for _, d in comps)
    ok = (len(comps) == 17 and dims == [1] * 16 + [16] and cnt.exact == 1)
    _check(rows, "decompositions", "Q[D8~D8]",
           ok, f"pcis={len(comps)} dims={dims} matrix_count={cnt}")
    return rows


# ---------------------------------------------------------------------------
# 2. curated witnesses


def rows_witnesses() -> list[Row]:
    rows: list[Row] = []
    for name, kwargs in [("D12", {}), ("Ex3.8", {}), ("BJ3", {"n": 3}),
                         ("BJ9", {}), ("A5", {})]:
        w = curated_witness(name, **kwargs)
        checks = verify_witness(w)
        detail = " ".join(f"{k}={v}" for k, v in checks.items())
        extra_ok = True
        if name == "A5":
            b = w.group.element("(1,2)(3,4)")
            c = (w.alpha * w.e).coeff(b)
            extra_ok = c == Fraction(1, 2)
            detail += f" coeff[(1,2)(3,4)]={c}"
        _check(rows, "witnesses", f"witness {name}",
               all(checks.values()) and extra_ok, detail)
    return rows


# ---------------------------------------------------------------------------
# 3. SN/SSN oracle equivalence


SNSSN_CATALOG = [
    # (name, expected_sn, expected_ssn)
    ("S3", True, True),
    ("D8", True, True),
    ("Q8", True, True),
    ("D10", True, True),
    ("Q12", True, True),
    ("A4", True, True),
    ("D12", False, False),
    ("D14", True, True),
    ("Q16", True, True),
    ("C2xD8", False, False),
    ("D8cpD8", True, False),
    ("D8cpQ8", True, True),
    ("Q8xC4", True, True),
    ("Q8xC8", True, True),
    ("BJ5", True, True),
    ("BJ8", True, True),
    ("BJ9", True, True),
    ("BJ4", True, True),
    ("C3rC8", True, True),
    ("C5rC4", True, True),
    ("C11rC5", True, True),
    ("C3C3rC8", True, False),
    ("Ex38K", True, False),
    # the non-SN subgroup <a,b,c^4> of (C3xC3):C8 (order 18)
    ("Ex37G1", False, False),
    ("Heis27", True, True),
    ("C9rC3", True, True),
    ("A5", True, True),
]


def rows_snssn() -> list[Row]:
    rows: list[Row] = []
    for name, exp_sn, exp_ssn in SNSSN_CATALOG:
        G = build_named(name)
        sn = is_sn(G)
        ssn = is_ssn(G)
        cls = classify_ssn(G)
        ok = sn == exp_sn and ssn == exp_ssn and cls.ssn == ssn
        _check(rows, "snssn", f"SN/SSN {name}", ok,
               f"sn={sn} ssn={ssn} class={cls.tag} expected sn={exp_sn} ssn={exp_ssn}")
    # order-24 overgroups of D12 are not SN (so SN groups of order 24 are SSN)
    bad24 = [spec for spec in ["D(24)", "X(C(4),D(6))", "X(EA(2,2),D(6))"]
             if is_sn(build_spec(spec))]
    _check(rows, "snssn", "order-24 groups containing D12 are not SN",
           not bad24, f"unexpected SN: {bad24}")
    return rows


# ---------------------------------------------------------------------------
# 4. Amitsur criterion


def rows_amitsur() -> list[Row]:
    rows: list[Row] = []
    for m, r, expect in [(21, 16, True), (6, 5, True), (12, 5, False)]:
        res = amitsur_division(m, r)
        _check(rows, "amitsur", f"Amitsur({m},{r})", res.division == expect,
               f"division={res.division} s={res.s} t={res.t} n={res.n} expected={expect}")

    # valuation route vs Amitsur route on the non-faithful family
    mismatches = []
    total = 0
    for p in [x for x in range(3, 50) if is_prime(x)]:
        for q in (2, 3, 5, 7):
            if p == q:
                continue
            for k in range(2, 5):
                for k0 in range(1, k):
                    if (p - 1) % q ** k0:
                        continue
                    r0 = element_of_order(p, q ** k0)
                    if r0 is None:
                        continue
                    for j in range(k0 + 1, k + 1):
                        total += 1
                        via_val = nonfaithful_division_by_valuation(p, q, k0, j)
                        m, r = nonfaithful_amitsur_params(p, q, k0, j, r0)
                        via_ami = amitsur_division(m, r).division
                        if via_val != via_ami:
                            mismatches.append((p, q, k0, j, via_val, via_ami))
    _check(rows, "amitsur", "valuation route == Amitsur route",
           not mismatches,
           f"{total} instances (p<50, q<10, k<=4), mismatches={mismatches[:5]}")
    return rows


# ---------------------------------------------------------------------------
# 5. Theorem A (nilpotent families)


def _bj1_instances(limit: int = 200):
    out = []
    for p in (2, 3, 5, 7):
        for m in range(2, 8):
            for n in range(1, 8):
                if p ** (m + n) <= limit:
                    out.append((p, m, n))
    return sorted(out)


def rows_nilpotent() -> list[Row]:
    rows: list[Row] = []
    for p, m, n in _bj1_instances():
        G = bj1_group(p, m, n)
        cnt, _ = count_matrix_components(G)
        pred = predict_nilpotent({"family": "BJ1", "p": p, "m": m, "n": n})
        expected_one = n == 1 or (p, m, n) == (2, 2, 2)
        ok = (cnt.exact is not None and pred.one_matrix == (cnt.exact == 1)
              and pred.one_matrix == expected_one)
        _check(rows, "nilpotent", f"BJ1({p},{m},{n})", ok,
               f"count={cnt} predicted_one={pred.one_matrix}")

    bj2_instances = []
    for p, builders in [(2, [("D8", dihedral(8)), ("Q8", quaternion(8))]),
                        (3, [("Heis27", build_named("Heis27")),
                             ("C9rC3", build_named("C9rC3"))]),
                        (5, [("Heis125", semidirect_vector(
                                  5, 2, [[1, 1], [0, 1]], 5)),
                             ("C25rC5", bj1_group(5, 2, 1))])]:
        zo = p
        while p ** 2 * zo <= 200:
            if not (p == 2 and zo <= 2):
                for label, g0 in builders:
                    bj2_instances.append((p, zo, label, g0))
            zo *= p
    for p, zo, label, g0 in bj2_instances:
        G = bj2_group(g0, zo)
        cnt, comps = count_matrix_components(G)
        pred = predict_nilpotent({"family": "BJ2", "p": p, "z_order": zo})
        mats = [d for _, d in comps if d.kind == MATRIX]
        phi = zo - zo // p
        shape_ok = (len(mats) == 1 and mats[0].dim_over_Q == p * p * phi
                    and mats[0].center_rank == phi)
        ok = cnt.exact == 1 and pred.one_matrix and shape_ok
        _check(rows, "nilpotent", f"BJ2({label},|Z|={zo})", ok,
               f"count={cnt} matrix_dims={[(d.dim_over_Q, d.center_rank) for d in mats]}"
               f" expected M_{p}(Q(zeta_{zo}))")

    for n in (2, 3):
        G = build_spec(f"X(Q(8),C({2 ** n}))")
        cnt, _ = count_matrix_components(G)
        pred = predict_nilpotent({"family": "BJ3", "n": n})
        ok = cnt.exact is not None and pred.one_matrix == (cnt.exact == 1) \
            and pred.one_matrix == (n == 2)
        _check(rows, "nilpotent", f"BJ3(n={n})", ok,
               f"count={cnt} predicted_one={pred.one_matrix}")

    for name, fam, expected_one in [("BJ4", "BJ4", False), ("BJ5", "BJ5", False),
                                    ("Q16", "BJ6", True), ("D8cpQ8", "BJ7", True),
                                    ("BJ8", "BJ8", False), ("BJ9", "BJ9", False)]:
        G = build_named(name)
        cnt, _ = count_matrix_components(G)
        pred = predict_nilpotent({"family": fam})
        ok = cnt.exact is not None and pred.one_matrix == (cnt.exact == 1) \
            and pred.one_matrix == expected_one
        _check(rows, "nilpotent", f"{fam} ({name})", ok,
               f"count={cnt} predicted_one={pred.one_matrix}")

    # Hamiltonian instances (= Q8 x E x A)
    for spec, e_rank, invs in [("X(Q(8),C(3))", 0, [3]),
                               ("X(Q(8),C(5))", 0, [5]),
                               ("X(Q(8),C(7))", 0, [7]),
                               ("X(Q(8),C(9))", 0, [9]),
                               ("X(X(Q(8),C(2)),C(3))", 1, [3]),
                               ("X(Q(8),C(15))", 0, [3, 5]),
                               ("X(X(Q(8),C(3)),C(3))", 0, [3, 3]),
                               ("X(X(Q(8),C(5)),C(5))", 0, [5, 5])]:
        G = build_spec(spec)
        cnt, _ = count_matrix_components(G)
        pred = predict_nilpotent({"family": "Hamiltonian", "e_rank": e_rank,
                                  "odd_invariants": invs})
        ok = (cnt.exact is not None
              and cnt.exact == pred.detail["matrix_component_count"]
              and pred.one_matrix == (cnt.exact == 1))
        _check(rows, "nilpotent", f"Hamiltonian {spec}", ok,
               f"count={cnt} predicted_count={pred.detail['matrix_component_count']}")
    return rows


# ---------------------------------------------------------------------------
# 6. Theorem B (non-nilpotent families)


def rows_nonnilpotent() -> list[Row]:
    rows: list[Row] = []
    # faithful, cyclic P (always one matrix component)
    for p, q in [(5, 4), (7, 3), (7, 6), (11, 5), (13, 3), (13, 4), (13, 12)]:
        G = build_spec(f"SdCyc({p},{q},{element_of_order(p, q)})")
        cnt, comps = count_matrix_components(G)
        pred = predict_nonnilpotent({"family": "faithful", "p": p, "n": 1, "q": q})
        mats = [d for _, d in comps if d.kind == MATRIX]
        shape_ok = len(mats) == 1 and mats[0].dim_over_Q == q * (p - 1) \
            and mats[0].center_rank == (p - 1) // q
        ok = cnt.exact == 1 and pred.one_matrix and shape_ok
        _check(rows, "nonnilpotent", f"faithful C{p}:C{q}", ok,
               f"count={cnt} matrix=(dim {mats[0].dim_over_Q}, rank {mats[0].center_rank})"
               if mats else f"count={cnt} no matrix component")

    # faithful, elementary abelian P of rank >= 2
    for p, n, q in [(2, 2, 3), (2, 3, 7), (2, 4, 5), (5, 2, 3)]:
        M = order_q_matrix(p, n, q)
        G = semidirect_vector(p, n, M, q)
        cnt, comps = count_matrix_components(G)
        v = (p ** n - 1) // ((p - 1) * q)
        pred = predict_nonnilpotent({"family": "faithful", "p": p, "n": n, "q": q})
        mats = [d for _, d in comps if d.kind == MATRIX]
        shape_ok = all(d.dim_over_Q == q * q * (p - 1) and
                       d.center_rank == p - 1 for d in mats)
        ok = (cnt.exact == v == pred.detail["v"]
              and pred.one_matrix == (v == 1) and shape_ok and is_ssn(G))
        _check(rows, "nonnilpotent", f"faithful C{p}^{n}:C{q}", ok,
               f"count={cnt} v={v} ssn={is_ssn(G)}")

    # non-faithful C_p : C_{q^k}
    mism = []
    checked = 0
    for p in [x for x in range(3, 48) if is_prime(x)]:
        for q in (2, 3, 5):
            if p == q:
                continue
            for k in range(2, 7):
                if p * q ** k > 200:
                    continue
                for k0 in range(1, k):
                    if (p - 1) % q ** k0:
                        continue
                    r0 = element_of_order(p, q ** k0)
                    if r0 is None:
                        continue
                    checked += 1
                    G = build_spec(f"SdCyc({p},{q ** k},{r0})")
                    cnt, comps = count_matrix_components(G)
                    pred = predict_nonnilpotent(
                        {"family": "nonfaithful", "p": p, "q": q, "k": k,
                         "k0": k0, "r0": r0})
                    per_j = pred.detail["per_j_division"]
                    predicted_count = 1 + sum(1 for v in per_j.values() if not v)
                    closed = pred.detail["closed_form_one_matrix"]
                    ok = (cnt.exact == predicted_count
                          and pred.one_matrix == (cnt.exact == 1)
                          and closed == pred.one_matrix)
                    if not ok:
                        mism.append((p, q, k, k0, str(cnt), predicted_count, closed))
    _check(rows, "nonnilpotent", "nonfaithful family agreement",
           not mism, f"{checked} instances (p*q^k <= 200), mismatches={mism[:5]}")
    return rows


# ---------------------------------------------------------------------------
# 7. always-on property suites


PROPERTY_GROUPS = ["S3", "D8", "Q8", "Q12", "A4", "D12", "Q16", "C2xD8",
                   "Q8xC4", "D8cpD8", "D8cpQ8", "BJ5", "BJ8", "C3rC8",
                   "C5rC4", "Heis27", "C9rC3", "C3C3rC8", "Ex38K", "C11rC5"]


def rows_properties(seed: int = 0) -> list[Row]:
    rows: list[Row] = []

    # PCI completeness, dimension budgets, strong-pair facts, Lemma on
    # commutativity (three-way equivalence)
    bad_sanity = []
    bad_strong = []
    bad_comm = []
    bad_transversal = []
    for name in PROPERTY_GROUPS:
        G = build_named(name)
        pcis = metabelian_pcis(G)
        rep = pci_sanity(G, pcis)
        if not rep.ok or rep.warnings:
            bad_sanity.append((name, rep))
        Gder = derived_subgroup(G)
        full = (1 << G.order) - 1
        for sp in pcis:
            cen = sp.epsilon.centralizer_subgroup()
            if cen.mask != normalizer(G, sp.K).mask:
                bad_strong.append((name, sp.describe()))
            # commutative <=> H = G <=> G' <= K (three independent routes)
            c1 = center_rank(G, sp.e) == component_dimension(G, sp.e)
            c2 = sp.H.mask == full
            c3 = Gder.mask & sp.K.mask == Gder.mask
            if not (c1 == c2 == c3):
                bad_comm.append((name, sp.describe(), c1, c2, c3))
        if G.order <= 72:
            for sp in pcis:
                e2 = e_idem(G, sp.H, sp.K, check_transversal=True)
                if e2 != sp.e:
                    bad_transversal.append((name, sp.describe()))
    _check(rows, "properties", "PCI completeness + budgets",
           not bad_sanity, f"{len(PROPERTY_GROUPS)} groups, failures={bad_sanity[:3]}")
    _check(rows, "properties", "Cen_G(eps) = N_G(K) for strong pairs",
           not bad_strong, f"failures={bad_strong[:5]}")
    _check(rows, "properties", "commutativity three-way equivalence",
           not bad_comm, f"failures={bad_comm[:5]}")
    _check(rows, "properties", "transversal independence of e(G,H,K)",
           not bad_transversal, f"failures={bad_transversal[:5]}")

    # free choice of the maximal abelian subgroup (|G| <= 32)
    bad_choice = []
    for name in PROPERTY_GROUPS:
        G = build_named(name)
        if G.order > 32:
            continue
        Gder = derived_subgroup(G)
        keysets = []
        for A in all_maximal_abelian_over(G, Gder):
            pcis = metabelian_pcis(G, A=A)
            keysets.append(frozenset(sp.e.key() for sp in pcis))
        if len(set(keysets)) != 1:
            bad_choice.append(name)
    _check(rows, "properties", "PCI set independent of the chosen maximal abelian",
           not bad_choice, f"failures={bad_choice}")

    # SN inherited by quotients
    bad_quot = []
    for name in ["S3", "Q8", "Q12", "A4", "Q8xC4", "D8cpD8", "C3C3rC8", "Q16"]:
        G = build_named(name)
        if not is_sn(G):
            bad_quot.append((name, "not SN itself"))
            continue
        for N in normal_subgroups(G):
            Q, _ = quotient(G, N)
            if not is_sn(Q):
                bad_quot.append((name, N.order))
    _check(rows, "properties", "SN inherited by quotients",
           not bad_quot, f"failures={bad_quot[:5]}")

    # NCN <=> SSN for p-groups (catalog, order <= 64)
    bad_ncn = []
    for name in ["D8", "Q8", "Q16", "C2xD8", "D8cpD8", "D8cpQ8", "Q8xC4",
                 "Q8xC8", "BJ5", "BJ8", "BJ9", "Heis27", "C9rC3"]:
        G = build_named(name)
        okp, _p = G.is_p_group()
        if not okp or G.order > 64:
            continue
        if is_ncn(G) != is_ssn(G):
            bad_ncn.append(name)
    _check(rows, "properties", "NCN <=> SSN for p-groups",
           not bad_ncn, f"failures={bad_ncn}")

    # multiplicative order lemma on 1000 pseudorandom instances
    rng = random.Random(seed)
    bad_ord = []
    for _ in range(1000):
        q = rng.choice([2, 3, 3, 5, 5, 7, 11, 13])
        a = rng.randint(2 if q == 2 else 1, 4)
        d = rng.randint(0, 3)
        b = rng.randint(1, 60)
        while b % q == 0:
            b = rng.randint(1, 60)
        c = 1 + q ** a * b
        mod = q ** (a + d)
        if ord_mod(mod, c) != q ** d or padic_valuation(q, c ** (q ** d) - 1) != a + d:
            bad_ord.append((q, a, b, d))
    _check(rows, "properties", "prime-power order lemma (1000 instances)",
           not bad_ord, f"failures={bad_ord[:5]}")

    # ring axioms on random triples, exact
    G = build_named("D12")
    rng = random.Random(seed + 1)
    bad_ring = 0
    for _ in range(1000):
        a, b, c = (AlgElem(G, [rng.randrange(-3, 4) for _ in range(G.order)],
                           rng.randrange(1, 5)) for _ in range(3))
        if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            bad_ring += 1
        if (a * b).augmentation() != a.augmentation() * b.augmentation():
            bad_ring += 1
    g = G.element("a*b")
    conj_ok = all(
        ((x * y).conjugate(g) == x.conjugate(g) * y.conjugate(g))
        for x, y in [(AlgElem(G, [rng.randrange(-3, 4) for _ in range(G.order)], 1),
                      AlgElem(G, [rng.randrange(-3, 4) for _ in range(G.order)], 1))
                     for _ in range(50)])
    _check(rows, "properties", "ring axioms on 1000 random triples",
           bad_ring == 0 and conj_ok, f"violations={bad_ring} conj_automorphism={conj_ok}")
    return rows


# ---------------------------------------------------------------------------
# 8. soundness sentinel


def rows_sentinel() -> list[Row]:
    rows: list[Row] = []
    reports = []
    for name in ["Q8", "Q12", "A4", "D12", "C3rC8", "C5rC4", "Q8xC4",
                 "Q8xC8", "D8cpD8", "Ex38K", "A5"]:
        G = build_named(name)
        reports.append((name, nd_verdict(G)))
    reports.append(("Q8xC9", nd_verdict(build_spec("X(Q(8),C(9))"))))
    reports.append(("Q8xC7", nd_verdict(build_spec("X(Q(8),C(7))"))))
    offenders = [(n, r.verdict, str(r.matrix_count)) for n, r in reports
                 if r.verdict == "HasND" and not (
                     r.matrix_count.hi is not None and r.matrix_count.hi <= 1)]
    _check(rows, "sentinel", "HasND only with certified count <= 1",
           not offenders, f"offenders={offenders}")
    c3c8 = next(r for n, r in reports if n == "C3rC8")
    _check(rows, "sentinel", "C3:C8 never reported HasND",
           c3c8.verdict != "HasND",
           f"verdict={c3c8.verdict} count={c3c8.matrix_count}")
    expected = {"Q8": "HasND", "Q12": "HasND", "A4": "HasND", "D12": "NotND",
                "C5rC4": "HasND", "D8cpD8": "HasND", "Ex38K": "NotND",
                "Q8xC8": "NotND", "A5": "NotND", "Q8xC9": "NotND",
                "Q8xC7": "HasND"}
    bad = [(n, r.verdict) for n, r in reports
           if n in expected and r.verdict != expected[n]]
    _check(rows, "sentinel", "expected verdicts", not bad,
           f"mismatches={bad}")

    # every group of order at most 11 has at most one matrix component
    small_specs = (["C(%d)" % n for n in range(1, 12)]
                   + ["EA(2,2)", "X(C(2),C(4))", "EA(2,3)", "X(C(2),C(2))",
                      "EA(3,2)", "D(6)", "D(8)", "Q(8)", "D(10)",
                      "X(C(3),C(3))"])
    bad_small = []
    for spec in small_specs:
        G = build_spec(spec)
        r = nd_verdict(G)
        if r.verdict != "HasND":
            bad_small.append((spec, r.verdict))
    _check(rows, "sentinel", "all groups of order <= 11 have ND",
           not bad_small, f"{len(small_specs)} groups, failures={bad_small}")
    return rows


# ---------------------------------------------------------------------------


def run_all(only: Optional[list[str]] = None, seed: int = 0,
            progress: Optional[Callable[[Row], None]] = None) -> list[Row]:
    producers = {
        "decompositions": rows_decompositions,
        "witnesses": rows_witnesses,
        "snssn": rows_snssn,
        "amitsur": rows_amitsur,
        "nilpotent": rows_nilpotent,
        "nonnilpotent": rows_nonnilpotent,
        "properties": lambda: rows_properties(seed=seed),
        "sentinel": rows_sentinel,
    }
    out: list[Row] = []
    for cat in CATEGORIES:
        if only and cat not in only:
            continue
        for row in producers[cat]():
            out.append(row)
            if progress:
                progress(row)
    return out
