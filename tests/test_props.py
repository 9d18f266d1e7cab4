from fractions import Fraction

import pytest

import qgring.catalog
from qgring import groups, props
from qgring.algebra import AlgElem, hat
from qgring.catalog import bj2_group, build_named, build_spec
from qgring.errors import BNotAbelian, NotPGroup, SoundnessError, UnknownWitness
from qgring.groups import (cyclic_extension, full_subgroup, is_normal, quaternion,
                           subgroup_generated)
from qgring.numutil import ord_mod, prime_factors
from qgring.props import (
    _SUM_OF_SQUARES,
    Witness,
    abelian_invariants,
    classify_ssn,
    curated_witness,
    is_hamiltonian,
    is_ncn,
    is_sn,
    is_ssn,
    nd_verdict,
    nd_witness_search,
    verify_witness,
)
from qgring.shoda import metabelian_pcis
from invariants import join, relabel


def test_is_sn_examples():
    G = build_named("D12")
    assert not is_sn(G)
    # the classic failing pair: Y = <b>, N = <a^3>
    Y = subgroup_generated(G, (G.element("b"),))
    N = subgroup_generated(G, (G.word("a^3"),))
    assert is_normal(G, N) and not (N <= Y)
    assert not is_normal(G, join(G, Y, N))
    assert is_sn(build_named("C3C3rC8"))
    assert not is_sn(build_named("C2xD8"))
    assert is_sn(build_named("Ex38K"))
    assert not is_sn(build_named("Ex37G1"))


def test_is_ssn_examples():
    assert not is_ssn(build_named("D8cpD8"))
    assert is_ssn(build_named("A5"))
    assert not is_ssn(build_named("C3C3rC8"))
    assert is_ssn(build_named("C3rC8"))


def test_is_ncn():
    assert is_ncn(build_named("Q16"))
    assert not is_ncn(build_named("C2xD8"))
    assert is_ncn(build_named("Q8"))
    with pytest.raises(NotPGroup):
        is_ncn(build_spec("C(6)"))


def test_is_hamiltonian():
    assert is_hamiltonian(build_named("Q8"))
    assert is_hamiltonian(build_spec("X(Q(8),C(3))"))
    assert not is_hamiltonian(build_named("D8"))
    assert not is_hamiltonian(build_spec("C(4)"))


def test_abelian_invariants():
    G = build_spec("C(6)")
    full = subgroup_generated(G, (G.element("x"),))
    assert abelian_invariants(G, full) == [2, 3]
    G = build_spec("X(Q(8),C(15))")
    mask = 0
    for g in range(G.order):
        if G.element_order(g) % 2 == 1:
            mask |= 1 << g
    from qgring.groups import subgroup_from_mask
    odd = subgroup_from_mask(G, mask)
    assert abelian_invariants(G, odd) == [3, 5]
    # a non-abelian H is refused with maximal_abelian_over's typed error,
    # not a bare ValueError
    with pytest.raises(BNotAbelian):
        abelian_invariants(G, full_subgroup(G))


def test_classify_ssn_taxonomy():
    assert classify_ssn(build_named("A4")).tag == "SolvableTypeI"
    assert classify_ssn(build_named("A4")).params == \
        {"p": 2, "n": 2, "q_order": 3}
    cls = classify_ssn(build_named("C3rC8"))
    assert cls.tag == "SolvableTypeII"
    assert cls.params == {"p": 3, "q": 2, "k": 3, "k0": 1, "r0": 2}
    assert classify_ssn(build_named("D12")).tag == "NotSSN"
    assert classify_ssn(build_named("A5")).tag == "A5"
    assert classify_ssn(build_spec("C(12)")).tag == "Abelian"
    cls = classify_ssn(build_spec("X(Q(8),C(3))"))
    assert cls.tag == "Hamiltonian" and cls.params["odd_invariants"] == [3]
    cls = classify_ssn(build_named("Q16"))
    assert cls.tag == "PGroupNCN" and cls.params["bj"] == "BJ6"
    assert classify_ssn(build_named("BJ9")).params["bj"] == "BJ9"
    assert classify_ssn(build_named("C9rC3")).params["bj"] == "BJ1"
    assert classify_ssn(build_named("Q8xC4")).params["bj"] == "BJ3"
    # type (ii) with a non-faithful action of kernel level k0 > 1, and with q = 3
    for spec, params in [
            ("MetaAmitsur(10,3)", {"p": 5, "q": 2, "k": 3, "k0": 2, "r0": 3}),
            ("MetaAmitsur(26,21)", {"p": 13, "q": 2, "k": 3, "k0": 2, "r0": 8}),
            ("MetaAmitsur(21,4)", {"p": 7, "q": 3, "k": 2, "k0": 1, "r0": 4}),
            *_nonfaithful_specs()]:
        cls = classify_ssn(build_spec(spec))
        assert (cls.tag, cls.params) == ("SolvableTypeII", params), spec


def _nonfaithful_specs():
    """The nonfaithful groups SdCyc(p, q^k, r0) of order <= 200 that the
    family sweep builds, p >= 3 prime, q in (2, 3, 5), 1 <= k0 < k and r0
    the least residue of order q^k0 mod p, each with its SSN parameters."""
    out = []
    for p in (p for p in range(3, 48) if prime_factors(p) == {p: 1}):
        for q in (2, 3, 5):
            for k in range(2, 7):
                if p == q or p * q ** k > 200:
                    continue
                for k0 in range(1, k):
                    if (p - 1) % q ** k0 == 0:
                        r0 = next(r for r in range(2, p) if ord_mod(p, r) == q ** k0)
                        out.append((f"SdCyc({p},{q ** k},{r0})",
                                    {"p": p, "q": q, "k": k, "k0": k0, "r0": r0}))
    return out


# one group for each kind of family record classify_ssn names, and groups
# it names none for
@pytest.mark.parametrize("build, family", [
    (lambda: build_named("C9rC3"), {"family": "BJ1", "p": 3, "m": 2, "n": 1}),
    (lambda: bj2_group(build_spec("D(8)"), 4),
     {"family": "BJ2", "p": 2, "z_order": 4}),
    (lambda: build_named("Q8xC4"), {"family": "BJ3", "n": 2}),
    (lambda: build_named("Q16"), {"family": "BJ6"}),
    (lambda: build_spec("X(Q(8),C(3))"),
     {"family": "Hamiltonian", "e_rank": 0, "odd_invariants": [3]}),
    (lambda: build_named("A4"), {"family": "faithful", "p": 2, "n": 2, "q": 3}),
    (lambda: build_named("C3rC8"), {"family": "nonfaithful", "p": 3, "q": 2,
                                    "k": 3, "k0": 1, "r0": 2}),
    (lambda: build_named("A5"), None),
    (lambda: build_spec("C(12)"), None),
    (lambda: build_named("D12"), None),
], ids=["BJ1", "BJ2", "BJ3", "BJ6", "Hamiltonian", "faithful", "nonfaithful",
        "A5", "C12", "D12"])
def test_classify_ssn_names_each_family_once(build, family):
    cls = classify_ssn(build())
    assert cls.family == family
    # the record stays out of equality and repr
    bare = props.SSNClass(cls.tag, cls.params)
    assert cls == bare and repr(cls) == repr(bare)
    pred = cls.prediction()
    if family is None:
        assert pred is None
    else:
        assert {"family": pred["family"], **pred["params"]} == family


def _sl23():
    """SL(2,3) = Q8 : C3, the C3 acting by a -> b, b -> ab."""
    Q8 = quaternion(8)
    a, b = Q8.element("a"), Q8.element("b")
    return cyclic_extension(Q8, {a: b, b: Q8.table[a][b]}, 3, 0, "c")


# one group for each rejection classify_ssn can reach
@pytest.mark.parametrize("build, reason", [
    (lambda: build_spec("X(D(8),C(3))"), "nilpotent, neither abelian nor Hamiltonian"),
    (lambda: build_spec("X(A5,C(2))"), "non-solvable, not A5"),
    (_sl23, "derived subgroup not abelian"),
    (lambda: build_spec("D(18)"), "P not elementary abelian"),
    (lambda: build_spec("SdCyc(9,4,8)"), "non-faithful action on non-prime P"),
    (lambda: build_spec("SdCyc(5,12,2)"), "Q not a q-group"),
], ids=["DxC3", "A5xC2", "SL(2,3)", "D18", "C9:C4", "C5:C12"])
def test_classify_ssn_names_each_rejection(build, reason):
    G = build()
    cls = classify_ssn(G)
    assert (cls.tag, cls.params) == ("NotSSN", {"reason": reason})
    assert is_ssn(G) is False


def test_classify_ssn_decides_type_i_with_no_lattice(monkeypatch):
    # the C2 of the generalized dihedral group of C3^2 inverts every
    # element, so each of the four subgroups of order 3 is invariant:
    # found by normal closures, with no lattice
    def no_lattice(G):
        raise AssertionError(f"classify_ssn built the lattice of {G.name}")

    monkeypatch.setattr(qgring.catalog, "_BUILT", {})  # a group with cold caches
    for module in (groups, props):
        monkeypatch.setattr(module, "subgroups", no_lattice)
    cls = classify_ssn(build_spec("SdVec(3,2,[[2,0],[0,2]],2)"))
    assert (cls.tag, cls.params) == ("NotSSN",
                                     {"reason": "order-2 subgroup acts reducibly"})


def test_classify_ssn_names_a5_by_its_order(monkeypatch):
    # A5 is the only non-solvable group of order 60, so no isomorphism
    # search is needed to recognise it under any labelling
    def no_search(*args):
        raise AssertionError("classify_ssn ran an isomorphism search")

    monkeypatch.setattr(props, "find_isomorphism", no_search)
    A5 = build_named("A5")
    for seed in range(5):
        cls = classify_ssn(relabel(A5, seed))
        assert (cls.tag, cls.params) == ("A5", {})
    cls = classify_ssn(build_spec("X(A5,C(2))"))
    assert (cls.tag, cls.params) == ("NotSSN", {"reason": "non-solvable, not A5"})


@pytest.mark.parametrize("relabelled", [False, True])
def test_nd_verdict_of_a_group_that_is_not_metabelian(relabelled):
    # no PCIs, so no certificate and no search: Unknown, never HasND
    G = build_spec("X(A5,C(2))")
    if relabelled:
        G = relabel(G, 7)
    report = nd_verdict(G)
    assert (report.verdict, report.matrix_count.to_json(), report.components) == \
        ("Unknown", [0, None], [])


def test_curated_witness_assertions():
    for name, kwargs in [("D12", {}), ("Ex3.8", {}), ("BJ3", {"n": 3}),
                         ("BJ9", {}), ("A5", {})]:
        w = curated_witness(name, **kwargs)
        assert all(verify_witness(w).values()), name
    with pytest.raises(UnknownWitness):
        curated_witness("nope")
    with pytest.raises(UnknownWitness):
        curated_witness("BJ3", n=2)


def test_a5_witness_coefficient_is_exactly_one_half():
    w = curated_witness("A5")
    b = w.group.element("(1,2)(3,4)")
    assert (w.alpha * w.e).coeff(b) == Fraction(1, 2)


def test_bj9_coset_obstruction():
    # hat(<b>) * hat(<a>) = hat(<a,b>), not in 2 Z[G]
    G = build_named("BJ9")
    a, b = G.element("a"), G.element("b")
    prod = hat(subgroup_generated(G, (b,))) * hat(subgroup_generated(G, (a,)))
    assert prod == hat(subgroup_generated(G, (a, b)))
    assert any(v % 2 for v in prod.nums)


def test_witness_search_d12():
    G = build_named("D12")
    pcis = [sp.e for sp in metabelian_pcis(G)]
    found, spent = nd_witness_search(G, pcis, budget=5000)
    assert found is not None
    alpha, e = found
    assert alpha.is_integral() and alpha.is_nilpotent()
    assert e.is_central() and e.is_idempotent()
    assert not (alpha * e).is_integral()


def test_witness_search_ex38():
    G = build_named("Ex38K")
    pcis = [sp.e for sp in metabelian_pcis(G)]
    found, _ = nd_witness_search(G, pcis, budget=50000)
    assert found is not None
    alpha, e = found
    assert not (alpha * e).is_integral()


def test_witness_search_exhausts_on_q8():
    G = build_named("Q8")
    pcis = [sp.e for sp in metabelian_pcis(G)]
    found, spent = nd_witness_search(G, pcis, budget=10 ** 6)
    assert found is None
    assert spent < 10 ** 6  # candidate space exhausted, not the budget


@pytest.mark.parametrize("spec,verdict", [
    ("Q8", "HasND"), ("D12", "NotND"), ("BJ9", "NotND"),
    ("SdCyc(3,8,2)", "Unknown"), ("X(A5,C(2))", "Unknown")])
def test_nd_verdict_decides_no_group_property(spec, verdict, monkeypatch):
    # ND concerns G alone: no verdict reads SN, SSN or NCN
    def refuse(*args):
        raise AssertionError("nd_verdict ran an SN/SSN/NCN scan")

    for name in ("is_sn", "is_ssn", "is_ncn", "_join_is_normal"):
        monkeypatch.setattr(props, name, refuse)
    r = nd_verdict(build_spec(spec))
    assert r.verdict == verdict
    assert not any(hasattr(r, f) for f in ("sn", "ssn", "ncn"))


def test_nd_verdict_positive_and_negative():
    r = nd_verdict(build_named("Q12"), budget=2000)
    assert r.verdict == "HasND" and r.reason == "OneMatrixComponent"
    assert r.matrix_count.exact == 1
    r = nd_verdict(build_named("A4"), budget=2000)
    assert r.verdict == "HasND"
    r = nd_verdict(build_named("D12"), budget=2000)
    assert r.verdict == "NotND" and r.witness is not None
    G = build_named("A5")
    r = nd_verdict(G, budget=2000)
    assert r.verdict == "NotND" and is_ssn(G)
    r = nd_verdict(build_named("C3rC8"), budget=2000)
    assert r.verdict != "HasND"
    assert r.matrix_count.exact == 2


def test_nd_report_json():
    r = nd_verdict(build_named("Q12"), budget=100)
    d = r.to_dict(spec="Q(12)")
    assert d["group"] == "Q(12)" and d["verdict"] == "HasND"
    assert d["matrix_count"] == 1 and d["witness"] is None
    r = nd_verdict(build_named("D12"), budget=2000)
    d = r.to_dict()
    assert d["witness"] is not None and len(d["witness"]["alpha"]) == 12


def test_hamiltonian_polynomial_witness():
    from qgring.props import hamiltonian_witness
    w = hamiltonian_witness(3, 2)  # Q8 x C9
    assert w is not None and all(verify_witness(w).values())
    assert hamiltonian_witness(7, 2) is None  # ord_7(2) = 3 is odd
    r = nd_verdict(build_spec("X(Q(8),C(9))"), budget=2000)
    assert r.verdict == "NotND" and r.reason == "WitnessFound"


@pytest.mark.parametrize("p", sorted(_SUM_OF_SQUARES))
def test_sum_of_squares_polynomials(p):
    # 1 + r(X)^2 + s(X)^2 modulo X^p - 1 has all coefficients equal: an
    # integer multiple of 1 + X + ... + X^(p-1)
    total = [1] + [0] * (p - 1)
    for coeffs in _SUM_OF_SQUARES[p]:
        assert len(coeffs) == p
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs):
                total[(i + j) % p] += a * b
    assert len(set(total)) == 1


def test_a_curated_witness_that_fails_raises(monkeypatch):
    # e = 1 makes alpha*e = alpha integral; the witness must not be
    # dropped in favour of the search
    orig = props.curated_witness

    def broken(name, *args, **kwargs):
        w = orig(name, *args, **kwargs)
        return Witness(w.name, w.group, w.alpha, AlgElem.one(w.group), w.notes)

    monkeypatch.setattr(props, "curated_witness", broken)
    with pytest.raises(SoundnessError, match="alpha_e_not_integral"):
        nd_verdict(build_named("D12"))


@pytest.mark.parametrize("spec, budget", [("C3rC8", 50_000),  # exhausted
                                          ("C3rC8", 1_000),   # budget spent
                                          ("D12", 50_000)])   # witness
def test_each_witness_pass_gets_what_the_earlier_ones_left(monkeypatch, spec,
                                                          budget):
    # a stub pass that spends k tests and finds nothing, then the search
    k, budgets, spends = 7, [], []
    search = props.nd_witness_search

    def recording(G, pcis, budget):
        budgets.append(budget)
        found, spent = search(G, pcis, budget=budget)
        spends.append(spent)
        return found, spent

    monkeypatch.setattr(props, "nd_witness_search", recording)
    monkeypatch.setattr(props, "_WITNESS_PASSES",
                        (lambda G, components, left: (None, k),
                         props._search_pass))
    report = nd_verdict(build_spec(spec), budget=budget)
    assert budgets == [budget - k]
    assert report.spent == k + spends[0] <= budget
    assert (report.witness is None) == (spec == "C3rC8")


def test_ncn_iff_ssn_for_p_groups():
    for name in ["D8", "Q8", "Q16", "C2xD8", "D8cpD8", "D8cpQ8", "Q8xC4",
                 "BJ5", "BJ8", "Heis27", "C9rC3"]:
        G = build_named(name)
        okp, _ = G.is_p_group()
        assert okp
        assert is_ncn(G) == is_ssn(G), name
