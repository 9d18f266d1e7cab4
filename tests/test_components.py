from fractions import Fraction

import pytest

from qgring.algebra import AlgElem, tilde
from qgring.catalog import bj1_group, build_named, build_spec
from qgring.components import (
    COMMUTATIVE,
    DIVISION,
    MATRIX,
    a5_special_pci,
    amitsur_division,
    center_rank,
    classify_component,
    component_dimension,
    count_matrix_components,
    describe_component,
    nilpotent_probe,
    predict_nilpotent,
    predict_nonnilpotent,
)
from qgring.errors import (
    InconsistentFamilyParams,
    NonIntegerDimension,
    NotCentralIdempotent,
    NotCoprime,
    NotStrongShodaPair,
    UnknownFamily,
)
from qgring.groups import derived_subgroup, full_subgroup, subgroup_generated
from qgring.shoda import metabelian_pcis
from invariants import relabel
from reference_components import exact_rank


def test_exact_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0]]) == 0


def test_component_dimension_basics():
    G = build_named("A4")
    assert component_dimension(G, tilde(full_subgroup(G))) == 1
    assert center_rank(G, tilde(full_subgroup(G))) == 1
    e = AlgElem.one(G) - tilde(derived_subgroup(G))
    assert e.coeff(0) == Fraction(3, 4)
    assert component_dimension(G, e) == 9
    G2 = build_named("C3C3rC8")
    e2 = AlgElem.one(G2) - tilde(derived_subgroup(G2))
    assert component_dimension(G2, e2) == 64
    assert center_rank(G2, e2) == 1


def test_component_dimension_errors():
    G = build_named("A4")
    with pytest.raises(NotCentralIdempotent):
        component_dimension(G, AlgElem.basis(G, G.element("c")))
    half = Fraction(1, 2) * tilde(full_subgroup(G))
    with pytest.raises(NonIntegerDimension):
        component_dimension(G, half)  # central but not idempotent


def test_describe_component_example37():
    G = build_named("C3C3rC8")
    der = derived_subgroup(G)
    K = subgroup_generated(G, (G.element("a"),))
    d = describe_component(G, der, K)
    assert (d.matrix_size_n, d.cyclotomic_order_h, d.nh_order) == (4, 3, 2)
    assert d.nh_cyclic and d.gen_action_exp == 2 and d.gen_twist_exp == 0
    assert d.dim_over_Q == 64 and d.center_rank == 1 and d.degree == 8
    assert classify_component(d) == MATRIX
    assert d.trace["branch"] == "trivial-twisting"


def test_describe_component_requires_strong_pair():
    G = build_named("A5")
    from qgring.props import a5_shoda_idempotent
    A4, K, _, _ = a5_shoda_idempotent(G)
    with pytest.raises(NotStrongShodaPair):
        describe_component(G, A4, K)


def test_classification_q16_and_q8():
    # Q16: quaternion division algebra over Q(zeta_8 + zeta_8^-1)
    G = build_named("Q16")
    kinds = {}
    for sp, desc in count_matrix_components(G)[1]:
        kinds[(desc.dim_over_Q, desc.center_rank)] = desc.kind
    assert kinds[(8, 2)] == DIVISION
    assert kinds[(4, 1)] == MATRIX
    # Q8: the rational quaternions
    G = build_named("Q8")
    cnt, comps = count_matrix_components(G)
    assert cnt.exact == 0
    hq = [d for _, d in comps if d.dim_over_Q == 4][0]
    assert hq.kind == DIVISION


def test_classification_d8cpq8_matrix_over_quaternions():
    G = build_named("D8cpQ8")
    cnt, comps = count_matrix_components(G)
    assert cnt.exact == 1
    big = [d for _, d in comps if d.dim_over_Q == 16][0]
    assert big.kind == MATRIX and big.degree == 4


def test_hamiltonian_quaternion_components():
    # Q8 x C7: H(Q(zeta_7)) is a division ring (ord_7(2) = 3 odd)
    G = build_spec("X(Q(8),C(7))")
    cnt, comps = count_matrix_components(G)
    assert cnt.exact == 0
    big = [d for _, d in comps if d.dim_over_Q == 24]
    assert big and all(d.kind == DIVISION for d in big)
    assert all(d.trace["branch"] == "cyclic-amitsur" for d in big)
    # Q8 x C3: H(Q(zeta_3)) splits (ord_3(2) = 2 even)
    G = build_spec("X(Q(8),C(3))")
    cnt, comps = count_matrix_components(G)
    assert cnt.exact == 1
    big = [d for _, d in comps if d.dim_over_Q == 8 and d.kind == MATRIX]
    assert big and all(d.trace["branch"] == "cyclic-amitsur" for d in big)


@pytest.mark.parametrize("spec", ["MetaAmitsur(40,13)", "MetaAmitsur(40,37)"])
def test_probe_certified_component_has_a_shape(spec):
    # the pair (<a>, <a^20>): h = 20, N/H cyclic of order 4, n = 1, so
    # dim = 4 * phi(20) = 32; sigma_r has order 4 mod 20 and fixes a field
    # of degree 8 / 4 = 2, the center, so the degree is sqrt(32 / 2) = 4.
    # The reachable twists fail Amitsur's condition h/gcd(h, w) = s, and
    # only the nilpotent probe decides the component.
    _, comps = count_matrix_components(build_spec(spec))
    probed = [d for _, d in comps
              if d.trace.get("branch") == "nilpotent-certificate"]
    assert len(probed) == 1
    d = probed[0]
    assert (d.kind, d.dim_over_Q, d.center_rank, d.degree) == (MATRIX, 32, 2, 4)
    assert (d.matrix_size_n, d.cyclotomic_order_h, d.nh_order) == (1, 20, 4)
    assert d.shape and "degree 4" in d.shape


def test_coboundary_trivializable_twist():
    # order-128 metacyclic: the pair (<a,b^2>, <a^4 b^2>) carries twist
    # zeta_8^4 = -1, which is a coboundary (shift by 1 + r = 6); the
    # component is the full matrix ring M_2(Q(i))
    G = bj1_group(2, 3, 4)
    cnt, comps = count_matrix_components(G)
    assert cnt.exact == 6
    eight = [d for _, d in comps if d.dim_over_Q == 8 and d.center_rank == 2]
    assert eight and all(d.kind == MATRIX for d in eight)


def test_amitsur_acceptance_values():
    assert amitsur_division(21, 16).division
    assert amitsur_division(6, 5).division
    res = amitsur_division(12, 5)
    assert not res.division
    # audit trace: s=4 blocks case (1); q=2 has no admissible p
    assert (res.s, res.t, res.n) == (4, 3, 2)
    assert res.conditions["3C"] is True
    assert res.conditions["case1"] is False
    assert res.conditions["case2"] is False
    assert res.primes[3]["delta_prime"] == 2


def test_probe_certifies_trivially_twisted_matrix_components():
    # every matrix component reached through the trivial-twisting branch
    # in groups of order <= 72 also carries an explicit nilpotent witness
    for name in ["D12", "A4", "C5rC4", "C3C3rC8", "Ex38K", "D8cpD8"]:
        from qgring.catalog import build_named
        G = build_named(name)
        for sp, desc in count_matrix_components(G)[1]:
            if desc.kind == MATRIX and "trivial-twisting" in desc.trace["branch"]:
                wit = nilpotent_probe(G, sp.e, budget=2000)
                assert wit is not None, (name, sp.describe())
                assert wit.is_nilpotent() and not wit.is_zero()


def test_faithful_cyclic_family_unique_noncommutative_idempotent():
    # cyclic P: the single noncommutative idempotent is 1 - tilde(G')
    from qgring.shoda import metabelian_pcis
    for spec in ["SdCyc(5,4,2)", "SdCyc(7,3,2)", "SdCyc(11,5,3)"]:
        G = build_spec(spec)
        der = derived_subgroup(G)
        noncomm = [sp for sp in metabelian_pcis(G)
                   if der.mask & sp.K.mask != der.mask]
        assert len(noncomm) == 1
        assert noncomm[0].e == AlgElem.one(G) - tilde(der)


def test_generalized_quaternion_family_one_matrix():
    # Q_{4p} for odd primes p: exactly one matrix component, so ND holds
    from qgring.props import nd_verdict
    for order in (12, 20, 28):
        G = build_spec(f"Q({order})")
        cnt, comps = count_matrix_components(G)
        assert cnt.exact == 1, order
        p = order // 4
        divs = [d for _, d in comps if d.kind == DIVISION]
        assert len(divs) == 1 and divs[0].dim_over_Q == 2 * (p - 1)
        assert nd_verdict(G, budget=100).verdict == "HasND"


def test_smallest_odd_orders_embeddable_in_division_rings():
    # among all nonabelian odd-order metacyclic presentations of order
    # <= 120, only C7:C9 (order 63) and C13:C9 (order 117) embed in
    # division rings
    import math
    from qgring.numutil import ord_mod
    division_orders = {}
    for m in range(3, 121, 2):
        for r in range(2, m):
            if math.gcd(m, r) != 1:
                continue
            n = ord_mod(m, r)
            if n == 1 or n % 2 == 0 or m * n > 120:
                continue
            if amitsur_division(m, r).division:
                division_orders.setdefault(m * n, set()).add((m, r))
    assert division_orders == {63: {(21, 4), (21, 16)},
                               117: {(39, 16), (39, 22)}}


def test_amitsur_errors_and_edges():
    with pytest.raises(NotCoprime):
        amitsur_division(12, 4)
    assert amitsur_division(1, 0).division  # the rationals
    assert amitsur_division(8, 7).division  # rational quaternions of Q16
    assert amitsur_division(4, 3).division  # H(Q)


def test_nilpotent_probe():
    G = build_named("D12")
    pcis = metabelian_pcis(G)
    dims = {component_dimension(G, sp.e): sp for sp in pcis}
    wit = nilpotent_probe(G, dims[4].e, budget=500)
    assert wit is not None and wit.is_nilpotent() and not wit.is_zero()
    # Q8's quaternion component has no nilpotents
    Q8 = build_named("Q8")
    e = AlgElem.one(Q8) - tilde(derived_subgroup(Q8))
    assert nilpotent_probe(Q8, e, budget=2000) is None
    # commutative projection: nothing to find
    assert nilpotent_probe(G, tilde(full_subgroup(G)), budget=500) is None


def test_a5_component_is_probe_certified_under_any_labelling():
    # the first subgroup the probe tries has order 2, and an involution acts
    # nontrivially on the degree-5 component: its block of 120 tests finds
    # a certificate, however the elements are numbered
    A5 = build_named("A5")
    for seed in range(20):
        G = relabel(A5, seed)
        sp, d = a5_special_pci(G)
        assert (sp.kind, d.kind, d.dim_over_Q, d.degree) == \
            ("plain-shoda", MATRIX, 25, 5)
        assert d.trace["branch"] == "nilpotent-certificate"
        wit = nilpotent_probe(G, sp.e, budget=120)
        assert wit is not None and not wit.is_zero() and wit.is_nilpotent()
        assert wit * sp.e == wit


def test_count_matrix_components():
    assert count_matrix_components(build_named("A4"))[0].exact == 1
    assert count_matrix_components(build_named("Q8xC4"))[0].exact == 1
    from qgring.groups import order_q_matrix, semidirect_vector
    G = semidirect_vector(2, 4, order_q_matrix(2, 4, 5), 5)
    assert count_matrix_components(G)[0].exact == 3


def test_predict_nilpotent_families():
    p = predict_nilpotent({"family": "BJ1", "p": 3, "m": 2, "n": 1})
    assert p.one_matrix and p.component == "M_3(Q(zeta_3))" and p.nd == "HasND"
    p = predict_nilpotent({"family": "BJ1", "p": 2, "m": 2, "n": 2})
    assert p.one_matrix and p.nd == "HasND"
    p = predict_nilpotent({"family": "BJ1", "p": 2, "m": 3, "n": 2})
    assert not p.one_matrix and p.nd == "NotND"
    p = predict_nilpotent({"family": "BJ1", "p": 3, "m": 2, "n": 2})
    assert not p.one_matrix and p.nd == "Open"
    p = predict_nilpotent({"family": "BJ3", "n": 3})
    assert not p.one_matrix and p.nd == "NotND"
    p = predict_nilpotent({"family": "Hamiltonian", "e_rank": 0,
                           "odd_invariants": [7]})
    assert not p.one_matrix and p.detail["matrix_component_count"] == 0
    assert p.nd == "HasND"
    p = predict_nilpotent({"family": "Hamiltonian", "e_rank": 0,
                           "odd_invariants": [5]})
    assert p.one_matrix and p.component == "M_2(Q(zeta_5))"
    # one matrix component per cyclic subgroup of A of order d with
    # ord_d(2) even, 2^e_rank times
    for e_rank, invs, count in [(0, [3, 5], 3), (1, [3], 2), (0, [3, 3], 4),
                                (0, [5, 5], 6), (0, [3, 9], 7), (1, [3, 3], 8)]:
        p = predict_nilpotent({"family": "Hamiltonian", "e_rank": e_rank,
                               "odd_invariants": invs})
        assert p.detail["matrix_component_count"] == count
        assert not p.one_matrix and p.nd == "NotND"
    with pytest.raises(UnknownFamily):
        predict_nilpotent({"family": "BJ17"})
    with pytest.raises(InconsistentFamilyParams):
        predict_nilpotent({"family": "BJ1", "p": 4, "m": 2, "n": 1})


def test_predict_nonnilpotent_families():
    p = predict_nonnilpotent({"family": "faithful", "p": 11, "n": 1, "q": 5})
    assert p.one_matrix and "degree 2" in p.component
    p = predict_nonnilpotent({"family": "faithful", "p": 2, "n": 4, "q": 5})
    assert not p.one_matrix and p.detail["v"] == 3 and p.nd == "NotND"
    p = predict_nonnilpotent({"family": "nonfaithful", "p": 7, "q": 3,
                              "k": 2, "k0": 1, "r0": 2})
    assert p.one_matrix and all(p.detail["per_j_division"].values())
    p = predict_nonnilpotent({"family": "nonfaithful", "p": 3, "q": 2,
                              "k": 3, "k0": 1, "r0": 2})
    assert not p.one_matrix  # 3 = 3 mod 8, not 5
    assert p.detail["per_j_division"] == {2: True, 3: False}
    p = predict_nonnilpotent({"family": "nonfaithful", "p": 5, "q": 2,
                              "k": 3, "k0": 1})
    assert p.one_matrix  # 5 = 5 mod 8
    with pytest.raises(InconsistentFamilyParams):
        predict_nonnilpotent({"family": "faithful", "p": 11, "n": 1, "q": 3})
    with pytest.raises(InconsistentFamilyParams):
        predict_nonnilpotent({"family": "nonfaithful", "p": 7, "q": 3,
                              "k": 2, "k0": 1, "r0": 3})  # ord_7(3) = 6


def test_classify_commutative_branch():
    G = build_spec("C(6)")
    for sp, desc in count_matrix_components(G)[1]:
        assert desc.kind == COMMUTATIVE
        assert desc.degree == 1


def test_describe_component_bj1_shape():
    # n=1 family: unique noncommutative component M_p(Q(zeta_{p^(m-1)}))
    for p, m in [(3, 2), (2, 3)]:
        G = bj1_group(p, m, 1)
        A = subgroup_generated(G, (G.element("a"),))
        one = subgroup_generated(G, ())
        d = describe_component(G, A, one)
        assert classify_component(d) == MATRIX
        assert d.matrix_size_n == 1 and d.nh_order == p
        assert d.cyclotomic_order_h == p ** m
        phi_sub = p ** (m - 2) * (p - 1)  # degree of Q(zeta_{p^(m-1)})
        assert d.degree == p and d.center_rank == phi_sub


def test_describe_component_bj2_shape():
    # central product of the order-27 Heisenberg group with C9:
    # one matrix component M_3(Q(zeta_9))
    from qgring.catalog import bj2_group, build_named
    G = bj2_group(build_named("Heis27"), 9)
    cnt, comps = count_matrix_components(G)
    assert cnt.exact == 1
    mats = [d for _, d in comps if d.kind == MATRIX]
    assert len(mats) == 1
    d = mats[0]
    assert d.degree == 3 and d.center_rank == 6 and d.dim_over_Q == 54


def test_analysis_table_roundtrip():
    # rebuilding from the dumped multiplication table gives identical data
    from qgring.groups import from_table
    G = build_named("D12")
    G2 = from_table([row[:] for row in G.table], list(G.names))
    c1, comps1 = count_matrix_components(G)
    c2, comps2 = count_matrix_components(G2)
    assert c1 == c2
    assert [(d.dim_over_Q, d.center_rank, d.kind) for _, d in comps1] == \
        [(d.dim_over_Q, d.center_rank, d.kind) for _, d in comps2]
    from qgring.props import nd_verdict
    r1 = nd_verdict(G, budget=3000)
    r2 = nd_verdict(G2, budget=3000)
    assert (r1.verdict, r1.sn, r1.ssn) == (r2.verdict, r2.sn, r2.ssn)
    assert r1.witness is not None and r2.witness is not None
    assert r1.witness[0].nums == r2.witness[0].nums
