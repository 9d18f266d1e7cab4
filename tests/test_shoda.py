import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qgring.shoda
import qgring.verify
from qgring.algebra import AlgElem, tilde
from qgring.catalog import bj1_group, build_named, build_spec, catalog_names
from qgring.components import component_dimension
from qgring.errors import NotMetabelian, NotNormalInH, SoundnessError
from qgring.groups import (
    artin_count,
    cosets,
    derived_subgroup,
    dihedral,
    normalizer,
    order_q_matrix,
    semidirect_vector,
    subgroup_generated,
    subgroups,
)
from qgring.props import a5_shoda_idempotent
from qgring.shoda import (
    e_idem,
    epsilon,
    is_shoda_pair,
    is_strong_shoda_pair,
    metabelian_pcis,
    pci_sanity,
    section_generator,
    sum_of_conjugates,
)
from invariants import relabel


def test_epsilon_equal_pair_is_tilde():
    G = build_named("D12")
    H = subgroup_generated(G, (G.element("a"),))
    assert epsilon(H, H) == tilde(H)


def test_epsilon_requires_normality():
    G = build_named("D12")
    H = subgroup_generated(G, (G.element("a"), G.element("b")))
    K = subgroup_generated(G, (G.element("b"),))
    with pytest.raises(NotNormalInH):
        epsilon(H, K)


def test_bj1_epsilon_is_one_minus_derived():
    # the order-p^(m+1) group with n=1: e(G, <a>, 1) = 1 - tilde(G')
    for p, m in [(3, 2), (2, 3)]:
        G = bj1_group(p, m, 1)
        A = subgroup_generated(G, (G.element("a"),))
        one = subgroup_generated(G, ())
        e = e_idem(G, A, one)
        assert e == AlgElem.one(G) - tilde(derived_subgroup(G))
        assert epsilon(A, one) == e  # Cen = G here, transversal is trivial


def test_example38_idempotent_display():
    G = build_named("Ex38K")
    a, b = G.element("a"), G.element("b")
    Kp = subgroup_generated(G, (a, b))
    e = e_idem(G, Kp, subgroup_generated(G, (a,)))
    ta = tilde(subgroup_generated(G, (a,)))
    tab = tilde(subgroup_generated(G, (G.table[a][b],)))
    tb = tilde(subgroup_generated(G, (b,)))
    assert e == ta + tab - 2 * (ta * tb)


def test_e_idem_transversal_independence():
    # the sums over the least and over the greatest element of each right
    # coset of Cen_G(epsilon) are both e(G, H, K)
    G = build_named("C3C3rC8")
    der = derived_subgroup(G)
    K = subgroup_generated(G, (G.element("a"),))
    eps = epsilon(der, K)
    index, least = cosets(eps.centralizer_subgroup())
    greatest = list({i: g for g, i in enumerate(index)}.values())
    assert len(least) > 1 and greatest != least
    for transversal in (least, greatest):
        assert sum_of_conjugates(eps, transversal) == e_idem(G, der, K) == \
            AlgElem.one(G) - tilde(der)


def test_sum_of_conjugates_takes_its_transversal():
    # every caller passes a transversal, and nothing checks it on the way
    assert list(inspect.signature(sum_of_conjugates).parameters) == ["eps", "transversal"]
    assert list(inspect.signature(e_idem).parameters) == ["G", "H", "K"]


def test_a_transversal_mismatch_fails_its_verify_row(monkeypatch):
    # a sum that differs from e(G, H, K) fails verify's row instead of
    # raising mid-run
    monkeypatch.setattr(qgring.verify, "sum_of_conjugates", lambda eps, t: None)
    rows = {row.name: row.passed for row in qgring.verify.rows_properties()}
    assert rows.pop("transversal independence of e(G,H,K)") is False
    assert all(rows.values())


def test_shoda_pair_predicates():
    G = build_named("C3C3rC8")
    der = derived_subgroup(G)
    K = subgroup_generated(G, (G.element("a"),))
    assert is_strong_shoda_pair(G, der, K)
    N = normalizer(G, K)
    assert N.order == 18
    A5 = build_named("A5")
    A4, K5, _, _ = a5_shoda_idempotent(A5)
    assert is_shoda_pair(A5, A4, K5)
    assert not is_strong_shoda_pair(A5, A4, K5)
    # abelian: (G, G) is trivially strong
    C6 = build_spec("C(6)")
    full = subgroup_generated(C6, (C6.element("x"),))
    assert is_strong_shoda_pair(C6, full, full)
    # predicates return False rather than raising on structural violations
    D12 = build_named("D12")
    H = subgroup_generated(D12, (D12.element("a"), D12.element("b")))
    Kbad = subgroup_generated(D12, (D12.element("b"),))
    assert not is_shoda_pair(D12, H, Kbad)
    assert not is_strong_shoda_pair(D12, H, Kbad)


def test_metabelian_pcis_abelian_c4():
    G = build_spec("C(4)")
    pcis = metabelian_pcis(G)
    dims = sorted(component_dimension(G, sp.e) for sp in pcis)
    assert dims == [1, 1, 2]


def test_metabelian_pcis_33c8():
    G = build_named("C3C3rC8")
    pcis = metabelian_pcis(G)
    der = derived_subgroup(G)
    noncomm = [sp for sp in pcis if der.mask & sp.K.mask != der.mask]
    assert len(noncomm) == 1
    assert noncomm[0].e == AlgElem.one(G) - tilde(der)


def test_metabelian_pcis_d12():
    G = build_named("D12")
    pcis = metabelian_pcis(G)
    dims = sorted(component_dimension(G, sp.e) for sp in pcis)
    assert len(pcis) == 6 and dims == [1, 1, 1, 1, 4, 4]


def test_metabelian_pcis_rejects_a5():
    with pytest.raises(NotMetabelian):
        metabelian_pcis(build_named("A5"))


def test_pci_sanity_reports():
    for name, dims, comm in [("A4", [1, 2, 9], 3),
                             ("C5rC4", [1, 1, 2, 16], 4),
                             ("C3C3rC8", [1, 1, 2, 4, 64], 8)]:
        G = build_named(name)
        rep = pci_sanity(G, metabelian_pcis(G))
        assert rep.ok, rep
        assert rep.dims == dims
        assert rep.dim_total == G.order
        assert rep.commutative_dim_total == comm
        assert not rep.warnings


def test_lemma_explicit_ek_form():
    # faithful vector family: e(G, P, K) = sum over x in Q of
    # (tilde(K)^x - tilde(P)) for K of index p in P
    G = semidirect_vector(2, 4, order_q_matrix(2, 4, 5), 5)
    P = derived_subgroup(G)
    assert P.order == 16
    K = next(S for S in subgroups(G) if S.order == 8 and S <= P)
    e = e_idem(G, P, K)
    c = G.element("e")  # the acting generator of C5
    total = AlgElem.zero(G)
    for i in range(5):
        total = total + (tilde(K).conjugate(G.power(c, i)) - tilde(P))
    assert e == total


def test_every_returned_pair_is_strong():
    for name in ["A4", "D12", "Q8", "Q16", "C5rC4", "Ex38K"]:
        G = build_named(name)
        for sp in metabelian_pcis(G):
            assert sp.kind == "strong-shoda"


def test_a_pair_that_is_not_strong_raises(monkeypatch):
    # Theorem 4.7 makes every pair of the enumeration strong; one that
    # fails the test is a fault, not a weaker kind of pair
    monkeypatch.setattr(qgring.shoda, "is_strong_shoda_pair",
                        lambda G, H, K: False)
    with pytest.raises(SoundnessError):
        metabelian_pcis(dihedral(12))


@pytest.mark.parametrize("name", catalog_names())
def test_artin_count_is_the_number_of_pcis(name):
    # one simple component of Q[G] per conjugacy class of cyclic subgroups
    G = build_named(name)
    if derived_subgroup(G).is_abelian():
        assert artin_count(G) == len(metabelian_pcis(G))
    else:  # A5: Q, M_3(Q(sqrt 5)), M_4(Q) and M_5(Q)
        assert artin_count(G) == 4


@pytest.mark.parametrize("name, seed", [("C3C3rC8", 1), ("D8cpQ8", 2), ("BJ9", 3)])
def test_artin_count_is_the_number_of_pcis_after_a_relabelling(name, seed):
    G = build_named(name)
    R = relabel(G, seed)
    assert artin_count(R) == artin_count(G) == len(metabelian_pcis(R))


def test_a_pci_list_short_of_artins_count_raises(monkeypatch):
    # the second pair's idempotent replaced by the first's: one PCI is lost,
    # and the count says so before the sum does
    orig = qgring.shoda.e_idem
    made = []

    def first_again(G, H, K):
        made.append(orig(G, H, K))
        return made[0] if len(made) == 2 else made[-1]

    monkeypatch.setattr(qgring.shoda, "e_idem", first_again)
    with pytest.raises(SoundnessError, match="5 PCIs, but Artin's count of D12 is 6"):
        metabelian_pcis(dihedral(12))


def test_ex37_subgroup_decomposition():
    # Q[<a,b,c^4>] = 2Q + 4 M_2(Q): four matrix components of dimension 4
    from qgring.components import count_matrix_components
    G = build_named("Ex37G1")
    cnt, comps = count_matrix_components(G)
    dims = sorted(d.dim_over_Q for _, d in comps)
    assert dims == [1, 1, 4, 4, 4, 4]
    assert cnt.exact == 4


def test_epsilon_is_idempotent_and_central_in_qh():
    # epsilon(H, K) of a cyclic H/K is a central idempotent of Q[H]
    for name in ["D12", "Q16", "C3C3rC8"]:
        G = build_named(name)
        pairs = 0
        for H in subgroups(G):
            if H.order == 1:
                continue
            for K in subgroups(G):
                if not K <= H:
                    continue
                from qgring.groups import is_normal_in
                if not is_normal_in(H, K) or section_generator(H, K) is None:
                    continue
                eps = epsilon(H, K)
                assert eps.is_idempotent()
                cen = eps.centralizer_subgroup()
                assert H <= cen  # central in Q[H]
                pairs += 1
                if pairs >= 25:
                    break
            if pairs >= 25:
                break


def test_pci_sanity_on_assorted_specs():
    # broad safety net beyond the curated catalog: every metabelian group
    # built from these specs must pass all completeness checks exactly
    specs = [
        "C(30)", "X(C(6),C(10))", "D(16)", "D(18)", "D(20)", "Q(20)",
        "Q(24)", "SdCyc(5,8,2)", "SdCyc(13,4,5)", "SdCyc(9,3,4)",
        "MetaAmitsur(15,2)", "MetaAmitsur(16,3)", "X(D(8),C(3))",
        "X(Q(8),C(5))", "CProd(Q(8),C(4),1)", "EA(5,2)",
        "SdVec(2,2,[[0,1],[1,1]],3)", "SdVec(5,2,[[0,1],[4,0]],4)",
    ]
    for spec in specs:
        G = build_spec(spec)
        rep = pci_sanity(G, metabelian_pcis(G))
        assert rep.ok and not rep.warnings, (spec, rep)


def test_pci_sum_check_raises_under_optimize():
    # doubled idempotents stay central but sum to 2; the check must
    # survive python -O
    script = textwrap.dedent("""
        from fractions import Fraction
        import qgring.shoda
        from qgring.catalog import build_named
        from qgring.errors import SoundnessError
        orig = qgring.shoda.e_idem
        qgring.shoda.e_idem = lambda G, H, K: Fraction(2) * orig(G, H, K)
        try:
            qgring.shoda.metabelian_pcis(build_named("D12"))
        except SoundnessError as exc:
            print("raised", exc)
    """)
    src = str(Path(__file__).parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised PCIs must sum to 1"
