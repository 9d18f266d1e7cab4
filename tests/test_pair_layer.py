"""The Shoda-pair layer against its original implementation.

The library reads epsilon(H, K) of a cyclic H/K off the coset exponents
x^j K -> j, decides the strong Shoda test with one commutator per coset of
H in N_G(K) and an orthogonality loop over a transversal of N_G(K) that
proves Cen_G(epsilon) = N_G(K), tests centrality by class constancy and
returns G itself as the normalizer of a normal subgroup.
reference_shoda.py holds the original lattice, centralizer and
generator-conjugation code; both must give the same answers on every pair
K normal in H, and epsilon and e_idem refuse a non-cyclic H/K, which no
Shoda pair has. AlgElem.conjugate, one gather through a conjugation
permutation, must equal the per-element loop it replaced. The pairs of
metabelian_pcis, read off abelian sections with no lattice, must be those
of the reference enumeration over the whole lattice.
"""

import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgring.abelian_sections
import qgring.algebra
import qgring.catalog
import qgring.groups
import qgring.shoda
from qgring.algebra import AlgElem
from qgring.catalog import build_spec, catalog_names
from qgring.components import count_matrix_components, describe_component
from qgring.errors import (BNotAbelian, GroupMismatch, NotMetabelian, NotNormal,
                           NotNormalInH)
from qgring.groups import (all_maximal_abelian_over, artin_count, derived_subgroup,
                           full_subgroup, is_metacyclic, is_nilpotent_group, is_normal,
                           is_normal_in, maximal_abelian_over, normalizer, quotient,
                           subgroup_generated, subgroups)
from qgring.props import abelian_invariants, nd_verdict
from qgring.shoda import (
    e_idem,
    epsilon,
    is_shoda_pair,
    is_strong_shoda_pair,
    metabelian_pcis,
    section_generator,
    strong_pair,
)
from invariants import relabel
from test_group_layer import family_sweep_groups
from test_workloads import workloads  # noqa: F401  (the fixture)
from reference_components import reference_centralizer_subgroup
from reference_shoda import (
    reference_conjugate,
    reference_e_idem,
    reference_epsilon,
    reference_fixed_by_generators,
    reference_is_shoda_pair,
    reference_maximal_abelian_pairs,
    reference_normalizer,
    reference_section_generator,
    reference_strong_shoda,
)

PAIR_GROUPS = ["D12", "Q16", "A4", "A5", "SdCyc(3,8,2)", "BJ9", "X(Q(8),C(9))",
               "relabelled SdCyc(3,8,2)"]


def _group(name):
    if name.startswith("relabelled "):
        return relabel(build_spec(name.split()[1]), 5)
    return build_spec(name)


def _pair(S):
    return S.mask, S.gens


@pytest.fixture
def cold(monkeypatch):
    """Build groups with empty caches, so every computation runs here."""
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})


@pytest.mark.parametrize("name", PAIR_GROUPS)
def test_every_normal_pair_matches_reference(name, cold):
    G = _group(name)
    subs = subgroups(G)
    kinds = {"cyclic": 0, "non-cyclic": 0, "strong": 0, "plain": 0}
    for H in subs:
        for K in subs:
            if not (K <= H and is_normal_in(H, K)):
                continue
            x = section_generator(H, K)
            assert x == reference_section_generator(H, K)
            kinds["cyclic" if x is not None else "non-cyclic"] += 1
            # decided before e_idem, as metabelian_pcis does
            strong = is_strong_shoda_pair(G, H, K)
            assert strong == reference_strong_shoda(G, H, K)
            plain = is_shoda_pair(G, H, K)
            assert plain == reference_is_shoda_pair(G, H, K)
            if x is None:
                # epsilon has one formula, that of a cyclic H/K
                assert not plain
                with pytest.raises(NotNormalInH):
                    epsilon(H, K)
                with pytest.raises(NotNormalInH):
                    e_idem(G, H, K)
                continue
            assert epsilon(H, K) == reference_epsilon(H, K)
            kinds["plain"] += plain and not strong
            assert e_idem(G, H, K) == reference_e_idem(G, H, K)
            if strong:
                kinds["strong"] += 1
                # the record's N_G(K) is Cen_G(epsilon)
                pair = strong_pair(G, H, K)
                assert pair.epsilon == reference_epsilon(H, K)
                assert _pair(pair.N) == _pair(reference_centralizer_subgroup(pair.epsilon))
    assert kinds["cyclic"] and kinds["strong"]
    if name in ("A4", "A5", "BJ9"):
        assert kinds["non-cyclic"]
    if name == "A5":
        # (A4, V4) is a Shoda pair, and not strong: A5 is not strongly monomial
        A4 = next(H for H in subs if H.order == 12)
        V4 = next(K for K in subs if K.order == 4 and K <= A4)
        assert is_shoda_pair(G, A4, V4) and not is_strong_shoda_pair(G, A4, V4)
        assert kinds["plain"]


def _normal_pairs(G):
    subs = subgroups(G)
    return [(H, K) for H in subs for K in subs if K <= H and is_normal_in(H, K)]


@pytest.mark.parametrize("name", ["analyze-large", "family-sweep", "witness-search",
                                  "relabelled D(200)"])
def test_section_generator_matches_reference_on_every_normal_pair(name, workloads,
                                                                  cold):
    # the groups each benchmark op builds, and D(200) with its elements shuffled
    groups = ([_group(name)] if name.startswith("relabelled ") else
              [workloads._build(op.build) for op in workloads.build_ops(name)])
    cyclic = 0
    for G in groups:
        for H, K in _normal_pairs(G):
            x = section_generator(H, K)
            assert x == reference_section_generator(H, K), (G.name, H, K)
            cyclic += x is not None
    assert cyclic


def test_section_generator_takes_no_powers(cold, monkeypatch):
    # H/K is decided from the cyclic seeds of H, with no power of any h
    G = build_spec("SdCyc(3,16,2)")
    pairs = _normal_pairs(G)
    want = [reference_section_generator(H, K) for H, K in pairs]
    assert None in want and 0 in want

    def refused(self, a, k):
        raise AssertionError("section_generator took a power")

    monkeypatch.setattr(qgring.groups.FiniteGroup, "power", refused)
    assert [section_generator(H, K) for H, K in pairs] == want


@pytest.mark.parametrize("name", PAIR_GROUPS)
def test_normalizer_matches_the_stabilizer_scan(name):
    G = _group(name)
    normal = 0
    for K in subgroups(G):
        N = normalizer(G, K)
        assert _pair(N) == _pair(reference_normalizer(G, K))
        normal += N.order == G.order
    assert normal > 1
    if name != "X(Q(8),C(9))":  # Hamiltonian: every subgroup is normal
        assert normal < len(subgroups(G))


def _orbit(G, H, K):
    """The masks of the pairs (H^g, K^g), g in G: the closure under
    conjugation by G's generators."""
    def image(mask, g):
        return sum(1 << G.conj(x, g) for x in range(G.order) if mask >> x & 1)

    orbit = [(H.mask, K.mask)]
    for h, k in orbit:  # orbit grows while it is walked
        for g in G.generators():
            pair = image(h, g), image(k, g)
            if pair not in orbit:
                orbit.append(pair)
    return orbit


def _first_of_each_class(G, pairs):
    """{(H, K): the later pairs of its class} for each pair (H, K) with
    no earlier (H^g, K^g), g in G, in order."""
    firsts = {}
    for H, K in pairs:
        orbit = _orbit(G, H, K)
        first = next((f for f in firsts if (f[0].mask, f[1].mask) in orbit), None)
        if first is None:
            firsts[H, K] = []
        else:
            firsts[first].append((H, K))
    return firsts


def _check_pairs_match_reference(G, monkeypatch):
    """The maximal-abelian enumeration yields the pairs of the reference
    over the whole lattice, in order, and metabelian_pcis puts to the
    strong Shoda test the first pair of each G-conjugacy class of them, in
    order. Up to order 48 the enumeration matches the reference for
    every maximal abelian A >= G', not only the greedy one. (The tests
    named for an exponent filter keep their names; the enumeration has no
    filter but its one maximality test.)"""
    if not derived_subgroup(G).is_abelian():
        with pytest.raises(NotMetabelian):
            metabelian_pcis(G)
        return
    A = maximal_abelian_over(G, derived_subgroup(G))
    every_A = all_maximal_abelian_over(G, derived_subgroup(G))
    # the greedy A is the lattice's least-mask pick on every group tested
    assert A.mask == min(every_A, key=lambda S: S.mask).mask
    for B in every_A if G.order <= 48 else [A]:
        assert ([(H.mask, K.mask) for H, K in qgring.shoda._maximal_abelian_pairs(G, B)]
                == [(H.mask, K.mask) for H, K in
                    reference_maximal_abelian_pairs(subgroups(G), B)]), (G.name, B)
    pairs = reference_maximal_abelian_pairs(subgroups(G), A)
    tested = []
    strong = qgring.shoda.is_strong_shoda_pair

    def recording(G, H, K):
        tested.append((H.mask, K.mask))
        return strong(G, H, K)

    with monkeypatch.context() as m:
        m.setattr(qgring.shoda, "is_strong_shoda_pair", recording)
        metabelian_pcis(G)
    assert tested == [(H.mask, K.mask) for H, K in _first_of_each_class(G, pairs)]


@pytest.mark.parametrize("name", catalog_names())
def test_pairs_match_reference_on_the_catalog(name, cold, monkeypatch):
    _check_pairs_match_reference(build_spec(name), monkeypatch)


@pytest.mark.parametrize("name", ["analyze-large", "family-sweep", "witness-search"])
def test_pairs_match_reference_on_the_workloads(name, workloads, cold, monkeypatch):
    # the groups each benchmark op builds; analyze-large holds D(200)
    for op in workloads.build_ops(name):
        _check_pairs_match_reference(workloads._build(op.build), monkeypatch)


# products whose G/A is not cyclic, or whose B/B' has several primes; on
# S3^3 (G/A = C2^3) subgroups_over needs the intersections of the B it
# has found, without which a pair of the enumeration is not strong
PRODUCTS = ["X(C(2),D(8))", "X(D(8),C(2))", "X(D(8),D(8))", "X(Q(8),D(8))",
            "X(D(6),D(8))", "X(C(2),Q(16))", "X(D(8),C(6))", "X(D(6),X(D(6),D(6)))"]


@pytest.mark.parametrize("spec", PRODUCTS)
def test_pairs_match_reference_on_products(spec, cold, monkeypatch):
    _check_pairs_match_reference(build_spec(spec), monkeypatch)


@pytest.mark.parametrize("source", ["catalog", "analyze-large", "family-sweep",
                                    "witness-search", "products"])
def test_abelian_sections_match_the_lattice(source, workloads):
    # the B >= A, and for each B the K >= B' with B/K cyclic, are those of
    # the lattice, each with generators that generate it
    groups = ([build_spec(spec) for spec in PRODUCTS] if source == "products"
              else _metabelian_groups(source, workloads))
    for G in groups:
        subs = subgroups(G)
        A = maximal_abelian_over(G, derived_subgroup(G))
        over_A = qgring.abelian_sections.subgroups_over(A)
        assert [B.mask for B in over_A] == [B.mask for B in subs if A <= B]
        for B in over_A:
            assert subgroup_generated(G, B.gens).mask == B.mask
            D = qgring.groups.commutator_subgroup(G, B.gens, B.gens)
            kernels = qgring.abelian_sections.cocyclic_subgroups(B, D)
            want = sorted(K.mask for K in subs if D <= K <= B
                          and reference_section_generator(B, K) is not None)
            assert sorted(K.mask for K in kernels) == want, (G.name, B)
            for K in kernels:
                assert subgroup_generated(G, K.gens).mask == K.mask


@pytest.mark.parametrize("spec", ["D(6)", "D(8)", "Q(8)", "SdCyc(3,8,2)"])
def test_metabelian_pcis_refuses_a_non_abelian_A(spec, cold):
    # the enumeration assumes A abelian; G itself made a pair of it fail
    # the strong test, which raised SoundnessError
    G = build_spec(spec)
    with pytest.raises(BNotAbelian):
        metabelian_pcis(G, full_subgroup(G))
    assert len(metabelian_pcis(G)) == artin_count(G)


@pytest.mark.parametrize("spec", ["D(6)", "Q(8)", "D(8)", "SdCyc(3,8,2)"])
def test_section_preconditions_are_checked_exactly(spec, cold):
    # cocyclic_subgroups(B, D) needs B' <= D <= B, section_generator(H, K)
    # needs K <= H: on every pair of subgroups, each raises NotNormal iff
    # its condition fails. D(6) over 1 gave 32 kernels, some not
    # subgroups, and Q(8) over 1 gave the kernels of a cyclic group
    G = build_spec(spec)
    subs = subgroups(G)
    refused = 0
    for B in subs:
        derived = qgring.groups.commutator_subgroup(G, B.gens, B.gens)
        for D in subs:
            if derived <= D <= B:
                qgring.abelian_sections.cocyclic_subgroups(B, D)
            else:
                refused += 1
                with pytest.raises(NotNormal):
                    qgring.abelian_sections.cocyclic_subgroups(B, D)
            if not D <= B:
                with pytest.raises(NotNormal):
                    section_generator(B, D)
    assert refused
    one = subgroup_generated(G, [])
    if spec in ("D(6)", "Q(8)"):
        with pytest.raises(NotNormal):
            qgring.abelian_sections.cocyclic_subgroups(full_subgroup(G), one)
    if spec == "D(6)":
        a, b = (subgroup_generated(G, [G.element(x)]) for x in "ab")
        with pytest.raises(NotNormal):
            section_generator(a, b)  # returned 0, the answer for H = K


def _groups(source, workloads):
    """The groups of the catalog, or those a workload's ops build."""
    if source == "catalog":
        return [build_spec(name) for name in catalog_names()]
    return [workloads._build(op.build) for op in workloads.build_ops(source)]


def _metabelian_groups(source, workloads):
    return [G for G in _groups(source, workloads) if derived_subgroup(G).is_abelian()]


SOURCES = ["catalog", "analyze-large", "family-sweep", "witness-search"]


@pytest.mark.parametrize("source", SOURCES)
def test_conjugate_is_the_per_element_loop(source, workloads):
    # a full element with pairwise distinct coefficients pins the whole
    # permutation; a sparse one on G's generators the support-only loop
    for G in _groups(source, workloads):
        alphas = [AlgElem(G, list(range(1, G.order + 1)), G.order + 1),
                  AlgElem.from_coeffs(G, dict.fromkeys(G.generators(), -2))]
        for alpha in alphas:
            for g in range(G.order):
                assert alpha.conjugate(g) == reference_conjugate(alpha, g)


@pytest.mark.parametrize("source", SOURCES)
def test_metabelian_pcis_takes_no_algebra_product(source, workloads, cold,
                                                  monkeypatch):
    def refused(self, other):
        raise AssertionError("an algebra product was taken")

    monkeypatch.setattr(AlgElem, "__mul__", refused)
    for G in _metabelian_groups(source, workloads):
        assert len(metabelian_pcis(G)) == artin_count(G)


# family-sweep: 976 pairs decided at the parent, 912 with one per class
@pytest.mark.parametrize("source, skips", [("catalog", 24), ("analyze-large", 6),
                                           ("family-sweep", 64), ("witness-search", 0)])
def test_each_skipped_conjugate_pair_is_strong_with_the_same_e(source, skips,
                                                               workloads, cold):
    skipped = 0
    for G in _metabelian_groups(source, workloads):
        pcis = metabelian_pcis(G)
        A = maximal_abelian_over(G, derived_subgroup(G))
        classes = _first_of_each_class(G, qgring.shoda._maximal_abelian_pairs(G, A))
        for (H, K), later in classes.items():
            e = e_idem(G, H, K)
            assert e in [sp.e for sp in pcis]
            for H2, K2 in later:
                assert ("strong", H2.mask, K2.mask) not in G._cache  # not decided
                pair = qgring.shoda._strong_shoda(G, H2, K2)
                assert pair is not None
                assert qgring.shoda._conjugate_sum(pair.epsilon, pair.transversal) == e
                skipped += 1
    assert skipped == skips


# 136 528 cases on the catalog, 127 350 of them with a nonzero product
@pytest.mark.parametrize("source", SOURCES)
def test_trace_form_decides_orthogonality_as_the_product(source, workloads, cold):
    # every t in G and every pair K normal in H with H/K cyclic, strong or
    # not; eps^t = eps^(ct) for c in C = Cen_G(eps), so the product is
    # taken once per right coset Ct
    for G in _groups(source, workloads):
        if G.order > 100:
            continue
        for H, K in _normal_pairs(G):
            if section_generator(H, K) is None:
                continue
            eps = epsilon(H, K)
            index, reps = qgring.groups.cosets(eps.centralizer_subgroup())
            products = [(eps * eps.conjugate(t)).is_zero() for t in reps]
            orthogonal = qgring.shoda._orthogonal_to_conjugate(eps)
            assert (list(map(orthogonal, range(G.order)))
                    == list(map(products.__getitem__, index))), (G.name, H, K)


def test_family_sweep_work_counts(workloads, monkeypatch):
    # one strong decision per class of pairs (976 decisions when each pair
    # was decided), no product in the strong test (222 when it multiplied
    # eps by its conjugates) and the left cosets of a kernel asked for only
    # for a PCI with H != G (912 calls, 909 of them walks, when they were
    # asked for every PCI)
    counts = Counter()
    inside = []
    decide, multiply, walk = (qgring.shoda._strong_shoda, AlgElem.__mul__,
                              qgring.algebra.cosets)

    def deciding(G, H, K):
        counts["decisions"] += 1
        inside.append(True)
        try:
            return decide(G, H, K)
        finally:
            inside.pop()

    def multiplying(self, other):
        counts["products"] += bool(inside)
        return multiply(self, other)

    def walking(S, within=None, left=False):
        counts["kernel cosets"] += 1  # _idempotent_at_classes is the only caller
        return walk(S, within, left)

    groups = family_sweep_groups(workloads)
    monkeypatch.setattr(qgring.shoda, "_strong_shoda", deciding)
    monkeypatch.setattr(AlgElem, "__mul__", multiplying)
    monkeypatch.setattr(qgring.algebra, "cosets", walking)
    pcis = sum(len(metabelian_pcis(G)) for _, G in groups)
    top = sum(sp.H.order == G.order for _, G in groups for sp in metabelian_pcis(G))
    assert (pcis, top) == (912, 694)
    assert (counts["decisions"], counts["products"], counts["kernel cosets"]) == \
        (912, 0, 912 - 694)


@pytest.mark.parametrize("spec, decisions", [("EA(2,4)", 16), ("X(C(4),EA(2,3))", 24)])
def test_the_pair_enumeration_tests_no_section(spec, decisions, cold, monkeypatch):
    # each (B, K) is a kernel of a character of B/B', so B/K is cyclic by
    # construction: no candidate pair is tested (99 and 166 calls when
    # every candidate was, 48 and 107 with a filter by exp(H)). The
    # enumeration asks the B/B' question of section_generator in
    # abelian_sections, which this patch of shoda's name does not see; the
    # strong test asks shoda's name once per decided pair, for x (the coset
    # exponents ask abelian_sections' own)
    G = build_spec(spec)
    made = []
    orig = qgring.shoda.section_generator

    def counting(H, K):
        made.append((H.mask, K.mask))
        return orig(H, K)

    monkeypatch.setattr(qgring.shoda, "section_generator", counting)
    pairs = qgring.shoda._maximal_abelian_pairs(
        G, maximal_abelian_over(G, derived_subgroup(G)))
    assert pairs and made == []
    metabelian_pcis(G)
    assert len(made) == decisions
    assert sum(isinstance(key, tuple) and key[0] == "strong"
               for key in G._cache) == decisions


def _refuse_the_lattice(monkeypatch):
    """Make every call of groups.subgroups, under any module's name for
    it, raise."""
    orig = qgring.groups.subgroups

    def refused(G):
        raise AssertionError(f"the subgroup lattice of {G.name} was built")

    for module in (qgring.groups, qgring.algebra, qgring.shoda,
                   qgring.components, qgring.props):
        if getattr(module, "subgroups", None) is orig:
            monkeypatch.setattr(module, "subgroups", refused)


@pytest.mark.parametrize("source", ["catalog", "family-sweep", "witness-search"])
def test_component_count_builds_no_lattice(source, workloads, cold, monkeypatch):
    # the PCIs come from abelian sections: A, the B >= A and the kernels of
    # the characters of each B/B'. The witness search walks the cyclic
    # subgroups alone, so nd_verdict builds no lattice either. A pair's
    # label names the lattice's generators by the lattice's own rule, in
    # closed form for a nilpotent or metacyclic G
    groups = _metabelian_groups(source, workloads)
    _refuse_the_lattice(monkeypatch)
    labelled = 0
    for G in groups:
        G._cache.clear()
        count, comps = count_matrix_components(G)
        assert len(comps) == artin_count(G)
        G._cache.clear()
        assert nd_verdict(G).matrix_count == count
        if is_nilpotent_group(G) or is_metacyclic(G):
            labelled += len([sp.describe() for sp, _ in comps])
    assert labelled
    with pytest.raises(AssertionError, match="lattice"):
        qgring.groups.subgroups(groups[0])  # the refusal is in force


CENTRAL_GROUPS = ["D12", "Q16", "A4", "C3rC8", "BJ9", "relabelled D12"]


def _elements(G):
    """Class sums, symmetrized sparse elements and random integer vectors."""
    classes = G.conjugacy_classes()
    class_sums = st.lists(st.integers(-3, 3), min_size=len(classes),
                          max_size=len(classes)).map(
        lambda cs: AlgElem(G, _class_vector(G, cs)))
    sparse = st.dictionaries(st.integers(0, G.order - 1),
                             st.integers(-2, 2).filter(bool),
                             min_size=1, max_size=4).map(
        lambda coeffs: AlgElem.from_coeffs(G, coeffs))
    symmetrized = sparse.map(
        lambda a: sum((a.conjugate(g) for g in range(G.order)), AlgElem.zero(G)))
    vectors = st.lists(st.integers(-2, 2), min_size=G.order,
                       max_size=G.order).map(lambda nums: AlgElem(G, nums))
    # a central element moved at one point
    nudged = st.tuples(class_sums, st.integers(0, G.order - 1)).map(
        lambda ag: ag[0] + AlgElem.basis(G, ag[1]))
    return st.one_of(class_sums, symmetrized, vectors, nudged)


def _class_vector(G, coeffs):
    nums = [0] * G.order
    for c, cls in zip(coeffs, G.conjugacy_classes()):
        for g in cls:
            nums[g] = c
    return nums


@functools.lru_cache(maxsize=None)
def _central_group(name):
    return _group(name)


@pytest.mark.parametrize("name", CENTRAL_GROUPS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_constancy_decides_centrality_as_the_reference(name, data):
    G = _central_group(name)
    alpha = data.draw(_elements(G))
    assert alpha.is_central() == reference_fixed_by_generators(alpha)


@pytest.mark.parametrize("name", catalog_names())
def test_class_sums_are_central(name):
    G = build_spec(name)
    for cls in G.conjugacy_classes():
        nums = [0] * G.order
        for g in cls:
            nums[g] = 1
        assert AlgElem(G, nums).is_central()


def _d12_q12():
    """D12 and Q12 from the catalog, each with <a> and its trivial
    subgroup: the same masks in two groups."""
    D, Q = qgring.catalog.build_named("D12"), qgring.catalog.build_named("Q12")
    return [(G, subgroup_generated(G, [G.element("a")]), subgroup_generated(G, []))
            for G in (D, Q)]


@pytest.mark.parametrize("call", [
    lambda D, a, one: strong_pair(D, a, one),
    lambda D, a, one: is_strong_shoda_pair(D, a, one),
    lambda D, a, one: e_idem(D, a, one),
    lambda D, a, one: describe_component(D, a, one),
    lambda D, a, one: is_shoda_pair(D, a, one),
    lambda D, a, one: section_generator(subgroup_generated(D, [1]), one),
    lambda D, a, one: is_normal(D, a),
    lambda D, a, one: is_normal_in(subgroup_generated(D, [1]), one),
    lambda D, a, one: quotient(D, one),
    lambda D, a, one: abelian_invariants(D, a),
], ids=["strong_pair", "is_strong_shoda_pair", "e_idem", "describe_component",
        "is_shoda_pair", "section_generator", "is_normal", "is_normal_in",
        "quotient", "abelian_invariants"])
def test_a_subgroup_of_another_group_is_refused(call):
    # each memo of G is keyed by a subgroup's mask alone: Q12's <a> would
    # store a record in D12's cache that D12's own <a> then reads
    (D, aD, oneD), (Q, aQ, oneQ) = _d12_q12()
    cached = set(D._cache)
    with pytest.raises(GroupMismatch):
        call(D, aQ, oneQ)
    assert set(D._cache) == cached
    assert e_idem(D, aD, oneD).group is D
    assert describe_component(D, aD, oneD).degree == 2


def test_subgroups_of_two_groups_are_not_compared():
    # D12's and Q12's <a> have one mask, so <= held both ways, and cosets
    # keyed D12's memo by a within of Q12 ([0, 6] came back)
    (D, aD, _), (Q, aQ, _) = _d12_q12()
    calls = [lambda: aQ <= aD, lambda: aD <= aQ, lambda: aQ <= full_subgroup(D),
             lambda: qgring.groups.cosets(aD, within=full_subgroup(Q)),
             lambda: aQ < full_subgroup(D)]
    cached = set(D._cache)
    for call in calls:
        with pytest.raises(GroupMismatch):
            call()
    assert set(D._cache) == cached
    assert aD <= full_subgroup(D) and aD < full_subgroup(D) and not aD < aD
    assert qgring.groups.cosets(aD, within=full_subgroup(D))[1] == [0, 6]


def test_is_normal_in_is_false_for_a_subgroup_outside():
    (D, a, _), _ = _d12_q12()
    b = subgroup_generated(D, [D.element("b")])
    assert is_normal(D, a) and not b <= a
    assert not is_normal_in(a, b)
    assert not is_normal_in(a, full_subgroup(D))
