"""The subgroup lattice and SN/SSN/NCN against their original implementations.

`subgroups` grows each join by cosets, skips the joins it can already
name and scans one member per conjugacy class where its own data names
the class; `is_sn` and `is_ssn` test each join <y>N by cosets, with no
closure, `is_ssn` for one non-normal N per conjugacy class, and
`is_ncn` needs no lattice for a Dedekind group.
reference_lattice.py holds the original code, which closes every join
from its generators, runs SN on a standalone group per subgroup and
tests every non-cyclic subgroup for NCN, and `coset_subgroups`, the
coset lattice that scans every seed and every subgroup. All must give
the same lattice, generators included, and the same verdicts.
The work saved is pinned as counts of `_closure` calls, and the work of
the PCI enumeration's scans over the lattice as counts of subgroup
comparisons. The SSN scan computes N_G(N) once per conjugacy class of
the N not normal in G.
"""

import hashlib

import pytest

import qgring.cli
import qgring.groups
import qgring.props
from qgring.catalog import build_named, build_spec, catalog_names
from qgring.components import count_matrix_components
from qgring.errors import OrderCapExceeded
from qgring.groups import (FiniteGroup, Subgroup, _closure, _conjugated_row,
                           _cyclic_seeds, _seed_classes, artin_count,
                           conjugate_mask, cyclic_subgroups, dihedral,
                           elementary_abelian, is_metacyclic,
                           is_nilpotent_group, is_normal, lattice_generators,
                           normal_subgroups, subgroups)
from qgring.props import classify_ssn, is_hamiltonian, is_ncn, is_sn, is_ssn
from qgring.shoda import metabelian_pcis
import reference_lattice
from invariants import record_calls, relabel, relabelling
from reference_lattice import (coset_subgroups, lattice_is_sn,
                               reference_acts_reducibly, reference_is_minimal_nonabelian,
                               reference_is_ncn, reference_is_sn, reference_is_ssn,
                               reference_subgroups)
from test_builders import SDVEC
from test_workloads import workloads  # noqa: F401  (the fixture)

# the groups analyzed by the benchmark's analyze-large and witness-search
# workloads
CORPUS = ["D(200)", "X(Q(8),C(25))", "X(Q(8),C(27))", "SdCyc(7,27,2)",
          "SdCyc(3,8,2)", "SdCyc(5,8,2)", "SdCyc(3,16,2)", "SdCyc(5,16,2)",
          "SdCyc(13,8,5)", "X(SdCyc(3,8,2),C(2))"]
# the heaviest lattices of the benchmark's family-sweep workload
FAMILY = ["SdCyc(47,4,46)", "SdCyc(43,4,42)", "SdCyc(41,4,40)", "D(128)"]


def _build(name):
    return build_spec(name) if "(" in name else build_named(name)


def _same_lattice(G):
    return ([(H.mask, H.gens) for H in subgroups(G)]
            == [(H.mask, H.gens) for H in reference_subgroups(G)])


@pytest.mark.parametrize("name", catalog_names() + CORPUS + FAMILY)
def test_lattice_and_verdicts_match_reference(name):
    G = _build(name)
    assert _same_lattice(G)
    assert is_sn(G) == reference_is_sn(G)
    assert is_ssn(G) == reference_is_ssn(G)


# groups whose lattices are mostly 3- and 4-generated
RULE_EXTRA = ["EA(2,4)", "EA(3,3)", "X(D(8),EA(2,3))"]


def _p_groups(names):
    return [name for name in names if _build(name).is_p_group()[0]]


@pytest.mark.parametrize("name", _p_groups(catalog_names() + CORPUS + FAMILY
                                           + RULE_EXTRA))
def test_ncn_matches_reference(name):
    assert is_ncn(_build(name)) == reference_is_ncn(_build(name))


@pytest.mark.parametrize("workload", ["analyze-large", "family-sweep",
                                      "witness-search"])
def test_ncn_matches_reference_on_the_workloads(workload, workloads):
    for op in workloads.build_ops(workload):
        G = workloads._build(op.build)
        if G.is_p_group()[0]:
            assert is_ncn(G) == reference_is_ncn(G), op.label


# the factors of the product sweep (ROADMAP, Baseline)
FACTORS = ["C(2)", "C(3)", "C(4)", "C(5)", "C(6)", "C(7)", "C(8)", "EA(2,2)",
           "EA(2,3)", "EA(2,4)", "EA(3,2)", "D(6)", "D(8)", "D(10)", "D(12)",
           "D(14)", "D(16)", "Q(8)", "Q(12)", "Q(16)", "A4", "SdCyc(3,8,2)",
           "SdCyc(5,4,2)", "SdCyc(7,3,2)", "Heis27", "C9rC3", "D8cpD8", "BJ4",
           "BJ5", "BJ8", "BJ9", "X(C(2),D(8))"]
# generalized dihedral groups of C3^2 and C5^2, where C2 acts reducibly
GENERALIZED_DIHEDRAL = ["SdVec(3,2,[[2,0],[0,2]],2)", "SdVec(5,2,[[4,0],[0,4]],2)"]


def _props_corpus(workloads):
    """The catalog, the corpora, the SdVec builds, the generalized dihedral
    groups, the ordered products of two factors of order <= 64 and the
    three workloads' groups."""
    orders = {name: _build(name).order for name in FACTORS}
    products = [f"X({a},{b})" for a in FACTORS for b in FACTORS
                if orders[a] * orders[b] <= 64]
    names = (catalog_names() + CORPUS + FAMILY + RULE_EXTRA + SDVEC
             + GENERALIZED_DIHEDRAL + products)
    return [_build(name) for name in names] + [
        workloads._build(op.build) for workload in ("analyze-large", "family-sweep",
                                                    "witness-search")
        for op in workloads.build_ops(workload)]


def test_minimality_matches_the_lattice_scan(workloads):
    # Redei's criterion against the lattice scan, on every nonabelian
    # p-group of the corpus (a superset of the NCN p-groups that
    # _ncn_family sees); 29 of the 108 are minimal nonabelian
    verdicts = []
    for G in _props_corpus(workloads):
        ok, p = G.is_p_group()
        if ok and not G.is_abelian():
            verdicts.append(reference_is_minimal_nonabelian(G))
            assert qgring.props._is_minimal_nonabelian(G, p) == verdicts[-1], G.name
    assert (len(verdicts), sum(verdicts)) == (108, 29)


def test_type_i_matches_the_lattice_scan(workloads, monkeypatch):
    # every type (i) test that classify_ssn makes on the corpus, against
    # the lattice scan: 30 tests on 19 groups, 7 of them reducible
    acts_reducibly = qgring.props._acts_reducibly
    calls = record_calls(monkeypatch, qgring.props, "_acts_reducibly")
    for G in _props_corpus(workloads):
        classify_ssn(G)
    verdicts = [reference_acts_reducibly(G, P, gen) for G, P, gen in calls]
    assert [acts_reducibly(*call) for call in calls] == verdicts
    assert (len(calls), len({G.name for G, _, _ in calls}), sum(verdicts)) == (30, 19, 7)


@pytest.mark.parametrize("name", catalog_names() + CORPUS + RULE_EXTRA)
def test_lattice_generators_are_the_lattices(name):
    # the rule gives every subgroup the generators subgroups() gives it; on
    # a twin of G with cold caches, no lattice is built where the rule has
    # a closed form, for every subgroup of a nilpotent or metacyclic G
    G = _build(name)
    twin = FiniteGroup(G.table, G.names, name=G.name)
    for S in subgroups(G):
        assert lattice_generators(twin, Subgroup(twin, S.mask)) == S.gens, S
    closed = is_nilpotent_group(G) or is_metacyclic(G)
    assert ("subgroups" in twin._cache) is not closed


def _same_as_coset_lattice(G):
    return ([(H.mask, H.gens) for H in subgroups(G)]
            == [(H.mask, H.gens) for H in coset_subgroups(G)])


# groups where both class shortcuts fire: seeds that take a conjugated
# join row, and 2-generated subgroups skipped as conjugates
CLASSED = ["D(128)", "D(240)", "X(A5,C(2))", "X(A5,C(4))", "X(D(10),D(10))",
           "X(D(8),D(8))", "X(D(12),EA(2,2))"]


@pytest.mark.parametrize("name", catalog_names() + CORPUS + CLASSED)
def test_lattice_matches_the_coset_lattice(name):
    assert _same_as_coset_lattice(_build(name))


@pytest.mark.parametrize("workload", ["analyze-large", "family-sweep",
                                      "witness-search"])
def test_lattice_matches_the_coset_lattice_on_the_workloads(workload, workloads):
    for op in workloads.build_ops(workload):
        assert _same_as_coset_lattice(workloads._build(op.build)), op.label


@pytest.mark.parametrize("spec, seed", [("D(200)", 1), ("SdCyc(7,27,2)", 2),
                                        ("D8cpQ8", 3)])
def test_lattice_generators_survive_a_relabelling(spec, seed):
    # the least tuple depends on the element numbering, which the
    # relabelling moves; the rule still gives the lattice's generators
    R = relabel(_build(spec), seed)
    twin = FiniteGroup(R.table, R.names, name=R.name)
    assert [lattice_generators(twin, Subgroup(twin, S.mask)) for S in subgroups(R)] \
        == [S.gens for S in subgroups(R)]
    assert "subgroups" not in twin._cache


@pytest.mark.parametrize("name", CLASSED)
def test_sn_matches_the_lattice_scan(name):
    # each of these is not SN
    assert is_sn(_build(name)) == lattice_is_sn(_build(name))


@pytest.mark.parametrize("workload", ["analyze-large", "family-sweep",
                                      "witness-search"])
def test_sn_matches_the_lattice_scan_on_the_workloads(workload, workloads):
    for op in workloads.build_ops(workload):
        G = workloads._build(op.build)
        assert is_sn(G) == lattice_is_sn(G), op.label


@pytest.mark.parametrize("spec", ["A5", "D(60)", "X(D(6),D(6))"])
def test_conjugated_rows_are_the_join_rows(spec):
    # a wrong join that the lattice already holds changes no output, so the
    # rows are checked against the closures <C_i, C_q> themselves
    G = _build(spec)
    seen = {H.mask: H for H in subgroups(G)}
    least = [p[0] for p in _cyclic_seeds(G)[0]]
    rows = [{q: _closure(G, (c, d)) for q, d in enumerate(least)} for c in least]
    rep = _seed_classes(G)[0]
    assert rep != list(range(len(rep)))
    for i, closures in enumerate(rows):
        if rep[i] != i:
            row, new = _conjugated_row(G, i, rows, seen)
            assert row == closures
            # the new joins: each join of the row that no seed k <= i
            # reaches, at the first seed above i that does
            old = {closures[k] for k in range(i + 1)}
            firsts = {}
            for k in range(i + 1, len(rows)):
                if closures[k] not in old:
                    firsts.setdefault(closures[k], k)
            assert new == sorted((k, mask) for mask, k in firsts.items())


def test_a_cold_lattice_builds_one_permutation_per_conjugated_row(monkeypatch):
    # the seeds are classed through the generators' permutations of G, and
    # each seed C_i = C_r^g that takes a conjugated row reads that of g^-1
    G = dihedral(200)
    built = record_calls(monkeypatch, qgring.groups, "_conjugation")
    assert len(subgroups(G)) == 226
    rep, by = _seed_classes(G)[:2]
    conjugators = [G.inverse[by[i]] for i in range(len(rep)) if rep[i] != i]
    assert len(conjugators) == 98
    assert [g for _G, g in built] == list(G.generators()) + conjugators


# sha256 of the (mask, gens) list of every catalog name's lattice and of
# every group the three workloads build, in that order, from before the
# conjugated join rows were read through the seed permutations
LATTICE_DIGEST = "db89783570e7989661841bcd3306441dde49788d47d877af1b75267458c607a2"


def test_lattices_keep_their_masks_and_gens(workloads):
    groups = [_build(name) for name in catalog_names()]
    for workload in ("analyze-large", "family-sweep", "witness-search"):
        groups += [workloads._build(op.build) for op in workloads.build_ops(workload)]
    digest = hashlib.sha256()
    for G in groups:
        digest.update(repr([(H.mask, H.gens) for H in subgroups(G)]).encode())
    assert digest.hexdigest() == LATTICE_DIGEST


@pytest.mark.parametrize("spec, seed", [("D(200)", 1), ("A5", 2)])
def test_lattice_and_counts_survive_a_relabelling(spec, seed):
    # the relabelled seed order and generators make other seeds the first
    # of their classes, so the shortcuts run from other representatives
    G = _build(spec)
    perm = relabelling(G.order, seed)
    R = relabel(G, seed)

    def moved(mask):
        return sum(1 << perm[x] for x in range(G.order) if mask >> x & 1)

    def first_seeds(G):
        rep = _seed_classes(G)[0]
        return {C.mask for k, C in enumerate(cyclic_subgroups(G)) if rep[k] == k}

    assert {moved(m) for m in first_seeds(G)} != first_seeds(R)
    assert {moved(H.mask) for H in subgroups(G)} == {H.mask for H in subgroups(R)}
    assert (is_sn(G), is_ssn(G)) == (is_sn(R), is_ssn(R))
    # the idempotents the pipeline classifies: every PCI of D(200), and
    # A5's one special PCI
    assert (len(count_matrix_components(G)[1]) == len(count_matrix_components(R)[1])
            == {"D(200)": 11, "A5": 1}[spec])
    assert artin_count(G) == artin_count(R) == {"D(200)": 11, "A5": 4}[spec]


def _is_hamiltonian_without_lattice(G):
    G._cache.clear()
    hamiltonian = is_hamiltonian(G)
    assert "subgroups" not in G._cache
    return hamiltonian == (not G.is_abelian()
                           and len(normal_subgroups(G)) == len(subgroups(G)))


@pytest.mark.parametrize("name", catalog_names())
def test_is_hamiltonian_reads_the_cyclic_subgroups_on_the_catalog(name):
    # non-abelian with every subgroup normal, decided on the cyclic ones
    assert _is_hamiltonian_without_lattice(_build(name))


@pytest.mark.parametrize("workload", ["analyze-large", "family-sweep",
                                      "witness-search"])
def test_is_hamiltonian_reads_the_cyclic_subgroups_on_the_workloads(workload,
                                                                    workloads):
    for op in workloads.build_ops(workload):
        assert _is_hamiltonian_without_lattice(workloads._build(op.build)), op.label


def test_elementary_abelian_lattice_matches_reference(monkeypatch):
    # 374 subgroups, 31 of them cyclic: each join <H, c> is the product set
    # H u cH, so none is closed
    G = elementary_abelian(2, 5)
    closures = record_calls(monkeypatch, qgring.groups, "_closure")
    assert _same_lattice(G)
    assert closures == []


def test_cold_lattice_closes_few_joins(monkeypatch):
    G = build_spec("D(200)")
    G._cache.clear()
    closures = record_calls(monkeypatch, qgring.groups, "_closure")
    subgroups(G)
    # 5 668 joins when each one not skipped by a double coset was closed;
    # now each is named or, as <a> is normal, a product set, and the
    # cyclic seeds are power walks
    assert closures == []


def test_cold_lattice_names_most_cyclic_joins(monkeypatch):
    G = build_spec("D(200)")
    G._cache.clear()
    closures = record_calls(monkeypatch, qgring.groups, "_closure")
    products = record_calls(monkeypatch, qgring.groups, "_cyclic_join")
    assert len(subgroups(G)) == 226
    # 618 product sets when a level-2 join was not read off the first
    # level's joins <C_s, C_q>, and 209 when every seed and every
    # 2-generated subgroup was scanned, not one per conjugacy class
    assert len(products) <= 133
    assert closures == []


def test_pci_enumeration_makes_few_subgroup_comparisons(monkeypatch):
    G = build_spec("X(D(8),EA(2,3))")
    G._cache.clear()
    assert len(subgroups(G)) == 937
    # __lt__ calls __le__, so it is counted too
    calls = record_calls(monkeypatch, Subgroup, "__le__")
    metabelian_pcis(G)
    # 941 747 when A <= B was tested again for every K, and every abelian
    # candidate over G' against all the others
    assert len(calls) <= 60000


@pytest.mark.parametrize("name", ["BJ9", "D8cpQ8"])
def test_sn_and_ssn_make_no_closure_on_a_cached_lattice(name, monkeypatch):
    G = build_named(name)
    G._cache.clear()
    normal_subgroups(G)
    closures = record_calls(monkeypatch, qgring.groups, "_closure")
    assert is_sn(G)
    # SN reads no lattice: its only closures are the normal closures of one
    # non-normal seed per conjugacy class, each started once from its seed
    seeds = cyclic_subgroups(G)
    assert sum(len(args) < 3 or args[2] is None for args in closures) == len(
        {k for k in _seed_classes(G)[0] if not is_normal(G, seeds[k])}) > 0
    closures.clear()
    assert is_ssn(G)
    assert closures == []


@pytest.mark.parametrize("spec", ["D(200)", "BJ9"])
def test_is_ssn_builds_no_group(spec, monkeypatch):
    G = _build(spec)
    G._cache.clear()
    built = record_calls(monkeypatch, FiniteGroup, "__init__")
    is_ssn(G)
    assert built == []


def test_subgroup_cap_stops_at_the_first_subgroup_over_it(monkeypatch):
    G = elementary_abelian(2, 4)  # 67 subgroups, 16 of them cyclic
    counts = []
    orig = qgring.groups._check_subgroup_count

    def recording(G, found):
        counts.append(len(found))
        orig(G, found)

    monkeypatch.setattr(qgring.groups, "_check_subgroup_count", recording)
    monkeypatch.setattr(qgring.groups, "MAX_SUBGROUPS", 20)
    with pytest.raises(OrderCapExceeded):
        subgroups(G)
    # the 16 cyclic seeds are counted at once, then each new join
    assert counts[-1] == 21
    monkeypatch.setattr(qgring.groups, "MAX_SUBGROUPS", 67)
    assert len(subgroups(G)) == 67


def test_subgroup_cap_stops_where_the_coset_lattice_stops(monkeypatch):
    # D(200)'s 98 conjugated seed rows find their joins in the order the
    # full scan finds them, so the cap stops at the same subgroup
    G = build_spec("D(200)")
    stops = []
    orig = qgring.groups._check_subgroup_count

    def recording(G, found):
        if len(found) > 150:
            stops.append(list(found))
        orig(G, found)

    monkeypatch.setattr(qgring.groups, "_check_subgroup_count", recording)
    monkeypatch.setattr(reference_lattice, "_check_subgroup_count", recording)
    monkeypatch.setattr(qgring.groups, "MAX_SUBGROUPS", 150)
    for lattice in (subgroups, coset_subgroups):
        G._cache.clear()
        with pytest.raises(OrderCapExceeded):
            lattice(G)
    assert len(stops[0]) == 151 and stops[0] == stops[1]


def test_a_dedekind_group_scans_nothing(capsys, monkeypatch):
    # Q8 x EA(2,4) is Hamiltonian: every subgroup is normal, so SN, SSN and
    # NCN ask the normality of its cyclic subgroups alone, and they test no
    # join and compute no N_G(N)
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})
    G = build_spec("X(Q(8),EA(2,4))")
    closures = record_calls(monkeypatch, qgring.groups, "_closure")
    subs = subgroups(G)
    # every join <H, c> is a product set H<c>, and the 128 cyclic seeds are
    # power walks
    assert closures == []
    assert len(subs) == len(normal_subgroups(G)) == 3132
    joins = record_calls(monkeypatch, qgring.props, "_join_is_normal")
    # props binds is_normal at import, so its calls are recorded there
    normal = [record_calls(monkeypatch, module, "is_normal")
              for module in (qgring.groups, qgring.props)]
    normalizers = record_calls(monkeypatch, qgring.props, "normalizer_mask")
    assert is_sn(G) and is_ssn(G) and is_ncn(G) and is_hamiltonian(G)
    assert joins == normalizers == []
    asked = {H.mask for calls in normal for _G, H in calls}
    assert asked and asked <= {C.mask for C in cyclic_subgroups(G)}
    assert qgring.cli.main(["--json", "analyze", "X(Q(8),EA(2,4))"]) == 0
    # sha256 of the output before the scans read normality off the lattice
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "a8d01e239609ed9117ab3389d3eb65ba38d8bc63c74b2e313e2d5c237aa49bee")


@pytest.mark.parametrize("spec, computed", [
    ("D(200)", 0),  # not SN, so the scan over the non-normal N never starts
    ("BJ9", 15),    # 30 non-normal subgroups
    ("A5", 7),      # 57 non-normal subgroups
])
def test_ssn_computes_n_g_n_once_per_class(spec, computed, monkeypatch):
    G = _build(spec)
    G._cache.clear()
    lattice = {H.mask for H in subgroups(G)}
    normals = {N.mask for N in normal_subgroups(G)}
    # props binds is_normal at import, so its calls are recorded there
    normal = [record_calls(monkeypatch, module, "is_normal")
              for module in (qgring.groups, qgring.props)]
    normalizers = record_calls(monkeypatch, qgring.props, "normalizer_mask")
    is_sn(G)
    is_ssn(G)
    is_hamiltonian(G)
    masks = [N.mask for _G, N in normalizers]
    assert len(masks) == len(set(masks)) == computed
    asked = {H.mask for calls in normal for _G, H in calls}
    if not computed:
        # the normality of cyclic subgroups alone is asked
        assert asked <= {C.mask for C in cyclic_subgroups(G)}
        return
    # one N per class: their conjugates are the non-normal subgroups, and
    # the normality of every other subgroup is asked
    conjugates = {conjugate_mask(G, N, g) for _G, N in normalizers
                  for g in range(G.order)}
    assert conjugates == lattice - normals
    assert lattice - asked <= conjugates - set(masks)
