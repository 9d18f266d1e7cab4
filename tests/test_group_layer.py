"""Subgroup scans, normality and commutator subgroups against their original
implementations.

The library builds every subgroup given by a membership test (normalizers,
centralizers, subgroups from masks, the generators of G) by stating the
test as a mask and wrapping it with one greedy generator scan,
`groups.subgroup_from_mask`, tests normality with
`groups.normalizes` on generators, forms [A, B] as the normal closure of
the commutators of generators and reads the conjugacy classes off one
build over the generators' conjugation permutations. reference_groups.py
holds the original code, which tests every element, forms every
commutator and conjugates by every element; both must give the same
subgroups, generators included, the same classes and the same verdicts.
`conjugate_mask(G, S, t)` must be the set of the t^-1 s t, s in S.
Nilpotency is decided by the Sylow rule of `groups._sylow_masks` and the
invariants of an abelian subgroup by a basis found prime by prime; the
references run the lower central series and count element orders.
"""

import sys
from collections import Counter

import pytest

import qgring.catalog
from qgring.catalog import build_spec, catalog_names
from qgring.components import count_matrix_components
from qgring.errors import InconsistentSpec
from qgring.groups import (
    FiniteGroup,
    _basis_generators,
    _cyclic_seeds,
    _sylow_masks,
    centralizer,
    commutator_subgroup,
    conjugate_mask,
    cyclic,
    cyclic_subgroups,
    derived_subgroup,
    dihedral,
    is_nilpotent_group,
    is_normal,
    is_solvable_group,
    normalizer,
    subgroup_from_mask,
    subgroups,
)
from qgring.props import abelian_invariants
from reference_groups import (
    reference_abelian_invariants,
    reference_centralizer,
    reference_commutator_subgroup,
    reference_conjugacy_classes,
    reference_derived_subgroup,
    reference_generators,
    reference_is_abelian,
    reference_is_nilpotent_group,
    reference_is_normal,
    reference_is_solvable_group,
    reference_normalizer,
    reference_subgroup_from_mask,
)
from invariants import conjugate_subgroup
from test_workloads import workloads  # noqa: F401  (the fixture)

ANALYZE_LARGE = ("D(200)", "X(Q(8),C(25))", "X(Q(8),C(27))", "SdCyc(7,27,2)",
                 "BJ9", "C3C3rC8", "A5")
WITNESS_SEARCH = ("SdCyc(3,8,2)", "SdCyc(5,8,2)", "SdCyc(3,16,2)",
                  "SdCyc(5,16,2)", "SdCyc(13,8,5)", "X(SdCyc(3,8,2),C(2))")
SPECS = sorted(set(catalog_names()) | set(ANALYZE_LARGE) | set(WITNESS_SEARCH))


def _pair(S):
    return S.mask, S.gens


@pytest.mark.parametrize("spec", SPECS)
def test_group_layer_matches_reference(spec):
    G = build_spec(spec)
    assert G.generators() == reference_generators(G)
    assert G.conjugacy_classes() == reference_conjugacy_classes(G)
    assert derived_subgroup(G).mask == reference_derived_subgroup(G).mask
    assert is_nilpotent_group(G) == reference_is_nilpotent_group(G)
    assert is_solvable_group(G) == reference_is_solvable_group(G)
    gens = G.generators()
    for H in subgroups(G):
        assert _pair(normalizer(G, H)) == _pair(reference_normalizer(G, H))
        assert (_pair(subgroup_from_mask(G, H.mask))
                == _pair(reference_subgroup_from_mask(G, H.mask)))
        assert (_pair(centralizer(G, H.members))
                == _pair(reference_centralizer(G, H.members)))
        assert is_normal(G, H) == reference_is_normal(G, H)
        assert H.is_abelian() == reference_is_abelian(H)
        assert (commutator_subgroup(G, H.gens, gens).mask
                == reference_commutator_subgroup(G, H.members, range(G.order)).mask)
        for t in gens:
            assert conjugate_mask(G, H, t) == conjugate_subgroup(G, H, t).mask


@pytest.mark.parametrize("spec", ["X(D(8),C(3))", "X(A5,C(2))",
                                  "X(D(6),X(D(6),D(6)))"])
def test_is_nilpotent_group_matches_reference(spec):
    G = build_spec(spec)
    assert is_nilpotent_group(G) == reference_is_nilpotent_group(G)


def test_both_readers_of_the_sylow_rule_match_reference():
    # every subgroup of the SPECS groups of order at most 72, decided as a
    # subgroup of G (_sylow_masks, and the lattice's generator rule, which
    # returns None for a non-nilpotent S) and as a standalone group
    verdicts = Counter()
    for spec in SPECS:
        G = build_spec(spec)
        if G.order > 72:
            continue
        least = _cyclic_seeds(G).least
        for S in subgroups(G):
            nilpotent = reference_is_nilpotent_group(S.induced()[0])
            seeds = [(mask, g) for mask, g in least.items() if mask & S.mask == mask]
            assert (_sylow_masks(G, S.mask) is None) == (not nilpotent), (spec, S)
            if S.mask != 1 and S.mask not in least:  # asked for non-cyclic S only
                assert ((_basis_generators(G, S, seeds) is None)
                        == (not nilpotent)), (spec, S)
            verdicts[nilpotent] += 1
    assert verdicts == {True: 790, False: 84}


def test_abelian_invariants_match_reference():
    # the abelian subgroups of the SPECS groups of order at most 72, every
    # cyclic subgroup, and the odd parts of four Hamiltonian groups
    cases = []
    for spec in SPECS:
        G = build_spec(spec)
        cases += [(G, C) for C in cyclic_subgroups(G)]
        if G.order <= 72:
            cases += [(G, H) for H in subgroups(G) if H.is_abelian()]
    for spec in ("X(Q(8),C(15))", "X(X(Q(8),C(3)),C(3))", "X(Q(8),C(25))",
                 "X(Q(8),C(27))"):
        G = build_spec(spec)
        cases.append((G, subgroup_from_mask(G, sum(
            1 << g for g, m in enumerate(G.element_orders()) if m % 2))))
    for G, H in cases:
        assert (abelian_invariants(G, H)
                == reference_abelian_invariants(G, H)), (G.name, H)
    assert len(cases) == 1286


def test_commutator_subgroup_takes_members_or_generators():
    G = build_spec("A5")
    for H in subgroups(G):
        ref = reference_commutator_subgroup(G, H.members, H.members).mask
        assert commutator_subgroup(G, H.members, H.members).mask == ref
        assert commutator_subgroup(G, H.gens, H.gens).mask == ref


def test_subgroup_from_mask_returns_the_greedy_generators():
    G = build_spec("D(200)")
    # the rotations are the elements 0..99 of D(200), generated by 1
    rotations = subgroup_from_mask(G, (1 << 100) - 1)
    assert _pair(rotations) == ((1 << 100) - 1, (1,))
    assert subgroup_from_mask(G, 1).gens == ()


def test_subgroup_from_mask_rejects_a_mask_that_is_not_closed():
    G = cyclic(6)
    with pytest.raises(InconsistentSpec):
        subgroup_from_mask(G, 0b000011)  # {1, x}
    with pytest.raises(InconsistentSpec):
        subgroup_from_mask(G, 0b001000)  # {x^3}: no identity
    assert subgroup_from_mask(G, 0b001001).gens == (3,)


def family_sweep_groups(workloads):
    """(label, group) for each of the 96 family-sweep ops, each group built
    with cold caches, as the op builds it."""
    groups = []
    for op in workloads.build_ops("family-sweep"):
        qgring.catalog._BUILT.clear()  # the workloads fixture restores it
        groups.append((op.label, workloads._build(op.build)))
    return groups


def test_family_sweep_classes_match_reference(workloads):
    # BJ2 central products, SdVec and fused metacyclic groups: none is in SPECS
    for label, G in family_sweep_groups(workloads):
        assert G.conjugacy_classes() == reference_conjugacy_classes(G), label
        assert all(x in G.class_of(x) for x in range(G.order)), label


def test_family_sweep_conjugate_masks_are_the_sets_of_conjugates(workloads):
    for label, G in family_sweep_groups(workloads):
        for S in subgroups(G):
            for t in G.generators():
                assert (conjugate_mask(G, S, t)
                        == conjugate_subgroup(G, S, t).mask), (label, S, t)


def test_normality_tests_make_few_conjugations(workloads, monkeypatch):
    # one cold family-sweep pass: is_normal reads H's generators through
    # the generators' permutations of the class build (3 683 G.conj calls
    # when it conjugated them), and normalizer_mask tests no coset of a
    # power of an element that passed, nor of a generator of <g> for a g
    # that failed (720 calls when it tested every coset, 315 with a
    # coset-skipping scan of the normalizing elements)
    conj, calls = FiniteGroup.conj, Counter()

    def counting(G, x, g):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in ("is_normal", "normalizer_mask"):
                calls[frame.f_code.co_name] += 1
                break
            frame = frame.f_back
        return conj(G, x, g)

    groups = family_sweep_groups(workloads)
    monkeypatch.setattr(FiniteGroup, "conj", counting)
    for _, G in groups:
        count_matrix_components(G)
    assert calls == {"normalizer_mask": 201}


def test_classes_are_one_build_over_the_generators_permutations(monkeypatch):
    conj, calls = FiniteGroup.conj, []
    monkeypatch.setattr(FiniteGroup, "conj",
                        lambda G, x, g: calls.append((x, g)) or conj(G, x, g))
    assert len(dihedral(200).conjugacy_classes()) == 53
    assert calls == []
    # centrality, idempotency and the center ranks of the components keep
    # no per-element class list beside the build
    G = dihedral(200)
    count_matrix_components(G)
    assert not {"class_of", "class_first", "rank_points"} & set(G._cache)
