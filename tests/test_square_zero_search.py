"""The square-zero candidate searches against their original product loops.

`nd_witness_search` and `nilpotent_probe` decide each candidate by coset
invariance and count the witness search's pair stage; the loops in
reference_search.py multiply everything out. Both must return the same
witness, element and spend at each budget tested. The library walks the
families of the cyclic subgroups only, the references those of the whole
lattice: the same witness and element everywhere, and the same spend but
on three groups whose HasND certificate means they are never searched.
"""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgring.algebra
from qgring.algebra import AlgElem, SquareZeroFamily, square_zero_search, tilde
from qgring.catalog import build_named, build_spec, catalog_names
from qgring.components import nilpotent_probe
from qgring.errors import NotCentralIdempotent, NotMetabelian, SoundnessError
from qgring.groups import (cyclic_subgroups, derived_subgroup, is_normal, subgroup_generated,
                           subgroups)
from qgring.props import a5_shoda_idempotent, nd_verdict, nd_witness_search
from qgring.shoda import metabelian_pcis
from reference_search import (reference_nd_witness_search, reference_nilpotent_probe,
                              reference_square_zero_search)
from test_cli import ANALYZE_SHA256
from test_pair_layer import _groups
from test_workloads import workloads  # noqa: F401  (the fixture)

# tests the reference loop makes before it finds a witness or runs out of
# candidates
EXHAUSTION = {
    "D12": 1,
    "Ex38K": 1,
    "Q8": 0,
    "Q12": 2280,
    "A4": 4104,
    "Q16": 3648,
    "C3rC8": 45024,
    "C5rC4": 48640,
    "X(SdCyc(3,8,2),C(2))": 8,
    "SdCyc(5,8,2)": 1132800,
}


def _group(name):
    return build_spec(name) if "(" in name else build_named(name)


def _same(found, ref):
    if found is None or ref is None:
        return found is None and ref is None
    return found[0] == ref[0] and found[1] == ref[1]


# SdCyc(5,8,2) exhausts only after 1 132 800 tests, about 50 s of reference
# products per run, so its reference runs stop at the end of the first
# subgroup's single tests (768) and of its pair stage (22 080).
BOUNDARIES = {"SdCyc(5,8,2)": (768, 22080)}


# the reference still makes one test at budget 0; the library makes none
# (test_budget_below_one_spends_nothing), so comparisons start at 1
def _budgets(name, n_pcis):
    ends = BOUNDARIES.get(name, (EXHAUSTION[name],))
    budgets = {1, 2, n_pcis}.union(*({x - 1, x, x + 1} for x in ends))
    return sorted(b for b in budgets if b >= 1)


def _cut(run, budget):
    """The reference search at `budget`, read off its run at a budget at
    least as large: the reference checks spent >= budget after every test,
    so up to `budget` tests the two runs are the same run."""
    return run if run[1] <= budget else (None, budget)


@pytest.mark.parametrize("name", sorted(EXHAUSTION))
def test_witness_search_matches_reference(name):
    G = _group(name)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    budgets = _budgets(name, len(pcis))
    # one reference run, at the largest budget, stands for every budget
    run = reference_nd_witness_search(G, pcis, budget=budgets[-1])
    for budget in budgets:
        found, spent = nd_witness_search(G, pcis, budget=budget)
        ref_found, ref_spent = _cut(run, budget)
        assert spent == ref_spent, (name, budget)
        assert _same(found, ref_found), (name, budget)
    x = EXHAUSTION[name]
    assert nd_witness_search(G, pcis, budget=x + 1)[1] == x


@pytest.mark.parametrize("name", ["Q12", "X(SdCyc(3,8,2),C(2))"])
def test_reference_at_a_smaller_budget_is_its_larger_run_cut(name):
    # what test_witness_search_matches_reference relies on, run for real;
    # Q12 runs out of candidates, the other group finds a witness
    G = _group(name)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    run = reference_nd_witness_search(G, pcis, budget=EXHAUSTION[name] + 1)
    end = next(b for b in _block_ends(G, pcis) if b > 2)
    for budget in (1, 2, end):
        assert reference_nd_witness_search(G, pcis, budget=budget) == \
            _cut(run, budget), budget


@pytest.mark.parametrize("name", ["Q12", "A4", "Q16"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_witness_search_matches_reference_at_any_budget(name, data):
    G = build_named(name)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    budget = data.draw(st.integers(1, EXHAUSTION[name] + 2))
    found, spent = nd_witness_search(G, pcis, budget=budget)
    ref_found, ref_spent = reference_nd_witness_search(G, pcis, budget=budget)
    assert spent == ref_spent
    assert _same(found, ref_found)


def _block_ends(G, pcis):
    """The spend at the end of each y-block of the first subgroup with
    nonzero candidates, counted from its candidates one by one."""
    for Y in subgroups(G)[1:-1]:
        per_y = Counter(y for y, *_ in
                        SquareZeroFamily(Y, pcis, residues=True).candidates())
        if per_y:
            return list(accumulate(len(pcis) * per_y[y] for y in Y.members[1:]))
    return []


def test_witness_search_matches_reference_inside_a_subgroup():
    G = build_named("C3rC8")
    pcis = [sp.e for sp in metabelian_pcis(G)]
    ends = _block_ends(G, pcis)
    assert ends
    for budget in sorted({b + d for b in ends for d in (-1, 0, 1)}):
        found, spent = nd_witness_search(G, pcis, budget=budget)
        assert (found, spent) == reference_nd_witness_search(G, pcis, budget=budget)
        assert (found, spent) == (None, budget)


def test_witness_search_walks_past_a_passing_block():
    # the generators of <Y, shifts> fail, so the candidates are walked in
    # search order, past a y whose candidates all pass, to the failing one
    G = build_spec("X(Q(12),C(2))")
    pcis = [sp.e for sp in metabelian_pcis(G)]
    found, spent = nd_witness_search(G, pcis)
    ref_found, ref_spent = reference_nd_witness_search(G, pcis)
    assert found is not None and _same(found, ref_found)
    assert spent == ref_spent == 3


@pytest.mark.parametrize("spec", ["Q(24)", "Q(48)", "Q(72)"])
def test_witness_search_matches_reference_after_a_passing_block(spec):
    # the first y of the first family passes and a later one holds the
    # witness: compared at the default budget, around the end of each of
    # the first two blocks and around the witness
    G = build_spec(spec)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    ends = _block_ends(G, pcis)
    ref = reference_nd_witness_search(G, pcis)
    assert ref[0] is not None and ends[0] < ref[1] <= ends[1]
    assert nd_witness_search(G, pcis) == ref
    for budget in sorted({b + d for b in (*ends[:2], ref[1]) for d in (-1, 0, 1)}):
        if budget >= 1:
            assert nd_witness_search(G, pcis, budget=budget) == \
                reference_nd_witness_search(G, pcis, budget=budget), budget


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_spends_nothing(budget):
    G = build_named("D12")
    pcis = [sp.e for sp in metabelian_pcis(G)]
    assert nd_witness_search(G, pcis, budget=1)[0] is not None
    assert nd_witness_search(G, pcis, budget=budget) == (None, 0)
    assert any(nilpotent_probe(G, e, budget=1) is not None for e in pcis)
    assert all(nilpotent_probe(G, e, budget=budget) is None for e in pcis)
    report = nd_verdict(build_named("C3rC8"), budget=budget)
    assert (report.verdict, report.budget, report.spent) == ("Unknown", budget, 0)


# invariance decisions (entries of SquareZeroFamily._memo) the witness
# search makes at the harness budget: a family whose generators of
# <Y, shifts> all pass decides nothing else
DECISIONS = {
    "SdCyc(3,8,2)": 42,
    "SdCyc(5,8,2)": 36,
    "SdCyc(3,16,2)": 18,
    "SdCyc(5,16,2)": 16,
    "SdCyc(13,8,5)": 12,
    "X(SdCyc(3,8,2),C(2))": 8,
}


def _families(G, pcis, budget, monkeypatch):
    """The families a witness search with this budget builds, in order."""
    families = []
    init = SquareZeroFamily.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        families.append(self)

    monkeypatch.setattr(SquareZeroFamily, "__init__", recording_init)
    nd_witness_search(G, pcis, budget=budget)
    monkeypatch.undo()
    return families


def _decisions(G, budget, monkeypatch):
    pcis = [sp.e for sp in metabelian_pcis(G)]
    return sum(len(fam._memo) for fam in _families(G, pcis, budget, monkeypatch))


@pytest.mark.parametrize("spec", sorted(DECISIONS))
def test_witness_search_decisions_are_pinned(spec, monkeypatch):
    assert _decisions(build_spec(spec), 50_000, monkeypatch) == DECISIONS[spec]


# spent of the witness search on the witness-search groups at each budget
# of WALK_BUDGETS; only X(SdCyc(3,8,2),C(2)) finds a witness, at test 8
WALK_BUDGETS = (1, 7, 100, 3_000, 50_000, 10 ** 6)
WALK_SPENT = {
    "SdCyc(3,8,2)": (1, 7, 100, 3_000, 45_024, 45_024),
    "SdCyc(5,8,2)": (1, 7, 100, 3_000, 50_000, 10 ** 6),
    "SdCyc(3,16,2)": (1, 7, 100, 3_000, 50_000, 895_104),
    "SdCyc(5,16,2)": (1, 7, 100, 3_000, 50_000, 10 ** 6),
    "SdCyc(13,8,5)": (1, 7, 100, 3_000, 50_000, 10 ** 6),
    "X(SdCyc(3,8,2),C(2))": (1, 7, 8, 8, 8, 8),
}
# families built at the harness budget: one per non-normal cyclic Y the
# walk reaches, 10 of the 35 it reaches in all; a normal Y's family is
# empty, so none is built for it
WALKED = {"SdCyc(3,8,2)": 3, "SdCyc(5,8,2)": 3, "SdCyc(3,16,2)": 1,
          "SdCyc(5,16,2)": 1, "SdCyc(13,8,5)": 1, "X(SdCyc(3,8,2),C(2))": 1}


def test_walk_builds_families_for_non_normal_subgroups_only(monkeypatch):
    reached = []

    def recording_is_normal(G, Y):
        reached.append(Y)
        return is_normal(G, Y)

    walked = built = 0
    for spec, count in WALKED.items():
        G = build_spec(spec)
        pcis = [sp.e for sp in metabelian_pcis(G)]
        reached.clear()
        monkeypatch.setattr(qgring.algebra, "is_normal", recording_is_normal)
        families = _families(G, pcis, 50_000, monkeypatch)
        assert len(families) == count, spec
        assert [fam.Y for fam in families] == [Y for Y in reached if not is_normal(G, Y)]
        for Y in reached:
            if is_normal(G, Y):
                family = SquareZeroFamily(Y, pcis, residues=True)
                assert not list(family.candidates()) and family.pair_tests() == 0
        walked += len(reached)
        built += len(families)
    assert (walked, built) == (35, 10)


@pytest.mark.parametrize("spec", sorted(WALK_SPENT))
def test_witness_search_spend_is_pinned(spec):
    G = build_spec(spec)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    # the product loop's witness, if any, within 100 tests
    run = reference_nd_witness_search(G, pcis, budget=100)
    for budget, pinned in zip(WALK_BUDGETS, WALK_SPENT[spec]):
        found, spent = nd_witness_search(G, pcis, budget=budget)
        assert spent == pinned, budget
        assert _same(found, _cut(run, budget)[0]), budget


def _shifts(Y):
    """The shifts u in cl(y^-1) - Y of each y in Y - {1}, in scan order."""
    G = Y.parent
    return [[u for u in G.class_of(G.inverse[y]) if not Y.contains(u)]
            for y in Y.members[1:]]


def _generators(Y, shifts):
    """The shifts that Y and the shifts before them do not generate."""
    gens, S = [], Y
    for u in shifts:
        if not S.contains(u):
            gens.append(u)
            S = subgroup_generated(Y.parent, Y.members + tuple(gens))
    return gens


def _central_idempotents(G):
    try:
        return [sp.e for sp in metabelian_pcis(G)]
    except NotMetabelian:
        return [a5_shoda_idempotent(G)[3]]


@pytest.mark.parametrize("name", catalog_names())
def test_generators_of_the_shifts_decide_every_shift(name):
    # the shifts that leave hat(Y) e unchanged form a subgroup containing
    # Y, so the generators of <Y, shifts> pass iff every shift does
    G = build_named(name)
    pcis = _central_idempotents(G)
    for Y in subgroups(G)[1:-1]:
        shifts = [u for block in _shifts(Y) for u in block]
        gens = _generators(Y, shifts)
        for residues in (True, False):
            fam = SquareZeroFamily(Y, pcis, residues=residues)
            for i in range(len(pcis)):
                for left in (True, False):
                    assert (all(fam.invariant(i, left, u) for u in gens)
                            == all(fam.invariant(i, left, u) for u in shifts))


def _scan_starts(G, pcis, budget, monkeypatch):
    """(family, spent when its scan began) for each scan of a search with
    this budget, in order."""
    starts = []
    scan = SquareZeroFamily.scan

    def recording_scan(self, spent, budget):
        starts.append((self, spent))
        return scan(self, spent, budget)

    monkeypatch.setattr(SquareZeroFamily, "scan", recording_scan)
    nd_witness_search(G, pcis, budget=budget)
    monkeypatch.undo()
    return starts


@pytest.mark.parametrize("name", ["C3rC8", "Q12", "A4", "Q16", "D12"])
def test_decisions_stay_within_the_blocks_the_budget_reaches(name, monkeypatch):
    G = build_named(name)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    n = len(pcis)
    # (spend when the block begins, spend when it ends, 2 n |shifts|)
    blocks = []
    for fam, start in _scan_starts(G, pcis, EXHAUSTION[name] + 1, monkeypatch):
        for shifts in _shifts(fam.Y):
            # |C_G(y)| candidates per side and shift, |cl(y^-1)| = |G| / |C_G(y)|
            cls = len(G.class_of(shifts[0])) if shifts else 1
            end = start + n * 2 * (G.order // cls) * len(shifts)
            blocks.append((start, end, 2 * n * len(shifts)))
            start = end
    budgets = {1, 2, EXHAUSTION[name]}.union(
        *({end - 1, end, end + 1} for _, end, _ in blocks))
    for budget in sorted(b for b in budgets if b >= 1):
        families = _families(G, pcis, budget, monkeypatch)
        bound = sum(most for begin, _, most in blocks if begin < budget)
        assert sum(len(fam._memo) for fam in families) <= bound, budget


def test_witness_in_the_first_block_takes_at_most_two_decisions(monkeypatch):
    assert _decisions(build_spec("D(200)"), 200_000, monkeypatch) <= 2


def test_witness_search_without_idempotents_spends_nothing(monkeypatch):
    G = build_named("A4")
    assert nd_witness_search(G, [], budget=5) == (None, 0)
    assert reference_nd_witness_search(G, [], budget=5) == (None, 0)

    def no_walk(_):
        raise AssertionError("a search with no idempotents walked a family")

    monkeypatch.setattr(qgring.algebra, "cyclic_subgroups", no_walk)
    for residues in (True, False):
        assert square_zero_search(G, [], 5, residues=residues) == (None, 0)


def test_noncentral_idempotent_is_rejected():
    G = build_named("D12")
    e = tilde(subgroup_generated(G, (G.element("b"),)))
    assert not e.is_central() and e.is_idempotent()
    with pytest.raises(NotCentralIdempotent):
        nd_witness_search(G, [e], budget=10)
    with pytest.raises(NotCentralIdempotent):
        nilpotent_probe(G, e, budget=10)
    for residues in (True, False):
        with pytest.raises(NotCentralIdempotent):
            square_zero_search(G, [AlgElem.one(G), e], 10, residues=residues)


# the witness-search groups of order <= 48
SMALL_WITNESS_SEARCH = ["SdCyc(3,8,2)", "SdCyc(5,8,2)", "SdCyc(3,16,2)",
                        "X(SdCyc(3,8,2),C(2))"]


def _in_y_kernel(Y, e, u):
    """Whether u = y n for a y in Y and an n in the kernel recorded for e."""
    N = qgring.algebra._facts_of(e).get("kernel")
    return any(Y.parent.table[y][n] == u for y in Y.members
               for n in (N.members if N is not None else (0,)))


@pytest.mark.parametrize("name", ["D12", "C3rC8"] + SMALL_WITNESS_SEARCH)
def test_family_decides_each_product(name, monkeypatch):
    # every 1 < Y < G of the two catalog groups, and the cyclic Y the walk
    # reaches at the harness budget on the witness-search groups, where
    # shifts in Y N, N a recorded kernel, decide tests of non-normal Y with
    # no F
    G = _group(name)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    walked = name in SMALL_WITNESS_SEARCH
    ys = ([fam.Y for fam in _families(G, pcis, 50_000, monkeypatch)] if walked
          else subgroups(G)[1:-1])
    in_y_kernel = 0
    for Y in ys:
        integral = SquareZeroFamily(Y, pcis, residues=True)
        zero = SquareZeroFamily(Y, pcis, residues=False)
        found = {(y, g, left): u for y, g, left, u in integral.candidates()}
        in_y_kernel += sum(_in_y_kernel(Y, e, u) for e in pcis for u in set(found.values()))
        for y in Y.members[1:]:
            for g in range(G.order):
                for left in (True, False):
                    alpha = integral.element(y, g, left)
                    assert alpha.is_zero() == ((y, g, left) not in found)
                    if alpha.is_zero():
                        continue
                    u = found[y, g, left]
                    for i, e in enumerate(pcis):
                        prod = alpha * e
                        assert integral.invariant(i, left, u) == prod.is_integral()
                        assert zero.invariant(i, left, u) == prod.is_zero()
    assert in_y_kernel or not walked


def _candidate_counts(G):
    """The probe's candidates over the cyclic subgroups 1 < C < G, which
    the library walks, and over the lattice's 1 < Y < G, which the
    reference walks."""
    def count(families):
        return sum(1 for Y in families
                   for _ in SquareZeroFamily(Y, [], residues=False).candidates())
    return (count(C for C in cyclic_subgroups(G) if C.order < G.order),
            count(subgroups(G)[1:-1]))


@pytest.mark.parametrize("name", ["D12", "C3rC8"])
def test_nilpotent_probe_matches_reference(name):
    G = build_named(name)
    ends = _candidate_counts(G)
    for sp in metabelian_pcis(G):
        for budget in sorted({1, 2, ends[1] + 20}.union(
                *({n - 1, n, n + 1} for n in ends))):
            got = nilpotent_probe(G, sp.e, budget=budget)
            ref = reference_nilpotent_probe(G, sp.e, budget=budget)
            assert got == ref, (name, budget)


def test_nilpotent_probe_counts_no_pair_tests():
    # a first nonzero projection lies past a family whose pair tests,
    # counted as the witness search counts them, would spend the default
    # budget
    G = build_named("BJ8")
    found = [nilpotent_probe(G, sp.e) for sp in metabelian_pcis(G)]
    assert found == [reference_nilpotent_probe(G, sp.e)
                     for sp in metabelian_pcis(G)]
    assert any(x is not None for x in found)


def test_nilpotent_probe_tests_no_element_for_nilpotency(monkeypatch):
    # the probe scans square-zero candidates only: past them it stops,
    # whatever is left of its budget
    def refuse(self):
        raise AssertionError("the probe tested an element for nilpotency")

    monkeypatch.setattr(AlgElem, "is_nilpotent", refuse)
    Q8 = build_named("Q8")
    quaternion = AlgElem.one(Q8) - tilde(derived_subgroup(Q8))
    assert nilpotent_probe(Q8, quaternion, budget=2000) is None
    for name in ("D12", "C3rC8"):
        G = build_named(name)
        n = _candidate_counts(G)[1]
        for sp in metabelian_pcis(G):
            if nilpotent_probe(G, sp.e, budget=n) is None:
                for budget in (n + 1, n + 20, 2 * n):
                    assert nilpotent_probe(G, sp.e, budget=budget) is None


def _search_groups(source, workloads):
    """The non-abelian metabelian groups of the catalog, of a workload's
    ops or of test_cli's analyze digests. An abelian group has only empty
    families, and its lattice can take seconds."""
    groups = ([build_spec(spec) for spec in sorted(ANALYZE_SHA256)]
              if source == "analyze-digests" else _groups(source, workloads))
    return [G for G in groups
            if derived_subgroup(G).order > 1 and derived_subgroup(G).is_abelian()]


# (group, budget) -> (library spent, lattice walk's spent) where the two
# differ: each group has the HasND certificate, so nd_verdict never
# searches it
SPENT_APART = {
    ("C3C3rC8", 10 ** 15): (10_950_840, 14_589_360),
    ("D8cpD8", 10 ** 6): (75_888, 888_624),
    ("SdVec(2,3,[[0,0,1],[1,0,0],[0,1,1]],7)", 10 ** 15): (2_083_536, 2_263_968),
}


@pytest.mark.parametrize("source", ["catalog", "analyze-large", "family-sweep",
                                    "witness-search", "analyze-digests"])
def test_cyclic_walk_matches_the_lattice_walk(source, workloads):
    # a family of Y fails only if the family of some <y> <= Y fails first
    # (algebra.square_zero_search), so both walks find the same witness
    for G in _search_groups(source, workloads):
        name = getattr(G, "spec", G.name)
        pcis = [sp.e for sp in metabelian_pcis(G)]
        for budget in (5 * 10 ** 4, 10 ** 6):
            found, spent = nd_witness_search(G, pcis, budget=budget)
            ref_found, ref_spent = reference_square_zero_search(
                G, pcis, budget, residues=True)
            assert _same(found, ref_found), (name, budget)
            assert (spent, ref_spent) == SPENT_APART.get(
                (name, budget), (ref_spent, ref_spent)), (name, budget)
        for e in pcis:
            ref = reference_square_zero_search(G, [e], 2000, residues=False)[0]
            assert nilpotent_probe(G, e, budget=2000) == (
                None if ref is None else ref[0] * e), name


@pytest.mark.parametrize("spec, budget", sorted(SPENT_APART))
def test_spent_differs_only_where_nd_verdict_never_searches(spec, budget):
    G = build_spec(spec)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    found, spent = nd_witness_search(G, pcis, budget=budget)
    ref_found, ref_spent = reference_square_zero_search(G, pcis, budget, residues=True)
    assert found is None and ref_found is None
    assert (spent, ref_spent) == SPENT_APART[spec, budget]
    report = nd_verdict(G, budget=budget)
    assert (report.verdict, report.spent) == ("HasND", 0)


def _bogus_search(G, pcis, budget=0):
    return (AlgElem.one(G), pcis[0]), 1


def test_unverified_search_witness_raises(monkeypatch):
    import qgring.props
    monkeypatch.setattr(qgring.props, "nd_witness_search", _bogus_search)
    with pytest.raises(SoundnessError):
        nd_verdict(build_named("C3rC8"), budget=10)


# a witness that fails re-verification, from each witness pass in turn:
# the search returns alpha = 1, the curated D12 witness gets alpha = 1,
# which is not nilpotent
_BOGUS_WITNESS = {
    "search": """
        qgring.props.nd_witness_search = (
            lambda G, pcis, budget=0: ((AlgElem.one(G), pcis[0]), 1))
        G = build_named("C3rC8")
    """,
    "curated": """
        curated = qgring.props.curated_witness
        def bogus(name, *args, **kwargs):
            w = curated(name, *args, **kwargs)
            return Witness(w.name, w.group, AlgElem.one(w.group), w.e)
        qgring.props.curated_witness = bogus
        G = build_named("D12")
    """,
}


@pytest.mark.parametrize("source", sorted(_BOGUS_WITNESS))
def test_unverified_search_witness_raises_under_optimize(source):
    script = textwrap.dedent("""
        import qgring.props
        from qgring.algebra import AlgElem
        from qgring.catalog import build_named
        from qgring.errors import SoundnessError
        from qgring.props import Witness
    """) + textwrap.dedent(_BOGUS_WITNESS[source]) + textwrap.dedent("""
        try:
            qgring.props.nd_verdict(G, budget=10)
        except SoundnessError:
            print("raised")
    """)
    src = str(Path(__file__).parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
