"""The square-zero candidate searches against their original product loops.

`nd_witness_search` and `nilpotent_probe` decide each candidate by coset
invariance and count the witness search's pair stage; the loops in
reference_search.py multiply everything out. Both must return the same
witness, element and spend at each budget tested.
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

from qgring.algebra import AlgElem, SquareZeroFamily, tilde
from qgring.catalog import build_named, build_spec, catalog_names
from qgring.components import nilpotent_probe
from qgring.errors import NotCentralIdempotent, NotMetabelian, SoundnessError
from qgring.groups import subgroup_generated, subgroups
from qgring.props import a5_shoda_idempotent, nd_verdict, nd_witness_search
from qgring.shoda import metabelian_pcis
from reference_search import reference_nd_witness_search, reference_nilpotent_probe

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


@pytest.mark.parametrize("name", sorted(EXHAUSTION))
def test_witness_search_matches_reference(name):
    G = _group(name)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    for budget in _budgets(name, len(pcis)):
        found, spent = nd_witness_search(G, pcis, budget=budget)
        ref_found, ref_spent = reference_nd_witness_search(G, pcis, budget=budget)
        assert spent == ref_spent, (name, budget)
        assert _same(found, ref_found), (name, budget)
    x = EXHAUSTION[name]
    assert nd_witness_search(G, pcis, budget=x + 1)[1] == x


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


def _decisions(G, budget, monkeypatch):
    families = []
    init = SquareZeroFamily.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        families.append(self)

    monkeypatch.setattr(SquareZeroFamily, "__init__", recording_init)
    nd_witness_search(G, [sp.e for sp in metabelian_pcis(G)], budget=budget)
    monkeypatch.undo()
    return sum(len(fam._memo) for fam in families)


@pytest.mark.parametrize("spec", sorted(DECISIONS))
def test_witness_search_decisions_are_pinned(spec, monkeypatch):
    assert _decisions(build_spec(spec), 50_000, monkeypatch) == DECISIONS[spec]


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
    families = []
    init = SquareZeroFamily.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        families.append(self)

    for budget in sorted(b for b in budgets if b >= 1):
        families.clear()
        monkeypatch.setattr(SquareZeroFamily, "__init__", recording_init)
        nd_witness_search(G, pcis, budget=budget)
        monkeypatch.undo()
        bound = sum(most for begin, _, most in blocks if begin < budget)
        assert sum(len(fam._memo) for fam in families) <= bound, budget


def test_witness_in_the_first_block_takes_at_most_two_decisions(monkeypatch):
    assert _decisions(build_spec("D(200)"), 200_000, monkeypatch) <= 2


def test_witness_search_without_idempotents_spends_nothing():
    G = build_named("A4")
    assert nd_witness_search(G, [], budget=5) == (None, 0)
    assert reference_nd_witness_search(G, [], budget=5) == (None, 0)


def test_noncentral_idempotent_is_rejected():
    G = build_named("D12")
    e = tilde(subgroup_generated(G, (G.element("b"),)))
    assert not e.is_central() and e.is_idempotent()
    with pytest.raises(NotCentralIdempotent):
        nd_witness_search(G, [e], budget=10)
    with pytest.raises(NotCentralIdempotent):
        nilpotent_probe(G, e, budget=10)


@pytest.mark.parametrize("name", ["D12", "C3rC8"])
def test_family_decides_each_product(name):
    G = build_named(name)
    pcis = [sp.e for sp in metabelian_pcis(G)]
    for Y in subgroups(G)[1:-1]:
        integral = SquareZeroFamily(Y, pcis, residues=True)
        zero = SquareZeroFamily(Y, pcis, residues=False)
        found = {(y, g, left): u for y, g, left, u in integral.candidates()}
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


def _candidate_count(G):
    return sum(1 for Y in subgroups(G)[1:-1]
               for _ in SquareZeroFamily(Y, [], residues=False).candidates())


@pytest.mark.parametrize("name", ["D12", "C3rC8"])
def test_nilpotent_probe_matches_reference(name):
    G = build_named(name)
    n = _candidate_count(G)
    for sp in metabelian_pcis(G):
        for budget in sorted({1, 2, n - 1, n, n + 1, n + 20}):
            got = nilpotent_probe(G, sp.e, budget=budget)
            ref = reference_nilpotent_probe(G, sp.e, budget=budget)
            assert got == ref, (name, budget)


def _bogus_search(G, pcis, budget=0):
    return (AlgElem.one(G), pcis[0]), 1


def test_unverified_search_witness_raises(monkeypatch):
    import qgring.props
    monkeypatch.setattr(qgring.props, "nd_witness_search", _bogus_search)
    with pytest.raises(SoundnessError):
        nd_verdict(build_named("C3rC8"), budget=10)


def test_unverified_search_witness_raises_under_optimize():
    script = textwrap.dedent("""
        import qgring.props
        from qgring.algebra import AlgElem
        from qgring.catalog import build_named
        from qgring.errors import SoundnessError
        qgring.props.nd_witness_search = (
            lambda G, pcis, budget=0: ((AlgElem.one(G), pcis[0]), 1))
        try:
            qgring.props.nd_verdict(build_named("C3rC8"), budget=10)
        except SoundnessError:
            print("raised")
    """)
    src = str(Path(__file__).parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
