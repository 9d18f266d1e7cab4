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
from pathlib import Path

import pytest

from qgring.algebra import AlgElem, SquareZeroFamily, tilde
from qgring.catalog import build_named, build_spec
from qgring.components import nilpotent_probe
from qgring.errors import NotCentralIdempotent, SoundnessError
from qgring.groups import subgroup_generated, subgroups
from qgring.props import nd_verdict, nd_witness_search
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


def _budgets(name, n_pcis):
    ends = BOUNDARIES.get(name, (EXHAUSTION[name],))
    return sorted({1, 2, n_pcis}.union(*({x - 1, x, x + 1} for x in ends)))


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
