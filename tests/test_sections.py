"""Sections H/K, N_G(K)/K and N_G(K)/H against their original
implementations.

The library reads every section off cosets inside G: the generator of a
cyclic H/K from the powers h^([H:K]/p), the maximal-abelian test from
commutators with that generator and the crossed-product data from the
H-cosets of N_G(K). reference_sections.py holds the original code, which
built each section as a standalone group; both must give the same
answers.
"""

import pytest

import qgring.catalog
import qgring.shoda
from qgring.catalog import build_named, build_spec, catalog_names
from qgring.components import describe_component
from qgring.errors import NotMetabelian
from qgring.groups import is_normal_in, subgroups
from qgring.shoda import _strong_shoda, metabelian_pcis, section_generator
from reference_sections import (
    reference_crossed_product,
    reference_quotient_cyclic,
    reference_strong_shoda,
)

ANALYZE_LARGE = ("D(200)", "X(Q(8),C(25))", "X(Q(8),C(27))", "SdCyc(7,27,2)",
                 "BJ9", "C3C3rC8", "A5")
WITNESS_SEARCH = ("SdCyc(3,8,2)", "SdCyc(5,8,2)", "SdCyc(3,16,2)",
                  "SdCyc(5,16,2)", "SdCyc(13,8,5)", "X(SdCyc(3,8,2),C(2))")
SPECS = sorted(set(catalog_names()) | set(ANALYZE_LARGE) | set(WITNESS_SEARCH))


@pytest.fixture
def cold(monkeypatch):
    """Build groups with empty caches, so every computation runs here."""
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})


@pytest.mark.parametrize("spec", SPECS)
def test_pair_enumeration_and_components_match_reference(spec, cold, monkeypatch):
    checked = []

    def checked_generator(H, K):
        x = section_generator(H, K)
        assert (x is not None) == reference_quotient_cyclic(H, K)
        checked.append("cyclic")
        return x

    def checked_strong(G, H, K):
        out = _strong_shoda(G, H, K)  # the pair's record, or None
        assert (out is not None) == reference_strong_shoda(G, H, K)
        checked.append("strong")
        return out

    monkeypatch.setattr(qgring.shoda, "section_generator", checked_generator)
    monkeypatch.setattr(qgring.shoda, "_strong_shoda", checked_strong)
    G = build_spec(spec)
    try:
        pcis = metabelian_pcis(G)
    except NotMetabelian:
        assert spec == "A5"  # its pairs are checked below
        return
    assert "cyclic" in checked and "strong" in checked
    for sp in pcis:
        if sp.kind != "strong-shoda":
            continue
        desc = describe_component(G, sp.H, sp.K, e=sp.e)
        ref = reference_crossed_product(G, sp.H, sp.K)
        assert {key: getattr(desc, key) for key in ref} == ref


@pytest.mark.parametrize("name", ["D12", "Q16", "C3C3rC8", "A4", "A5", "D8cpQ8"])
def test_every_normal_pair_matches_reference(name, cold):
    G = build_named(name)
    subs = subgroups(G)
    pairs = 0
    for H in subs:
        for K in subs:
            if not (K <= H and is_normal_in(H, K)):
                continue
            pairs += 1
            assert ((section_generator(H, K) is not None)
                    == reference_quotient_cyclic(H, K))
            assert ((_strong_shoda(G, H, K) is not None)
                    == reference_strong_shoda(G, H, K))
    assert pairs > len(subs)
