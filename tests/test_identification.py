"""Group identification: find_isomorphism, and verdicts that do not depend
on how a group's elements are labelled."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgring.catalog import build_spec, catalog_names
from qgring.groups import find_isomorphism, from_table
from qgring.props import Witness, classify_ssn, nd_verdict, verify_witness
from invariants import fingerprint, relabel

BUDGET = 200000


def assert_isomorphism(G, H, iso):
    assert iso is not None and sorted(iso) == list(range(H.order))
    for a in range(G.order):
        for b in range(G.order):
            assert iso[G.table[a][b]] == H.table[iso[a]][iso[b]]


def test_find_isomorphism_above_order_64():
    G = build_spec("X(Q(8),C(25))")
    assert G.order == 200
    R = relabel(G, 7)
    assert_isomorphism(G, R, find_isomorphism(G, R))
    assert_isomorphism(R, G, find_isomorphism(R, G))


def test_find_isomorphism_rejects_groups_sharing_a_fingerprint():
    G, H = build_spec("SdCyc(8,4,3)"), build_spec("SdCyc(8,4,7)")
    assert fingerprint(G) == fingerprint(H)
    assert find_isomorphism(G, H) is None
    assert find_isomorphism(H, G) is None


def test_find_isomorphism_is_the_identity_on_a_table_copy():
    for spec in ("A5", "BJ9", "D(200)"):
        G = build_spec(spec)
        assert find_isomorphism(G, from_table(G.table)) == list(range(G.order))


@functools.lru_cache(maxsize=None)
def _reference(spec):
    G = build_spec(spec)
    cls = classify_ssn(G)
    report = nd_verdict(G, budget=BUDGET)
    return cls.tag, cls.params.get("bj"), report


def _dims(report):
    return sorted(desc.dim_over_Q for _, desc in report.components)


@pytest.mark.parametrize("spec", catalog_names() + ["X(Q(8),C(9))"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_verdict_is_independent_of_labelling(spec, seed):
    tag, bj, ref = _reference(spec)
    R = relabel(build_spec(spec), seed)
    cls = classify_ssn(R)
    assert (cls.tag, cls.params.get("bj")) == (tag, bj)
    report = nd_verdict(R, budget=BUDGET)
    assert report.matrix_count == ref.matrix_count
    assert _dims(report) == _dims(ref)
    if ref.verdict == "Unknown" and ref.spent >= BUDGET:
        # another labelling orders the search differently and may find a
        # witness within the budget
        assert report.verdict in ("Unknown", "NotND")
    else:
        assert report.verdict == ref.verdict
    if report.verdict == "NotND":
        alpha, e = report.witness
        assert alpha.group is R
        assert all(verify_witness(Witness(spec, R, alpha, e)).values())
