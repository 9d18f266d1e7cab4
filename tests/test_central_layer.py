"""The central-idempotent checks against their original implementations.

The library decides the centrality and orthogonality of central
elements at the class representatives, idempotency at one point per
rational class (Artin's points), computes the center rank
as a trace and finds centralizers by skipping whole cosets;
reference_components.py holds the original full-product, elimination and
full-scan code. Both must give the same answers.
"""

import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qgring.algebra
import qgring.catalog
import qgring.shoda
from qgring.algebra import AlgElem, product_at_classes
from qgring.catalog import build_named, build_spec, catalog_names
from qgring.components import a5_special_pci, center_rank
from qgring.errors import NotMetabelian, SoundnessError
from qgring.groups import (Subgroup, _rational_points, artin_count, derived_subgroup,
                           dihedral, full_subgroup)
from qgring.shoda import metabelian_pcis, pci_sanity
from reference_components import (
    reference_center_rank,
    reference_centralizer_subgroup,
    reference_check_orthogonal,
    reference_is_central,
    reference_is_idempotent,
)

# the groups analyzed by the benchmark's analyze-large and witness-search
# workloads
CORPUS = ["D(200)", "X(Q(8),C(25))", "X(Q(8),C(27))", "SdCyc(7,27,2)",
          "SdCyc(3,8,2)", "SdCyc(5,8,2)", "SdCyc(3,16,2)", "SdCyc(5,16,2)",
          "SdCyc(13,8,5)", "X(SdCyc(3,8,2),C(2))"]
# groups of the benchmark's family-sweep workload
FAMILY = ["SdCyc(13,12,2)", "SdCyc(47,4,46)",
          "SdVec(2,4,[[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]],5)"]


def _group(name):
    return build_spec(name) if "(" in name else build_named(name)


def _pairs(G):
    try:
        return metabelian_pcis(G)
    except NotMetabelian:
        special = a5_special_pci(G)
        return [special[0]] if special else []


def _same_subgroup(A, B):
    return (A.mask, A.gens) == (B.mask, B.gens)


@pytest.mark.parametrize("name", catalog_names() + CORPUS + FAMILY)
def test_central_facts_match_reference(name):
    G = _group(name)
    pairs = _pairs(G)
    assert pairs
    pcis = [sp.e for sp in pairs]
    for sp in pairs:
        e = sp.e
        assert e.is_central() and reference_is_central(e)
        assert e.is_central_idempotent() and reference_is_idempotent(e)
        assert center_rank(G, e) == reference_center_rank(G, e)
        assert _same_subgroup(e.centralizer_subgroup(),
                              reference_centralizer_subgroup(e))
        assert _same_subgroup(sp.epsilon.centralizer_subgroup(),
                              reference_centralizer_subgroup(sp.epsilon))
    reference_check_orthogonal(pcis)  # raises SoundnessError otherwise
    if len(pairs) > 1:
        assert pci_sanity(G, pairs).pairwise_orthogonal


@pytest.mark.parametrize("name", ["D12", "Q16", "C3C3rC8", "A4", "C5rC4"])
def test_product_at_classes_is_the_product_there(name):
    G = build_named(name)
    pcis = [sp.e for sp in _pairs(G)]
    reps = [cls[0] for cls in G.conjugacy_classes()]
    # PCIs, and sums of two of them: idempotent, and non-idempotent
    elems = pcis + [a + b for a in pcis for b in pcis]
    for a in elems:
        for b in pcis:
            prod = a * b
            vals = product_at_classes(a, b)
            assert [Fraction(v, a.den * b.den) for v in vals] == \
                [prod.coeff(r) for r in reps]
        assert a.is_central_idempotent() == reference_is_idempotent(a)


def _rational_classes(G):
    """Each class {g^-1 x^j g : g in G, j prime to |x|} once, as a union
    of conjugacy classes."""
    out, seen = [], set()
    for cls in G.conjugacy_classes():
        if cls[0] not in seen:
            n = G.element_order(cls[0])
            out.append({y for j in range(1, n + 1) if math.gcd(j, n) == 1
                        for y in G.class_of(G.power(cls[0], j))})
            seen |= out[-1]
    return out


def _combination(G, parts, coeffs):
    return AlgElem.from_coeffs(G, {g: c for part, c in zip(parts, coeffs)
                                   for g in part})


@pytest.mark.parametrize("name", ["D12", "Q16", "C3C3rC8", "BJ9",
                                  "SdCyc(13,12,2)", "D(30)"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_idempotency_matches_reference_on_central_elements(name, data):
    # class sums are central but need not be constant on rational classes;
    # rational-class sums and sums of PCIs are, and some of them idempotent
    G = _group(name)
    kind = data.draw(st.sampled_from(["classes", "rational", "pcis"]))
    if kind == "pcis":
        pcis = [sp.e for sp in metabelian_pcis(G)]
        coeffs = data.draw(st.lists(st.sampled_from([0, 1, -1, 2]),
                                    min_size=len(pcis), max_size=len(pcis)))
        x = AlgElem.zero(G)
        for c, e in zip(coeffs, pcis):
            x = x + c * e
    else:
        parts = G.conjugacy_classes() if kind == "classes" else _rational_classes(G)
        small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
        x = _combination(G, parts, data.draw(
            st.lists(small, min_size=len(parts), max_size=len(parts))))
    assert x.is_central()
    assert x.is_central_idempotent() == reference_is_idempotent(x)


def test_an_element_not_constant_on_rational_classes_is_no_idempotent():
    # in Q[C5] the points are 1 and x; this central element differs at x
    # and x^2, and its square agrees with it at both points
    G = build_spec("C(5)")
    x = AlgElem(G, [-2, 1, -2, 1, -1])
    square = x * x
    assert _rational_points(G)[1] == [0, 1]
    assert square.nums[:2] == x.nums[:2] and square.den == x.den
    assert x.is_central() and not x.is_central_idempotent()
    assert not reference_is_idempotent(x)


def test_idempotency_is_decided_at_artins_points(monkeypatch):
    # D(200) has 53 conjugacy classes but 11 classes of cyclic subgroups:
    # each PCI's square is compared with it at no more than 11 points
    G = dihedral(200)
    walked = []

    class Counting(list):
        def __iter__(self):
            for r in list.__iter__(self):
                walked[-1] += 1
                yield r

    rational_points = qgring.algebra._rational_points

    def counting(G):
        walked.append(0)
        at, points = rational_points(G)
        return at, Counting(points)

    monkeypatch.setattr(qgring.algebra, "_rational_points", counting)
    assert len(metabelian_pcis(G)) == artin_count(G) == 11
    assert len(G.conjugacy_classes()) == 53
    assert len(walked) == 11 and max(walked) <= 11


def test_non_central_and_non_idempotent_elements():
    G = build_named("A4")
    c = AlgElem.basis(G, G.element("c"))
    assert not c.is_central() and not c.is_central_idempotent()
    pcis = [sp.e for sp in metabelian_pcis(G)]
    two = pcis[0] + pcis[0]
    assert two.is_central() and not two.is_central_idempotent()
    diff = pcis[1] - pcis[2]
    assert diff.is_central() and not diff.is_central_idempotent()
    assert (pcis[1] + pcis[2]).is_central_idempotent()


def _sparse_elems(G):
    return st.dictionaries(st.integers(0, G.order - 1),
                           st.integers(-2, 2).filter(bool),
                           min_size=1, max_size=4).map(
        lambda coeffs: AlgElem.from_coeffs(G, coeffs))


@pytest.mark.parametrize("name", ["D12", "C3rC8", "Q16"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_centralizer_matches_reference_scan(name, data):
    G = build_named(name)
    alpha = data.draw(_sparse_elems(G))
    assume(not reference_is_central(alpha))
    assert _same_subgroup(alpha.centralizer_subgroup(),
                          reference_centralizer_subgroup(alpha))


def _counting_facts(monkeypatch):
    """Count value keys built and each fact decided, from here on."""
    calls = Counter()
    for name in ("_constant_on_classes", "_idempotent_at_classes"):
        decide = getattr(qgring.algebra, name)
        monkeypatch.setattr(qgring.algebra, name,
                            lambda e, name=name, decide=decide:
                            calls.update([name]) or decide(e))
    key = AlgElem.key
    monkeypatch.setattr(AlgElem, "key",
                        lambda self: calls.update(["key"]) or key(self))
    return calls


def test_facts_are_kept_on_the_element(monkeypatch):
    G = build_named("D12")
    e = metabelian_pcis(G)[1].e
    G._cache.clear()
    calls = _counting_facts(monkeypatch)
    f = AlgElem(G, list(e.nums), e.den)  # a PCI no memo knows yet
    for _ in range(10):
        assert f.is_central() and f.is_central_idempotent()
    assert calls == {"key": 1, "_constant_on_classes": 1,
                     "_idempotent_at_classes": 1}
    # an equal element built anew reads the group's memo, and decides nothing
    calls.clear()
    g = AlgElem(G, list(e.nums), e.den)
    assert g.is_central() and g.is_central_idempotent()
    assert calls == {"key": 1} and g._facts is f._facts
    # with the group's memo emptied, a new element is decided again
    G._cache.clear()
    calls.clear()
    h = AlgElem(G, list(e.nums), e.den)
    assert h.is_central() and h.is_central_idempotent()
    assert calls == {"key": 1, "_constant_on_classes": 1,
                     "_idempotent_at_classes": 1}


def test_non_idempotent_pcis_raise_under_optimize():
    # e1 + e3 and e2 - e3 in place of e1 and e2: still central and summing
    # to 1, but (e2 - e3)^2 = e2 + e3; the check must survive python -O
    script = textwrap.dedent("""
        import qgring.shoda
        from qgring.catalog import build_named
        from qgring.errors import SoundnessError
        G = build_named("D12")
        e1, e2, e3 = [sp.e for sp in qgring.shoda.metabelian_pcis(G)][:3]
        G._cache.clear()
        swap = {e1.key(): e1 + e3, e2.key(): e2 - e3}
        orig = qgring.shoda.e_idem
        def patched(G, H, K):
            e = orig(G, H, K)
            return swap.get(e.key(), e)
        qgring.shoda.e_idem = patched
        try:
            qgring.shoda.metabelian_pcis(G)
        except SoundnessError as exc:
            print("raised", exc)
    """)
    src = str(Path(__file__).parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised PCIs must be idempotent"


@pytest.mark.parametrize("name", ["D(200)", "X(Q(8),C(27))"])
def test_pci_idempotency_is_decided_modulo_the_cores(name, monkeypatch):
    # each e(G, H, K) is squared modulo core_G(K), with no scan of G for
    # its kernel; the core is that kernel
    G = _group(name)
    G._cache.clear()
    calls = []
    orig = qgring.algebra.subgroup_from_mask

    def counting(G, mask):
        calls.append(mask)
        return orig(G, mask)

    monkeypatch.setattr(qgring.algebra, "subgroup_from_mask", counting)
    pcis = metabelian_pcis(G)
    assert calls == []
    for sp in pcis:
        core = G._cache[("facts", sp.e.den, tuple(sp.e.nums))]["kernel"]
        fixes = qgring.algebra._fixes(sp.e)
        assert core.mask == sum(1 << g for g in range(G.order) if fixes(g))


def test_a_kernel_that_does_not_fix_e_raises(monkeypatch):
    G = build_named("D12")
    e = metabelian_pcis(G)[0].e
    with pytest.raises(SoundnessError):
        qgring.algebra._record_kernel(e, full_subgroup(G))
    G._cache.clear()
    monkeypatch.setattr(qgring.shoda, "_core",
                        lambda G, K, N: full_subgroup(G))
    with pytest.raises(SoundnessError):
        metabelian_pcis(G)


def test_a_kernel_given_no_generators_is_checked_member_by_member():
    # with no generators to check, every member is: a kernel that does not
    # fix e raises, and one that does is recorded
    G = build_named("D12")
    sp = next(sp for sp in metabelian_pcis(G) if sp.K.order < sp.H.order)
    # H/K is nontrivial, so e is not hat(G) and G does not fix it
    with pytest.raises(SoundnessError):
        qgring.algebra._record_kernel(sp.e, Subgroup(G, full_subgroup(G).mask))
    qgring.algebra._record_kernel(sp.e, Subgroup(G, 1))


def test_a_kernel_that_does_not_fix_e_raises_under_optimize():
    script = textwrap.dedent("""
        import qgring.shoda
        from qgring.catalog import build_named
        from qgring.errors import SoundnessError
        from qgring.groups import full_subgroup
        qgring.shoda._core = lambda G, K, N: full_subgroup(G)
        try:
            qgring.shoda.metabelian_pcis(build_named("D12"))
        except SoundnessError as exc:
            print("raised", type(exc).__name__)
    """)
    src = str(Path(__file__).parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised SoundnessError"


@pytest.mark.parametrize("name", catalog_names() + CORPUS + FAMILY)
def test_idempotency_through_the_records_cosets(name, monkeypatch):
    # for H = G the kernel of e(G, G, K) is K, and metabelian_pcis hands
    # _idempotent_at_classes the cosets x^j K that the record numbers, with
    # the powers of x, not the least elements, as representatives; the
    # verdict is that of the walked cosets and of the full square, on e,
    # 2e, e + f and 6/5 e + 3/5 f for each f whose K holds e's
    monkeypatch.setattr(qgring.catalog, "_BUILT", {})
    G = _group(name)
    top = [sp for sp in _pairs(G) if sp.H.order == G.order]
    if not derived_subgroup(G).is_abelian():
        assert top == []
        return
    assert top  # the linear characters
    for sp in top:
        pair = qgring.shoda.strong_pair(G, sp.H, sp.K)
        facts = qgring.algebra._facts_of(sp.e)
        assert facts["kernel"] is sp.K and facts["kernel_cosets"][0] is pair.exponents
        record = facts["kernel_cosets"]
        cases = [sp.e, 2 * sp.e]
        for sq in top:
            if sq is not sp and sp.K.mask | sq.K.mask == sq.K.mask:
                cases += [sp.e + sq.e, Fraction(6, 5) * sp.e + Fraction(3, 5) * sq.e]
        for x in cases:
            qgring.algebra._record_kernel(x, sp.K, record)
            through_record = qgring.algebra._idempotent_at_classes(x)
            qgring.algebra._record_kernel(x, sp.K)
            walked = qgring.algebra._idempotent_at_classes(x)
            assert through_record == walked == (x * x == x)
        assert [qgring.algebra._idempotent_at_classes(x) for x in cases[:2]] == [True, False]
