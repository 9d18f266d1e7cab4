from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgring.algebra import (AlgElem, center_rank, component_dimension, hat,
                            one_minus, one_plus, tilde)
from qgring.catalog import build_named, build_spec, catalog_names
from qgring.errors import GroupMismatch, NotMetabelian
from qgring.groups import normal_subgroups, subgroup_generated
from qgring.props import a5_shoda_idempotent
from qgring.shoda import metabelian_pcis


def elems(G, max_den=4):
    return st.builds(
        lambda nums, den: AlgElem(G, nums, den),
        st.lists(st.integers(-5, 5), min_size=G.order, max_size=G.order),
        st.integers(1, max_den))


S3 = build_named("S3")


@settings(max_examples=150, deadline=None)
@given(elems(S3), elems(S3), elems(S3))
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()


@settings(max_examples=100, deadline=None)
@given(elems(S3), elems(S3), st.integers(0, 5))
def test_conjugation_is_an_automorphism(a, b, g):
    assert (a * b).conjugate(g) == a.conjugate(g) * b.conjugate(g)
    assert (a + b).conjugate(g) == a.conjugate(g) + b.conjugate(g)
    assert a.conjugate(g).conjugate(S3.inv(g)) == a


def test_normalization_invariants():
    G = S3
    x = AlgElem(G, [2, 4, 0, 0, 0, 0], 6)
    assert x.den == 3 and x.nums[:2] == [1, 2]
    assert AlgElem(G, [0, -3, 0, 0, 0, 0], -6).coeff(1) == Fraction(1, 2)


def test_group_mismatch():
    with pytest.raises(GroupMismatch):
        AlgElem.one(S3) * AlgElem.one(build_named("Q8"))


def test_component_measures_refuse_an_element_of_another_group():
    # the last PCI of D(8) read as an element of D(16) gave 2 for both
    e = metabelian_pcis(build_spec("D(8)"))[-1].e
    G = build_spec("D(16)")
    for measure in (component_dimension, center_rank):
        with pytest.raises(GroupMismatch):
            measure(G, e)
    assert component_dimension(e.group, e) == center_rank(e.group, e) == 1


def test_hat_tilde_identities_all_subgroups():
    from qgring.groups import subgroups
    for name in ["D12", "Q16"]:
        G = build_named(name)
        for H in subgroups(G):
            t = tilde(H)
            assert t.is_idempotent()
            hh = hat(H)
            for h in H.members:
                assert (hh * one_minus(G, h)).is_zero()


def test_hat_tilde_basics():
    G = build_named("D12")
    a = G.element("a")
    H = subgroup_generated(G, (a,))
    assert tilde(H).is_idempotent()
    assert (hat(H) * one_minus(G, a)).is_zero()
    assert hat(H).augmentation() == 6
    one = subgroup_generated(G, ())
    assert tilde(one) == AlgElem.one(G)
    assert AlgElem.one(G) * tilde(H) == tilde(H)


def test_hat_y_kills_one_minus_y():
    # hat(Y)(1-y) = 0 explains why (1-y) g hat(Y) squares to zero
    G = build_named("D12")
    Y = subgroup_generated(G, (G.element("b"),))
    assert (hat(Y) * one_minus(G, G.element("b"))).is_zero()
    g = G.element("a")
    alpha = one_minus(G, G.element("b")) * AlgElem.basis(G, g) * hat(Y)
    assert (alpha * alpha).is_zero()


def test_d12_paper_nilpotent_and_projection():
    G = build_named("D12")
    a, b = G.element("a"), G.element("b")
    alpha = one_minus(G, b) * AlgElem.basis(G, a) * one_plus(G, b)
    assert alpha.is_integral() and alpha.is_nilpotent()
    e = tilde(subgroup_generated(G, (G.word("a^3"),))) \
        - tilde(subgroup_generated(G, (a,)))
    assert e.is_central() and e.is_idempotent() and not e.is_integral()
    prod = alpha * e
    expected = Fraction(1, 2) * (
        one_plus(G, G.word("a^3"))
        * (AlgElem.basis(G, a) - AlgElem.basis(G, G.inverse[a]))
        * one_plus(G, b))
    assert prod == expected
    assert not prod.is_integral()


def test_is_nilpotent_against_term_by_term_oracle():
    import random
    rng = random.Random(7)
    for name in ["S3", "Q8", "D8"]:
        G = build_named(name)
        cases = []
        for Y in [subgroup_generated(G, (g,)) for g in range(1, G.order)]:
            y = Y.members[1]
            for g in range(G.order):
                cases.append(one_minus(G, y) * AlgElem.basis(G, g) * hat(Y))
        for _ in range(30):
            cases.append(AlgElem(G, [rng.randrange(-2, 3)
                                     for _ in range(G.order)], 1))
        for alpha in cases:
            power = alpha
            brute = alpha.is_zero()
            for _ in range(G.order):
                power = power * alpha
                if power.is_zero():
                    brute = True
                    break
            assert alpha.is_nilpotent() == brute


def test_hat_of_involution_is_not_nilpotent():
    G = build_named("Q8")
    z = G.word("a^2")
    h = hat(subgroup_generated(G, (z,)))
    assert not h.is_nilpotent()
    assert h * h == 2 * h


def test_conjugate_support_follows_subgroup_conjugation():
    G = build_named("A5")
    A4, K, eps, _ = a5_shoda_idempotent(G)
    a = G.element("(1,2,3,4,5)")
    from invariants import conjugate_subgroup
    A4a = conjugate_subgroup(G, A4, a)
    assert all(g in A4a for g in eps.conjugate(a).support)


def test_centralizer_subgroup_example38():
    G = build_named("Ex38K")
    a, b = G.element("a"), G.element("b")
    from qgring.shoda import epsilon
    eps = epsilon(subgroup_generated(G, (a, b)), subgroup_generated(G, (a,)))
    cen = eps.centralizer_subgroup()
    expected = subgroup_generated(G, (a, b, G.word("c^4")))
    assert cen.mask == expected.mask


def test_central_and_idempotent_flags():
    G = build_named("C3C3rC8")
    t = tilde(subgroup_generated(G, tuple(range(G.order))))
    assert t.is_central() and t.is_idempotent()
    x = AlgElem.basis(G, G.element("a"))
    assert not x.is_central()


# is_central_idempotent decides e*e = e in G/ker e; each case below is
# compared with the full square


def _is_central_idempotent(x):
    return x.is_central() and x * x == x


def _pcis(G):
    try:
        return [sp.e for sp in metabelian_pcis(G)]
    except NotMetabelian:
        return [a5_shoda_idempotent(G)[3]]


@pytest.mark.parametrize("name", catalog_names())
def test_central_idempotency_is_exact_on_pcis(name):
    G = build_named(name)
    pcis = _pcis(G)
    assert all(e.is_central_idempotent() for e in pcis)
    cases = [2 * e for e in pcis]
    for i, e in enumerate(pcis):
        for f in pcis[i + 1:]:
            # the last: x*x - x = 6/25 (e - f), zero wherever e and f agree
            cases += [e + f, e - f, Fraction(6, 5) * e + Fraction(3, 5) * f]
    for x in cases:
        assert x.is_central_idempotent() == _is_central_idempotent(x)


@pytest.mark.parametrize("spec", ["D(200)", "BJ9", "A5"])
def test_central_idempotency_is_exact_on_normal_subgroup_sums(spec):
    G = build_spec(spec)
    sums = [tilde(N) for N in normal_subgroups(G)]
    cases = sums + [2 * t for t in sums]
    cases += [t - u for t in sums for u in sums if t != u]
    for x in cases:
        assert x.is_central_idempotent() == _is_central_idempotent(x)


@pytest.mark.parametrize("c, kernel", [(1, 1), (0, 3)])
def test_central_idempotency_checks_every_class_of_the_quotient(c, kernel):
    # x = 6/5 e_1 + 3/5 e_sign + c e_2 over the three PCIs of S3 has
    # x*x - x = 6/25 (e_1 - e_sign): zero at 1 and at the rotations, and
    # nonzero only at the reflections. With c = 0 its kernel is C3.
    G = S3
    rotations = subgroup_generated(G, (G.element("a"),))
    e_1 = tilde(subgroup_generated(G, range(G.order)))
    e_sign = tilde(rotations) - e_1
    e_2 = AlgElem.one(G) - tilde(rotations)
    x = Fraction(6, 5) * e_1 + Fraction(3, 5) * e_sign + c * e_2
    gap = x * x - x
    assert gap.support == tuple(g for g in range(G.order) if g not in rotations)
    assert x.centralizer_subgroup().order == G.order
    assert [g for g in range(G.order) if x * AlgElem.basis(G, g) == x] == \
        list(rotations.members[:kernel])
    assert not x.is_central_idempotent()


CENTRAL_GROUPS = [build_named(name) for name in ("S3", "D8", "Q8", "A4", "D12",
                                                 "C5rC4")]


@st.composite
def central_elements(draw):
    """A rational combination of class sums, that times tilde(N) for a
    normal N (so its kernel holds N), a multiple of a sum of PCIs, or
    6/5 e + 3/5 f + a sum of other PCIs, whose square minus itself is
    6/25 (e - f): zero wherever e and f agree."""
    G = draw(st.sampled_from(CENTRAL_GROUPS))
    kind = draw(st.sampled_from(["classes", "kernel", "pcis", "balanced"]))
    if kind in ("pcis", "balanced"):
        chosen = draw(st.lists(st.sampled_from(_pcis(G)), unique=True,
                               min_size=2 if kind == "balanced" else 0))
        if kind == "balanced":
            e, f, *rest = chosen
            return Fraction(6, 5) * e + Fraction(3, 5) * f + sum(rest, AlgElem.zero(G))
        scale = draw(st.sampled_from([1, 2, -1, Fraction(1, 2)]))
        return sum(chosen, AlgElem.zero(G)) * scale
    classes = G.conjugacy_classes()
    values = draw(st.lists(st.integers(-3, 3), min_size=len(classes),
                           max_size=len(classes)))
    nums = [0] * G.order
    for cls, v in zip(classes, values):
        for g in cls:
            nums[g] = v
    x = AlgElem(G, nums, draw(st.integers(1, 4)))
    if kind == "kernel":
        x = x * tilde(draw(st.sampled_from(normal_subgroups(G))))
    return x


@settings(max_examples=300, deadline=None)
@given(central_elements())
def test_central_idempotency_is_exact_on_class_sum_combinations(x):
    assert x.is_central_idempotent() == _is_central_idempotent(x)
