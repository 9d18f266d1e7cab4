"""Every construction path builds the same group as the original builders
in reference_builders.py: same table, element names, inverses,
generators, group name and letters, on both sides of order 256. The
reference side runs with the library's `cyclic`, `metacyclic`,
`abelian`, `cyclic_extension`, `direct_product` and `central_product`
replaced by the reference copies, so that dihedral, quaternion, SdVec,
SdCyc, BJ1, BJ2 and the catalog's own builders take the original route
too."""

import contextlib

import pytest

import qgring.catalog as catalog
import qgring.groups as groups
from qgring.catalog import bj1_group, bj2_group, build_named, build_spec, catalog_names
from qgring.groups import (
    FiniteGroup,
    cyclic,
    dihedral,
    elementary_abelian,
    metacyclic,
    metacyclic_amitsur,
    order_q_matrix,
    quaternion,
    semidirect_cyclic,
    semidirect_vector,
)
from qgring.numutil import is_prime, ord_mod
from reference_builders import (
    REFERENCE_CATALOG,
    reference_abelian,
    reference_central_product,
    reference_cyclic,
    reference_cyclic_extension,
    reference_direct_product,
    reference_metacyclic,
    reference_order_q_matrix,
)


def _same(G: FiniteGroup, R: FiniteGroup) -> None:
    assert G.order == R.order
    assert G.table == R.table
    assert G.names == R.names
    assert G.inverse == R.inverse
    assert G.generators() == R.generators()
    assert G.name == R.name
    assert G.letters == R.letters


@pytest.fixture
def original(monkeypatch):
    """Empties the catalog memo for the test, and gives a context in which
    every builder takes the original route, with a memo of its own."""
    monkeypatch.setattr(catalog, "_BUILT", {})

    @contextlib.contextmanager
    def ctx():
        with monkeypatch.context() as m:
            m.setattr(catalog, "_BUILT", {})
            for module in (groups, catalog):
                m.setattr(module, "cyclic", reference_cyclic)
                m.setattr(module, "cyclic_extension", reference_cyclic_extension)
                m.setattr(module, "metacyclic", reference_metacyclic)
                m.setattr(module, "abelian", reference_abelian)
                m.setattr(module, "direct_product", reference_direct_product)
                m.setattr(module, "central_product", reference_central_product)
            yield
    return ctx


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_name_builds_the_original_group(name, original):
    G = build_named(name)
    with original():
        if name in REFERENCE_CATALOG:
            R = REFERENCE_CATALOG[name][1]()
        else:
            R = catalog._BUILDERS[name][1]()
    _same(G, R)
    assert G.spec == name
    assert catalog.catalog_describe(name) == (
        REFERENCE_CATALOG[name][0] if name in REFERENCE_CATALOG
        else catalog._BUILDERS[name][0])


def test_catalog_aliases_are_the_original_entries():
    assert catalog._ALIASES == {name: spec for name, (spec, _) in REFERENCE_CATALOG.items()}
    assert not catalog._ALIASES.keys() & catalog._BUILDERS.keys()
    assert len(catalog_names()) == 29


# one spec per head, with the call the original parser branch made
SPECS = [
    ("C(12)", lambda: cyclic(12)),
    ("C(1)", lambda: cyclic(1)),
    ("D(200)", lambda: dihedral(200)),
    ("Q(16)", lambda: quaternion(16)),
    ("EA(2,7)", lambda: elementary_abelian(2, 7)),
    ("EA(3,4)", lambda: elementary_abelian(3, 4)),
    ("EA(5,1)", lambda: elementary_abelian(5, 1)),
    ("MetaAmitsur(40,13)", lambda: metacyclic_amitsur(40, 13)),
    ("SdVec(2,4,[[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]],5)",
     lambda: semidirect_vector(2, 4, [[0, 0, 0, 1], [1, 0, 0, 1],
                                      [0, 1, 0, 1], [0, 0, 1, 1]], 5)),
    ("SdCyc(7,27,2)", lambda: semidirect_cyclic(7, 27, 2)),
    ("X(Q(8),C(27))", lambda: reference_direct_product(quaternion(8), cyclic(27))),
    ("X(D(8),D(8))", lambda: reference_direct_product(dihedral(8), dihedral(8))),
    ("X(X(Q(8),C(2)),C(3))", lambda: reference_direct_product(
        reference_direct_product(quaternion(8), cyclic(2)), cyclic(3))),
    ("CProd(D(8),Q(8),1)",
     lambda: reference_central_product(dihedral(8), quaternion(8), 1)),
    ("CProd(C(6),C(12),5)",
     lambda: reference_central_product(cyclic(6), cyclic(12), 5)),
    ("CProd(Q(8),X(C(4),C(3)),1)",
     lambda: reference_central_product(quaternion(8), reference_direct_product(
         cyclic(4), cyclic(3)), 1)),
    ("CProd(SdCyc(5,4,2),C(4),1)",  # trivial center: the direct product
     lambda: reference_central_product(semidirect_cyclic(5, 4, 2), cyclic(4), 1)),
]


@pytest.mark.parametrize("spec,reference", SPECS, ids=[s for s, _ in SPECS])
def test_spec_head_builds_the_original_group(spec, reference, original):
    G = build_spec(spec)
    with original():
        R = reference()
    _same(G, R)


def _bj2_instances():
    """The BJ2 central products G0 o C(z) of `verify-theorems` and of the
    benchmark's family sweep: p^2 * z <= 200, leaving out p = 2, z = 2."""
    bases = {2: [lambda: build_spec("D(8)"), lambda: build_spec("Q(8)")],
             3: [lambda: build_named("Heis27"), lambda: build_named("C9rC3")],
             5: [lambda: build_spec("SdVec(5,2,[[1,1],[0,1]],5)"),
                 lambda: bj1_group(5, 2, 1)]}
    out = []
    for p, builders in bases.items():
        z = p
        while p * p * z <= 200:
            if not (p == 2 and z <= 2):
                out += [(p, z, i, b) for i, b in enumerate(builders)]
            z *= p
    return out


@pytest.mark.parametrize("p,z,i,base", _bj2_instances(),
                         ids=[f"p{p}-z{z}-{i}" for p, z, i, _ in _bj2_instances()])
def test_bj2_central_product_is_the_original_group(p, z, i, base, original):
    G = bj2_group(base(), z)
    with original():
        R = bj2_group(base(), z)
    _same(G, R)
    assert G.order == p ** 3 * z // p


@pytest.mark.parametrize("orders,letters,name", [
    ([9, 3], ("x", "y"), "C9xC3"),
    ([4, 4], ("a", "b"), "C4xC4"),
    ([2] * 7, tuple("abcdefg"), "EA(2,7)"),
    ([2, 3, 5], ("a", "b", "c"), None),
    ([1, 4], ("u", "v"), None),
    ([6], ("x",), None),
])
def test_abelian_is_the_original_group(orders, letters, name):
    _same(groups.abelian(orders, letters, name=name),
          reference_abelian(orders, letters, name=name))


@pytest.mark.parametrize("m,n,t,r,letters", [
    (100, 2, 0, 99, ("a", "b")),   # D(200)
    (8, 4, 4, 7, ("a", "b")),      # BJ5
    (7, 27, 0, 2, ("x", "y")),     # SdCyc(7,27,2)
    (8, 2, 4, 7, ("a", "b")),      # Q(16)
    (40, 4, 10, 13, ("a", "b")),   # MetaAmitsur(40,13)
    (25, 5, 0, 6, ("a", "b")),     # BJ1(5,2,1)
    (16, 4, 0, 9, ("a", "b")),     # BJ1(2,4,2)
    (1, 1, 0, 0, ("a", "b")),      # C(1)
    (1, 6, 0, 0, ("a", "b")),
    (6, 1, 0, 1, ("a", "b")),
    (9, 6, 3, 4, ("a", "b")),
])
def test_metacyclic_is_the_original_group(m, n, t, r, letters):
    _same(metacyclic(m, n, t, r, letters=letters),
          reference_metacyclic(m, n, t, r, letters=letters))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 25, 64, 200])
def test_cyclic_is_the_original_group(n):
    _same(cyclic(n), reference_cyclic(n))
    _same(cyclic(n, letter="z"), reference_cyclic(n, letter="z"))


# the SdVec groups of the family sweep (its faithful C_p^n : C_q and the
# BJ2 base Heis125) and of the catalog (A4, C3C3rC8, Heis27)
SDVEC = ["SdVec(2,2,[[0,1],[1,1]],3)",
         "SdVec(2,3,[[0,0,1],[1,0,0],[0,1,1]],7)",
         "SdVec(2,4,[[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]],5)",
         "SdVec(5,2,[[0,4],[1,4]],3)",
         "SdVec(5,2,[[1,1],[0,1]],5)",
         "SdVec(3,2,[[1,1],[0,1]],3)",
         "SdVec(3,2,[[0,1],[1,1]],8)"]


@pytest.mark.parametrize("spec", SDVEC)
def test_semidirect_vector_is_the_original_group(spec, original):
    G = build_spec(spec)
    with original():
        R = build_spec(spec)
    _same(G, R)


def _sl23(extend):
    # Q8 : C3, by the automorphism a -> b -> ab -> a of order 3
    Q = quaternion(8)
    a, b = Q.element("a"), Q.element("b")
    return extend(Q, {a: b, b: Q.word("a*b")}, 3, 0, "c")


def _central_step(extend):
    # n_ext = 1 over a nonabelian base: c = a^2, central, acts trivially
    Q = quaternion(8)
    a, b = Q.element("a"), Q.element("b")
    return extend(Q, {a: a, b: b}, 1, Q.word("a^2"), "c")


EXTENSIONS = {
    "n_ext=1": lambda extend: extend(cyclic(6), {1: 1}, 1, 3, "c"),
    "n_ext=1, nonabelian base": _central_step,
    "trivial base": lambda extend: extend(cyclic(1), {}, 5, 0, "c"),
    "trivial base, n_ext=1": lambda extend: extend(cyclic(1), {}, 1, 0, "c"),
    "Q8 over C4": lambda extend: extend(cyclic(4, "a"), {1: 3}, 2, 2, "b"),
    "SL(2,3)": _sl23,
}


@pytest.mark.parametrize("build", EXTENSIONS.values(), ids=EXTENSIONS.keys())
def test_cyclic_extension_is_the_original_group(build):
    _same(build(groups.cyclic_extension), build(reference_cyclic_extension))


def _q_extension(extend, n, cap):
    # the generalized quaternion group of order 2n: <a> = C(n/2), b^2 =
    # a^(n/4), a^b = a^-1
    return extend(cyclic(n // 2, "a"), {1: n // 2 - 1}, 2, n // 4, "b", cap=cap)


# each builder on both sides of order 256: up to it the builders compose
# bytes rows, above it int lists
ROW_PATHS = {
    "C255": (lambda: cyclic(255, cap=255), lambda: reference_cyclic(255, cap=255)),
    "C256": (lambda: cyclic(256, cap=256), lambda: reference_cyclic(256, cap=256)),
    "C257": (lambda: cyclic(257, cap=257), lambda: reference_cyclic(257, cap=257)),
    "D256": (lambda: dihedral(256, cap=256),
             lambda: reference_metacyclic(128, 2, 0, 127, cap=256, name="D256")),
    "D258": (lambda: dihedral(258, cap=258),
             lambda: reference_metacyclic(129, 2, 0, 128, cap=258, name="D258")),
    "C16xC16": (lambda: groups.direct_product(cyclic(16, "a"), cyclic(16, "b"), cap=256),
                lambda: reference_direct_product(reference_cyclic(16, "a"),
                                                 reference_cyclic(16, "b"), cap=256)),
    "C17xC16": (lambda: groups.direct_product(cyclic(17, "a"), cyclic(16, "b"), cap=272),
                lambda: reference_direct_product(reference_cyclic(17, "a"),
                                                 reference_cyclic(16, "b"), cap=272)),
    "Q256 as extension": (
        lambda: _q_extension(groups.cyclic_extension, 256, 256),
        lambda: _q_extension(reference_cyclic_extension, 256, 256)),
    "Q260 as extension": (
        lambda: _q_extension(groups.cyclic_extension, 260, 260),
        lambda: _q_extension(reference_cyclic_extension, 260, 260)),
    "Q16~C32": (lambda: groups.central_product(quaternion(16), cyclic(32, "z"), cap=256),
                lambda: reference_central_product(quaternion(16),
                                                  reference_cyclic(32, "z"), cap=256)),
    "Q16~C34": (lambda: groups.central_product(quaternion(16), cyclic(34, "z"), cap=272),
                lambda: reference_central_product(quaternion(16),
                                                  reference_cyclic(34, "z"), cap=272)),
}


@pytest.mark.parametrize("build, reference", ROW_PATHS.values(), ids=ROW_PATHS.keys())
def test_each_row_path_builds_the_original_group(build, reference, monkeypatch):
    R = reference()
    rows = []
    init = FiniteGroup.__init__

    def recording(self, table, *args, **kwargs):
        rows.append(table[0])
        init(self, table, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", recording)
    G = build()
    _same(G, R)
    assert type(rows[-1]) is (bytes if G.order <= 256 else list)
    assert {type(v) for row in G.table for v in [row, *row]} == {list, int}


def test_central_product_never_builds_the_direct_product(monkeypatch):
    orders = []
    init = FiniteGroup.__init__

    def counting_init(self, table, *args, **kwargs):
        orders.append(len(table))
        init(self, table, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    monkeypatch.setattr(catalog, "_BUILT", {})
    G = build_spec("CProd(D(8),D(8),1)")
    assert G.order == 32
    assert 64 not in orders and max(orders) == 32


# every (p, n, q) with p^n <= 256, q a prime below 100 and ord_q(p) = n
ORDER_Q_CASES = [(p, n, q) for p in range(2, 257) if is_prime(p)
                 for q in range(2, 100) if is_prime(q) and q != p
                 for n in [ord_mod(q, p)] if p ** n <= 256]


@pytest.mark.parametrize("p, n, q", ORDER_Q_CASES)
def test_order_q_matrix_is_the_original_matrix(p, n, q):
    assert order_q_matrix(p, n, q) == reference_order_q_matrix(p, n, q)
