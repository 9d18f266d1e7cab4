import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qgring.groups
from qgring.catalog import bj1_group, bj2_group, build_named, build_spec
from qgring.errors import (
    BNotAbelian,
    InconsistentSpec,
    NotNormal,
    OrderCapExceeded,
    ParseError,
)
from qgring.groups import (
    FiniteGroup,
    Subgroup,
    _closure,
    center,
    cosets,
    derived_subgroup,
    alternating5,
    central_product,
    cyclic,
    cyclic_extension,
    dihedral,
    direct_product,
    elementary_abelian,
    find_isomorphism,
    from_table,
    is_normal,
    maximal_abelian_over,
    metacyclic,
    metacyclic_amitsur,
    normalizer,
    order_q_matrix,
    quaternion,
    quotient,
    semidirect_cyclic,
    semidirect_vector,
    subgroup_generated,
    subgroups,
)
from reference_builders import reference_cyclic, reference_metacyclic
from invariants import (
    conjugate_subgroup,
    fingerprint,
    intersect,
    join,
    quotient_of_spec,
    subgroup_of_spec,
)


# -- construction invariants -------------------------------------------------


def test_trivial_group():
    G = build_spec("C(1)")
    assert G.order == 1 and G.names == ["1"]


def _cyclic_table(n, edits=()):
    """The table of C_n with t[i][j] = v for each (i, j, v) of edits."""
    t = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i, j, v in edits:
        t[i][j] = v
    return t


def _intercalate(n):
    """C_n (n even) with the intercalate at rows 1, 1 + n/2 and columns
    2, 2 + n/2 swapped: still a Latin square with identity 0, but not
    associative."""
    h = n // 2
    return _cyclic_table(n, [(i, j, (i + j + h) % n)
                             for i in (1, 1 + h) for j in (2, 2 + h)])


def test_table_validation_rejects_broken_tables():
    with pytest.raises(InconsistentSpec):
        FiniteGroup([[0, 1], [1, 1]], ["1", "g"])  # not a Latin square
    with pytest.raises(InconsistentSpec):
        FiniteGroup([[1, 0], [0, 1]], ["1", "g"])  # identity not index 0
    # associative Latin square check: Z3 with a corrupted entry
    t = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    t[1][1] = 0
    t[1][2] = 2  # keep rows permutations but break associativity
    with pytest.raises(InconsistentSpec):
        FiniteGroup(t, ["1", "a", "b"])
    n = 200
    t = _intercalate(n)
    assert all(len(set(row)) == n for row in t)
    assert all(len(set(col)) == n for col in zip(*t))
    with pytest.raises(InconsistentSpec):
        FiniteGroup(t, ["1"] + [f"g{i}" for i in range(1, n)])


def _full_transformation_monoid():
    """The 27 maps of {0, 1, 2} into itself, f*g = f then g, with the
    identity at index 0 and the rest in lexicographic order: associative,
    with a two-sided identity, but (0, 0, 0) at index 1 has no inverse."""
    maps = list(itertools.product(range(3), repeat=3))
    maps.remove((0, 1, 2))
    maps.insert(0, (0, 1, 2))
    pos = {f: i for i, f in enumerate(maps)}
    return [[pos[tuple(g[x] for x in f)] for g in maps] for f in maps]


# each rejection, with the first defect named in the order of the checks:
# range, identity, rows, columns, associativity
REJECTED = {
    "entry out of range": ([[0, 1], [1, 2]], "table entries out of range"),
    "negative entry": ([[0, 1], [1, -1]], "table entries out of range"),
    "short row": ([[0, 1], [1]], "table entries out of range"),
    "empty table": ([], "table entries out of range"),
    "range before identity": ([[1, 0], [0, 5]], "table entries out of range"),
    "identity not at 0": ([[1, 0], [0, 1]], "index 0 is not a two-sided identity"),
    "identity on one side": ([[0, 1, 2], [1, 2, 0], [1, 0, 2]],
                             "index 0 is not a two-sided identity"),
    "row not a permutation": ([[0, 1], [1, 1]], "row 1 is not a permutation"),
    # the accept path reads right inverses off the rows: a monoid is a
    # group only if each row holds 0
    "associative monoid": (_full_transformation_monoid(),
                           "row 1 is not a permutation"),
    "column-only defect": ([[0, 1, 2], [1, 2, 0], [2, 1, 0]],
                           "column 1 is not a permutation"),
    # a loop of order 5 with an involution: a Latin square, not a group
    "not associative": ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
                        "multiplication table is not associative"),
    "not associative, Latin": (_intercalate(200),
                               "multiplication table is not associative"),
    # up to order 256 the accept test runs on byte rows: an entry that is
    # no byte, and one that is a byte but not an element
    "entry 256": ([[0, 1], [1, 256]], "table entries out of range"),
    "entry 255, order 200": (_cyclic_table(200, [(3, 4, 255)]),
                             "table entries out of range"),
    # an entry is taken only when it equals an int, and never a string
    "entry 0.5": ([[0, 1], [1, 0.5]], "table entries out of range"),
    "entry '0'": ([[0, 1], [1, "0"]], "table entries out of range"),
    "entry None": ([[0, 1], [1, None]], "table entries out of range"),
    "entry 'x'": ([[0, 1], [1, "x"]], "table entries out of range"),
    "entry nan": ([[0, 1], [1, float("nan")]], "table entries out of range"),
    # above order 256 it runs on the int rows
    "entry out of range, order 300": (_cyclic_table(300, [(5, 7, 300)]),
                                      "table entries out of range"),
    "row not a permutation, order 300": (_cyclic_table(300, [(7, 9, 17)]),
                                         "row 7 is not a permutation"),
    "not associative, Latin, order 300": (
        _intercalate(300), "multiplication table is not associative"),
}


@pytest.mark.parametrize("table, message", REJECTED.values(), ids=REJECTED.keys())
def test_each_rejection_names_its_defect(table, message):
    names = [f"g{i}" for i in range(len(table))]
    with pytest.raises(InconsistentSpec) as info:
        FiniteGroup(table, names)
    assert str(info.value) == message


# the rejections whose entries fit in bytes rows
BYTES_REJECTED = {k: (table, message) for k, (table, message) in REJECTED.items()
                  if all(type(v) is int and 0 <= v < 256
                         for row in table for v in row)}


@pytest.mark.parametrize("table, message", BYTES_REJECTED.values(),
                         ids=BYTES_REJECTED.keys())
def test_each_rejection_names_its_defect_on_bytes_rows(table, message):
    names = [f"g{i}" for i in range(len(table))]
    with pytest.raises(InconsistentSpec) as info:
        from_table(list(map(bytes, table)), names)
    assert str(info.value) == message


@pytest.mark.parametrize("spec", ["C(1)", "S3", "Q(16)", "BJ9", "D(200)",
                                  "X(Q(8),C(25))"])
def test_from_table_takes_bytes_rows_as_the_group_of_list_rows(spec):
    G = build_spec(spec)
    B = from_table(list(map(bytes, G.table)), G.names)
    L = from_table(G.table, G.names)
    for H in (B, L):
        assert (H.table, H.names, H.inverse, H.generators()) == (
            G.table, G.names, G.inverse, G.generators())
        assert {type(v) for row in H.table for v in [row, *row]} == {list, int}


def _first_defect(table):
    """The message the table checks raise for table, read off the
    definitions with every triple tested for associativity; None for a
    group."""
    n = len(table)
    ident = list(range(n))
    if not n or any(len(row) != n or not all(0 <= v < n for v in row)
                    for row in table):
        return "table entries out of range"
    if table[0] != ident or [row[0] for row in table] != ident:
        return "index 0 is not a two-sided identity"
    for i, row in enumerate(table):
        if sorted(row) != ident:
            return f"row {i} is not a permutation"
    for j, col in enumerate(zip(*table)):
        if sorted(col) != ident:
            return f"column {j} is not a permutation"
    if any(table[table[x][y]][z] != table[x][table[y][z]]
           for x, y, z in itertools.product(range(n), repeat=3)):
        return "multiplication table is not associative"
    return None


def _mutated(table, rng):
    """table with one random defect, or relabelled (a group again when the
    relabelling fixes 0)."""
    n = len(table)
    t = [row[:] for row in table]
    i, j, k = (rng.randrange(n) for _ in range(3))
    kind = rng.randrange(6)
    if kind == 0:
        t[i][j] = rng.choice([-1, 0, 1, n - 1, n, 255, 256])
    elif kind == 1:
        t[i][j], t[i][k] = t[i][k], t[i][j]
    elif kind == 2:
        t[i], t[j] = t[j], t[i]
    elif kind == 3:
        for row in t:
            row[i], row[j] = row[j], row[i]
    elif kind == 4:  # an intercalate off row and column 0 turned: Latin still
        for _ in range(n * n):
            i, j, k = (rng.randrange(1, n) for _ in range(3))
            m = t[j].index(t[i][k])
            if i != j and m and t[j][k] == t[i][m]:
                t[i][k], t[i][m], t[j][k], t[j][m] = t[i][m], t[i][k], t[j][m], t[j][k]
                break
    else:
        perm = [0] + rng.sample(range(1, n), n - 1)
        if rng.random() < 0.2:  # the identity moves too
            rng.shuffle(perm)
        inv = {p: x for x, p in enumerate(perm)}
        t = [[perm[table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    return t


@pytest.mark.parametrize("name", ["S3", "D8", "Q8", "A4", "Q12", "C(2)", "C(7)",
                                  "EA(2,3)"])
def test_byte_rows_decide_as_the_definitions_do(name):
    # the accept test on byte rows and the defect-by-defect reject path
    # give every table the verdict and the first defect the definitions give
    table = (build_spec(name) if "(" in name else build_named(name)).table
    rng = random.Random(name)
    for _ in range(150):
        t = _mutated(table, rng)
        try:
            FiniteGroup(t, [f"g{i}" for i in range(len(t))])
            got = None
        except InconsistentSpec as exc:
            got = str(exc)
        assert got == _first_defect(t), t


def test_each_rejection_names_its_defect_under_optimize():
    # the checks raise InconsistentSpec themselves, never through assert
    script = textwrap.dedent("""
        import json, sys
        from qgring.errors import InconsistentSpec
        from qgring.groups import FiniteGroup
        for table in json.load(sys.stdin):
            try:
                FiniteGroup(table, [f"g{i}" for i in range(len(table))])
                print("accepted")
            except InconsistentSpec as exc:
                print(exc)
    """)
    tables = [table for table, _ in REJECTED.values()]
    src = str(Path(__file__).parent.parent / "src")
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         input=json.dumps(tables), capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [message for _, message in REJECTED.values()]


def _checked_on(monkeypatch):
    """The row types of the checked rows that each FiniteGroup from here on
    hands to _compute_inverses."""
    kinds = []
    orig = FiniteGroup._compute_inverses

    def recording(self, rows):
        kinds.append({type(row) for row in rows})
        return orig(self, rows)

    monkeypatch.setattr(FiniteGroup, "_compute_inverses", recording)
    return kinds


@pytest.mark.parametrize("build, reference, kind", [
    (lambda: cyclic(256, cap=256), lambda: reference_cyclic(256, cap=256), bytes),
    (lambda: cyclic(300, cap=300), lambda: reference_cyclic(300, cap=300), list),
    (lambda: dihedral(300, cap=300),
     lambda: reference_metacyclic(150, 2, 0, 149, cap=300, name="D300"), list),
], ids=["C256", "C300", "D300"])
def test_tables_up_to_order_256_are_checked_on_bytes(build, reference, kind,
                                                     monkeypatch):
    R = reference()
    kinds = _checked_on(monkeypatch)
    G = build()
    assert kinds == [{kind}]
    assert (G.table, G.names, G.name) == (R.table, R.names, R.name)


@pytest.mark.parametrize("convert", [
    lambda t: [[float(v) for v in row] for row in t],
    lambda t: [[bool(v) if v < 2 else v for v in row] for row in t],
    lambda t: pytest.importorskip("numpy").array(t, dtype="int64"),
    lambda t: pytest.importorskip("numpy").array(t, dtype="uint8"),
    lambda t: pytest.importorskip("numpy").array(t, dtype="float64"),
    lambda t: [pytest.importorskip("numpy").array(row, dtype="int16") for row in t],
], ids=["float", "bool", "numpy int64", "numpy uint8", "numpy float64",
        "numpy rows"])
@pytest.mark.parametrize("order", [2, 8, 200])
def test_from_table_coerces_entries_below_order_256(convert, order):
    D = dihedral(order)
    G = from_table(convert(D.table))
    assert G.table == D.table
    assert {type(v) for row in G.table for v in row} == {int}


@pytest.mark.parametrize("convert", [
    lambda t: [[float(v) for v in row] for row in t],
    lambda t: [[bool(v) if v < 2 else v for v in row] for row in t],
], ids=["float", "bool"])
def test_from_table_coerces_entries_above_order_256(convert):
    # int rows coerce as byte rows do
    D = dihedral(300, cap=300)
    G = from_table(convert(D.table), cap=300)
    assert G.table == D.table
    assert {type(v) for row in G.table for v in row} == {int}


def _scans(monkeypatch):
    """The groups each groups.subgroup_from_mask call from here on scans,
    and the original subgroup_from_mask."""
    scans = []
    orig = qgring.groups.subgroup_from_mask

    def counting(G, mask):
        scans.append(G)
        return orig(G, mask)

    monkeypatch.setattr(qgring.groups, "subgroup_from_mask", counting)
    return scans, orig


def test_each_table_is_scanned_for_generators_once(monkeypatch):
    # Light's test keeps the generators it scans for; generators() reads them
    floats = [[float(v) for v in row] for row in quaternion(8).table]
    scans, orig = _scans(monkeypatch)
    for build in (lambda: dihedral(8), lambda: cyclic(300, cap=300),
                  lambda: from_table(floats)):
        scans.clear()
        G = build()
        assert scans == [G]
        assert G.generators() == orig(G, (1 << G.order) - 1).gens
        assert scans == [G]


def test_a_refused_table_is_scanned_for_generators_once(monkeypatch):
    # one generator scan and one Light's test, also when the table is refused
    table, message = REJECTED["not associative"]
    scans, _ = _scans(monkeypatch)
    with pytest.raises(InconsistentSpec, match=message):
        FiniteGroup(table, [f"g{i}" for i in range(len(table))])
    assert len(scans) == 1


def test_table_entries_are_coerced_to_int():
    G = FiniteGroup([[0.0, 1.0], [1.0, 0.0]], ["1", "g"])
    assert G.table == [[0, 1], [1, 0]]
    assert {type(v) for row in G.table for v in row} == {int}


def test_numpy_table_entries_are_coerced_to_int():
    np = pytest.importorskip("numpy")
    C6 = cyclic(6)
    G = FiniteGroup(np.array(C6.table, dtype=np.int64), C6.names)
    assert G.table == C6.table
    assert {type(v) for row in G.table for v in row} == {int}


def test_new_groups_start_with_an_empty_cache():
    # every per-group memo (classes, rank points, transversals, ...) is
    # built on first use, never at construction
    C9 = cyclic(9)
    x = C9.element("x")
    groups = [cyclic(200), dihedral(8), quaternion(16), alternating5(),
              semidirect_vector(3, 2, [[0, 1], [1, 1]], 8),
              direct_product(dihedral(8), cyclic(3)),
              central_product(dihedral(8), quaternion(8)),
              from_table(dihedral(8).table),
              metacyclic(8, 4, 4, 7), semidirect_cyclic(13, 12, 2),
              cyclic_extension(C9, {x: C9.power(x, 4)}, 3, 0, "c"),
              elementary_abelian(2, 4), bj1_group(2, 3, 2),
              bj2_group(dihedral(8), 4)]
    for G in groups:
        assert G._cache == {}, G.name


def test_import_does_not_load_numpy():
    src = str(Path(__file__).parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qgring; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_inverses_and_powers():
    G = build_named("Q8")
    for g in range(G.order):
        assert G.table[g][G.inverse[g]] == 0
        assert G.power(g, G.element_order(g)) == 0
    a = G.element("a")
    assert G.power(a, -1) == G.inverse[a]


def test_metacyclic_amitsur_relations():
    # brute-force check of all defining relations and the order formula
    G = metacyclic_amitsur(21, 16)
    assert G.order == 63
    A, B = G.element("a"), G.element("b")
    assert G.element_order(A) == 21
    assert G.power(B, 3) == G.power(A, 7)  # B^n = A^t with n=3, t=7
    assert G.conj_left(A, B) == G.power(A, 16)  # B A B^-1 = A^16
    # normal forms A^i B^j are distinct
    seen = {G.table[G.power(A, i)][G.power(B, j)]
            for i in range(21) for j in range(3)}
    assert len(seen) == 63
    # isomorphic to C7 : C9 with y x y^-1 = x^2
    assert find_isomorphism(G, build_spec("SdCyc(7,9,2)")) is not None


def test_quaternion_relations():
    G = quaternion(16)
    a, b = G.element("a"), G.element("b")
    assert G.element_order(a) == 8
    assert G.power(b, 2) == G.power(a, 4)
    assert G.conj_left(a, b) == G.inverse[a]


def test_bj9_presentation():
    G = build_named("BJ9")
    assert G.order == 64
    a, b, c, d = (G.element(x) for x in "abcd")
    assert G.power(a, 4) == 0 and G.power(b, 4) == 0
    assert G.table[a][b] == G.table[b][a]
    assert G.power(c, 2) == G.word("a^2*b^2")
    assert G.power(d, 2) == G.word("a^2")
    assert G.conj(a, c) == G.inverse[a]
    assert G.conj(b, c) == G.word("a^2*b^-1")
    assert G.conj(a, d) == G.word("a^-1*b^2")
    assert G.conj(b, d) == G.inverse[b]
    assert G.commutator(c, d) == 0


def test_central_product_order():
    G = build_named("D8cpD8")
    assert G.order == 32
    assert center(G).order == 2
    G2 = build_named("D8cpQ8")
    assert G2.order == 32
    assert fingerprint(G) != fingerprint(G2)


def test_central_product_rejects_bad_identification():
    from qgring.groups import central_product
    with pytest.raises(InconsistentSpec):
        central_product(dihedral(8), dihedral(8), 2)  # 2 not a unit mod 2


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_spec("C(251)")
    assert build_spec("C(251)", cap=300).order == 251


def test_semidirect_vector_action_convention():
    # x^c = c^-1 x c follows the action matrix
    G = build_named("C3C3rC8")
    a, b, c = G.element("a"), G.element("b"), G.element("c")
    assert G.conj(a, c) == b
    assert G.conj(b, c) == G.table[a][b]
    assert G.conj(a, G.power(c, 4)) == G.power(a, 2)  # a^(c^4) = a^2
    with pytest.raises(InconsistentSpec):
        semidirect_vector(3, 2, [[1, 0], [0, 1]], 8)  # matrix not of order 8


# -- subgroup lattice ---------------------------------------------------------


def test_subgroups_cyclic_and_quaternion():
    assert len(subgroups(build_spec("C(6)"))) == 4
    subs = subgroups(build_named("Q8"))
    assert len(subs) == 6
    assert sorted(s.order for s in subs) == [1, 2, 4, 4, 4, 8]


def test_subgroups_a5_against_two_generator_oracle():
    G = build_named("A5")
    subs = subgroups(G)
    assert len(subs) == 59
    # independent oracle: subgroups generated by at most two elements,
    # closed under pairwise joins
    masks = set()
    for x in range(G.order):
        masks.add(_closure(G, (x,)))
        for y in range(x + 1, G.order):
            masks.add(_closure(G, (x, y)))
    changed = True
    while changed:
        changed = False
        for m1, m2 in itertools.combinations(sorted(masks), 2):
            if m1 | m2 in masks:
                continue
            members = tuple(i for i in range(G.order) if (m1 | m2) >> i & 1)
            j = _closure(G, members)
            if j not in masks:
                masks.add(j)
                changed = True
    assert masks == {s.mask for s in subs}


def test_subgroup_lattice_closure_properties():
    G = build_named("D12")
    subs = subgroups(G)
    masks = {s.mask for s in subs}
    for A, B in itertools.combinations(subs, 2):
        assert join(G, A, B).mask in masks
        assert intersect(G, A, B).mask in masks
    for s in subs:
        assert G.order % s.order == 0  # Lagrange


def test_join_of_subgroups_built_without_generators():
    G = build_named("S3")
    r, s = G.element("a"), G.element("b")
    full = Subgroup(G, (1 << G.order) - 1)
    J = join(G, full, subgroup_generated(G, (s,)))
    assert J.mask == full.mask and not J.is_abelian()
    J = join(G, subgroup_generated(G, (r,)), Subgroup(G, 1 | 1 << s))
    assert J.mask == full.mask and not J.is_abelian()


def test_subgroup_members_closed():
    G = build_named("A4")
    for H in subgroups(G):
        mem = H.members
        assert 0 in mem
        for x in mem:
            assert G.inverse[x] in H
            for y in mem:
                assert G.table[x][y] in H


@pytest.mark.parametrize("spec", ["D(200)", "BJ9", "D(250)", "C(1)"])
def test_members_match_a_bit_scan(spec):
    # every subgroup and the masks 1 and 2^n - 1; D(250) is at the order cap
    G = build_spec(spec) if "(" in spec else build_named(spec)
    for mask in [H.mask for H in subgroups(G)] + [1, (1 << G.order) - 1]:
        assert Subgroup(G, mask).members == tuple(
            i for i in range(G.order) if mask >> i & 1)


@pytest.mark.parametrize("spec", ["D(200)", "BJ9", "A5", "X(Q(8),C(27))"])
def test_element_orders_and_cyclic_subgroups(spec):
    G = build_spec(spec) if "(" in spec else build_named(spec)
    for g in range(G.order):
        k, x = 1, g
        while x:
            x = G.table[x][g]
            k += 1
        assert G.element_order(g) == k
    for H in subgroups(G):
        assert H.is_cyclic() == any(_closure(G, (g,)) == H.mask
                                    for g in H.members)


# -- structure maps -----------------------------------------------------------


def test_derived_center_normalizer():
    A4 = build_named("A4")
    der = derived_subgroup(A4)
    assert der.order == 4
    assert all(A4.element_order(g) in (1, 2) for g in der.members)
    assert center(build_named("Q8")).order == 2
    G = build_named("C3C3rC8")
    assert derived_subgroup(G).order == 9
    K = subgroup_generated(G, (G.element("a"),))
    N = normalizer(G, K)
    expected = subgroup_generated(
        G, (G.element("a"), G.element("b"), G.word("c^4")))
    assert N.mask == expected.mask


def test_quotients():
    G = build_named("C3rC8")
    for N in [s for s in subgroups(G) if is_normal(G, s)]:
        Q, proj = quotient(G, N)
        assert Q.order * N.order == G.order
        assert len(set(proj)) == Q.order
    # G/<y^2> is S3; G/<y^4> is C3 : C4 (the next tower level)
    Q2, _ = quotient(G, subgroup_generated(G, (G.word("y^2"),)))
    assert find_isomorphism(Q2, dihedral(6)) is not None
    Q4, _ = quotient(G, subgroup_generated(G, (G.word("y^4"),)))
    assert Q4.order == 12
    assert find_isomorphism(Q4, build_spec("SdCyc(3,4,2)")) is not None
    with pytest.raises(NotNormal):
        quotient(build_named("D12"),
                 subgroup_generated(build_named("D12"),
                                    (build_named("D12").element("b"),)))


def _relabelled(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G with its non-identity elements renumbered at random."""
    perm = [0] + random.Random(seed).sample(range(1, G.order), G.order - 1)
    table = [[0] * G.order for _ in range(G.order)]
    for a, row in enumerate(G.table):
        for b, ab in enumerate(row):
            table[perm[a]][perm[b]] = perm[ab]
    return from_table(table)


_COSET_GROUPS = {"D(200)": lambda: dihedral(200), "BJ9": lambda: build_named("BJ9"),
                 "A5": alternating5, "A5-relabelled": lambda: _relabelled(alternating5(), 7)}


@pytest.mark.parametrize("name", sorted(_COSET_GROUPS))
def test_cosets_match_the_definition(name):
    G = _COSET_GROUPS[name]()
    subs = subgroups(G)
    for S in subs[::max(1, len(subs) // 25)] + [subs[-1]]:
        # G itself, and the least proper subgroup above S if there is one
        above = [W for W in subs if S < W and W.order < G.order]
        for within in [None] + above[:1]:
            elems = range(G.order) if within is None else within.members
            for left in (False, True):
                index, reps = cosets(S, within, left)
                expected = sorted({tuple(sorted(G.table[g][s] if left else G.table[s][g]
                                                for s in S.members))
                                   for g in elems})
                assert reps == [c[0] for c in expected] == sorted(reps)
                assert index == [next((i for i, c in enumerate(expected) if x in c), -1)
                                 for x in range(G.order)]


def test_quotient_trivial_and_q8():
    G = build_named("Q8")
    Q, _ = quotient(G, subgroup_generated(G, tuple(range(G.order))))
    assert Q.order == 1
    Qz, _ = quotient(G, center(G))
    assert sorted(Qz.element_order(g) for g in range(Qz.order)) == [1, 2, 2, 2]


def test_derived_of_quotient_is_image_of_derived():
    for name in ["A4", "Q12", "C3C3rC8", "D12", "Q8xC4"]:
        G = build_named(name)
        der = derived_subgroup(G)
        for N in [s for s in subgroups(G) if is_normal(G, s)]:
            Q, proj = quotient(G, N)
            img = sorted({proj[g] for g in der.members})
            dq = derived_subgroup(Q)
            assert subgroup_generated(Q, tuple(img)).mask == dq.mask


def test_maximal_abelian_over():
    G = build_spec("C(12)")
    full = subgroup_generated(G, (G.element("x"),))
    assert maximal_abelian_over(G, subgroup_generated(G, ())).mask == full.mask
    G = build_named("C3C3rC8")
    der = derived_subgroup(G)
    assert maximal_abelian_over(G, der).mask == der.mask
    B = bj1_group(3, 2, 1)
    a_sub = subgroup_generated(B, (B.element("a"),))
    assert maximal_abelian_over(B, derived_subgroup(B)).mask == a_sub.mask
    with pytest.raises(BNotAbelian):
        maximal_abelian_over(G, subgroup_generated(G, (G.element("a"),
                                                       G.element("c"))))


def test_conjugate_subgroup():
    G = build_named("A5")
    H = subgroup_generated(G, (G.element("(1,2,3)"),))
    Hg = conjugate_subgroup(G, H, G.element("(1,2,3,4,5)"))
    assert Hg.order == 3 and Hg.mask != H.mask


# -- names, words, spec language ----------------------------------------------


def test_element_names_and_words():
    G = build_named("C3C3rC8")
    assert G.names[0] == "1"
    assert G.word("a*a*a") == 0
    assert G.word("c^8") == 0
    assert G.word("a^2*b") == G.table[G.power(G.element("a"), 2)][G.element("b")]
    with pytest.raises(KeyError):
        G.element("nonexistent")


def test_spec_parser_roundtrips():
    for spec, order in [("C(6)", 6), ("D(12)", 12), ("Q(16)", 16),
                        ("EA(2,3)", 8), ("MetaAmitsur(21,16)", 63),
                        ("SdVec(2,2,[[0,1],[1,1]],3)", 12),
                        ("SdCyc(5,4,2)", 20), ("X(C(2),D(8))", 16),
                        ("CProd(D(8),D(8),1)", 32)]:
        assert build_spec(spec).order == order


def test_spec_parser_errors():
    for bad in ["", "C(", "C(x)", "Nope", "C(3))"]:
        with pytest.raises(ParseError):
            build_spec(bad)
    with pytest.raises(InconsistentSpec):
        build_spec("SdVec(3,2,[[0,1]],8)")  # matrix shape mismatch


def test_direct_product_renames_colliding_letters():
    G = build_spec("X(D(8),D(8))")
    assert G.order == 64
    assert len(set(G.names)) == 64


def test_order_q_matrix():
    M = order_q_matrix(2, 4, 5)
    G = semidirect_vector(2, 4, M, 5)
    assert G.order == 80
    with pytest.raises(InconsistentSpec):
        order_q_matrix(3, 2, 5)  # ord_5(3) = 4 != 2


def test_fingerprint_distinguishes_groups():
    assert fingerprint(build_named("D8")) != fingerprint(build_named("Q8"))
    assert fingerprint(build_spec("C(4)")) != fingerprint(build_spec("EA(2,2)"))
    assert fingerprint(bj1_group(2, 2, 2)) != fingerprint(bj1_group(2, 3, 1))


def test_find_isomorphism_small():
    assert find_isomorphism(build_named("S3"), dihedral(6)) is not None
    assert find_isomorphism(build_named("Q8"), build_named("D8")) is None


def test_quotient_and_subgroup_of_spec():
    Q = quotient_of_spec("SdCyc(3,8,2)", ["y^2"])
    assert Q.order == 6
    H = subgroup_of_spec("SdVec(3,2,[[0,1],[1,1]],8)", ["a", "b", "c^2"])
    assert H.order == 36 and H.names[0] == "1"
