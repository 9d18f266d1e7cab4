"""Spec strings from outside the program: `build_spec` either builds a group
or refuses the spec with a QGRingError, and `qgring analyze` turns a
refusal into one `error:` line and exit 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgring.groups
from qgring.catalog import build_spec
from qgring.cli import main
from qgring.errors import OrderCapExceeded, QGRingError

ARGS = st.integers(0, 8)


@st.composite
def _sdvec(draw):
    size = draw(st.integers(1, 3))
    rows = [draw(st.lists(ARGS, min_size=size, max_size=size)) for _ in range(size)]
    matrix = "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"
    return f"SdVec({draw(ARGS)},{draw(st.integers(0, 3))},{matrix},{draw(ARGS)})"


LEAVES = st.one_of(
    st.builds("C({})".format, ARGS),
    st.builds("D({})".format, ARGS),
    st.builds("Q({})".format, ARGS),
    st.builds("EA({},{})".format, ARGS, ARGS),
    st.builds("MetaAmitsur({},{})".format, ARGS, ARGS),
    st.builds("SdCyc({},{},{})".format, ARGS, ARGS, ARGS),
    _sdvec(),
)

SPECS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.builds("X({},{})".format, inner, inner),
    st.builds("CProd({},{},{})".format, inner, inner, ARGS)), max_leaves=3)


@settings(max_examples=300, deadline=None)
@given(spec=SPECS)
def test_a_spec_builds_a_group_or_is_refused(spec):
    try:
        G = build_spec(spec, cap=64)
    except QGRingError:
        return
    assert 1 <= G.order <= 64


# an 8x8 matrix of order 3 over F_2: four copies of the companion matrix
# of x^2 + x + 1 on the diagonal
RANK8_ORDER3 = "[" + ",".join(
    "[" + ",".join(str([[0, 1], [1, 1]][i % 2][j % 2] if i // 2 == j // 2 else 0)
                   for j in range(8)) + "]"
    for i in range(8)) + "]"
RANK8 = f"SdVec(2,8,{RANK8_ORDER3},3)"


# the rank-8 SdVec builds, and its lattice is over the subgroup cap
@pytest.mark.parametrize("argv, code", [
    (("analyze", "MetaAmitsur(0,1)"), 2),
    (("analyze", "SdCyc(0,2,1)"), 2),
    (("analyze", RANK8, "--cap", "768"), 3),
    # a product that needs a 27th generator letter
    (("analyze", "X(" * 26 + "C(1)" + ",C(1))" * 26), 2),
    # an integer past the digits int() reads, and a spec past the parser's
    # depth
    (("analyze", "C(" + "9" * 5000 + ")"), 2),
    (("analyze", "X(" * 1000 + "C(1)" + ",C(1))" * 1000), 2),
    # an order of more than 4 300 digits, refused before it is computed
    (("analyze", "SdVec(2,1000000000,[[1]],3)"), 3),
    # over the cap, so refused before p is found composite
    (("analyze", "EA(100000000000030,1)"), 3),
])
def test_a_refused_spec_is_one_error_line(capsys, argv, code):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("spec", ["MetaAmitsur(20000003,2)", "EA(100000000000031,1)",
                                  "SdVec(100000000000031,1,[[1]],2)"])
def test_the_order_cap_comes_before_work_that_grows_with_a_parameter(monkeypatch,
                                                                     spec):
    # ord_mod(m, r) takes O(m) steps and is_prime(p) O(sqrt(p))
    def unbounded(*args):
        raise AssertionError("ran before the order cap")

    monkeypatch.setattr(qgring.groups, "ord_mod", unbounded)
    monkeypatch.setattr(qgring.groups, "is_prime", unbounded)
    with pytest.raises(OrderCapExceeded):
        build_spec(spec)


def test_the_rank_8_generator_of_sdvec_is_named_i():
    G = build_spec(RANK8, cap=768)
    assert G.order == 768
    assert G.letters == tuple("abcdefghi")
