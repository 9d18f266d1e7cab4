"""Named group catalog and the group-spec mini-language.

Grammar:
    spec  := NAME | C(n) | D(2n) | Q(4n) | EA(p,r) | MetaAmitsur(m,r)
           | SdVec(p,r,[[row],[row],...],q) | SdCyc(p,n,r0)
           | X(spec,spec) | CProd(spec,spec,id)

D and Q take the total group order. NAME is a catalog identifier listed
by `catalog_names()`.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from .errors import ParseError
from .groups import (
    FiniteGroup,
    abelian,
    alternating5,
    central_product,
    cyclic,
    cyclic_extension,
    dihedral,
    direct_product,
    elementary_abelian,
    metacyclic,
    metacyclic_amitsur,
    quaternion,
    semidirect_cyclic,
    semidirect_vector,
    subgroup_generated,
)


def bj1_group(p: int, m: int, n: int, cap: Optional[int] = None) -> FiniteGroup:
    """<a, b | a^(p^m) = b^(p^n) = 1, b a b^-1 = a^(1+p^(m-1))>."""
    return metacyclic(p ** m, p ** n, 0, 1 + p ** (m - 1), cap=cap,
                      name=f"BJ1({p},{m},{n})")


def bj2_group(g0: FiniteGroup, z_order: int, cap: Optional[int] = None) -> FiniteGroup:
    """Central product of a nonabelian order-p^3 group with a cyclic group."""
    return central_product(g0, cyclic(z_order, letter="z"), cap=cap)


def _bj4(cap: Optional[int] = None) -> FiniteGroup:
    base = abelian([9, 3], ("x", "y"), name="C9xC3")
    imgs = {base.element("x"): base.word("x*y"),
            base.element("y"): base.word("x^6*y")}
    return cyclic_extension(base, imgs, 3, base.element("x^3"), "z",
                            cap=cap, name="BJ4")


def _bj5(cap: Optional[int] = None) -> FiniteGroup:
    return metacyclic(8, 4, 4, 7, cap=cap, name="BJ5")


def _bj8(cap: Optional[int] = None) -> FiniteGroup:
    base = abelian([4, 4], ("a", "b"), name="C4xC4")
    imgs = {base.element("a"): base.word("a*b^2"),
            base.element("b"): base.word("a^2*b")}
    return cyclic_extension(base, imgs, 2, base.element("a^2"), "c",
                            cap=cap, name="BJ8")


def _bj9(cap: Optional[int] = None) -> FiniteGroup:
    base = abelian([4, 4], ("a", "b"), name="C4xC4")
    imgs_c = {base.element("a"): base.word("a^3"),
              base.element("b"): base.word("a^2*b^3")}
    step1 = cyclic_extension(base, imgs_c, 2, base.word("a^2*b^2"), "c",
                             name="BJ9-half")
    imgs_d = {step1.element("a"): step1.word("a^3*b^2"),
              step1.element("b"): step1.word("b^3"),
              step1.element("c"): step1.element("c")}
    return cyclic_extension(step1, imgs_d, 2, step1.word("a^2"), "d",
                            cap=cap, name="BJ9")


def _heisenberg(p: int, cap: Optional[int] = None) -> FiniteGroup:
    G = semidirect_vector(p, 2, [[1, 1], [0, 1]], p, cap=cap)
    G.name = f"Heis{p ** 3}"
    return G


def _ex38_subgroup(cap: Optional[int] = None) -> FiniteGroup:
    parent = build_spec("SdVec(3,2,[[0,1],[1,1]],8)", cap=cap)
    K = subgroup_generated(parent, (parent.element("a"), parent.element("b"),
                                    parent.word("c^2")))
    H, _ = K.induced()
    H.name = "Ex38K"
    return H


def _ex37_subgroup(cap: Optional[int] = None) -> FiniteGroup:
    parent = build_spec("SdVec(3,2,[[0,1],[1,1]],8)", cap=cap)
    G1 = subgroup_generated(parent, (parent.element("a"), parent.element("b"),
                                     parent.word("c^4")))
    H, _ = G1.induced()
    H.name = "Ex37G1"
    return H


_CATALOG: dict[str, tuple[str, Callable[..., FiniteGroup]]] = {
    # name -> (spec-equivalent or description, builder)
    "S3": ("D(6)", lambda cap=None: dihedral(6, cap=cap)),
    "D8": ("D(8)", lambda cap=None: dihedral(8, cap=cap)),
    "D10": ("D(10)", lambda cap=None: dihedral(10, cap=cap)),
    "D12": ("D(12)", lambda cap=None: dihedral(12, cap=cap)),
    "D14": ("D(14)", lambda cap=None: dihedral(14, cap=cap)),
    "Q8": ("Q(8)", lambda cap=None: quaternion(8, cap=cap)),
    "Q12": ("Q(12)", lambda cap=None: quaternion(12, cap=cap)),
    "Q16": ("Q(16)", lambda cap=None: quaternion(16, cap=cap)),
    "A4": ("SdVec(2,2,[[0,1],[1,1]],3)",
           lambda cap=None: semidirect_vector(2, 2, [[0, 1], [1, 1]], 3, cap=cap)),
    "A5": ("alternating group on 5 points", lambda cap=None: alternating5(cap=cap)),
    "C2xD8": ("X(C(2),D(8))",
              lambda cap=None: direct_product(cyclic(2), dihedral(8), cap=cap)),
    "D8cpD8": ("CProd(D(8),D(8),1)",
               lambda cap=None: central_product(dihedral(8), dihedral(8), 1, cap=cap)),
    "D8cpQ8": ("CProd(D(8),Q(8),1)",
               lambda cap=None: central_product(dihedral(8), quaternion(8), 1, cap=cap)),
    "Q8xC4": ("X(Q(8),C(4))",
              lambda cap=None: direct_product(quaternion(8), cyclic(4), cap=cap)),
    "Q8xC8": ("X(Q(8),C(8))",
              lambda cap=None: direct_product(quaternion(8), cyclic(8), cap=cap)),
    "C3C3rC8": ("SdVec(3,2,[[0,1],[1,1]],8)",
                lambda cap=None: semidirect_vector(3, 2, [[0, 1], [1, 1]], 8, cap=cap)),
    "Ex38K": ("subgroup <a,b,c^2> of C3C3rC8", _ex38_subgroup),
    "Ex37G1": ("subgroup <a,b,c^4> of C3C3rC8", _ex37_subgroup),
    "C3rC8": ("SdCyc(3,8,2)", lambda cap=None: semidirect_cyclic(3, 8, 2, cap=cap)),
    "C5rC4": ("SdCyc(5,4,2)", lambda cap=None: semidirect_cyclic(5, 4, 2, cap=cap)),
    "C11rC5": ("SdCyc(11,5,3)", lambda cap=None: semidirect_cyclic(11, 5, 3, cap=cap)),
    "C7rC9": ("MetaAmitsur(21,16)",
              lambda cap=None: metacyclic_amitsur(21, 16, cap=cap)),
    "C13rC9": ("MetaAmitsur(39,16)",
               lambda cap=None: metacyclic_amitsur(39, 16, cap=cap)),
    "Heis27": ("SdVec(3,2,[[1,1],[0,1]],3)", lambda cap=None: _heisenberg(3, cap=cap)),
    "C9rC3": ("BJ1(3,2,1)", lambda cap=None: bj1_group(3, 2, 1, cap=cap)),
    "BJ4": ("order-81 maximal class with Omega_1 = derived", _bj4),
    "BJ5": ("<a,b | a^8=1, a^b=a^-1, a^4=b^4>", _bj5),
    "BJ8": ("minimal non-metacyclic of order 32", _bj8),
    "BJ9": ("special group of order 64", _bj9),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_describe(name: str) -> str:
    return _CATALOG[name][0]


# built groups are immutable; share them (and their cached lattices)
_BUILT: dict[tuple, FiniteGroup] = {}


def build_named(name: str, cap: Optional[int] = None) -> FiniteGroup:
    if name not in _CATALOG:
        raise ParseError(f"unknown catalog group {name!r}")
    key = ("named", name, cap)
    if key not in _BUILT:
        G = _CATALOG[name][1](cap=cap)
        G.spec = name
        _BUILT[key] = G
    return _BUILT[key]


# ---------------------------------------------------------------------------
# spec parser

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[(),\[\]])")


def _tokenize(s: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise ParseError(f"bad character at {s[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str], cap: Optional[int]):
        self.toks = tokens
        self.i = 0
        self.cap = cap

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect: Optional[str] = None) -> str:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of spec")
        tok = self.toks[self.i]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}")
        self.i += 1
        return tok

    def int_(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected integer, got {tok!r}")
        return int(tok)

    def matrix(self) -> list[list[int]]:
        self.take("[")
        rows = []
        while True:
            self.take("[")
            row = [self.int_()]
            while self.peek() == ",":
                self.take(",")
                row.append(self.int_())
            self.take("]")
            rows.append(row)
            if self.peek() == ",":
                self.take(",")
                continue
            break
        self.take("]")
        return rows

    def spec(self) -> FiniteGroup:
        head = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", head):
            raise ParseError(f"expected a spec head, got {head!r}")
        if self.peek() != "(":
            return build_named(head, cap=self.cap)
        self.take("(")
        cap = self.cap
        if head == "C":
            n = self.int_()
            self.take(")")
            return cyclic(n, cap=cap)
        if head == "D":
            n = self.int_()
            self.take(")")
            return dihedral(n, cap=cap)
        if head == "Q":
            n = self.int_()
            self.take(")")
            return quaternion(n, cap=cap)
        if head == "EA":
            p = self.int_()
            self.take(",")
            r = self.int_()
            self.take(")")
            return elementary_abelian(p, r, cap=cap)
        if head == "MetaAmitsur":
            m = self.int_()
            self.take(",")
            r = self.int_()
            self.take(")")
            return metacyclic_amitsur(m, r, cap=cap)
        if head == "SdVec":
            p = self.int_()
            self.take(",")
            r = self.int_()
            self.take(",")
            mat = self.matrix()
            self.take(",")
            q = self.int_()
            self.take(")")
            return semidirect_vector(p, r, mat, q, cap=cap)
        if head == "SdCyc":
            p = self.int_()
            self.take(",")
            n = self.int_()
            self.take(",")
            r0 = self.int_()
            self.take(")")
            return semidirect_cyclic(p, n, r0, cap=cap)
        if head == "X":
            g1 = self.spec()
            self.take(",")
            g2 = self.spec()
            self.take(")")
            return direct_product(g1, g2, cap=cap)
        if head == "CProd":
            g1 = self.spec()
            self.take(",")
            g2 = self.spec()
            self.take(",")
            ident = self.int_()
            self.take(")")
            return central_product(g1, g2, ident, cap=cap)
        raise ParseError(f"unknown spec head {head!r}")


def build_spec(spec: str, cap: Optional[int] = None) -> FiniteGroup:
    """Parse a group-spec string and build the group."""
    key = ("spec", spec, cap)
    if key in _BUILT:
        return _BUILT[key]
    toks = _tokenize(spec)
    parser = _Parser(toks, cap)
    G = parser.spec()
    if parser.i != len(toks):
        raise ParseError(f"trailing tokens: {toks[parser.i:]}")
    G.spec = spec
    _BUILT[key] = G
    return _BUILT[key]


def quotient_of_spec(spec: str, generator_words: list[str],
                     cap: Optional[int] = None) -> FiniteGroup:
    """Quotient of a spec-built group by the normal closure-free subgroup
    generated by the given element words (must already be normal)."""
    from .groups import quotient
    G = build_spec(spec, cap=cap)
    N = subgroup_generated(G, tuple(G.word(w) for w in generator_words))
    Q, _ = quotient(G, N)
    return Q


def subgroup_of_spec(spec: str, generator_words: list[str],
                     cap: Optional[int] = None) -> FiniteGroup:
    """Standalone group on the subgroup generated by the given words."""
    G = build_spec(spec, cap=cap)
    H = subgroup_generated(G, tuple(G.word(w) for w in generator_words))
    out, _ = H.induced()
    return out
