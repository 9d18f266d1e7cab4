"""Named group catalog and the group-spec mini-language.

Grammar:
    spec  := NAME | C(n) | D(2n) | Q(4n) | EA(p,r) | MetaAmitsur(m,r)
           | SdVec(p,r,[[row],[row],...],q) | SdCyc(p,n,r0)
           | X(spec,spec) | CProd(spec,spec,id)

D and Q take the total group order. NAME is a catalog identifier listed
by `catalog_names()`. A catalog name that a spec string describes is an
alias of that string: the group is built by parsing it, and
`build_spec` of that exact string returns the alias's group.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Optional

from .errors import ParseError
from .groups import (
    FiniteGroup,
    _check_cap,
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


def _c3c3rc8_subgroup(k: int, name: str) -> FiniteGroup:
    """The subgroup <a, b, c^k> of C3C3rC8 as a group of its own. The
    order-72 parent is larger than the result: it is built at the default
    cap, and build_named checks the result against the cap."""
    parent = build_spec("SdVec(3,2,[[0,1],[1,1]],8)")
    S = subgroup_generated(parent, (parent.element("a"), parent.element("b"),
                                    parent.word(f"c^{k}")))
    H, _ = S.induced()
    H.name = name
    return H


# name -> spec string; the group is built by parsing it
_ALIASES: dict[str, str] = {
    "S3": "D(6)",
    "D8": "D(8)",
    "D10": "D(10)",
    "D12": "D(12)",
    "D14": "D(14)",
    "Q8": "Q(8)",
    "Q12": "Q(12)",
    "Q16": "Q(16)",
    "A4": "SdVec(2,2,[[0,1],[1,1]],3)",
    "C2xD8": "X(C(2),D(8))",
    "D8cpD8": "CProd(D(8),D(8),1)",
    "D8cpQ8": "CProd(D(8),Q(8),1)",
    "Q8xC4": "X(Q(8),C(4))",
    "Q8xC8": "X(Q(8),C(8))",
    "C3C3rC8": "SdVec(3,2,[[0,1],[1,1]],8)",
    "C3rC8": "SdCyc(3,8,2)",
    "C5rC4": "SdCyc(5,4,2)",
    "C11rC5": "SdCyc(11,5,3)",
    "C7rC9": "MetaAmitsur(21,16)",
    "C13rC9": "MetaAmitsur(39,16)",
}

# name -> (description, builder) for the groups that are not spec aliases
_BUILDERS: dict[str, tuple[str, Callable[..., FiniteGroup]]] = {
    "A5": ("alternating group on 5 points", alternating5),
    "Ex38K": ("subgroup <a,b,c^2> of C3C3rC8",
              lambda cap=None: _c3c3rc8_subgroup(2, "Ex38K")),
    "Ex37G1": ("subgroup <a,b,c^4> of C3C3rC8",
               lambda cap=None: _c3c3rc8_subgroup(4, "Ex37G1")),
    "Heis27": ("SdVec(3,2,[[1,1],[0,1]],3)", lambda cap=None: _heisenberg(3, cap=cap)),
    "C9rC3": ("BJ1(3,2,1)", lambda cap=None: bj1_group(3, 2, 1, cap=cap)),
    "BJ4": ("order-81 maximal class with Omega_1 = derived", _bj4),
    "BJ5": ("<a,b | a^8=1, a^b=a^-1, a^4=b^4>", _bj5),
    "BJ8": ("minimal non-metacyclic of order 32", _bj8),
    "BJ9": ("special group of order 64", _bj9),
}


def catalog_names() -> list[str]:
    return sorted(_ALIASES.keys() | _BUILDERS.keys())


def catalog_describe(name: str) -> str:
    return _ALIASES[name] if name in _ALIASES else _BUILDERS[name][0]


# built groups are immutable; share them (and their cached lattices). The
# key holds no cap: a group is returned only if its order is within the
# caller's cap. A build over that cap raises in the same way, as each
# builder checks its final order and no sub-build is larger than its
# result (the two subgroup builders build their parent at the default cap).
_BUILT: dict[tuple[str, str], FiniteGroup] = {}
_ALIAS_OF = {spec: name for name, spec in _ALIASES.items()}


def build_named(name: str, cap: Optional[int] = None) -> FiniteGroup:
    key = ("named", name)
    if key not in _BUILT:
        if name in _ALIASES:
            G = _parse(_ALIASES[name], cap)
        elif name in _BUILDERS:
            G = _BUILDERS[name][1](cap=cap)
        else:
            raise ParseError(f"unknown catalog group {name!r}")
        G.spec = name
        _BUILT[key] = G
    _check_cap(_BUILT[key].order, cap)
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
        try:
            return int(tok)
        except ValueError:  # past Python's limit on the digits int() reads
            raise ParseError(f"integer of {len(tok)} digits is too long") from None

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
        if head not in _GRAMMAR:
            raise ParseError(f"unknown spec head {head!r}")
        kinds, builder = _GRAMMAR[head]
        self.take("(")
        args = []
        for k, kind in enumerate(kinds):
            if k:
                self.take(",")
            args.append(kind(self))
        self.take(")")
        return builder(*args, cap=self.cap)


# head -> (argument kinds, builder called with the arguments and the cap)
_GRAMMAR: dict[str, tuple[tuple[Callable, ...], Callable[..., FiniteGroup]]] = {
    "C": ((_Parser.int_,), cyclic),
    "D": ((_Parser.int_,), dihedral),
    "Q": ((_Parser.int_,), quaternion),
    "EA": ((_Parser.int_, _Parser.int_), elementary_abelian),
    "MetaAmitsur": ((_Parser.int_, _Parser.int_), metacyclic_amitsur),
    "SdVec": ((_Parser.int_, _Parser.int_, _Parser.matrix, _Parser.int_),
              semidirect_vector),
    "SdCyc": ((_Parser.int_, _Parser.int_, _Parser.int_), semidirect_cyclic),
    "X": ((_Parser.spec, _Parser.spec), direct_product),
    "CProd": ((_Parser.spec, _Parser.spec, _Parser.int_), central_product),
}


# the deepest nesting of specs that the parser, one call deep per level,
# accepts
MAX_SPEC_DEPTH = 100


def _parse(spec: str, cap: Optional[int]) -> FiniteGroup:
    """Build the group a whole spec string names."""
    toks = _tokenize(spec)
    if max(itertools.accumulate((t == "(") - (t == ")") for t in toks),
           default=0) > MAX_SPEC_DEPTH:
        raise ParseError(f"spec nested more than {MAX_SPEC_DEPTH} deep")
    parser = _Parser(toks, cap)
    G = parser.spec()
    if parser.i != len(toks):
        raise ParseError(f"trailing tokens: {toks[parser.i:]}")
    return G


def build_spec(spec: str, cap: Optional[int] = None) -> FiniteGroup:
    """Parse a group-spec string and build the group."""
    if spec in _ALIAS_OF:
        return build_named(_ALIAS_OF[spec], cap)
    key = ("spec", spec)
    if key not in _BUILT:
        G = _parse(spec, cap)
        G.spec = spec
        _BUILT[key] = G
    _check_cap(_BUILT[key].order, cap)
    return _BUILT[key]

