"""Reference implementations of the group constructions.

These are the original builders: the catalog entries written as builder
lambdas, `cyclic` with one Python step per table entry, `abelian` with
its own product table, `metacyclic` and `cyclic_extension` with one `mul`
call and one dict lookup per table entry, `central_product` as the
quotient of the full direct product G1 x G2 (with the `direct_product`
it went through, one Python step per entry), and `order_q_matrix` with
its polynomial search; each names its elements with one `_join_name`
call per element. The library builds catalog aliases by parsing their
spec strings, abelian groups as direct products of cyclic ones, central
products from their factors, and every table a row at a time; the tests
in test_builders.py require identical tables, names, inverses,
generators, group names and letters from both.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Optional, Sequence

from qgring.errors import InconsistentSpec
from qgring.groups import (
    FiniteGroup,
    _check_cap,
    _extend_hom,
    _mat_eye,
    _mat_mul,
    center,
    dihedral,
    metacyclic_amitsur,
    quaternion,
    quotient,
    semidirect_cyclic,
    semidirect_vector,
    subgroup_generated,
)


def _name_power(letter: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return letter
    return f"{letter}^{e}"


def _join_name(parts: list[str]) -> str:
    parts = [p for p in parts if p]
    return "*".join(parts) if parts else "1"


def reference_cyclic(n: int, letter: str = "x", cap: Optional[int] = None) -> FiniteGroup:
    if n < 1:
        raise InconsistentSpec("cyclic group order must be positive")
    _check_cap(n, cap)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = [_join_name([_name_power(letter, i)]) for i in range(n)]
    return FiniteGroup(table, names, name=f"C{n}", letters=(letter,))


def reference_cyclic_extension(base: FiniteGroup, conj_images: dict[int, int], n_ext: int,
                               power_elem: int, new_letter: str,
                               cap: Optional[int] = None,
                               name: Optional[str] = None) -> FiniteGroup:
    """Extend base by a new generator c with c^n_ext = power_elem in base and
    x^c = c^-1 x c given on generators by conj_images.

    Consistency (checked): the extension of conj_images is an automorphism
    phi of base, phi fixes power_elem, and phi^n_ext is conjugation by
    power_elem.
    """
    order = base.order * n_ext
    _check_cap(order, cap)
    img = _extend_hom(base, base, conj_images)
    if img is None or -1 in img or len(set(img)) != base.order:
        raise InconsistentSpec("conjugation images do not extend to an automorphism")
    phi_r = img
    phi_l = [0] * base.order
    for x, y in enumerate(phi_r):
        phi_l[y] = x
    z = power_elem
    if phi_r[z] != z:
        raise InconsistentSpec("c^n must be fixed by conjugation by c")
    # phi_l^n_ext must equal conjugation x -> z x z^-1
    cur = list(range(base.order))
    for _ in range(n_ext):
        cur = [phi_l[x] for x in cur]
    for x in range(base.order):
        if cur[x] != base.conj_left(x, z):
            raise InconsistentSpec("action order does not match the extension degree")
    phi_l_pows = [list(range(base.order))]
    for _ in range(n_ext - 1):
        phi_l_pows.append([phi_l[x] for x in phi_l_pows[-1]])

    elems = [(x, k) for x in range(base.order) for k in range(n_ext)]
    pos = {e: i for i, e in enumerate(elems)}

    def mul(u, v):
        x1, k1 = u
        x2, k2 = v
        k = k1 + k2
        carry = k // n_ext
        y = base.table[x1][phi_l_pows[k1][x2]]
        if carry:
            y = base.table[y][z]
        return (y, k % n_ext)

    table = [[pos[mul(u, v)] for v in elems] for u in elems]
    names = []
    for x, k in elems:
        bn = base.names[x]
        parts = [] if bn == "1" else [bn]
        parts.append(_name_power(new_letter, k))
        names.append(_join_name(parts))
    gname = name or f"{base.name}.C{n_ext}"
    return FiniteGroup(table, names, name=gname,
                       letters=base.letters + (new_letter,))


def reference_abelian(orders: Sequence[int], letters: Sequence[str],
                      cap: Optional[int] = None, name: Optional[str] = None) -> FiniteGroup:
    """Direct product of cyclic groups with one generator letter each."""
    if len(orders) != len(letters):
        raise InconsistentSpec("orders/letters length mismatch")
    n = math.prod(orders)
    _check_cap(n, cap)
    elems = list(itertools.product(*(range(o) for o in orders)))
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[tuple((a + b) % o for a, b, o in zip(x, y, orders))]
              for y in elems] for x in elems]
    names = [_join_name([_name_power(l, e) for l, e in zip(letters, x)])
             for x in elems]
    gname = name or "x".join(f"C{o}" for o in orders)
    return FiniteGroup(table, names, name=gname, letters=tuple(letters))


def reference_metacyclic(m: int, n: int, t: int, r: int, letters=("a", "b"),
                         cap: Optional[int] = None, name: Optional[str] = None) -> FiniteGroup:
    """<a, b | a^m = 1, b^n = a^t, b a b^-1 = a^r>, of order m*n.

    Requires r^n = 1 (mod m) and t*r = t (mod m) so the presentation is
    consistent with |a| = m.
    """
    if m < 1 or n < 1:
        raise InconsistentSpec("orders must be positive")
    _check_cap(m * n, cap)
    r %= max(m, 1)
    t %= max(m, 1)
    if pow(r, n, m) % m != 1 % m:
        raise InconsistentSpec(f"r^n != 1 mod m for (m,n,t,r)=({m},{n},{t},{r})")
    if t * r % m != t % m:
        raise InconsistentSpec(f"a^t is not centralized by b for (m,n,t,r)=({m},{n},{t},{r})")
    rpow = [1 % m]
    for _ in range(n):
        rpow.append(rpow[-1] * r % m)
    la, lb = letters
    # a-powers first: <a> occupies the lowest indices, so it wins
    # smallest-bitset tie-breaks among maximal abelian subgroups
    elems = [(i, j) for j in range(n) for i in range(m)]
    pos = {e: k for k, e in enumerate(elems)}

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        j = j1 + j2
        carry = j // n
        return ((i1 + i2 * rpow[j1] + t * carry) % m, j % n)

    table = [[pos[mul(x, y)] for y in elems] for x in elems]
    names = [_join_name([_name_power(la, i), _name_power(lb, j)]) for i, j in elems]
    gname = name or f"Metacyclic({m},{n},{t},{r})"
    return FiniteGroup(table, names, name=gname, letters=tuple(letters))


def reference_direct_product(G1: FiniteGroup, G2: FiniteGroup,
                             cap: Optional[int] = None) -> FiniteGroup:
    _check_cap(G1.order * G2.order, cap)
    names2 = G2.names
    letters2 = G2.letters
    shared = set(G1.letters) & set(G2.letters)
    if shared:
        unused = [c for c in "abcdefghijklmnopqrstuvwxyz"
                  if c not in G1.letters and c not in G2.letters]
        ren = {}
        for l in G2.letters:
            ren[l] = unused.pop(0) if l in shared else l
        pat = re.compile("|".join(re.escape(l) for l in ren))
        names2 = [pat.sub(lambda m: ren[m.group(0)], nm) for nm in G2.names]
        letters2 = tuple(ren[l] for l in G2.letters)
    n2 = G2.order
    order = G1.order * n2
    table = [[0] * order for _ in range(order)]
    for a1 in range(G1.order):
        for b1 in range(n2):
            i = a1 * n2 + b1
            row = table[i]
            r1, r2 = G1.table[a1], G2.table[b1]
            for a2 in range(G1.order):
                base = r1[a2] * n2
                for b2 in range(n2):
                    row[a2 * n2 + b2] = base + r2[b2]
    names = []
    for a in range(G1.order):
        for b in range(n2):
            parts = []
            if G1.names[a] != "1":
                parts.append(G1.names[a])
            if names2[b] != "1":
                parts.append(names2[b])
            names.append(_join_name(parts))
    return FiniteGroup(table, names, name=f"{G1.name}x{G2.name}",
                       letters=G1.letters + letters2)


def reference_central_product(G1: FiniteGroup, G2: FiniteGroup, ident_exp: int = 1,
                              cap: Optional[int] = None) -> FiniteGroup:
    """Quotient of G1 x G2 identifying Z(G1) with the unique central cyclic
    subgroup of G2 of the same order, via generator -> generator^ident_exp."""
    Z1 = center(G1)
    if not Z1.is_cyclic():
        raise InconsistentSpec("center of the first factor must be cyclic")
    m = Z1.order
    if m == 1:
        return reference_direct_product(G1, G2, cap=cap)
    z0 = min(g for g in Z1.members if G1.element_order(g) == m)
    Z2 = center(G2)
    targets = []
    for w in sorted(Z2.members):
        if G2.element_order(w) == m:
            sub = subgroup_generated(G2, (w,))
            if sub.mask not in [t.mask for t in targets]:
                targets.append(sub)
    if len(targets) != 1:
        raise InconsistentSpec(
            f"need exactly one central cyclic subgroup of order {m} in the "
            f"second factor, found {len(targets)}")
    if math.gcd(ident_exp, m) != 1:
        raise InconsistentSpec("identification exponent must be a unit")
    w0 = min(g for g in targets[0].members if G2.element_order(g) == m)
    _check_cap(G1.order * G2.order // m, cap)
    # the intermediate direct product may exceed the cap; only the quotient counts
    P = reference_direct_product(G1, G2, cap=G1.order * G2.order)
    n2 = G2.order
    glue = P.table[z0 * n2][0 * n2 + G2.power(G2.inv(w0), ident_exp)]
    N = subgroup_generated(P, (glue,))
    Q, _ = quotient(P, N)
    Q.name = f"{G1.name}~{G2.name}"
    return Q


def _poly_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce modulo monic f
    n = len(f) - 1
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(n):
                out[i - n + j] = (out[i - n + j] - c * f[j]) % p
    return out[:n] + [0] * (n - len(out[:n]))


def _poly_powmod(base, e, f, p):
    n = len(f) - 1
    out = [0] * n
    out[0] = 1 % p
    b = _poly_mulmod(base, [1], f, p)  # reduce base modulo f first
    while e:
        if e & 1:
            out = _poly_mulmod(out, b, f, p)
        b = _poly_mulmod(b, b, f, p)
        e >>= 1
    return out


def _mat_order(M, p, limit=10_000):
    """The multiplicative order of M over F_p, one product at a time."""
    I = _mat_eye(len(M))
    A = [row[:] for row in M]
    k = 1
    while A != I:
        A = _mat_mul(A, M, p)
        k += 1
        if k > limit:
            raise InconsistentSpec("action matrix order too large")
    return k


def reference_order_q_matrix(p: int, n: int, q: int) -> list[list[int]]:
    """The companion matrix of the first monic degree-n f, in coefficient
    order, that divides x^q - 1, is irreducible over F_p and gives a
    matrix of order q."""
    from qgring.numutil import ord_mod
    if ord_mod(q, p) != n:
        raise InconsistentSpec(f"ord_{q}({p}) != {n}; no irreducible order-{q} action")
    x = [0, 1]
    for coeffs in itertools.product(range(p), repeat=n):
        f = list(coeffs) + [1]  # monic degree n
        xred = _poly_mulmod(x, [1], f, p)  # x reduced modulo f
        # f must divide x^q - 1: x^q = 1 mod f
        xq = _poly_powmod(x, q, f, p)
        if xq != [1 % p] + [0] * (n - 1):
            continue
        # irreducible: x^(p^n) = x mod f and x^(p^d) != x for proper divisors d
        ok = True
        for d in range(1, n):
            if n % d == 0 and _poly_powmod(x, p ** d, f, p) == xred:
                ok = False
                break
        if not ok:
            continue
        if _poly_powmod(x, p ** n, f, p) != xred:
            continue
        # companion matrix (action x * v in F_p[x]/(f))
        M = [[0] * n for _ in range(n)]
        for j in range(n - 1):
            M[j + 1][j] = 1
        for i in range(n):
            M[i][n - 1] = (-f[i]) % p
        if _mat_order(M, p) == q:
            return M
    raise InconsistentSpec(f"no order-{q} irreducible matrix found for p={p}, n={n}")


# the catalog entries that are spec aliases, with the builders they had
cyclic = reference_cyclic
direct_product = reference_direct_product
central_product = reference_central_product

REFERENCE_CATALOG = {
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
    "C3rC8": ("SdCyc(3,8,2)", lambda cap=None: semidirect_cyclic(3, 8, 2, cap=cap)),
    "C5rC4": ("SdCyc(5,4,2)", lambda cap=None: semidirect_cyclic(5, 4, 2, cap=cap)),
    "C11rC5": ("SdCyc(11,5,3)", lambda cap=None: semidirect_cyclic(11, 5, 3, cap=cap)),
    "C7rC9": ("MetaAmitsur(21,16)",
              lambda cap=None: metacyclic_amitsur(21, 16, cap=cap)),
    "C13rC9": ("MetaAmitsur(39,16)",
               lambda cap=None: metacyclic_amitsur(39, 16, cap=cap)),
}
