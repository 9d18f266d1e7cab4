"""Reference implementations of the square-zero candidate searches.

The references walk the family of every subgroup 1 < Y < G of the whole
lattice; the library walks only the cyclic subgroups, whose families
decide the others (algebra.square_zero_search). The first two are the
original `nd_witness_search` and `nilpotent_probe`, which multiply out
every candidate. The library decides the same tests by coset invariance
and counts the witness search's pair stage; the tests in
test_square_zero_search.py require identical results from both.
`reference_square_zero_search` is the library's own loop as it was over
the lattice, the same families and pair-stage accounting.
"""

from __future__ import annotations

from typing import Optional

from qgring.algebra import AlgElem, SquareZeroFamily, hat, one_minus
from qgring.groups import FiniteGroup, subgroups


def reference_nd_witness_search(G: FiniteGroup, pcis: list[AlgElem],
                                budget: int = 10 ** 6,
                                ) -> tuple[Optional[tuple[AlgElem, AlgElem]], int]:
    spent = 0
    for Y in subgroups(G):
        if Y.order == 1 or Y.order == G.order:
            continue
        hy = hat(Y)
        per_y: list[AlgElem] = []
        for y in Y.members:
            if y == 0:
                continue
            omy = one_minus(G, y)
            for g in range(G.order):
                # vanishing tests for the two one-sided families
                left_zero = Y.contains(G.conj(y, g))
                right_zero = Y.contains(G.conj_left(y, g))
                if left_zero and right_zero:
                    continue
                gb = AlgElem.basis(G, g)
                cands = []
                if not left_zero:
                    left = omy * gb * hy
                    cands.append(left)
                    per_y.append(left)
                if not right_zero:
                    cands.append(hy * gb * omy)
                for alpha in cands:
                    for e in pcis:
                        spent += 1
                        if not (alpha * e).is_integral():
                            return (alpha, e), spent
                        if spent >= budget:
                            return None, spent
        # pairwise integral combinations with the same Y are still square-zero
        for i in range(len(per_y)):
            for j in range(i + 1, len(per_y)):
                for sign in (1, -1):
                    alpha = per_y[i] + sign * per_y[j]
                    if alpha.is_zero():
                        continue
                    for e in pcis:
                        spent += 1
                        if not (alpha * e).is_integral():
                            return (alpha, e), spent
                        if spent >= budget:
                            return None, spent
    return None, spent


def reference_nilpotent_probe(G: FiniteGroup, e: AlgElem,
                              budget: int = 2000) -> Optional[AlgElem]:
    spent = 0
    for Y in subgroups(G):
        if Y.order == 1:
            continue
        hy = hat(Y)
        for y in Y.members:
            if y == 0:
                continue
            omy = one_minus(G, y)
            for g in range(G.order):
                # (1-y) g hat(Y) = 0 iff g^-1 y g in Y;
                # hat(Y) g (1-y) = 0 iff g y g^-1 in Y
                left_zero = Y.contains(G.conj(y, g))
                right_zero = Y.contains(G.conj_left(y, g))
                if left_zero and right_zero:
                    continue
                gb = AlgElem.basis(G, g)
                cands = []
                if not left_zero:
                    cands.append(omy * gb * hy)
                if not right_zero:
                    cands.append(hy * gb * omy)
                for alpha in cands:
                    spent += 1
                    cand = alpha * e
                    if not cand.is_zero():
                        return cand
                    if spent >= budget:
                        return None
    return None


def reference_square_zero_search(G: FiniteGroup, idempotents: list[AlgElem],
                                 budget: int, residues: bool,
                                 ) -> tuple[Optional[tuple[AlgElem, AlgElem]], int]:
    spent = 0
    for Y in subgroups(G)[1:-1]:
        family = SquareZeroFamily(Y, idempotents, residues)
        found, spent = family.scan(spent, budget)
        if found is not None or spent >= budget:
            return found, spent
        if residues:
            spent += family.pair_tests()
            if spent >= budget:
                return None, budget
    return None, spent
