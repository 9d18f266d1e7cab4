"""Reference implementations of the square-zero candidate searches.

These are the original `nd_witness_search` and `nilpotent_probe`, which
multiply out every candidate. The library decides the same tests by coset
invariance and counts the witness search's pair stage; the tests in
test_square_zero_search.py require identical results from both.
"""

from __future__ import annotations

from typing import Optional

from qgring.algebra import AlgElem, hat, one_minus
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
