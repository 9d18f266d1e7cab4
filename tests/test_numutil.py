import pytest

from qgring.errors import NotCoprime, NotPrime
from qgring.numutil import (
    crt,
    element_of_order,
    is_prime,
    ord_mod,
    padic_valuation,
    prime_factors,
)


def test_ord_mod_basic():
    assert ord_mod(7, 2) == 3
    assert ord_mod(1, 5) == 1
    assert ord_mod(12, 5) == 2
    assert ord_mod(21, 16) == 3


def test_ord_mod_prime_power_lemma_instance():
    # c = 1 + q^a*b with q=3, a=1, b=2 (c=7), d=2:
    # ord_{27}(7) = 9 and v_3(7^9 - 1) = 3
    assert ord_mod(27, 7) == 9
    assert padic_valuation(3, 7 ** 9 - 1) == 3


def test_ord_mod_not_coprime():
    with pytest.raises(NotCoprime):
        ord_mod(6, 3)


def test_padic_valuation():
    assert padic_valuation(2, 24) == 3
    assert padic_valuation(3, 24) == 1
    assert padic_valuation(5, 24) == 0
    with pytest.raises(NotPrime):
        padic_valuation(6, 24)
    with pytest.raises(ValueError):
        padic_valuation(2, 0)


def test_is_prime_and_factors():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert is_prime(2801)  # repunit: (7^5 - 1) / 6


def test_crt():
    x = crt([2, 1], [3, 4])
    assert x % 3 == 2 and x % 4 == 1
    with pytest.raises(NotCoprime):
        crt([0, 1], [4, 6])


def test_element_of_order():
    r = element_of_order(7, 3)
    assert r == 2 and ord_mod(7, 2) == 3
    assert element_of_order(7, 5) is None


def test_element_of_order_is_the_least_of_that_order():
    # brute force over every residue, k = 1 included: 1 has order 1
    for p in filter(is_prime, range(2, 60)):
        for k in range(1, p):
            if (p - 1) % k == 0:
                least = next(r for r in range(1, p) if ord_mod(p, r) == k)
                assert element_of_order(p, k) == least, (p, k)
    assert element_of_order(2, 1) == element_of_order(59, 1) == 1
