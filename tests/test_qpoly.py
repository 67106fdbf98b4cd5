import random

import pytest

from simcores.exact import binomial
from simcores.qpoly import QPolynomial, q_binomial


def test_normalization():
    assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPolynomial([0, 0]).coeffs == ()
    assert not QPolynomial()
    assert QPolynomial([1]).degree == 0
    assert QPolynomial().degree == -1


def test_coefficients_must_be_integers():
    # read through operator.index: a float or a str is refused, never rounded
    for coeffs in ([1.5, 2.7], ["3"], [1, 2.0]):
        with pytest.raises(TypeError):
            QPolynomial(coeffs)
    assert QPolynomial([True, False, True]).coeffs == (1, 0, 1)


def test_arithmetic():
    one_plus_q = QPolynomial([1, 1])
    assert one_plus_q * one_plus_q == QPolynomial([1, 2, 1])
    assert one_plus_q - one_plus_q == QPolynomial()
    assert 1 + QPolynomial([0, 1]) == one_plus_q
    assert 2 * one_plus_q == QPolynomial([2, 2])
    assert QPolynomial([1, 2, 1]) - 1 == QPolynomial([0, 2, 1])
    assert (1 - QPolynomial.monomial(1, 3)).coeffs == (1, 0, 0, -1)


def test_evaluation():
    p = QPolynomial([1, 1, 2, 1])
    assert p(1) == 5
    assert p(2) == 1 + 2 + 8 + 8
    assert p(0) == 1


def test_kronecker_unpacking_round_trips_balanced_digits():
    rng = random.Random(7)
    for shift in (2, 3, 8, 31, 64):
        half = 1 << (shift - 1)
        lists = [[-half], [half - 1], [-half, -half], [half - 1, -half, 0, -1]]
        lists += [[rng.randrange(-half, half) for _ in range(rng.randrange(1, 12))]
                  for _ in range(40)]
        for digits in lists:
            value = sum(d << (shift * i) for i, d in enumerate(digits))
            assert QPolynomial._from_kronecker(value, shift) == QPolynomial(digits), (shift, digits)


def test_q_binomial_examples():
    assert q_binomial(2, 1) == QPolynomial([1, 1])
    assert q_binomial(4, 2) == QPolynomial([1, 1, 2, 1, 1])
    for n in range(8):
        assert q_binomial(n, n) == QPolynomial([1])
    assert q_binomial(3, -1) == QPolynomial()
    assert q_binomial(2, 3) == QPolynomial()
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_q_binomial_pascal_recurrence():
    # oracle: [n k] = [n-1 k-1] + q^k [n-1 k]
    for n in range(1, 41):
        for k in range(n + 1):
            lhs = q_binomial(n, k)
            rhs = q_binomial(n - 1, k - 1) + QPolynomial.monomial(1, k) * q_binomial(n - 1, k)
            assert lhs == rhs, (n, k)


def test_q_binomial_specialization_and_symmetry():
    for n in range(31):
        for k in range(n + 1):
            poly = q_binomial(n, k)
            assert poly(1) == binomial(n, k), (n, k)
            assert poly.coeffs == tuple(reversed(poly.coeffs)), (n, k)


def test_q_binomial_at_minus_one():
    # independent oracle: [n k] at q = -1 is 0 for n even and k odd, else C(n//2, k//2)
    for n in range(61):
        for k in range(n + 1):
            expected = 0 if n % 2 == 0 and k % 2 else binomial(n // 2, k // 2)
            assert q_binomial(n, k)(-1) == expected, (n, k)


def test_str():
    assert str(QPolynomial()) == "0"
    assert str(QPolynomial([1, 1, 2, 1])) == "1 + q + 2*q^2 + q^3"
    assert str(QPolynomial([0, -1])) == "-q"
