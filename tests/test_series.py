import random
from fractions import Fraction

import pytest

from simcores.errors import ExactDivisionError, InvariantError
from simcores.series import PowerSeries, geometric_series, integer_sqrt_coefficients


def test_construction_pads_and_truncates():
    f = PowerSeries([1, 2], 4)
    assert f.coeffs == (1, 2, 0, 0, 0)
    g = PowerSeries([1, 2, 3, 4, 5, 6], 2)
    assert g.coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        PowerSeries([1], -1)


def test_coefficient_bounds():
    f = PowerSeries([1, 2], 3)
    assert f.coefficient(1) == 2
    assert f.coefficient(3) == 0
    with pytest.raises(IndexError):
        f.coefficient(4)


def test_add_sub_mul():
    f = PowerSeries([1, 2, 3], 5)
    assert (f - f).is_zero()
    one = PowerSeries.constant(1, 8)
    x = PowerSeries.monomial(1, 1, 8)
    assert (one - x) * geometric_series(8) == PowerSeries([1], 8)
    assert (2 * x).coeffs[1] == 2


def test_truncation_is_min_of_orders():
    f = PowerSeries([1, 1, 1], 6)
    g = PowerSeries([1, 1], 3)
    assert (f + g).order == 3
    assert (f * g).order == 3


def test_divide():
    one = PowerSeries.constant(1, 10)
    x = PowerSeries.monomial(1, 1, 10)
    assert one.divide(one - x) == geometric_series(10)
    with pytest.raises(ExactDivisionError):
        one.divide(x)


def test_divide_monomial():
    f = PowerSeries.monomial(2, 3, 8) + PowerSeries.monomial(2, 4, 8)
    q = f.divide_monomial(3, 2)
    assert q.order == 5
    assert q.coeffs == (1, 1, 0, 0, 0, 0)
    with pytest.raises(ExactDivisionError):
        (PowerSeries.monomial(1, 1, 5)).divide_monomial(2)
    with pytest.raises(ValueError):
        PowerSeries([1], 3).divide_monomial(4)


def test_sqrt_examples():
    one = PowerSeries.constant(1, 6)
    assert one.sqrt() == one
    f = PowerSeries([1, -4], 6)
    root = f.sqrt()
    assert [c for c in root.coeffs[:4]] == [1, -2, -2, -4]
    assert root.coefficient(4) == -10
    assert root.coefficient(5) == -28
    assert root * root == f


def test_sqrt_rejects_bad_constant():
    with pytest.raises(ExactDivisionError):
        PowerSeries([4, 1], 4).sqrt()


def test_sqrt_squares_back_on_random_series():
    rng = random.Random(20260809)
    for _ in range(50):
        coeffs = [1] + [rng.randint(-5, 5) for _ in range(12)]
        f = PowerSeries(coeffs, 12)
        root = f.sqrt()
        assert root * root == f
        assert root.coefficient(0) == 1


def test_integer_coefficients():
    assert PowerSeries([1, 2, 3], 2).integer_coefficients() == [1, 2, 3]
    with pytest.raises(ExactDivisionError):
        PowerSeries([Fraction(1, 2)], 1).integer_coefficients()


def test_str_mentions_truncation():
    assert "O(x^3)" in str(PowerSeries([1, 0, 2], 2))


def test_sqrt_of_rational_series():
    # sqrt(1 + x) = sum binomial(1/2, k) x^k
    root = PowerSeries([1, 1], 5).sqrt()
    assert root.coeffs == (1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16),
                           Fraction(-5, 128), Fraction(7, 256))
    # scaling x by 1/3 scales the k-th coefficient by 3^-k
    scaled = PowerSeries([1, Fraction(1, 3)], 5).sqrt()
    assert scaled.coeffs == tuple(a / 3**k for k, a in enumerate(root.coeffs))


def test_sqrt_squares_back_on_random_rational_series():
    rng = random.Random(20261018)
    for _ in range(40):
        order = rng.randint(0, 15)
        coeffs = [1] + [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(order)]
        f = PowerSeries(coeffs, order)
        root = f.sqrt()
        assert root * root == f
        assert root.coefficient(0) == 1


def test_sqrt_squares_back_on_the_generating_function_radicand(monkeypatch):
    # gf_coefficients takes its root with the integer kernel behind
    # PowerSeries.sqrt; both must give the same integral root, squaring back
    import simcores.verify as verify_mod

    calls = []
    real_sqrt = verify_mod.integer_sqrt_coefficients

    def recording_sqrt(coeffs):
        root = real_sqrt(coeffs)
        calls.append((coeffs, root))
        return root

    monkeypatch.setattr(verify_mod, "integer_sqrt_coefficients", recording_sqrt)
    for p in range(1, 5):
        verify_mod.gf_coefficients(p, 60)
    assert len(calls) == 4
    for coeffs, integer_root in calls:
        radicand = PowerSeries(coeffs, len(coeffs) - 1)
        root = radicand.sqrt()
        assert root * root == radicand
        assert all(a.denominator == 1 for a in root.coeffs)
        assert root.coeffs == tuple(integer_root)


def test_integer_sqrt_coefficients():
    # (1 - 4x)^(1/2) = 1 - 2x - 2x^2 - 4x^3 - 10x^4: minus twice the shifted Catalan numbers
    assert integer_sqrt_coefficients([1, -4, 0, 0, 0]) == [1, -2, -2, -4, -10]
    assert integer_sqrt_coefficients([1, 2, 1]) == [1, 1, 0]
    with pytest.raises(InvariantError):
        integer_sqrt_coefficients([1, 1])  # sqrt(1 + x) starts 1 + x/2
    with pytest.raises(InvariantError):
        integer_sqrt_coefficients([4, 4, 1])
