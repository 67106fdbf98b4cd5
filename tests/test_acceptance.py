"""Acceptance gate: every criterion below runs at its stated tolerance.

All comparisons are exact integer/polynomial equality.  Each criterion
prints one pass/fail line (visible with pytest -s or in the -v listing).
"""

import math
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from simcores.exact import binomial, catalan_number, hessenberg_catalan_det
from simcores.partitions import Partition, partitions_in_box, subpartitions
from simcores.paths import (
    count_gd,
    count_rect_paths,
    diagonal_partition,
    enumerate_gd,
    enumerate_rect_paths,
    gd_to_ideal,
)
from simcores.posets import (
    build_gap_poset,
    consecutive_poset,
    core_to_ideal,
    ideal_to_core,
    multi_catalan,
)
from simcores.qpoly import QPolynomial
from simcores.verify import (
    catalan_identity,
    conjecture_total_size,
    count_representations,
    frobenius_pair,
    gf_coefficients,
    kreweras_count,
    popoviciu,
    qdet_coarea,
    subpartition_size_polynomial,
    sylvester_check,
    symmetry_check,
    total_core_size_via_paths,
)


@contextmanager
def criterion(number, name, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    duration = time.perf_counter() - start
    print(f"criterion {number:2d} ({name}): PASS in {duration:.2f}s")
    if limit_seconds is not None:
        assert duration < limit_seconds, (
            f"criterion {number} took {duration:.2f}s, budget {limit_seconds}s"
        )


def coprime_pairs(max_sum):
    return [
        (s, t)
        for s in range(1, max_sum)
        for t in range(s, max_sum + 1 - s)
        if math.gcd(s, t) == 1
    ]


def test_criterion_01_pair_equinumerosity():
    with criterion(1, "pair equinumerosity, s+t <= 16", limit_seconds=10.0):
        for s, t in coprime_pairs(16):
            poset = build_gap_poset((s, t))
            ideals = list(poset.iter_lower_ideals())
            n_paths = sum(1 for _ in enumerate_rect_paths(s, t))
            formula = binomial(s + t, s) // (s + t)
            assert count_rect_paths(s, t) == formula
            cores = [ideal_to_core(poset, ideal) for ideal in ideals]
            assert all(core.is_multicore((s, t)) for core in cores)
            assert len(set(cores)) == len(cores)
            assert len(ideals) == n_paths == formula == len(cores), (s, t)
            assert kreweras_count(diagonal_partition(s, t)) == formula, (s, t)


def test_criterion_02_kreweras_determinant():
    with criterion(2, "subpartition-count determinant, 5x5 box", limit_seconds=5.0):
        shapes = list(partitions_in_box(5, 5))
        assert len(shapes) == 252
        for shape in shapes:
            brute = sum(1 for _ in subpartitions(shape))
            assert kreweras_count(shape) == brute, shape


def test_criterion_03_q_determinant():
    with criterion(3, "coarea q-determinant, 4x4 box", limit_seconds=5.0):
        shapes = list(partitions_in_box(4, 4))
        assert len(shapes) == 70
        for shape in shapes:
            poly = qdet_coarea(shape)
            assert poly == subpartition_size_polynomial(shape), shape
            assert poly(1) == kreweras_count(shape), shape


def test_criterion_04_coarea_distribution():
    with criterion(4, "coarea distribution, s+t <= 14"):
        for s, t in coprime_pairs(14):
            observed = Counter(p.coarea() for p in enumerate_rect_paths(s, t))
            expected = Counter(mu.size for mu in subpartitions(diagonal_partition(s, t)))
            assert observed == expected, (s, t)
        poly = Counter(p.coarea() for p in enumerate_rect_paths(3, 5))
        assert QPolynomial([poly[i] for i in range(5)]) == QPolynomial([1, 1, 2, 2, 1])


def test_criterion_05_catalan_identity():
    with criterion(5, "alternating Catalan identity and Hessenberg determinant"):
        for n in range(2, 31):
            assert catalan_identity(n) == 0, n
        for n in range(1, 13):
            assert hessenberg_catalan_det(n) == catalan_number(n), n


def test_criterion_06_popoviciu():
    with criterion(6, "two-generator representation counts, s < t <= 12", limit_seconds=10.0):
        for s in range(1, 12):
            for t in range(s + 1, 13):
                if math.gcd(s, t) != 1:
                    continue
                for m in range(s * t + 1):
                    assert popoviciu(s, t, m) == count_representations(s, t, m), (s, t, m)
                if s >= 2:
                    assert frobenius_pair(s, t) == s * t - s - t
                assert sylvester_check(s, t), (s, t)


def test_criterion_07_symmetry():
    with criterion(7, "twin-gap symmetry, odd s <= 25", limit_seconds=5.0):
        for s in range(3, 26, 2):
            report = symmetry_check(s)
            assert report.passed, report.first_counterexample
            assert report.total == (s + 1) * (s - 1)


def test_criterion_08_multi_catalan_consistency():
    with criterion(8, "multi-Catalan recursion vs direct ideal count"):
        for p in range(1, 5):
            for s in range(1, 13):
                assert multi_catalan(s, p) == consecutive_poset(s, p).count_lower_ideals(), (s, p)
        for s in range(13):
            assert multi_catalan(s, 1) == catalan_number(s)
        for s in range(21):
            motzkin = sum(binomial(s, 2 * k) * catalan_number(k) for k in range(s // 2 + 1))
            assert multi_catalan(s, 2) == motzkin, s


def test_criterion_09_generating_function():
    with criterion(9, "closed generating function, 20 terms"):
        for p in (1, 2, 3):
            coeffs = gf_coefficients(p, 20)  # raises if the 2x^(r-1) division fails
            assert coeffs == [multi_catalan(s, p) for s in range(20)], p


def test_criterion_10_generalized_dyck_paths():
    with criterion(10, "generalized Dyck paths", limit_seconds=30.0):
        for n in range(1, 11):
            for k in range(1, 5):
                enumerated = sum(1 for _ in enumerate_gd(n, k))
                assert enumerated == count_gd(n, k) == multi_catalan(n, k), (n, k)
        for k in range(1, 7):
            for n in range(1, k + 1):
                assert count_gd(n, k) == 2 ** (n - 1), (n, k)
                assert sum(1 for _ in enumerate_gd(n, k)) == 2 ** (n - 1), (n, k)
        for n in range(1, 9):
            for k in range(1, 4):
                poset = consecutive_poset(n, k)
                ideals = set(poset.iter_lower_ideals())
                images = [gd_to_ideal(path) for path in enumerate_gd(n, k)]
                assert len(set(images)) == len(images), (n, k)
                assert set(images) == ideals, (n, k)


def test_criterion_11_total_size_conjecture():
    with criterion(11, "total-size conjecture, s <= 10", limit_seconds=60.0):
        for s in range(3, 11):
            poset = consecutive_poset(s, 2)
            cores = [ideal_to_core(poset, ideal) for ideal in poset.iter_lower_ideals()]
            for core in cores:
                core.check_multicore(poset.generators)
            assert len(set(cores)) == len(cores)
            lhs_ideals = sum(core.size for core in cores)
            lhs_paths = total_core_size_via_paths(s)
            assert lhs_ideals == lhs_paths, (
                f"s={s}: enumeration strategies disagree: {lhs_ideals} vs {lhs_paths}"
            )
            lhs, rhs = conjecture_total_size(s)
            assert lhs == lhs_ideals
            if lhs != rhs:
                pytest.fail(
                    f"counterexample to the total-size conjecture at s={s}: "
                    f"lhs={lhs} (confirmed by two enumerations) vs rhs={rhs}"
                )


def test_criterion_12_anchor_values():
    with criterion(12, "anchor values"):
        poset = build_gap_poset((5, 7, 13))
        assert ideal_to_core(poset, {1, 4, 6, 11}) == Partition((8, 4, 3, 1))
        assert core_to_ideal(Partition((8, 4, 3, 1)), poset) == {1, 4, 6, 11}
        four_core = Partition((6, 3, 1, 1))
        assert four_core.is_core(4)
        assert four_core.first_column_hooks() == {1, 2, 5, 9}
        assert diagonal_partition(7, 5) == Partition((5, 4, 2, 1))
