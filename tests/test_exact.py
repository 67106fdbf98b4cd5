import random
from itertools import permutations

import pytest

from simcores.exact import (
    binomial,
    catalan_number,
    det_exact,
    det_qpoly,
    hessenberg_catalan_det,
)
from simcores.qpoly import QPolynomial, q_binomial


def pascal_binomial(n, k):
    # independent oracle: build the Pascal triangle row by row
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def perm_expansion_det(rows, zero=0):
    # independent oracle: sum over permutations with inversion-count signs
    n = len(rows)
    total = zero
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = zero + 1
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def test_binomial_examples():
    assert binomial(8, 3) == 56 == pascal_binomial(8, 3)
    for n in range(10):
        assert binomial(n, 0) == 1
    assert binomial(2, 3) == 0
    assert binomial(5, -1) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 2)


def test_binomial_matches_pascal():
    for n in range(13):
        for k in range(-1, n + 2):
            assert binomial(n, k) == pascal_binomial(n, k)


def test_catalan_numbers():
    assert [catalan_number(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        catalan_number(-1)


def test_det_examples():
    assert det_exact([[3, 1], [1, 2]]) == 5
    assert det_exact([[2, 1], [1, 3]]) == 5
    assert det_exact([]) == 1
    for n in range(1, 6):
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert det_exact(ident) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact([[1, 2, 3], [4, 5, 6]])


def random_hessenberg(rng, n, entry, zero=0):
    # upper Hessenberg: zero below the subdiagonal, and about one subdiagonal
    # entry in four zero as well, which splits the determinant into blocks
    rows = [[entry() if j >= i - 1 else zero for j in range(n)] for i in range(n)]
    for i in range(1, n):
        if rng.random() < 0.25:
            rows[i][i - 1] = zero
    return rows


def test_det_rejects_a_matrix_that_is_not_upper_hessenberg():
    for det in (det_exact, det_qpoly):
        with pytest.raises(ValueError, match="not square: 3 rows, row 1 has length 2"):
            det([[1, 2, 3], [4, 5], [0, 7, 8]])
        # one nonzero entry two places below the diagonal
        rows = [[1, 2, 3, 4], [5, 6, 7, 8], [0, 9, 1, 2], [0, 3, 4, 5]]
        with pytest.raises(ValueError, match="not upper Hessenberg: row 3"):
            det(rows)
        # the same entry as a polynomial
        rows[3][1] = QPolynomial([0, 1])
        with pytest.raises(ValueError, match="not upper Hessenberg: row 3"):
            det(rows)
    # a zero row hides nothing: the rule reads the given entries
    with pytest.raises(ValueError, match="not upper Hessenberg: row 2"):
        det_qpoly([[0, 0, 0], [1, 1, 1], [QPolynomial([2, -1]), 1, 1]])


def test_det_matches_permutation_expansion():
    rng = random.Random(20260809)
    for n in range(9):
        for _ in range(4 if n < 8 else 2):
            rows = random_hessenberg(rng, n, lambda: rng.randint(-9, 9))
            assert det_exact(rows) == perm_expansion_det(rows)
    # a zero subdiagonal entry splits the determinant into its two diagonal blocks
    rows = [[2, 1, 3], [0, 5, 7], [0, 4, 6]]
    assert det_exact(rows) == 2 * (5 * 6 - 7 * 4) == perm_expansion_det(rows)
    # duplicate rows: singular
    rows = [[1, 2, 3, 4], [1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9]]
    assert det_exact(rows) == 0 == perm_expansion_det(rows)


def test_hessenberg_catalan_examples():
    assert hessenberg_catalan_det(1) == 1
    assert hessenberg_catalan_det(3) == 5
    assert hessenberg_catalan_det(4) == 14
    with pytest.raises(ValueError):
        hessenberg_catalan_det(0)


def test_hessenberg_equals_catalan():
    for n in range(1, 13):
        assert hessenberg_catalan_det(n) == catalan_number(n)


def test_det_qpoly_examples():
    assert det_qpoly([[q_binomial(2, 1)]]) == QPolynomial([1, 1])
    ident = [[QPolynomial([1]) if i == j else QPolynomial() for j in range(4)] for i in range(4)]
    assert det_qpoly(ident) == QPolynomial([1])
    assert det_qpoly([]) == QPolynomial([1])
    with pytest.raises(ValueError):
        det_qpoly([[QPolynomial([1]), QPolynomial()]])


def test_det_qpoly_matches_permutation_expansion():
    rng = random.Random(99)

    def rand_poly():
        return QPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])

    for n in range(8):
        for _ in range(2):
            rows = random_hessenberg(rng, n, rand_poly, QPolynomial())
            assert det_qpoly(rows) == perm_expansion_det(rows, zero=QPolynomial())


def test_det_qpoly_accepts_int_entries():
    assert det_qpoly([[3, 1], [1, 2]]) == QPolynomial([5])


def test_det_entries_must_be_integers():
    # a float entry is refused, never computed with or rounded
    with pytest.raises(TypeError):
        det_exact([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(TypeError):
        det_qpoly([[2.9]])
    assert det_exact([[True, 1], [1, 2]]) == 1
    assert det_qpoly([[True]]) == QPolynomial([1])


def leibniz_det(rows, zero):
    # the permutation expansion, grouped by the set of columns the first rows use:
    # row i takes a free column j, and the used columns above j are its inversions
    n = len(rows)
    partial = {0: zero + 1}
    for i in range(n):
        grown = {}
        for used, value in partial.items():
            for j in range(n):
                if used >> j & 1:
                    continue
                term = value * rows[i][j]
                if bin(used >> j).count("1") % 2:
                    term = -term
                key = used | 1 << j
                grown[key] = grown[key] + term if key in grown else term
        partial = grown
    return partial[(1 << n) - 1]


def test_grouped_expansion_is_the_permutation_expansion():
    rng = random.Random(5)
    for n in range(7):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert leibniz_det(rows, 0) == perm_expansion_det(rows)


def test_det_qpoly_matches_permutation_expansion_on_wide_entries():
    # coefficients up to 2^80 in size and degrees up to 25 stress the
    # packing of every entry into one integer at q = 2^B; "dense" means
    # every entry on or above the subdiagonal is drawn
    rng = random.Random(20261018)

    def rand_poly():
        if rng.random() < 0.15:
            return QPolynomial()
        return QPolynomial([rng.randint(-2**80, 2**80) for _ in range(rng.randint(1, 26))])

    for n in range(9):
        for variant in ("dense", "zero row", "zero column"):
            if n == 0 and variant != "dense":
                continue
            rows = random_hessenberg(rng, n, rand_poly, QPolynomial())
            if variant == "zero row":
                rows[rng.randrange(n)] = [QPolynomial()] * n
            elif variant == "zero column":
                j = rng.randrange(n)
                for r in rows:
                    r[j] = QPolynomial()
            det = det_qpoly(rows)
            assert det == leibniz_det(rows, QPolynomial())
            if variant != "dense":
                assert det == QPolynomial()


def test_det_qpoly_cancellation_leaves_negative_and_zero_coefficients():
    # det [[1, q], [q, 1]] = 1 - q^2: a zero middle coefficient and a negative top one
    one, q = QPolynomial([1]), QPolynomial([0, 1])
    assert det_qpoly([[one, q], [q, one]]) == QPolynomial([1, 0, -1])
    assert det_qpoly([[q, q], [q, q]]) == QPolynomial()
    big = QPolynomial([-(2**80), 0, 2**80 - 1])
    assert det_qpoly([[big]]) == big
