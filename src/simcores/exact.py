"""Exact integer combinatorics and determinants over Z and Z[q].

Matrices are plain sequences of row sequences, square and upper Hessenberg
(zero below the subdiagonal), as the paper's determinants are; any other
raises ValueError.  One expansion along the last column, with no division,
takes every determinant; over Z[q] it runs on Kronecker-packed integers.
"""

from __future__ import annotations

import math
from operator import index

from .qpoly import QPolynomial


def binomial(n: int, k: int) -> int:
    """C(n, k), with value 0 for k < 0 or k > n.  Negative n is rejected."""
    if k < 0:
        return 0
    if n < 0:
        raise ValueError(f"binomial with negative upper index {n} is outside the usage domain")
    if k > n:
        return 0
    return math.comb(n, k)


def catalan_number(n: int) -> int:
    """C_n = binomial(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError(f"Catalan number undefined for n = {n}")
    return math.comb(2 * n, n) // (n + 1)


def _check_hessenberg(rows) -> None:
    n = len(rows)
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError(f"matrix is not square: {n} rows, row {i} has length {len(r)}")
        if any(r[:max(i - 1, 0)]):
            raise ValueError(f"not upper Hessenberg: row {i} is nonzero below the subdiagonal")


def _hessenberg_det(rows) -> int:
    """Expands each leading block along its last column: with D_0 = 1,
    D_{j+1} = sum_{i<=j} (-1)^(j-i) h_ij (h_{i+1,i} ... h_{j,j-1}) D_i, the
    signed product of subdiagonal entries carried as i falls, until it is 0."""
    minors = [1]
    for j in range(len(rows)):
        total, sub = 0, 1
        for i in range(j, -1, -1):
            total += rows[i][j] * sub * minors[i]
            sub *= -rows[i][i - 1] if i else 0
            if not sub:
                break
        minors.append(total)
    return minors[-1]


def det_exact(rows) -> int:
    """Exact determinant of a square upper Hessenberg integer matrix; 1 at dimension 0.
    Entries are read through operator.index, so a float or a str raises TypeError."""
    _check_hessenberg(rows)
    return _hessenberg_det([list(map(index, r)) for r in rows])


def det_qpoly(rows) -> QPolynomial:
    """Exact determinant of a square upper Hessenberg matrix of QPolynomial or int entries.

    Kronecker substitution: every coefficient of the determinant is bounded
    in absolute value by bound = prod_i sum_j ||m_ij||_1 (the permanent of
    the entrywise 1-norms is at most that product), so with
    B = bound.bit_length() + 1 the integer determinant at q = 2^B, computed
    over Z by the Hessenberg expansion, holds each coefficient as one
    balanced base-2^B digit, unpacked as q_binomial unpacks its quotient.
    Evaluation is a ring homomorphism, so the unpacked polynomial is exact.
    """
    _check_hessenberg(rows)
    coeffs = [[(e if isinstance(e, QPolynomial) else QPolynomial((e,))).coeffs for e in r]
              for r in rows]
    bound = 1
    for r in coeffs:
        bound *= sum(abs(a) for c in r for a in c)
    shift = bound.bit_length() + 1
    evaluated = []
    for r in coeffs:
        row = []
        for c in r:
            acc = 0
            for a in reversed(c):
                acc = (acc << shift) + a
            row.append(acc)
        evaluated.append(row)
    return QPolynomial._from_kronecker(_hessenberg_det(evaluated), shift)


def hessenberg_catalan_det(n: int) -> int:
    """det of the (n-1)x(n-1) matrix with entry C(j+1, i-j+1); equals C_n.

    That matrix is lower Hessenberg: the superdiagonal is all ones and
    everything above it vanishes, which is what drives the alternating-sum
    recursion for Catalan numbers.  Its transpose, built here, is upper
    Hessenberg and has the same determinant.
    """
    if n < 1:
        raise ValueError(f"hessenberg_catalan_det requires n >= 1, got {n}")
    rows = [
        [binomial(j + 1, i - j + 1) for i in range(1, n)]
        for j in range(1, n)
    ]
    return det_exact(rows)
