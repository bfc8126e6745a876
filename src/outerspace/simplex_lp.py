"""Exact rational simplex method (dense tableau, sparse pivots, Bland's rule).

Solves  maximize c.x  subject to  A x <= b,  x >= 0,  with b >= 0, so
the slack basis is feasible and no phase-1 is needed.  Instances here
are tiny (at most a few dozen variables and a few hundred constraints),
so the tableau rows are dense lists of Fractions.  Most entries are zero
(slack columns, cells touching few edges), so a pivot updates only the
nonzero columns of the pivot row; the pivot sequence, and so the answer,
is the one the full-row update gives.
"""

from __future__ import annotations

from fractions import Fraction


class Unbounded(Exception):
    pass


def solve_lp_max(c, A, b):
    """Return (optimal value, x) for max c.x s.t. A x <= b, x >= 0, b >= 0."""
    m = len(A)
    n = len(c)
    for bi in b:
        if bi < 0:
            raise ValueError("need b >= 0 for the slack start")
    # tableau rows: m constraint rows + objective row; columns: n vars,
    # m slacks, rhs
    T = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(0)] * m + [Fraction(b[i])]
        row[n + i] = Fraction(1)
        T.append(row)
    obj = [-Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]

    total = n + m
    while True:
        # Bland: entering = least index with negative reduced cost
        enter = None
        for j in range(total):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        # ratio test; Bland tie-break on least basis index
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][total] / T[i][enter]
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:
            raise Unbounded("objective unbounded above")
        # pivot over the nonzero columns of the pivot row only: a zero
        # there leaves every other row's entry in that column as it is
        P = T[leave]
        piv = P[enter]
        nz = [j for j, x in enumerate(P) if x]
        for j in nz:
            P[j] /= piv
        for row in (*T, obj):
            f = row[enter]
            if f and row is not P:
                for j in nz:
                    row[j] -= f * P[j]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][total]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return value, x
