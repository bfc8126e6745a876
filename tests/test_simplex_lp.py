import random
from fractions import Fraction as Fr

import pytest

from outerspace.simplex_lp import Unbounded, solve_lp_max


def dense_reference(c, A, b):
    """The full-row pivot: every tableau row rebuilt at every pivot, with
    the same Bland entering choice, ratio test and tie-break."""
    m = len(A)
    n = len(c)
    T = []
    for i in range(m):
        row = [Fr(x) for x in A[i]] + [Fr(0)] * m + [Fr(b[i])]
        row[n + i] = Fr(1)
        T.append(row)
    obj = [-Fr(x) for x in c] + [Fr(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    total = n + m
    while True:
        enter = None
        for j in range(total):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                key = (T[i][total] / T[i][enter], basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:
            raise Unbounded("objective unbounded above")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, T[leave])]
        basis[leave] = enter
    x = [Fr(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][total]
    return sum(ci * xi for ci, xi in zip(c, x)), x


def outcome(solve, c, A, b):
    try:
        return solve(c, A, b)
    except Unbounded:
        return "unbounded"


def test_beale_cycling_example_ends_under_bland():
    # Beale's LP cycles under the largest-coefficient rule; Bland's rule
    # must reach the optimum
    c = [Fr(3, 4), -20, Fr(1, 2), -6]
    A = [[Fr(1, 4), -8, -1, 9],
         [Fr(1, 2), -12, Fr(-1, 2), 3],
         [0, 0, 1, 0]]
    b = [0, 0, 1]
    value, x = solve_lp_max(c, A, b)
    assert value == Fr(5, 4)
    assert x == [1, 0, 1, 0]
    assert (value, x) == dense_reference(c, A, b)


def test_unbounded_lp_raises():
    # x2 has a positive cost and no positive entry in its column
    with pytest.raises(Unbounded):
        solve_lp_max([1, 1], [[1, -1], [0, -2]], [3, 0])


def test_negative_right_hand_side_is_rejected():
    with pytest.raises(ValueError):
        solve_lp_max([1], [[1], [1]], [1, Fr(-1, 2)])


def _entry(rng, zero_share):
    if rng.random() < zero_share:
        return Fr(0)
    return Fr(rng.randint(-6, 6), rng.randint(1, 4))


def test_sparse_degenerate_lps_match_the_dense_pivot():
    rng = random.Random(20141)
    outcomes = {"optimal": 0, "unbounded": 0, "degenerate": 0}
    for _ in range(300):
        m = rng.randint(1, 9)
        n = rng.randint(1, 7)
        zero_share = rng.choice([0.4, 0.6, 0.8])
        c = [_entry(rng, 0.3) for _ in range(n)]
        A = [[_entry(rng, zero_share) for _ in range(n)] for _ in range(m)]
        b = [Fr(0) if rng.random() < 0.5 else abs(_entry(rng, 0))
             for _ in range(m)]
        got = outcome(solve_lp_max, c, A, b)
        assert got == outcome(dense_reference, c, A, b)
        if got == "unbounded":
            outcomes["unbounded"] += 1
        else:
            outcomes["optimal"] += 1
            outcomes["degenerate"] += 0 in b
    # the seed covers both outcomes and degenerate starts
    assert min(outcomes.values()) >= 30, outcomes
