"""Rank-2 support: the metric machinery works; the factor graph refuses."""

import random
from fractions import Fraction as Fr

import pytest

from outerspace.words import FreeGroup
from outerspace.marked_graph import rose
from outerspace.lipschitz import stretch_factor, optimal_map, candidates
from outerspace.folding import standard_geodesic
from outerspace.whitehead import is_simple
from outerspace.factor_complex import project
from outerspace.randomgen import random_marked_graph


F2 = FreeGroup(2)


def test_rank_two_candidates_and_stretch():
    G = rose(F2, [Fr(1, 2), Fr(1, 2)])
    H = rose(F2, [Fr(2, 3), Fr(1, 3)])
    cs = candidates(G)
    assert len(cs) == 4      # 2 petals + 2 figure-eights
    lam, wit = stretch_factor(G, H)
    assert lam == Fr(4, 3)
    f = optimal_map(G, H, lam)
    assert f.sigma() == lam


def test_rank_two_folding():
    rng = random.Random(91)
    G = random_marked_graph(rng, F2, 3)
    H = random_marked_graph(rng, F2, 3)
    lam, _ = stretch_factor(G, H)
    sg = standard_geodesic(G, H)
    mid = sg.mid.normalize()
    l1, _ = stretch_factor(G, mid)
    l2, _ = stretch_factor(mid, H)
    assert l1 * l2 == lam


def test_rank_two_simplicity_caveat():
    # accepted, with the documented caveat that the complex degenerates
    assert is_simple(F2.word("a").cyclic())
    assert not is_simple(F2.word([1, 2, -1, -2]).cyclic())   # commutator


def test_rank_two_projection_refused():
    with pytest.raises(ValueError):
        project(rose(F2, [Fr(1, 2), Fr(1, 2)]))
