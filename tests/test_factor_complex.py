import random
from fractions import Fraction as Fr

import pytest

from outerspace import factor_complex
from outerspace.words import FreeGroup
from outerspace.marked_graph import rose, standard_marking
from outerspace.stallings import FactorHandle
from outerspace.factor_complex import (project, build_ball, ProjectionImage,
                                       FactorBall, check_reparam_quasigeodesic,
                                       _image_distance)
from outerspace.randomgen import random_marked_graph
from outerspace.folding import standard_geodesic
from outerspace.whitehead import all_type_ii_automorphisms, outer_moves


F3 = FreeGroup(3)


def handle(*texts):
    return FactorHandle.from_words([F3.word(t) for t in texts],
                                   ambient_rank=3)


@pytest.fixture(scope="module")
def small_ball():
    return build_ball(F3, bound=4, aut_product_length=2, vertex_cap=2000)


def test_project_rose_six_handles():
    img = project(rose(F3, [Fr(1, 3)] * 3))
    assert len(img) == 6


def test_project_two_vertex_graph():
    ends = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    T = standard_marking(F3, {0, 1}, ends, {e: Fr(1, 4) for e in ends}, 0)
    img = project(T)
    # theta: circles from edge pairs (6, rank 1) and triples (4, rank 2)
    assert len(img) == 10
    assert all(1 <= h.rank <= 2 for h in img)


def test_project_requires_rank_three():
    F2 = FreeGroup(2)
    from outerspace.marked_graph import rose as rose2
    with pytest.raises(ValueError):
        project(rose2(F2, [Fr(1, 2), Fr(1, 2)]))


def test_projection_depends_on_marking():
    rng = random.Random(81)
    from outerspace.randomgen import random_automorphism
    G = rose(F3, [Fr(1, 3)] * 3)
    phi, phi_inv = random_automorphism(rng, F3, 6)
    G2 = G.remark(phi, phi_inv)
    c1 = {h.code for h in project(G)}
    c2 = {h.code for h in project(G2)}
    assert c1 != c2 or phi.is_identity()


def test_ball_adjacency_containment(small_ball):
    ha, hab = handle("a"), handle("a", "b")
    assert small_ball.distance_upper(ha, hab) == 1
    assert small_ball.distance_upper(ha, handle("b")) == 2
    assert small_ball.distance_upper(ha, ha) == 0


def test_ball_adjacency_replays_conjugate_into(small_ball):
    from outerspace.stallings import conjugate_into
    codes = sorted(small_ball.handles)[:30]
    for c1 in codes[:10]:
        for c2 in codes[:10]:
            if c1 >= c2:
                continue
            h1, h2 = small_ball.handles[c1], small_ball.handles[c2]
            expected = (conjugate_into(h1.core, h2.core)[0]
                        or conjugate_into(h2.core, h1.core)[0]) \
                and h1.rank != h2.rank
            assert (c2 in small_ball.adjacency[c1]) == expected


def _reference_adjacency(ball):
    """Adjacency by conjugate_into both ways on every cross-rank pair."""
    from outerspace.stallings import conjugate_into
    adjacency = {c: set() for c in ball.handles}
    codes = sorted(ball.handles)
    for i, c1 in enumerate(codes):
        for c2 in codes[i + 1:]:
            h1, h2 = ball.handles[c1], ball.handles[c2]
            if h1.rank != h2.rank and (conjugate_into(h1.core, h2.core)[0]
                                       or conjugate_into(h2.core, h1.core)[0]):
                adjacency[c1].add(c2)
                adjacency[c2].add(c1)
    return adjacency


@pytest.mark.parametrize("rank, bound, products, cap, truncated", [
    (3, 8, 3, 50, True),
    (3, 8, 3, 300, True),
    (4, 6, 1, 4000, False),
])
def test_turn_filtered_adjacency_equals_every_pair(rank, bound, products,
                                                   cap, truncated):
    ball = build_ball(FreeGroup(rank), bound=bound,
                      aut_product_length=products, vertex_cap=cap)
    assert ball.truncated == truncated
    assert ball.adjacency == _reference_adjacency(ball)
    assert any(ball.adjacency.values())


def test_turn_filtered_adjacency_on_full_small_ball(small_ball):
    assert not small_ball.truncated
    assert small_ball.adjacency == _reference_adjacency(small_ball)


@pytest.fixture(scope="module")
def path_images():
    rng = random.Random(85)
    G = random_marked_graph(rng, F3, 4)
    Gp = random_marked_graph(rng, F3, 4)
    return [project(ev.graph) for ev in standard_geodesic(G, Gp).path.events]


def _ball_state(ball):
    return list(ball.handles), ball.adjacency, ball.truncated


@pytest.mark.parametrize("rank, events, bound, cap", [
    (3, 1, 4, 1), (3, 1, 4, 6), (3, 1, 6, 7), (3, 1, 8, 50),
    (3, None, 4, 1), (3, None, 5, 6), (3, None, 6, 7), (3, None, 8, 50),
    (3, None, 7, 300), (3, 2, 4, 4000), (4, 0, 8, 500),
])
def test_ball_over_outer_moves_equals_every_move(monkeypatch, path_images,
                                                 rank, events, bound, cap):
    # a handle is a conjugacy class, so the moves outer_moves drops meet
    # no handle first: same handles in the same order, same truncation
    seeds = list({h.code: h for img in path_images[:events] for h in img
                  if h.edge_count() <= bound}.values()) if rank == 3 else []
    kw = dict(seeds=seeds, bound=bound, aut_product_length=3, vertex_cap=cap)
    fast = build_ball(FreeGroup(rank), **kw)
    monkeypatch.setattr(factor_complex, "outer_moves",
                        all_type_ii_automorphisms)
    full = build_ball(FreeGroup(rank), **kw)
    assert _ball_state(fast) == _ball_state(full)
    assert len(fast.handles) > len(seeds)


def _reference_ball(group, seeds, bound, products, cap):
    """Handles in insertion order and truncation of build_ball, by Word
    arithmetic: Automorphism.apply on generating sets of Words, handles
    by FactorHandle.from_words."""
    n = group.rank
    handles = {h.code: h for h in seeds}
    frontier, seen = [], set()
    for mask in range(1, (1 << n) - 1):
        gens = [group.generator(i + 1) for i in range(n) if mask >> i & 1]
        seen.add(frozenset(gens))
        h = FactorHandle.from_words(gens, ambient_rank=n)
        if h.edge_count() <= bound:
            handles.setdefault(h.code, h)
            frontier.append(gens)
    moves = [t.automorphism() for t in outer_moves(group)]
    for _ in range(products):
        nxt = []
        for gens in frontier:
            for phi in moves:
                imgs = [phi.apply(g) for g in gens]
                if frozenset(imgs) not in seen:
                    seen.add(frozenset(imgs))
                    h = FactorHandle.from_words(imgs, ambient_rank=n)
                    if h.edge_count() <= bound and h.code not in handles:
                        handles[h.code] = h
                        nxt.append(imgs)
                if len(handles) >= cap:
                    return list(handles), True
        frontier = nxt
    return list(handles), False


@pytest.mark.parametrize("rank, events, bound, products, cap, truncated", [
    (3, None, 8, 2, 4000, False),
    (3, 2, 6, 2, 4000, False),
    (3, None, 8, 3, 400, True),
    (4, 0, 8, 3, 60, True),
    (4, 0, 8, 3, 200, True),
])
def test_ball_equals_word_reference(path_images, rank, events, bound,
                                    products, cap, truncated):
    seeds = list({h.code: h for img in path_images[:events] for h in img
                  if h.edge_count() <= bound}.values()) if rank == 3 else []
    ball = build_ball(FreeGroup(rank), seeds=seeds, bound=bound,
                      aut_product_length=products, vertex_cap=cap)
    assert (list(ball.handles), ball.truncated) == \
        _reference_ball(FreeGroup(rank), seeds, bound, products, cap)
    assert ball.truncated == truncated
    assert ball.adjacency == _reference_adjacency(ball)
    assert len(ball.handles) > len(seeds)


def test_ball_ranks_proper(small_ball):
    for h in small_ball.handles.values():
        assert 1 <= h.rank <= 2


def test_distance_monotone_under_refinement(small_ball):
    bigger = build_ball(F3, bound=5, aut_product_length=2, vertex_cap=4000)
    ha, hb = handle("a"), handle("b")
    pairs = [(ha, hb), (ha, handle("a", "b")), (handle("ab"), handle("b"))]
    for h1, h2 in pairs:
        d_small = small_ball.distance_upper(h1, h2)
        d_big = bigger.distance_upper(h1, h2)
        if d_small is not None:
            assert d_big is not None and d_big <= d_small


def test_projection_diameter_at_most_four():
    rng = random.Random(82)
    graphs = [random_marked_graph(rng, F3, 3) for _ in range(5)]
    seeds = {}
    images = []
    for G in graphs:
        img = project(G)
        images.append(img)
        for h in img:
            seeds[h.code] = h
    ball = build_ball(F3, seeds=list(seeds.values()), bound=6,
                      aut_product_length=2, vertex_cap=4000)
    for img in images:
        diam = ball.diameter_upper(list(img))
        assert diam is not None and diam <= 4


def test_qg_constant_sequence():
    img = project(rose(F3, [Fr(1, 3)] * 3))
    ball = build_ball(F3, seeds=list(img), bound=4, aut_product_length=2)
    report = check_reparam_quasigeodesic([img] * 5, K=6, ball=ball)
    assert report.ok
    assert len(report.breakpoints) == 2


def test_qg_along_folding_path():
    rng = random.Random(83)
    G = random_marked_graph(rng, F3, 4)
    Gp = random_marked_graph(rng, F3, 4)
    sg = standard_geodesic(G, Gp)
    images = [project(ev.graph) for ev in sg.path.events]
    seeds = {h.code: h for img in images for h in img}
    ball = build_ball(F3, seeds=list(seeds.values()), bound=6,
                      aut_product_length=2, vertex_cap=4000)
    report = check_reparam_quasigeodesic(images, K=6, ball=ball)
    assert report.ok
    assert report.consistent


def test_qg_teleport_fails():
    # a constructed sequence whose single step exceeds any window bound:
    # alternate far factors so even one step has diameter > K
    img_a = ProjectionImage([handle("a")])
    img_b = ProjectionImage([handle("b")])
    ball = build_ball(F3, bound=4, aut_product_length=2)
    report = check_reparam_quasigeodesic([img_a, img_b, img_a, img_b],
                                         K=1, ball=ball)
    assert not report.ok
    assert report.failed_window is not None


def _plain_hops(ball, c1, c2):
    """Hop count by a fresh BFS, or None when c2 is not reached."""
    dist = {c1: 0}
    queue = [c1]
    for c in queue:
        for c3 in ball.adjacency[c]:
            if c3 not in dist:
                dist[c3] = dist[c] + 1
                queue.append(c3)
    return dist.get(c2)


def test_memoised_distances_equal_plain_bfs():
    rng = random.Random(84)
    images = [project(random_marked_graph(rng, F3, 3)) for _ in range(3)]
    seeds = {h.code: h for img in images for h in img}
    ball = build_ball(F3, seeds=list(seeds.values()),
                      bound=max([6] + [h.edge_count() for h in seeds.values()]),
                      aut_product_length=2, vertex_cap=4000)
    hs = list(seeds.values()) + rng.sample(list(ball.handles.values()), 20)
    for h1 in hs:
        for h2 in hs:
            assert ball.distance_upper(h1, h2) == \
                _plain_hops(ball, h1.code, h2.code)
    window = [h for img in images for h in img] + hs[:5]
    pairs = [_plain_hops(ball, a.code, b.code)
             for a in window for b in window]
    expected = None if None in pairs else max(pairs)
    assert ball.diameter_upper(window) == expected
    for img1 in images:
        for img2 in images:
            ds = [_plain_hops(ball, a.code, b.code) for a in img1 for b in img2]
            ds = [d for d in ds if d is not None]
            assert _image_distance(ball, img1, img2) == \
                (min(ds) if ds else None)


def test_memo_sees_a_new_shortcut():
    ha, hc = handle("a"), handle("c")
    ball = FactorBall(bound=4)
    for h in (ha, handle("a", "b"), handle("b"), handle("b", "c"), hc):
        ball.add(h)
    ball.compute_adjacency()
    assert ball.distance_upper(ha, hc) == 4
    assert ball.add(handle("a", "c"))
    ball.compute_adjacency()
    assert ball.distance_upper(ha, hc) == 2
    assert ball.diameter_upper([ha, hc, ha]) == 2
    assert "_hops" not in repr(ball) and ball == FactorBall(
        bound=4, handles=dict(ball.handles), adjacency=ball.adjacency,
        truncated=ball.truncated)
