import json
import random
from fractions import Fraction as Fr

import pytest

from outerspace.words import FreeGroup, CyclicWord, Word, RankMismatchError
from outerspace.marked_graph import (MarkedMetricGraph, rose, standard_marking,
                                     loop_marked_graph)
from outerspace.stallings import core_graph
from outerspace.randomgen import (random_marked_graph, random_cyclic_word,
                                  random_word)


F3 = FreeGroup(3)


def theta4():
    ends = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    return standard_marking(F3, {0, 1}, ends, {e: Fr(1, 4) for e in ends}, 0)


def test_rose_valid_volume_one():
    R = rose(F3, [Fr(1, 3)] * 3)
    assert R.validate() == []
    assert R.volume() == 1


def test_zero_length_edge_diagnosed():
    R = rose(F3, [Fr(0), Fr(1, 2), Fr(1, 2)])
    assert any("nonpositive length" in d for d in R.validate())


def test_marking_mismatch_diagnosed():
    R = rose(F3, [Fr(1, 3)] * 3)
    bad = MarkedMetricGraph(F3, R.vertices, R.edge_ends, R.lengths,
                            R.marking_in, {**R.marking_out, 1: (2,)},
                            R.basepoint)
    assert "marking mismatch: word of loop 1 is b" in bad.validate()


def test_loop_representative_petals():
    R = rose(F3, [Fr(1, 3)] * 3)
    assert R.loop_representative(F3.word("a").cyclic()) == (1,)
    assert R.loop_representative(F3.word("abA").cyclic()) == (2,)


def test_loop_representative_roundtrip_random():
    rng = random.Random(21)
    for _ in range(25):
        G = random_marked_graph(rng, F3, 3)
        g = random_cyclic_word(rng, F3, rng.randint(1, 6))
        rep = G.loop_representative(g)
        back = CyclicWord(F3, G.path_word(rep))
        assert back == g


def test_translation_length_examples():
    R = rose(F3, [Fr(1, 3)] * 3)
    assert R.translation_length(F3.word("abc").cyclic()) == 1
    assert R.translation_length(F3.word("abA").cyclic()) == Fr(1, 3)
    R2 = rose(F3, [Fr(1, 2), Fr(1, 4), Fr(1, 4)])
    assert R2.translation_length(F3.word("aab").cyclic()) == Fr(5, 4)


def test_translation_length_conjugacy_invariant():
    rng = random.Random(22)
    G = random_marked_graph(rng, F3, 3)
    for _ in range(30):
        w = random_word(rng, F3, 5)
        g = random_word(rng, F3, rng.randint(0, 4))
        assert (G.translation_length(w.cyclic())
                == G.translation_length((g * w * g.inverse()).cyclic()))


def test_volume_and_normalize():
    R = rose(F3, [1, 1, 1])
    assert R.volume() == 3
    N = R.normalize()
    assert N.volume() == 1
    assert N.lengths[1] == Fr(1, 3)
    assert N.normalize().lengths == N.lengths
    rng = random.Random(23)
    for _ in range(10):
        G = random_marked_graph(rng, F3, 3)
        G2 = G.with_lengths({e: 3 * l for e, l in G.lengths.items()})
        g = random_cyclic_word(rng, F3, 5)
        assert (G2.normalize().translation_length(g)
                == G2.translation_length(g) / G2.volume())


def test_subgraph_factors_rose():
    R = rose(F3, [Fr(1, 3)] * 3)
    handles = R.subgraph_factors()
    assert len(handles) == 6
    assert sorted(h.rank for h in handles) == [1, 1, 1, 2, 2, 2]
    assert len({h.code for h in handles}) == 6


def test_subgraph_factors_ranks_by_euler_characteristic():
    G = theta4()
    for h in G.subgraph_factors():
        assert 1 <= h.rank <= 2
        assert h.rank == h.core.rank()


def test_subgroup_core_volumes():
    R2 = rose(F3, [Fr(1, 2), Fr(1, 4), Fr(1, 4)])
    Ha = core_graph([F3.word("a")], based=True)
    _, vol = R2.subgroup_core_in_graph(Ha)
    assert vol == Fr(1, 2)
    Hab = core_graph([F3.word("a"), F3.word("b")], based=True)
    _, vol2 = R2.subgroup_core_in_graph(Hab)
    assert vol2 == Fr(3, 4)


def test_cyclic_subgroup_volume_is_translation_length():
    rng = random.Random(24)
    for _ in range(15):
        G = random_marked_graph(rng, F3, 3)
        w = random_word(rng, F3, rng.randint(1, 5))
        if not len(w):
            continue
        H = core_graph([w], based=True)
        _, vol = G.subgroup_core_in_graph(H)
        assert vol == G.translation_length(w.cyclic())


def test_marking_roundtrip_preserved_by_remark():
    rng = random.Random(25)
    from outerspace.randomgen import random_automorphism
    G = rose(F3, [Fr(1, 3)] * 3)
    for _ in range(10):
        phi, phi_inv = random_automorphism(rng, F3, 4)
        G = G.remark(phi, phi_inv)
        assert G.validate() == []
    phi, phi_inv = random_automorphism(rng, FreeGroup(4), 4)
    with pytest.raises(RankMismatchError):
        G.remark(phi, phi_inv)


def test_json_roundtrip():
    rng = random.Random(26)
    G = random_marked_graph(rng, F3, 3)
    data = json.loads(json.dumps(G.to_json()))
    G2 = MarkedMetricGraph.from_json(data)
    assert G2.validate() == []
    for _ in range(5):
        g = random_cyclic_word(rng, F3, 5)
        assert G.translation_length(g) == G2.translation_length(g)


def test_degree_two_needs_flag():
    # vertex 1 subdivides a petal: degree 2
    ends = {1: (0, 1), 2: (1, 0), 3: (0, 0), 4: (0, 0)}
    lengths = {e: Fr(1, 4) for e in ends}
    G = standard_marking(F3, {0, 1}, ends, lengths, 0)
    assert any("degree" in d for d in G.validate())
    G.subdivided = True
    assert G.validate() == []


def test_loop_representative_is_cyclically_reduced_tuple():
    rng = random.Random(27)
    tails = 0
    for _ in range(40):
        G = random_marked_graph(rng, F3, 3)
        g = random_cyclic_word(rng, F3, rng.randint(1, 6))
        rep = G.loop_representative(g)
        assert type(rep) is tuple and rep
        assert all(a != -b for a, b in zip(rep, rep[1:] + rep[:1]))
        G.check_path(rep, cyclic=True)
        based = G.based_loop_of(g.letters)
        tails += len(based) > len(rep)
        k = next(k for k in range(len(based)) if based[k:k + len(rep)] == rep)
        assert based[:k] == tuple(-e for e in reversed(based[k + len(rep):]))
    assert tails > 0
    with pytest.raises(ValueError):
        rose(F3).loop_representative(F3.identity().cyclic())


def test_loop_marked_graph_is_the_tree_cocycle():
    # random_marked_graph remarks a standard marking, whose marking-out
    # is already the tree cocycle that loop_marked_graph computes
    for rank in (3, 4, 5):
        F = FreeGroup(rank)
        for k in range(12):
            G = random_marked_graph(random.Random(k), F, k % 7)
            H = loop_marked_graph(F, G.vertices, G.edge_ends, G.lengths,
                                  G.marking_in, G.basepoint, G.subdivided)
            assert H.marking_out == G.marking_out
            assert H.to_json() == G.to_json()
            assert H.validate() == []


def test_rose_is_the_standard_marking_of_one_vertex():
    for rank in (2, 3, 4, 5):
        F = FreeGroup(rank)
        petals = {i: (0, 0) for i in range(1, rank + 1)}
        for lengths in (None, [Fr(i, 7) for i in range(1, rank + 1)]):
            R = rose(F, lengths)
            by_hand = MarkedMetricGraph(
                F, {0}, petals, dict(zip(petals, lengths or
                                         [Fr(1, rank)] * rank)),
                {i: (i,) for i in petals}, {i: (i,) for i in petals}, 0)
            assert R.to_json() == by_hand.to_json()
            assert R.to_json() == standard_marking(
                F, {0}, petals, R.lengths, 0).to_json()


def test_path_word_is_the_product_of_edge_labels():
    rng = random.Random(28)
    for rank in (2, 3, 4):
        F = FreeGroup(rank)
        for _ in range(20):
            G = random_marked_graph(rng, F, 3)
            v, path = rng.choice(sorted(G.vertices)), []
            for _ in range(rng.randint(0, 12)):
                path.append(rng.choice(G.directions_at(v)))
                v = G.terminus(path[-1])
            product = F.identity()
            for e in path:
                label = Word(F, G.marking_out[abs(e)])
                product = product * (label if e > 0 else label.inverse())
            assert G.path_word(tuple(path)) == product.letters


def _reference_factor_codes(G):
    """Codes of the connected proper core subgraphs, each from the words of
    its spanning-tree loops."""
    from itertools import combinations
    from outerspace.stallings import FactorHandle
    edges = sorted(G.edge_ends)
    codes = set()
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            ends = [v for e in subset for v in G.edge_ends[e]]
            if any(ends.count(v) < 2 for v in ends):
                continue                    # not a core subgraph
            if not 1 <= size - len(set(ends)) + 1 < G.group.rank:
                continue                    # not of proper rank
            parent = {min(ends): None}
            queue = [min(ends)]
            for v in queue:
                for s in (x for e in subset for x in (e, -e)):
                    if G.origin(s) == v and G.terminus(s) not in parent:
                        parent[G.terminus(s)] = s
                        queue.append(G.terminus(s))
            if len(parent) != len(set(ends)):
                continue                    # disconnected
            tree = {abs(e) for e in parent.values() if e is not None}
            words = [G.group.word(G.path_word(G.tree_loop(parent, e)))
                     for e in subset if e not in tree]
            codes.add(FactorHandle.from_words(words).code)
    return codes


def test_subgraph_factors_match_tree_loop_reference():
    for rank in (3, 4, 5):
        F = FreeGroup(rank)
        for k in range(4):
            G = random_marked_graph(random.Random(100 * rank + k), F, 1 + k)
            assert {h.code for h in G.subgraph_factors()} == \
                _reference_factor_codes(G)


def _subset_handle(G, edge_subset):
    """The handle of one edge subset as ``subgraph_factors`` made it one
    subset at a time, kept as a reference: a BFS over the subset's
    adjacency decides connectivity (None if disconnected), and the fold
    of the subset's edges, each spelling its marking-out word, is cut to
    its core."""
    from outerspace.stallings import FactorHandle, folded_core
    adjacent = {}
    for e in edge_subset:
        o, t = G.edge_ends[e]
        adjacent.setdefault(o, set()).add(t)
        adjacent.setdefault(t, set()).add(o)
    reached = [min(adjacent)]
    for v in reached:
        reached.extend(adjacent[v].difference(reached))
    if len(reached) != len(adjacent):
        return None
    core = folded_core([(*G.edge_ends[e], G.marking_out[e])
                        for e in sorted(edge_subset)])
    return FactorHandle(core, G.group.rank)


def _per_subset_factors(G):
    """``subgraph_factors`` one subset at a time, kept as a reference:
    the rank from a per-subset vertex set, then ``_subset_handle``."""
    handles = {}
    for subset in G._core_subsets():
        verts = {v for e in subset for v in G.edge_ends[e]}
        if not 1 <= len(subset) - len(verts) + 1 <= G.group.rank - 1:
            continue
        h = _subset_handle(G, subset)
        if h is not None:
            handles[h.code] = h
    return list(handles.values())


def test_disconnected_core_subset_has_no_handle():
    # a barbell: loops 1 and 3 at the two ends of edge 2; the subset
    # {1, 3} has Euler rank 1 but two components, so only the two loops
    # give handles
    ends = {1: (0, 0), 2: (0, 1), 3: (1, 1)}
    G = standard_marking(FreeGroup(2), {0, 1}, ends,
                         {e: Fr(1, 3) for e in ends}, 0)
    assert _subset_handle(G, {1, 3}) is None
    handles = G.subgraph_factors()
    assert [h.rank for h in handles] == [1, 1]
    assert [h.code for h in handles] == [_subset_handle(G, {e}).code
                                         for e in (1, 3)]


def test_subgraph_factors_match_per_subset_handles():
    # every event graph of seeded standard geodesics at ranks 3, 4 and
    # 5: the same handles in the same order, with the same cores
    from outerspace.folding import standard_geodesic
    rng = random.Random(820)
    graphs = []
    for rank in (3, 4, 5):
        for _ in range(2):
            G, Gp = (random_marked_graph(rng, FreeGroup(rank), 3)
                     for _ in range(2))
            graphs += [ev.graph for ev in standard_geodesic(G, Gp).path.events]
    assert len(graphs) > 40
    for G in graphs:
        got, ref = G.subgraph_factors(), _per_subset_factors(G)
        assert [h.code for h in got] == [h.code for h in ref]
        assert [h.core.rows for h in got] == [h.core.rows for h in ref]
        assert [h.core.basepoint for h in got] == [None] * len(got)


def test_trivial_subgroup_has_no_cover_core():
    from outerspace.stallings import SubgroupCoreGraph
    R = rose(F3, [Fr(1, 3)] * 3)
    with pytest.raises(ValueError):
        R.subgroup_core_in_graph(SubgroupCoreGraph({0: {}}))


def _core_reduce_factors(G):
    """The former enumeration, kept as a reference: each subset is cut to
    its core by rounds that drop the edges at valence-1 vertices, and is
    kept only when it is its own core."""
    def core_reduce(subset):
        sub = set(subset)
        while True:
            deg = {}
            for e in sub:
                o, t = G.edge_ends[e]
                deg[o] = deg.get(o, 0) + 1
                deg[t] = deg.get(t, 0) + 1
            bad = {v for v, d in deg.items() if d < 2}
            if not bad:
                return sub
            sub = {e for e in sub
                   if G.edge_ends[e][0] not in bad and G.edge_ends[e][1] not in bad}
            if not sub:
                return sub

    edges = sorted(G.edge_ends)
    handles = {}
    for mask in range(1, 1 << len(edges)):
        subset = {edges[k] for k in range(len(edges)) if mask >> k & 1}
        if core_reduce(subset) != subset:
            continue
        verts = {v for e in subset for v in G.edge_ends[e]}
        if not 1 <= len(subset) - len(verts) + 1 <= G.group.rank - 1:
            continue
        h = _subset_handle(G, subset)
        if h is not None:
            handles[h.code] = h
    return list(handles.values())


def _twisted(rng, F, ends):
    """A graph on the given edges, its standard marking twisted by a random
    automorphism so that tree edges spell nontrivial words too."""
    from outerspace.randomgen import random_automorphism
    verts = {v for e in ends.values() for v in e}
    G = standard_marking(F, verts, ends, {e: Fr(1, len(ends)) for e in ends},
                         min(verts))
    return G.remark(*random_automorphism(rng, F, 3))


# Graphs with loops, multi-edges and valence-2 chains; in the last, the
# chain 0-4-5-1 runs over edges 5, 2 and 7, whose ids are far apart.
_ODD_GRAPHS = (
    (3, {1: (0, 0), 2: (0, 1), 3: (0, 1), 4: (1, 1)}),
    (3, {1: (0, 1), 2: (1, 2), 3: (2, 0), 4: (0, 3), 5: (3, 1), 6: (1, 2)}),
    (5, {1: (0, 0), 2: (0, 1), 3: (1, 2), 4: (2, 0), 5: (0, 2), 6: (1, 1),
         7: (2, 3), 8: (3, 2)}),
    (4, {5: (0, 4), 2: (4, 5), 7: (5, 1), 1: (0, 1), 8: (1, 0), 3: (0, 0),
         4: (1, 2), 6: (2, 1)}),
)


def test_subgraph_factors_match_core_reduce_reference():
    from outerspace.folding import standard_geodesic
    graphs = []
    for rank in (3, 4, 5):
        F = FreeGroup(rank)
        rng = random.Random(800 + rank)
        graphs += [random_marked_graph(rng, F, 2 + k) for k in range(3)]
    rng = random.Random(809)
    for rank, ends in _ODD_GRAPHS:
        graphs += [_twisted(rng, FreeGroup(rank), ends) for _ in range(2)]
    # fold snapshots add valence-2 vertices: every event of one standard
    # geodesic at each of ranks 3, 4 and 5
    rng = random.Random(810)
    for rank in (3, 4, 5):
        G, Gp = (random_marked_graph(rng, FreeGroup(rank), 3) for _ in range(2))
        graphs += [ev.graph for ev in standard_geodesic(G, Gp).path.events]
    for G in graphs:
        got, ref = G.subgraph_factors(), _core_reduce_factors(G)
        assert [h.code for h in got] == [h.code for h in ref]
        assert [h.core.to_json() for h in got] == [h.core.to_json() for h in ref]


def test_subgraph_factors_of_a_subdivided_rose():
    # a rank-3 rose with each petal cut into 8 edges: 24 edges, so a loop
    # over every edge subset would take 2^24 steps
    import time
    ends = {}
    for p in range(3):
        chain = [0, *range(7 * p + 1, 7 * p + 8), 0]
        for k in range(8):
            ends[8 * p + k + 1] = (chain[k], chain[k + 1])
    G = standard_marking(F3, set(range(22)), ends,
                         {e: Fr(1, 24) for e in ends}, 0)
    t0 = time.process_time()
    handles = G.subgraph_factors()
    assert time.process_time() - t0 < 5
    assert sorted(h.rank for h in handles) == [1, 1, 1, 2, 2, 2]
    assert ({h.code for h in handles}
            == {h.code for h in rose(F3).subgraph_factors()})


def _scanned_directions(G, v):
    """Directions at v by scanning every oriented edge."""
    return [e for e in G.oriented_edges() if G.origin(e) == v]


def _scanned_spanning_tree(G, root):
    parent, order, queue = {root: None}, [root], [root]
    while queue:
        v = queue.pop(0)
        for e in _scanned_directions(G, v):
            w = G.terminus(e)
            if w not in parent:
                parent[w] = e
                order.append(w)
                queue.append(w)
    return parent, order


def test_incidence_table_matches_edge_scan():
    from outerspace.folding import standard_geodesic
    graphs = []
    for rank in (2, 3, 4, 5):
        group = FreeGroup(rank)
        for i in range(10):
            rng = random.Random(f"incidence:{rank}:{i}")
            G = random_marked_graph(rng, group, 3)
            Gp = random_marked_graph(rng, group, 3)
            graphs += [G] + [ev.graph for ev in
                             standard_geodesic(G, Gp).path.events]
    for G in graphs:
        for v in G.vertices:
            assert G.directions_at(v) == _scanned_directions(G, v)
            assert G.degree(v) == len(_scanned_directions(G, v))
            assert G.spanning_tree(v) == _scanned_spanning_tree(G, v)
