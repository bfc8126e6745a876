import random
from fractions import Fraction as Fr

from outerspace.words import FreeGroup
from outerspace.marked_graph import rose, standard_marking
from outerspace.randomgen import random_marked_graph
from outerspace.traintrack import (TrainTrackStructure, direction_digraph,
                                   classify_recurrence, find_spanning_legal_loop,
                                   is_legal, illegal_turn_count,
                                   strongly_connected_components)
from outerspace.oracles import spanning_legal_loop_bruteforce


F3 = FreeGroup(3)


def R():
    return rose(F3, [Fr(1, 3)] * 3)


def singleton_gates(G):
    return TrainTrackStructure(G, {v: [[d] for d in G.directions_at(v)]
                                   for v in G.vertices})


def test_all_singleton_gates_every_path_legal():
    tt = singleton_gates(R())
    assert is_legal(tt, (1, 2, 3), cyclic=True)
    assert illegal_turn_count(tt, (1, -2, 3), cyclic=True) == 0


def test_one_illegal_turn_counted():
    G = R()
    # gate {a-out, b-out} at the single vertex
    gates = {0: [[1, 2], [-1], [-2], [3], [-3]]}
    tt = TrainTrackStructure(G, gates)
    # loop a b^-1: crosses turn {-a(back), b^-1 ...}: compute directly
    assert illegal_turn_count(tt, (1, 2), cyclic=True) == 0
    # a^-1 then b: turn {a, b} shares the gate
    assert illegal_turn_count(tt, (-1, 2), cyclic=False) == 1
    assert not is_legal(tt, (-1, 2))


def test_is_legal_iff_count_zero_random():
    rng = random.Random(41)
    G = R()
    for _ in range(30):
        dirs = list(G.directions_at(0))
        rng.shuffle(dirs)
        k = rng.randint(1, len(dirs))
        cells = [[] for _ in range(k)]
        for i, d in enumerate(dirs):
            cells[i % k].append(d)
        tt = TrainTrackStructure(G, {0: cells})
        path = []
        cur = None
        for _ in range(5):
            options = [d for d in G.directions_at(0) if cur is None or d != -cur]
            d = rng.choice(options)
            path.append(d)
            cur = d
        assert is_legal(tt, tuple(path)) == (illegal_turn_count(tt, tuple(path)) == 0)


def test_direction_digraph_rose_singletons():
    tt = singleton_gates(R())
    D = direction_digraph(tt)
    for e in D.nodes:
        assert D.arcs[e] == {d for d in D.nodes if d != -e}


def test_direction_digraph_removed_arcs():
    G = R()
    gates = {0: [[1, 2], [-1], [-2], [3], [-3]]}   # {a,b} illegal
    tt = TrainTrackStructure(G, gates)
    D = direction_digraph(tt)
    assert 2 not in D.arcs[-1]
    assert 1 not in D.arcs[-2]
    assert 3 in D.arcs[-1]


def test_direction_digraph_definition_replay_random():
    rng = random.Random(42)
    G = R()
    for _ in range(20):
        dirs = list(G.directions_at(0))
        rng.shuffle(dirs)
        k = rng.randint(2, len(dirs))
        cells = [[] for _ in range(k)]
        for i, d in enumerate(dirs):
            cells[i % k].append(d)
        tt = TrainTrackStructure(G, {0: cells})
        D = direction_digraph(tt)
        for e in D.nodes:
            for e2 in D.nodes:
                expected = (G.terminus(e) == G.origin(e2)
                            and tt.gate_of(-e) is not tt.gate_of(e2))
                assert (e2 in D.arcs[e]) == expected


def test_classify_birecurrent_rose():
    tt = singleton_gates(R())
    verdict = classify_recurrence(tt)
    assert verdict.kind == "birecurrent"
    loop = verdict.certificate
    assert is_legal(tt, loop, cyclic=True)
    crossed = {d for d in loop} | set()
    assert crossed == set(R().oriented_edges())


def test_classify_reducible_confined():
    # gates confine legal loops to the subgraph {a}: at the vertex, every
    # transition through b or c is illegal
    G = R()
    gates = {0: [[1, -1, 2, -2, 3, -3]]}
    # one gate only: every turn illegal; no legal loops at all
    tt = TrainTrackStructure(G, gates)
    verdict = classify_recurrence(tt)
    assert verdict.kind in ("reducible", "one-orientation-subgraph")
    assert find_spanning_legal_loop(tt) is None
    assert not spanning_legal_loop_bruteforce(tt)


def test_classify_one_orientation_coherent():
    # coherent orientation: each petal can be crossed positively only
    # (turn {-x, y} legal iff ...): gates {out-dirs} vs singleton ins
    G = R()
    gates = {0: [[-1, -2, -3], [1], [2], [3]]}
    # arriving along +x gives back-direction -x in the big gate; next
    # direction must avoid that gate: only +y legal: coherent loops
    tt = TrainTrackStructure(G, gates)
    verdict = classify_recurrence(tt)
    assert verdict.kind == "recurrent"
    loop = verdict.certificate
    assert is_legal(tt, loop, cyclic=True)
    assert {abs(d) for d in loop} == {1, 2, 3}
    # not birecurrent: the loop is coherently oriented (one sign only)
    assert len({d > 0 for d in loop}) == 1


def test_spanning_loop_agrees_with_bruteforce_random():
    rng = random.Random(43)
    G = R()
    agree = 0
    for _ in range(60):
        dirs = list(G.directions_at(0))
        rng.shuffle(dirs)
        k = rng.randint(1, 4)
        cells = [[] for _ in range(k)]
        for i, d in enumerate(dirs):
            cells[i % k].append(d)
        tt = TrainTrackStructure(G, {0: cells})
        got = find_spanning_legal_loop(tt)
        expect = spanning_legal_loop_bruteforce(tt)
        assert (got is not None) == expect
        if got is not None:
            assert is_legal(tt, got, cyclic=True)
            assert {abs(d) for d in got} == {1, 2, 3}
        verdict = classify_recurrence(tt)
        assert verdict.is_recurrent() == expect
        agree += 1
    assert agree == 60


def test_two_gate_condition_excludes_reducible():
    # with >= 2 gates everywhere the classifier never returns a
    # both-orientations proper subgraph
    rng = random.Random(44)
    G = R()
    for _ in range(80):
        dirs = list(G.directions_at(0))
        rng.shuffle(dirs)
        k = rng.randint(2, 5)
        cells = [[] for _ in range(k)]
        for i, d in enumerate(dirs):
            cells[i % k].append(d)
        tt = TrainTrackStructure(G, {0: cells})
        verdict = classify_recurrence(tt)
        assert verdict.kind != "reducible"


def test_scc_on_two_vertex_structure():
    ends = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    T = standard_marking(F3, {0, 1}, ends, {e: Fr(1, 4) for e in ends}, 0)
    tt = TrainTrackStructure(T, {v: [[d] for d in T.directions_at(v)]
                                 for v in T.vertices})
    D = direction_digraph(tt)
    sccs = strongly_connected_components(D)
    assert len(sccs) == 1
    verdict = classify_recurrence(tt)
    assert verdict.kind == "birecurrent"


def _tarjan(D):
    """Tarjan, iterative: the reference for strongly_connected_components."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in sorted(D.nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(D.arcs[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(D.arcs[w]))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
    return sccs


def _random_gates(rng, rank):
    """Random gates on a multi-vertex random marked graph; about two in
    five keep only the directions of a random set of edges."""
    G = random_marked_graph(rng, FreeGroup(rank), 2)
    while len(G.vertices) < 2:
        G = random_marked_graph(rng, FreeGroup(rank), 2)
    edges = sorted(G.edge_ends)
    if rng.random() < 0.4:
        edges = rng.sample(edges, rng.randint(1, len(edges)))
    gates = {}
    for v in sorted(G.vertices):
        dirs = [d for d in G.directions_at(v) if abs(d) in edges]
        rng.shuffle(dirs)
        if dirs:
            k = rng.randint(1, len(dirs))
            gates[v] = [dirs[i::k] for i in range(k)]
    return TrainTrackStructure(G, gates)


def test_components_match_tarjan_random():
    rng = random.Random(45)
    sizes = set()
    for i in range(150):
        D = direction_digraph(_random_gates(rng, 2 + i % 3))
        sccs = strongly_connected_components(D)
        assert set(sccs) == set(_tarjan(D))
        assert [min(c) for c in sccs] == sorted(min(c) for c in sccs)
        sizes.add(len(sccs))
    assert 1 in sizes and max(sizes) > 3


def test_dot_export():
    tt = singleton_gates(R())
    dot = tt.to_dot()
    assert "digraph" in dot and "->" in dot
