"""closed_class_edges: one tightening through TargetPath._push."""

import random
from fractions import Fraction as Fr

import pytest

from outerspace.lipschitz import candidates, optimal_map
from outerspace.paths import TargetPath, seg_end
from outerspace.randomgen import random_marked_graph
from outerspace.words import FreeGroup, cyclic_reduce, free_reduce, least_rotation


def _old_closed_class_edges(path):
    """The wrap-point algorithm: merge and cancel the last and first
    segments until neither applies, rotate to a vertex junction, and
    read off the whole edges."""
    if path.end() != path.start:
        raise ValueError("path is not closed")
    if not path.segs:
        return ()
    segs = list(path.segs)
    while len(segs) > 1:
        s1, s2 = segs[-1], segs[0]
        if s1[0] == s2[0] and s1[2] == s2[1]:
            segs[0] = (s1[0], s1[1], s2[2])
            segs.pop()
            continue
        if s1[0] == -s2[0]:
            L = path.graph.lengths[abs(s1[0])]
            if s2[1] == L - s1[2]:
                d = min(s1[2] - s1[1], s2[2] - s2[1])
                e1, a1, b1 = s1
                e2, a2, b2 = s2
                segs.pop()
                segs.pop(0)
                if b1 - d != a1:
                    segs.append((e1, a1, b1 - d))
                if a2 + d != b2:
                    segs.insert(0, (e2, a2 + d, b2))
                continue
        break
    if not segs:
        return ()
    if len(segs) == 1:
        e, a, b = segs[0]
        L = path.graph.lengths[abs(e)]
        return (e,) if a == 0 and b == L else ()
    n = len(segs)
    rot = next((k for k in range(n)
                if seg_end(path.graph, segs[(k - 1) % n])[0] == "v"), None)
    if rot is None:
        return ()
    segs = segs[rot:] + segs[:rot]
    edges = []
    for (e, a, b) in segs:
        assert a == 0 and b == path.graph.lengths[abs(e)]
        edges.append(e)
    core, _ = cyclic_reduce(free_reduce(edges))
    return tuple(core)


def _closed_paths(f, rng):
    """Closed images of f's candidates and marking loops, each also
    restarted at a random interior point of its length."""
    G = f.source
    loops = [c.edges for c in candidates(G)]
    loops += [G.marking_in[i] for i in range(1, G.group.rank + 1)]
    for edges in loops:
        closed = f.loop_image(edges)
        yield closed
        if closed.length() > 0:
            t = closed.length() * Fr(rng.randint(1, 99), 100)
            head, tail = closed.split_at(t)
            yield tail.concat(head)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_closed_class_edges_matches_wrap_point_algorithm(rank):
    F = FreeGroup(rank)
    rng = random.Random(900 + rank)
    inside, total = 0, 0
    for _ in range(6 if rank < 4 else 3):
        G = random_marked_graph(rng, F, 3)
        Gp = random_marked_graph(rng, F, 3)
        f = optimal_map(G, Gp)
        for closed in _closed_paths(f, rng):
            new = closed.closed_class_edges()
            old = _old_closed_class_edges(closed)
            assert least_rotation(new) == least_rotation(old)
            assert new == tuple(cyclic_reduce(list(new))[0])
            inside += closed.start[0] == "e"
            total += 1
    assert inside > total // 4


def test_closed_class_edges_of_short_paths():
    F = FreeGroup(2)
    G = random_marked_graph(random.Random(3), F, 2)
    e = min(G.edge_ends)
    L = G.lengths[e]
    mid = TargetPath(G, ("e", e, L / 2))
    assert mid.closed_class_edges() == ()
    there_and_back = TargetPath(G, ("e", e, L / 2), [(e, L / 2, L),
                                                      (-e, 0, L / 2)])
    assert there_and_back.closed_class_edges() == ()
    with pytest.raises(ValueError):
        TargetPath(G, ("e", e, L / 2), [(e, L / 2, L)]).closed_class_edges()
