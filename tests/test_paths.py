"""The path layer: cutting, cached lengths, and closed_class_edges, one
tightening through TargetPath._push."""

import random
from fractions import Fraction as Fr

import pytest

from outerspace.folding import standard_geodesic
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


def _tight_paths(seed):
    """Tight paths on one random rank-3 graph: images of an optimal map's
    edges and closed loops, the same cut at an interior point, and
    tightened random edge words from a vertex."""
    rng = random.Random(seed)
    F = FreeGroup(3)
    G = random_marked_graph(rng, F, 3)
    Gp = random_marked_graph(rng, F, 3)
    f = optimal_map(G, Gp)
    paths = list(f.edge_images.values()) + list(_closed_paths(f, rng))
    paths += [p.split_at(p.length() * Fr(rng.randint(1, 9), 10))[1]
              for p in paths if p.length() > 0]
    for _ in range(10):
        start = v = rng.choice(sorted(Gp.vertices))
        word = []
        for _ in range(rng.randint(1, 8)):
            word.append(rng.choice(Gp.directions_at(v)))
            v = Gp.terminus(word[-1])
        paths.append(TargetPath.from_edge_word(Gp, word, ("v", start)))
    paths.append(TargetPath(Gp, ("v", v)))
    return rng, paths


def _random_lengths(rng, total, n):
    """n nonnegative lengths summing to total, some of them zero."""
    marks = sorted(total * Fr(rng.randint(0, 12), 12) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + marks, marks + [total])]


def _by_split_at(path, lengths):
    pieces = []
    for want in lengths[:-1]:
        head, path = path.split_at(want)
        pieces.append(head)
    return pieces + [path]


def _geodesic_images():
    rng = random.Random(5)
    G = random_marked_graph(rng, FreeGroup(3), 4)
    Gp = random_marked_graph(rng, FreeGroup(3), 4)
    events = standard_geodesic(G, Gp).path.events
    assert len(events) > 5
    return [img for ev in events for img in ev.residual.edge_images.values()]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cut_agrees_with_successive_split_at(seed):
    rng, paths = _tight_paths(seed)
    if seed == 1:
        paths += _geodesic_images()
    for path in paths:
        for n in (2, 3, 5):
            lengths = _random_lengths(rng, path.length(), n)
            pieces = path.cut(lengths)
            assert list(pieces) == _by_split_at(path, lengths)
            assert [p.length() for p in pieces] == lengths
            whole = pieces[0]
            for p in pieces[1:]:
                whole = whole.concat(p)
            assert whole == path


def test_single_whole_piece_is_the_path():
    _, paths = _tight_paths(4)
    for path in paths:
        assert path.cut([path.length()])[0] is path
        assert path.cut((path.length(),)) == (path,)


def test_cut_rejects_lengths_that_miss_the_end():
    _, paths = _tight_paths(5)
    for path in paths:
        L = path.length()
        for lengths in ([L + 1], [L, Fr(1, 7)], [L / 2, L / 2 + Fr(1, 9)],
                        [-Fr(1, 3), L + Fr(1, 3)], [L, -1]):
            with pytest.raises(ValueError):
                path.cut(lengths)
        if L > 0:
            for lengths in ([L / 2], [L / 3, L / 3], [0]):
                with pytest.raises(ValueError):
                    path.cut(lengths)
        for dist in (-Fr(1, 5), L + Fr(1, 5)):
            with pytest.raises(ValueError):
                path.split_at(dist)


def test_cached_length_is_the_segment_sum():
    rng, paths = _tight_paths(6)
    for path in paths:
        L = path.length()
        back = path.reverse()
        made = [TargetPath(path.graph, path.start, path.segs), back,
                path.concat(back), back.concat(path),
                *path.cut(_random_lengths(rng, L, 4)),
                *path.split_at(L * Fr(rng.randint(0, 5), 5))]
        if L > 0:
            # a partial backtrack: _push cancels the reversed head
            part = back.split_at(L / 3)[0]
            made.append(path.concat(part))
            assert made[-1].length() == L - L / 3
        assert made[2].is_point() and made[3].is_point()
        for p in [path] + made:
            assert isinstance(p.segs, tuple)
            assert p.length() == sum(b - a for _, a, b in p.segs)
