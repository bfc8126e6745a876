"""The path layer: cutting, cached lengths, and closed_class_edges, one
tightening through TargetPath._push.

Several references here were written for the signed segment form the
paths once stored, (signed edge of travel, a, b) with a < b measured
along that edge; ``other_form`` maps each segment between that form and
today's, so the references run as they were written."""

import random
from fractions import Fraction as Fr

import pytest

from outerspace.folding import standard_geodesic
from outerspace.lipschitz import candidates, optimal_map
from outerspace.paths import TargetPath, seg_end, seg_start
from outerspace.randomgen import random_marked_graph
from outerspace.words import FreeGroup, cyclic_reduce, free_reduce, least_rotation


def other_form(graph, seg):
    """The segment in the other of its two forms.  Paths store (e, a, b)
    with e > 0 and a, b offsets from the origin of e; the signed form is
    (signed edge of travel, a, b) with a < b measured along that edge.
    A segment that runs up its edge reads the same in both, and one
    that runs down maps by (e, a, b) <-> (-e, L - a, L - b) either way."""
    e, a, b = seg
    if e > 0 and a < b:
        return seg
    L = graph.lengths[abs(e)]
    return (-e, L - a, L - b)


def _old_closed_class_edges(path):
    """The wrap-point algorithm: merge and cancel the last and first
    segments until neither applies, rotate to a vertex junction, and
    read off the whole edges."""
    if path.end() != path.start:
        raise ValueError("path is not closed")
    if not path.segs:
        return ()
    segs = [other_form(path.graph, s) for s in path.segs]
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
                if seg_end(path.graph, other_form(
                    path.graph, segs[(k - 1) % n]))[0] == "v"), None)
    if rot is None:
        return ()
    segs = segs[rot:] + segs[:rot]
    edges = []
    for (e, a, b) in segs:
        assert a == 0 and b == path.graph.lengths[abs(e)]
        edges.append(e)
    core, _ = cyclic_reduce(free_reduce(edges))
    return tuple(core)


def _cut_at(path, dist):
    """(head, tail) of path at arclength dist, by ``cut``."""
    return path.cut((dist, path.length() - dist))


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
            head, tail = _cut_at(closed, t)
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
                                                      (e, L, L / 2)])
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
    paths += [_cut_at(p, p.length() * Fr(rng.randint(1, 9), 10))[1]
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


def _split_segments(path, dist):
    """(head, tail) of path at arclength dist, walked segment by segment
    apart from ``cut``: the segment that holds dist is cut in two."""
    head, tail, left = [], [], dist
    for e, a, b in (other_form(path.graph, s) for s in path.segs):
        if left >= b - a:
            head.append((e, a, b))
            left -= b - a
        elif left > 0:
            head.append((e, a, a + left))
            tail.append((e, a + left, b))
            left = 0
        else:
            tail.append((e, a, b))
    g = path.graph
    first = TargetPath(g, path.start, [other_form(g, s) for s in head])
    return first, TargetPath(g, first.end(), [other_form(g, s) for s in tail])


def _by_split_at(path, lengths):
    pieces = []
    for want in lengths[:-1]:
        head, path = _split_segments(path, want)
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
                _cut_at(path, dist)


def test_cached_length_is_the_segment_sum():
    rng, paths = _tight_paths(6)
    for path in paths:
        L = path.length()
        back = path.reverse()
        made = [TargetPath(path.graph, path.start, path.segs), back,
                path.concat(back), back.concat(path),
                *path.cut(_random_lengths(rng, L, 4)),
                *_cut_at(path, L * Fr(rng.randint(0, 5), 5))]
        if L > 0:
            # a partial backtrack: _push cancels the reversed head
            part = _cut_at(back, L / 3)[0]
            made.append(path.concat(part))
            assert made[-1].length() == L - L / 3
        assert made[2].is_point() and made[3].is_point()
        for p in [path] + made:
            assert isinstance(p.segs, tuple)
            assert p.length() == sum(
                b - a for _, a, b in (other_form(p.graph, s) for s in p.segs))


def _old_push(graph, start, segs, seg):
    """``TargetPath._push`` as it was when paths stored the signed form,
    loop and all: push the signed-form seg onto the signed-form list
    segs of a path from start, and return the arclength cancelled."""
    def first(s):
        return seg_start(graph, other_form(graph, s))

    def last(s):
        return seg_end(graph, other_form(graph, s))

    e, a, b = seg
    if a == b:
        return 0
    if a > b:
        raise ValueError("segment must move forward")
    cancelled = 0
    while True:
        if not segs:
            if first(seg) != start:
                raise ValueError("segment does not start at path start")
            segs.append(seg)
            return cancelled
        if last(segs[-1]) != first(seg):
            raise ValueError("segments not contiguous")
        le, la, lb = segs[-1]
        e, a, b = seg
        if e == le and a == lb:           # same direction, contiguous
            segs[-1] = (e, la, b)
            return cancelled
        if e == -le:                      # potential backtrack
            L = graph.lengths[abs(e)]
            # seg runs over the same edge in reverse; overlap length
            delta = min(lb - la, b - a)
            if delta > 0 and a == L - lb:
                cancelled += delta
                new_last = (le, la, lb - delta)
                new_seg = (e, a + delta, b)
                segs.pop()
                if new_last[1] != new_last[2]:
                    segs.append(new_last)
                    if new_seg[1] != new_seg[2]:
                        segs.append(new_seg)
                    return cancelled
                if new_seg[1] == new_seg[2]:
                    return cancelled
                seg = new_seg
                continue
        segs.append(seg)
        return cancelled


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_push_joins_as_the_old_loop_cancelled(seed):
    # every push of a construction or a concatenation, on tight paths,
    # random cuts of them and their reverses, gives the old loop's
    # segments (converted) and cancels the same arclength
    rng, paths = _tight_paths(seed)
    g = paths[0].graph
    pieces = [q for p in paths
              for q in p.cut(_random_lengths(rng, p.length(), 3))]
    paths += pieces + [p.reverse() for p in pieces]
    from_start = {}
    for p in paths:
        from_start.setdefault(p.start, []).append(p)
    pushes = through = 0
    for p in paths:
        nexts = from_start[p.end()]
        for q in [p.reverse()] + rng.sample(nexts, min(2, len(nexts))):
            for head in ((), p.segs):       # built from scratch; concat
                new = TargetPath(g, p.start)
                new.segs = list(head)
                old = [other_form(g, s) for s in head]
                for s in (p.segs if not head else ()) + q.segs:
                    tail = new.segs[-1] if new.segs else None
                    cancelled = new._push(s)
                    assert cancelled == _old_push(g, p.start, old,
                                                  other_form(g, s))
                    assert [other_form(g, t) for t in new.segs] == old
                    pushes += 1
                    # the old loop ran on: the tail cancelled whole and
                    # seg went on past its start
                    through += (tail is not None and cancelled > 0
                                and cancelled == abs(tail[2] - tail[1])
                                < abs(s[2] - s[1]))
    assert pushes > 1000 and through > 0


@pytest.mark.parametrize("seed", [10, 11])
def test_common_prefix_is_what_backtracking_cancels(seed):
    # p run backwards and then q cancels exactly their common prefix;
    # pieces starting inside an edge meet others that leave the same
    # offset the other way
    rng, paths = _tight_paths(seed)
    pieces = [q for p in paths
              for q in p.cut(_random_lengths(rng, p.length(), 3))]
    paths += pieces + [p.reverse() for p in pieces]
    from_start = {}
    for p in paths:
        from_start.setdefault(p.start, []).append(p)
    opposite = 0
    for p in paths:
        for q in from_start[p.start]:
            c = p.common_prefix_length(q)
            assert c == (p.length() + q.length()
                         - p.reverse().concat(q).length()) / 2
            opposite += bool(p.segs and q.segs and p.start[0] == "e"
                             and p.segs[0][:2] == q.segs[0][:2]
                             and (p.segs[0][2] > p.segs[0][1])
                             != (q.segs[0][2] > q.segs[0][1]))
    assert opposite > 0
