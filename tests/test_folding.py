import hashlib
import json
import random
from fractions import Fraction as Fr

import pytest

from outerspace import folding
from outerspace.words import FreeGroup, CyclicWord
from outerspace.marked_graph import rose
from outerspace.lipschitz import GraphMap, stretch_factor, optimal_map
from outerspace.folding import (standard_geodesic, folding_path, fold_step,
                                path_statistics, _multi_gates, _event_depth)
from outerspace.randomgen import (random_marked_graph, random_cyclic_word,
                                  random_word)
from outerspace.stallings import core_graph
from outerspace.paths import TargetPath, edge_point, seg_reverse


F3 = FreeGroup(3)


def test_same_simplex_pure_segment():
    R1 = rose(F3, [Fr(1, 3)] * 3)
    R2 = rose(F3, [Fr(1, 2), Fr(1, 4), Fr(1, 4)])
    sg = standard_geodesic(R1, R2)
    assert sg.lengths_end == R2.lengths
    assert len(sg.path.events) == 1      # only the initial snapshot
    assert not sg.collapsed_edges


def test_single_fold_constructed():
    # rose marked so that a and b images share a prefix: one early event
    rng = random.Random(51)
    G = random_marked_graph(rng, F3, 2)
    Gp = random_marked_graph(rng, F3, 2)
    sg = standard_geodesic(G, Gp)
    assert len(sg.path.events) >= 1
    # event times strictly increase
    times = sg.path.times()
    assert all(a < b for a, b in zip(times, times[1:]))


def test_fold_marking_roundtrip():
    rng = random.Random(52)
    for _ in range(10):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        sg = standard_geodesic(G, Gp)
        for ev in sg.path.events:
            assert ev.graph.validate() == []


def test_connecting_maps_compose():
    rng = random.Random(53)
    G = random_marked_graph(rng, F3, 3)
    Gp = random_marked_graph(rng, F3, 3)
    sg = standard_geodesic(G, Gp)
    path = sg.path
    n = len(path.events)
    if n < 3:
        pytest.skip("path too short for a composition check")
    i, j, k = 0, n // 2, n - 1
    m_ij = path.connecting_edge_map(i, j)
    m_jk = path.connecting_edge_map(j, k)
    m_ik = path.connecting_edge_map(i, k)
    from outerspace.words import free_reduce
    for d, p in m_ij.items():
        comp = tuple(free_reduce([x for e in p for x in m_jk[e]]))
        assert comp == m_ik[d]
    # identity at equal times
    m_ii = path.connecting_edge_map(i, i)
    assert all(m_ii[d] == (d,) for d in m_ii)


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_marking_loops_transport_through_folds(rank):
    F = FreeGroup(rank)
    rng = random.Random(51 + rank)
    G = random_marked_graph(rng, F, 3)
    Gp = random_marked_graph(rng, F, 3)
    sg = standard_geodesic(G, Gp)
    path = sg.path
    n = len(path.events)
    assert n >= 3
    from outerspace.words import free_reduce
    for j in range(1, n):
        m = path.connecting_edge_map(0, j)
        start = path.events[0].graph
        end = path.events[j].graph
        for i in range(1, F.rank + 1):
            loop = [x for d in start.marking_in[i] for x in m[d]]
            assert tuple(free_reduce(loop)) == end.marking_in[i]


def test_no_legal_degree_two_vertex_survives_a_quotient(monkeypatch):
    # every quotient merges each vertex other than the basepoint whose two
    # directions lie on distinct edges with distinct germs; some merge
    # two or more at once, composing their substitutions
    merged = []
    quotient = folding._quotient

    def spy(G, Gp, cells, vmap, sub):
        out = quotient(G, Gp, cells, vmap, sub)
        merged.append(len(set(vmap.values())) - len(out[0].vertices))
        return out

    monkeypatch.setattr(folding, "_quotient", spy)
    from outerspace.words import free_reduce
    for rank in (3, 4, 5):
        F = FreeGroup(rank)
        rng = random.Random(1400 + rank)
        for _ in range(3):
            G = random_marked_graph(rng, F, 3)
            Gp = random_marked_graph(rng, F, 3)
            sg = standard_geodesic(G, Gp)
            assert sg.mid is sg.path.events[0].graph
            prev = None
            for ev in sg.path.events:
                g, f = ev.graph, ev.residual
                for v in g.vertices - {g.basepoint}:
                    dirs = g.directions_at(v)
                    if len(dirs) == 2 and abs(dirs[0]) != abs(dirs[1]):
                        assert f.germ(dirs[0]) == f.germ(dirs[1])
                if prev is not None:
                    # the composed edge map carries the marking loops
                    for path in ev.fold_edge_map.values():
                        g.check_path(path)
                    for i in range(1, rank + 1):
                        loop = [x for d in prev.marking_in[i]
                                for x in ev.fold_edge_map[d]]
                        assert tuple(free_reduce(loop)) == g.marking_in[i]
                prev = g
    assert len(merged) > 9 and max(merged) >= 2


def test_fold_vertex_map_lands_on_snapshot_vertices():
    # the degree-2 merge removes vertices; fold_vertex_map keeps only the
    # old vertices whose class survives, the basepoint always among them
    dropped = 0
    for rank in (3, 4, 5):
        F = FreeGroup(rank)
        rng = random.Random(1500 + rank)
        for _ in range(4):
            G = random_marked_graph(rng, F, 3)
            Gp = random_marked_graph(rng, F, 3)
            events = standard_geodesic(G, Gp).path.events
            for prev, ev in zip(events, events[1:]):
                old, g, vmap = prev.graph, ev.graph, ev.fold_vertex_map
                assert set(vmap) <= old.vertices
                assert set(vmap.values()) <= g.vertices
                assert vmap[old.basepoint] == g.basepoint
                dropped += len(old.vertices) - len(vmap)
                for d in old.oriented_edges():
                    if old.origin(d) in vmap and ev.fold_edge_map[d]:
                        assert g.origin(ev.fold_edge_map[d][0]) == \
                            vmap[old.origin(d)]
    assert dropped > 0


def test_geodesic_additivity_exact():
    rng = random.Random(55)
    for _ in range(4):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        sg = standard_geodesic(G, Gp)
        snaps = [ev.graph.normalize() for ev in sg.path.events]
        lam_cache = {}

        def lam(i, j):
            if (i, j) not in lam_cache:
                lam_cache[(i, j)] = stretch_factor(snaps[i], snaps[j])[0]
            return lam_cache[(i, j)]

        n = len(snaps)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    assert lam(i, j) * lam(j, k) == lam(i, k)


def test_standard_geodesic_multiplicativity():
    rng = random.Random(56)
    for _ in range(6):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        lam, _ = stretch_factor(G, Gp)
        sg = standard_geodesic(G, Gp)
        mid = sg.mid.normalize()
        lam1, _ = stretch_factor(G, mid)
        lam2, _ = stretch_factor(mid, Gp)
        assert lam1 * lam2 == lam


def test_final_snapshot_reaches_target():
    rng = random.Random(57)
    for _ in range(5):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        sg = standard_geodesic(G, Gp)
        last = sg.path.events[-1].graph.normalize()
        t = Gp.normalize()
        assert stretch_factor(last, t)[0] == 1
        assert stretch_factor(t, last)[0] == 1


def test_illegal_turn_monotonicity():
    rng = random.Random(58)
    for _ in range(6):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        sg = standard_geodesic(G, Gp)
        probes = [random_cyclic_word(rng, F3, rng.randint(2, 6))
                  for _ in range(5)]
        stats = path_statistics(sg.path, probe_loops=probes)
        for pi in range(len(probes)):
            seq = [row["loops"][pi]["illegal_turns"] for row in stats]
            assert all(x >= y for x, y in zip(seq, seq[1:]))


def test_legal_probe_loops_stretch_maximally():
    # a witness loop is legal, and legal loops attain the stretch at
    # every time: l_target(w) = lambda(G_t -> target) * l_t(w) exactly,
    # while arbitrary loops stretch by at most that factor
    rng = random.Random(59)
    for _ in range(4):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        sg = standard_geodesic(G, Gp)
        snaps = [ev.graph.normalize() for ev in sg.path.events]
        target = Gp.normalize()
        _, wit = stretch_factor(snaps[0], target)
        wcls = CyclicWord(F3, snaps[0].path_word(wit.edges))
        lt = target.translation_length(wcls)
        for g in snaps:
            lam_t, _ = stretch_factor(g, target)
            assert lt == lam_t * g.translation_length(wcls)
            for _ in range(3):
                other = random_cyclic_word(rng, F3, 5)
                assert (target.translation_length(other)
                        <= lam_t * g.translation_length(other))


def test_volume_strictly_decreases():
    rng = random.Random(60)
    G = random_marked_graph(rng, F3, 3)
    Gp = random_marked_graph(rng, F3, 3)
    sg = standard_geodesic(G, Gp)
    vols = [ev.graph.volume() for ev in sg.path.events]
    assert all(a > b for a, b in zip(vols, vols[1:]))


def test_subgroup_volume_statistics():
    rng = random.Random(61)
    G = random_marked_graph(rng, F3, 3)
    Gp = random_marked_graph(rng, F3, 3)
    sg = standard_geodesic(G, Gp)
    H = core_graph([F3.word("ab"), F3.word("c")], based=True)
    stats = path_statistics(sg.path, probe_subgroups=[H])
    for row in stats:
        assert row["subgroups"][0]["volume"] > 0


def test_within_event_order_independence():
    # folding the gates one at a time at the same depth (transporting the
    # remaining gates through each fold) yields a snapshot isometric to
    # the simultaneous fold: translation lengths and volumes agree
    rng = random.Random(62)
    found = 0
    for _ in range(30):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        sg = standard_geodesic(G, Gp)
        ev0 = sg.path.events[0]
        gates = _multi_gates(ev0.gates)
        if len(gates) < 2:
            continue
        found += 1
        tau = _event_depth(ev0.residual, gates)
        g_sim = fold_step(ev0, gates=gates, tau=tau).graph
        for order in (list(gates), list(gates)[::-1]):
            ev_seq = ev0
            pending = list(order)
            while pending:
                gate = pending.pop(0)
                ev_seq = fold_step(ev_seq, gates=[gate], tau=tau)
                g_seq = ev_seq.graph
                emap, vmap = ev_seq.fold_edge_map, ev_seq.fold_vertex_map
                transported = []
                for (v2, dirs2) in pending:
                    transported.append((vmap[v2],
                                        tuple(emap[d][0] for d in dirs2)))
                pending = transported
            probes = [random_cyclic_word(rng, F3, 4) for _ in range(6)]
            for p in probes:
                assert g_seq.translation_length(p) == g_sim.translation_length(p)
            assert g_seq.volume() == g_sim.volume()
        if found >= 3:
            break
    assert found >= 1


def test_fold_precondition_errors():
    R1 = rose(F3, [Fr(1, 3)] * 3)
    R2 = rose(F3, [Fr(1, 2), Fr(1, 4), Fr(1, 4)])
    f = optimal_map(R1, R2)
    with pytest.raises(ValueError):
        folding_path(f)         # slopes are not 1: wrong parametrization


def _keyed_core_chains(core, branch):
    """The former chain walk, kept as a reference: it keys an edge by its
    label and unordered ends, so a same-label 2-cycle counts as one edge."""
    chains = []
    if not branch:
        seen = set()
        for (o, t, lab) in sorted(core.edges):
            if (o, t, lab) in seen:
                continue
            chain = [lab]
            seen.add((o, t, lab))
            v = t
            while v != o:
                for (o2, t2, lab2) in sorted(core.edges):
                    if (o2, t2, lab2) in seen:
                        continue
                    if o2 == v or t2 == v:
                        chain.append(lab2 if o2 == v else -lab2)
                        seen.add((o2, t2, lab2))
                        v = t2 if o2 == v else o2
                        break
                else:
                    break
            chains.append(tuple(chain))
        return chains
    used = set()
    for b in sorted(branch):
        for (o, t, lab) in sorted(core.edges):
            for start, lab0 in ((o, lab), (t, -lab)):
                key = (lab, frozenset((o, t)))
                if start != b or key in used:
                    continue
                chain = [lab0]
                used.add(key)
                v = t if lab0 == lab else o
                while v not in branch:
                    for (o2, t2, lab2) in sorted(core.edges):
                        key2 = (lab2, frozenset((o2, t2)))
                        if key2 in used:
                            continue
                        if o2 == v or t2 == v:
                            chain.append(lab2 if o2 == v else -lab2)
                            used.add(key2)
                            v = t2 if o2 == v else o2
                            break
                    else:
                        break
                chains.append(tuple(chain))
    return chains


def _branch(core):
    return {v for v, d in core.degrees().items() if d != 2}


def _up_to_reversal(chains):
    return sorted(min(c, tuple(-x for x in reversed(c))) for c in chains)


def test_core_chains_walk_both_edges_of_a_same_label_two_cycle():
    # <aa, b> over the rose: a b-loop at 0 and the 2-cycle 0 -a-> 1 -a-> 0
    R = rose(F3, [Fr(1, 3)] * 3)
    core, _ = R.subgroup_core_in_graph(core_graph([F3.word("aa"),
                                                   F3.word("b")]))
    assert core.edges == {(0, 0, 2), (0, 1, 1), (1, 0, 1)}
    assert folding._core_chains(core, _branch(core)) == [(2,), (1, 1)]
    assert _keyed_core_chains(core, _branch(core)) == [(2,), (1,)]


def test_core_chains_match_keyed_walk_on_probe_cores(monkeypatch):
    compared = two_cycles = 0
    for rank, seed in ((3, 71), (3, 72), (4, 73), (4, 74)):
        F = FreeGroup(rank)
        rng = random.Random(seed)
        G = random_marked_graph(rng, F, 3)
        Gp = random_marked_graph(rng, F, 3)
        path = standard_geodesic(G, Gp).path
        probes = []
        while len(probes) < 5:
            gens = [random_word(rng, F, rng.randint(1, 4))
                    for _ in range(rng.randint(1, 2))]
            if all(len(g) for g in gens):
                probes.append(core_graph(gens))
        for ev in path.events:
            for H in probes:
                core, _ = ev.graph.subgroup_core_in_graph(H)
                chains = folding._core_chains(core, _branch(core))
                # every edge of the core is walked exactly once
                assert sum(map(len, chains)) == len(core.edges)
                compared += 1
                if any((t, o, lab) in core.edges and o != t
                       for (o, t, lab) in core.edges):
                    two_cycles += 1
                    continue
                assert _up_to_reversal(chains) == _up_to_reversal(
                    _keyed_core_chains(core, _branch(core)))
        rows = path_statistics(path, probe_subgroups=probes)
        monkeypatch.setattr(folding, "_core_chains", _keyed_core_chains)
        assert path_statistics(path, probe_subgroups=probes) == rows
        monkeypatch.undo()
    assert compared > 100 and two_cycles > 0


def _pushed_reverse(p):
    """The reverse of a path with every reversed segment pushed through
    ``TargetPath._push``, as the path constructor builds it."""
    return TargetPath(p.graph, p.end(),
                      [seg_reverse(p.graph, s) for s in reversed(p.segs)])


def _first_germ(p):
    """Direction of departure of a path: (signed edge, start parameter),
    or None for a point."""
    if not p.segs:
        return None
    e, a, _ = p.segs[0]
    return (e, a)


def test_germs_and_reverses_of_optimal_maps_and_residuals():
    rng = random.Random(1203)
    maps = []
    for rank in (3, 4, 5):
        group = FreeGroup(rank)
        for _ in range(3):
            G, Gp = (random_marked_graph(rng, group, 3) for _ in range(2))
            maps.append(optimal_map(G, Gp))
            maps += [ev.residual for ev in standard_geodesic(G, Gp).path.events]
    points = 0
    for f in maps:
        for e, p in f.edge_images.items():
            points += p.is_point()
            back = p.reverse()
            ref = _pushed_reverse(p)
            assert (back.start, back.segs) == (ref.start, ref.segs)
            assert back.reverse() == p
            assert f.germ(e) == _first_germ(p)
            assert f.germ(-e) == _first_germ(ref)
            assert f.germ(-e) == _first_germ(f.image_of_direction(-e))
    # collapsed edges: point images, whose germ is None
    assert points > 0


# sha256 of the (time, graph JSON) list of the events of the seed-8 path
# below, pinned when each event still rebuilt every edge image
REUSE_EVENTS_SHA256 = (
    "ad798f69671308bc94f02414a90f05f1f5d31f61002962967eb68214782bcbaa")


def test_fold_events_reuse_uncut_images(monkeypatch):
    # an edge whose marks are only its two ends goes into the cells with
    # its image object, unless it is a whole stub glued to its gate's first
    cells_of = []
    quotient = folding._quotient

    def spy(G, Gp, cells, vmap, sub):
        cells_of.append({id(c[3]) for c in cells.values()})
        return quotient(G, Gp, cells, vmap, sub)

    monkeypatch.setattr(folding, "_quotient", spy)
    rng = random.Random(8)
    G = random_marked_graph(rng, F3, 4)
    Gp = random_marked_graph(rng, F3, 4)
    events = standard_geodesic(G, Gp).path.events
    table = [(str(ev.time), ev.graph.to_json()) for ev in events]
    assert hashlib.sha256(json.dumps(table, sort_keys=True).encode()
                          ).hexdigest() == REUSE_EVENTS_SHA256
    assert len(cells_of) == len(events)     # the first is the simplex's
    reused = 0
    for ev, kept in zip(events, cells_of[1:]):
        f = ev.residual
        gates = _multi_gates(ev.gates)
        tau = _event_depth(f, gates)
        folding_dirs = {d for _, dirs in gates for d in dirs}
        glued = {d for _, dirs in gates for d in dirs[1:]}
        for e, L in ev.graph.lengths.items():
            if any(d in folding_dirs and tau < L for d in (e, -e)):
                continue                     # cut at tau from a folding end
            if e in glued or -e in glued:
                continue
            assert id(f.edge_images[e]) in kept
            reused += 1
    assert reused > 40


def _split_at_slide(f):
    """The slide of ``_tighten_plain`` as it was before it moved vertices
    through ``lipschitz._transport``: each edge image is cut in two at
    a moved end, and each member's vertex image set to the new point,
    on f itself.  Returns the number of slides."""
    G = f.source
    slides = 0
    while True:
        vmap = folding._classes(G.vertices, [
            G.edge_ends[e] for e in G.edge_ends
            if f.edge_images[e].is_point()])
        classes = {}
        for v in G.vertices:
            classes.setdefault(vmap[v], []).append(v)
        for root, members in sorted(classes.items()):
            live = [(v, d) for v in members for d in G.directions_at(v)
                    if f.germ(d) is not None]
            germs = {f.germ(d) for _, d in live}
            if len(germs) != 1:
                continue
            e_g, a_g = germs.pop()
            delta = min(s[2] - s[1] for s in
                        (f.image_of_direction(d).segs[0] for _, d in live))
            for e in sorted(G.edge_ends):
                o, t = G.edge_ends[e]
                path = f.edge_images[e]
                if vmap[o] == root and not path.is_point():
                    path = path.cut((delta, path.length() - delta))[1]
                if vmap[t] == root and not path.is_point():
                    path = path.cut((path.length() - delta, delta))[0]
                f.edge_images[e] = path
            for v in members:
                f.vertex_images[v] = edge_point(f.target, e_g, a_g + delta)
            slides += 1
            break
        else:
            return slides


def test_tighten_slide_moves_vertices_through_transport():
    # the slide moves a class with lipschitz._transport: a collapsed edge
    # inside the class now moves with its ends (the split_at slide left
    # its point image behind, and the map failed check_consistency), and
    # everything else is what the split_at slide made
    rng = random.Random(5)
    slid, inconsistent = [], []
    for k in range(600):
        group = FreeGroup(3 + k % 3)
        G, Gp = (random_marked_graph(rng, group, 3) for _ in range(2))
        lam, _ = stretch_factor(G, Gp)
        f = optimal_map(G, Gp, lam)
        old = GraphMap(G, Gp, f.vertex_images, f.edge_images)
        if not _split_at_slide(old):
            continue
        slid.append(k)
        folding._tighten_plain(f)
        assert f.check_consistency()
        assert f.vertex_images == old.vertex_images
        for e, path in old.edge_images.items():
            if not path.is_point():
                assert f.edge_images[e] == path
        try:
            old.check_consistency()
        except AssertionError:
            inconsistent.append(k)
    assert len(slid) == 11
    assert inconsistent == [221]


def test_events_carry_their_gates_and_fold_step_makes_the_next():
    rng = random.Random(31)
    group = FreeGroup(4)
    G, Gp = (random_marked_graph(rng, group, 4) for _ in range(2))
    events = standard_geodesic(G, Gp).path.events
    assert len(events) > 5
    for ev, nxt in zip(events, events[1:] + [None]):
        fresh = folding.gates_of_residual(ev.residual)
        assert ev.gates.gates == fresh.gates
        step = fold_step(ev)
        if nxt is None:
            assert step is None
            continue
        assert step.time == nxt.time
        assert step.graph.to_json() == nxt.graph.to_json()
        assert step.fold_edge_map == nxt.fold_edge_map
