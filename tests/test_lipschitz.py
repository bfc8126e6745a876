import random
from fractions import Fraction as Fr

import pytest

from outerspace.words import FreeGroup
from outerspace.marked_graph import rose, standard_marking
from outerspace import lipschitz
from outerspace.lipschitz import (candidates, stretch_factor, distance,
                                  optimal_map, optimize_in_simplex, class_of_loop,
                                  OptimalMapError)
from outerspace.oracles import brute_stretch, all_short_loops
from outerspace.randomgen import random_marked_graph, random_rose
from outerspace.traintrack import is_legal, classify_recurrence


F3 = FreeGroup(3)


def R_unit():
    return rose(F3, [Fr(1, 3)] * 3)


def R_skew():
    return rose(F3, [Fr(1, 2), Fr(1, 4), Fr(1, 4)])


def theta4():
    ends = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    return standard_marking(F3, {0, 1}, ends, {e: Fr(1, 4) for e in ends}, 0)


def barbell():
    # two loops joined by an arc, plus a third loop for rank 3
    ends = {1: (0, 0), 2: (1, 1), 3: (0, 1), 4: (0, 0)}
    return standard_marking(F3, {0, 1}, ends, {e: Fr(1, 4) for e in ends}, 0)


def test_candidates_rose_count():
    # 3 petals + 6 figure-eights (xy, xy^-1 per petal pair)
    cs = candidates(R_unit())
    assert len(cs) == 9
    shapes = sorted(c.shape for c in cs)
    assert shapes.count("embedded-circle") == 3
    assert shapes.count("figure-eight") == 6


def test_candidates_match_bruteforce_on_theta():
    T = theta4()
    cs = candidates(T)
    loops = all_short_loops(T)
    best = None
    R = R_skew()
    for loop in loops:
        lt = R.translation_length(class_of_loop(T, loop))
        lg = sum(T.lengths[abs(e)] for e in loop)
        r = lt / lg
        best = r if best is None else max(best, r)
    lam, _ = stretch_factor(T, R)
    assert lam == best


def test_barbell_candidate_crosses_arc_twice():
    B = barbell()
    barbells = [c for c in candidates(B) if c.shape == "barbell"]
    assert barbells
    for c in barbells:
        counts = c.crossing_counts()
        assert counts[3] == 2       # the arc
        assert counts.get(1, 0) <= 1 or counts.get(2, 0) <= 1


def _every_start_candidates(graph):
    """The candidate search that meets each circle once per oriented edge
    on it and dedupes by canonical form, kept as the reference."""
    def canon(edges):
        return lipschitz._loop_canon(tuple(edges))

    def inverse(path):
        return tuple(-e for e in reversed(path))

    def rotate(cycle, v):
        i = next(i for i, e in enumerate(cycle) if graph.origin(e) == v)
        return cycle[i:] + cycle[:i]

    def arcs_between(v1, v2):
        arcs = []
        for u in sorted(v1):
            stack = [((e,), {graph.terminus(e)})
                     for e in graph.directions_at(u)
                     if graph.terminus(e) not in v1 or graph.terminus(e) in v2]
            while stack:
                path, seen = stack.pop()
                head = graph.terminus(path[-1])
                if head in v2:
                    arcs.append(path)
                    continue
                if head in v1:
                    continue
                for e in graph.directions_at(head):
                    w = graph.terminus(e)
                    if (e != -path[-1] and w not in v1
                            and (w not in seen or w in v2)):
                        stack.append((path + (e,), seen | {w}))
        return arcs

    found = {}
    for start in graph.oriented_edges():
        v0 = graph.origin(start)
        stack = [((start,), {graph.terminus(start)} - {v0})]
        while stack:
            path, visited = stack.pop()
            head = graph.terminus(path[-1])
            if head == v0:
                found.setdefault(canon(path), path)
                continue
            for e in graph.directions_at(head):
                w = graph.terminus(e)
                if w == v0 and e != -path[-1]:
                    stack.append((path + (e,), visited))
                elif w not in visited and w != v0:
                    stack.append((path + (e,), visited | {w}))
    circles = list(found.values())
    result = {canon(c): ("embedded-circle", c) for c in circles}
    for i, c1 in enumerate(circles):
        for c2 in circles[i + 1:]:
            v1 = {graph.origin(e) for e in c1}
            v2 = {graph.origin(e) for e in c2}
            if {abs(e) for e in c1} & {abs(e) for e in c2} or len(v1 & v2) != 1:
                continue
            (v,) = v1 & v2
            for second in (rotate(c2, v), inverse(rotate(c2, v))):
                loop = rotate(c1, v) + second
                result[canon(loop)] = ("figure-eight", loop)
    for i, c1 in enumerate(circles):
        for c2 in circles[i + 1:]:
            v1 = {graph.origin(e) for e in c1}
            v2 = {graph.origin(e) for e in c2}
            if v1 & v2:
                continue
            for arc in arcs_between(v1, v2):
                r1 = rotate(c1, graph.origin(arc[0]))
                r2 = rotate(c2, graph.terminus(arc[-1]))
                for second in (r2, inverse(r2)):
                    loop = r1 + arc + second + inverse(arc)
                    result[canon(loop)] = ("barbell", loop)
    return [result[key] for key in sorted(result)]


@pytest.fixture(scope="module")
def sample_graphs():
    """The fixtures, seeded graphs at ranks 2-5 and fold snapshots."""
    from outerspace.folding import standard_geodesic
    graphs = [R_unit(), theta4(), barbell()]
    for rank in (2, 3, 4, 5):
        group = FreeGroup(rank)
        for i in range(4):
            rng = random.Random(f"candidates:{rank}:{i}")
            G = random_marked_graph(rng, group, 3)
            graphs.append(G)
            if i < 2:
                Gp = random_marked_graph(rng, group, 3)
                graphs += [ev.graph for ev in
                           standard_geodesic(G, Gp).path.events]
    return graphs


def test_candidates_match_every_start_search(sample_graphs):
    # same shapes, edge tuples and order as the every-start search
    for G in sample_graphs:
        assert ([(c.shape, c.edges) for c in candidates(G)]
                == _every_start_candidates(G))


def test_candidates_met_once(sample_graphs):
    for G in sample_graphs:
        cs = candidates(G)
        keys = [c.canonical_key() for c in cs]
        assert len(set(keys)) == len(keys)
        for c in cs:
            if c.shape == "embedded-circle":
                # the least edge, crossed forwards, comes first
                assert c.edges[0] == min(abs(e) for e in c.edges)


def test_stretch_identity():
    R = R_skew()
    lam, _ = stretch_factor(R, R)
    assert lam == 1


def test_stretch_rose_pair_exact():
    lam, wit = stretch_factor(R_unit(), R_skew())
    assert lam == Fr(3, 2)
    assert wit.edges == (1,)
    lam2, _ = stretch_factor(R_skew(), R_unit())
    assert lam2 == Fr(4, 3)


def test_stretch_against_bruteforce_random():
    rng = random.Random(31)
    for _ in range(12):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        lam, _ = stretch_factor(G, Gp)
        blam, _ = brute_stretch(G, Gp)
        assert lam == blam


def test_triangle_inequality_exact():
    rng = random.Random(32)
    for _ in range(8):
        A = random_marked_graph(rng, F3, 3)
        B = random_marked_graph(rng, F3, 3)
        C = random_marked_graph(rng, F3, 3)
        ab, _ = stretch_factor(A, B)
        bc, _ = stretch_factor(B, C)
        ac, _ = stretch_factor(A, C)
        assert ac <= ab * bc


def test_distance_normalizes():
    R = rose(F3, [1, 1, 1])
    assert distance(R, R_unit()) == 1


def test_witness_length_bound():
    rng = random.Random(33)
    for _ in range(15):
        G = random_marked_graph(rng, F3, 3)   # volume 1 by construction
        Gp = random_marked_graph(rng, F3, 3)
        _, wit = stretch_factor(G, Gp)
        assert wit.length_in(G) < 2


def test_optimal_map_rose_pair():
    f = optimal_map(R_unit(), R_skew())
    assert f.slopes() == {1: Fr(3, 2), 2: Fr(3, 4), 3: Fr(3, 4)}
    assert f.tension_edges() == {1}


def test_optimal_map_identity_marking():
    f = optimal_map(R_skew(), R_skew())
    assert all(s == 1 for s in f.slopes().values())
    assert f.tension_edges() == {1, 2, 3}


def test_optimal_map_certification_random():
    rng = random.Random(34)
    for _ in range(15):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        lam, wit = stretch_factor(G, Gp)
        f = optimal_map(G, Gp, lam)
        assert f.sigma() == lam
        assert f.is_difference_of_markings()
        f.check_consistency()
        tens = f.tension_edges()
        assert all(abs(e) in tens for e in wit.edges)
        tt = f.gates(tens)
        assert is_legal(tt, wit.edges, cyclic=True)
        for v in set(G.origin(d) for d in G.directions_at(G.basepoint)):
            pass
        # every tension vertex met by the witness has >= 2 gates
        for e in wit.edges:
            v = G.origin(e)
            assert tt.gate_count(v) >= 2


def test_gates_definition_replay():
    f = optimal_map(R_unit(), R_skew())
    tt = f.gates(set(R_unit().edge_ends))
    for v in tt.gates:
        for g in tt.gates[v]:
            germs = {f.germ(d) for d in g}
            assert len(germs) == 1
    # directions in distinct gates have distinct germs
    all_dirs = [d for g in tt.gates[0] for d in g]
    for d1 in all_dirs:
        for d2 in all_dirs:
            same_gate = tt.gate_of(d1) is tt.gate_of(d2)
            assert same_gate == (f.germ(d1) == f.germ(d2))


def test_gates_collapsed_edge_rejected():
    f = optimal_map(R_unit(), R_skew())
    from outerspace.paths import TargetPath, vertex_point
    f.edge_images[2] = TargetPath(R_skew(), vertex_point(0))
    with pytest.raises(ValueError):
        f.gates({1, 2, 3})


def test_optimize_in_simplex_same_simplex():
    lengths, lam = optimize_in_simplex(R_unit(), R_skew())
    assert lam == 1
    assert lengths == {1: Fr(1, 2), 2: Fr(1, 4), 3: Fr(1, 4)}


def test_optimize_in_simplex_beats_samples():
    rng = random.Random(35)
    T = theta4()
    lengths, lam_star = optimize_in_simplex(R_unit(), T)
    X = R_unit().with_lengths(lengths)
    lamX, _ = stretch_factor(X, T)
    assert lamX == lam_star
    for _ in range(100):
        raw = {e: Fr(rng.randint(1, 12), 12) for e in R_unit().edge_ends}
        vol = sum(raw.values())
        Y = R_unit().with_lengths({e: l / vol for e, l in raw.items()})
        lamY, _ = stretch_factor(Y, T)
        assert lamY >= lam_star


def test_optimize_in_simplex_recurrent_structure():
    rng = random.Random(36)
    for _ in range(5):
        Gp = random_marked_graph(rng, F3, 3)
        lengths, lam_star = optimize_in_simplex(R_unit(), Gp)
        X = R_unit().with_lengths(lengths)
        f = optimal_map(X, Gp)
        assert f.tension_edges() == set(X.edge_ends)
        tt = f.gates(set(X.edge_ends))
        verdict = classify_recurrence(tt)
        assert verdict.kind in ("recurrent", "birecurrent")


def _assert_certified(G, Gp, lam, wit, f):
    assert f.sigma() == lam
    assert f.is_difference_of_markings()
    f.check_consistency()
    tens = f.tension_edges()
    assert all(abs(e) in tens for e in wit.edges)


@pytest.mark.parametrize("rank,twist", [(4, 4), (5, 3)])
def test_optimal_map_certification_higher_rank(rank, twist):
    # the pairs of the geodesic benchmark: the acceptance gate is rank 3
    group = FreeGroup(rank)
    rng = random.Random(40 + rank)
    for _ in range(8):
        G = random_marked_graph(rng, group, twist)
        Gp = random_marked_graph(rng, group, twist)
        lam, wit = stretch_factor(G, Gp)
        _assert_certified(G, Gp, lam, wit, optimal_map(G, Gp, lam))


def _rose_pair_needing_minus_e():
    rng = random.Random(47)
    G = random_marked_graph(rng, F3, 3)
    return G, random_rose(rng, F3, 3)


def test_optimal_map_leaves_rose_vertex_along_minus_e(monkeypatch):
    # three source vertices start on the rose's one vertex; no cell that
    # moves them only along +e of the petals lowers sigma, so the descent
    # must leave the vertex along -e of a loop edge
    G, Gp = _rose_pair_needing_minus_e()
    assert len(G.vertices) == 3
    lam, wit = stretch_factor(G, Gp)
    _assert_certified(G, Gp, lam, wit, optimal_map(G, Gp, lam))

    star = lipschitz._star

    def plus_e_only(f):
        return (combo for combo in star(f)
                if all(f.vertex_images[v][0] == "e" or x == 0
                       for v, (e, x) in combo.items()))

    monkeypatch.setattr(lipschitz, "_star", plus_e_only)
    with pytest.raises(OptimalMapError):
        optimal_map(G, Gp, lam)


def test_optimal_map_deterministic():
    G, Gp = _rose_pair_needing_minus_e()
    f1, f2 = optimal_map(G, Gp), optimal_map(G, Gp)
    assert f1.vertex_images == f2.vertex_images
    assert f1.edge_images == f2.edge_images


def test_optimal_map_error_carries_state(monkeypatch):
    G, Gp = _rose_pair_needing_minus_e()
    lam, wit = stretch_factor(G, Gp)
    monkeypatch.setattr(lipschitz, "_try_cell_lp", lambda f, sigma, combo: False)
    with pytest.raises(OptimalMapError) as info:
        optimal_map(G, Gp, lam)
    err = info.value
    assert err.lam == lam and err.sigma > lam
    assert err.steps == 0 and err.cells > 0
    assert f"{err.cells} cells tried" in str(err)


@pytest.fixture(scope="module")
def geodesic_snapshots():
    """rank -> the fold snapshots of each of some seeded standard
    geodesics at that rank."""
    from outerspace.folding import standard_geodesic
    paths = {}
    for rank, count in ((2, 4), (3, 2), (4, 4), (5, 2)):
        group = FreeGroup(rank)
        paths[rank] = []
        for i in range(count):
            rng = random.Random(f"kernel:{rank}:{i}")
            G = random_marked_graph(rng, group, 3)
            Gp = random_marked_graph(rng, group, 3)
            paths[rank].append([ev.graph for ev in
                                standard_geodesic(G, Gp).path.events])
    return paths


def _word_route_stretch(G, Gp):
    """The max over candidates by the word route, first maximum kept."""
    best = witness = None
    for cand in candidates(G):
        ratio = (Gp.translation_length(class_of_loop(G, cand.edges))
                 / cand.length_in(G))
        if best is None or ratio > best:
            best, witness = ratio, cand
    return best, witness


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_stretch_kernel_matches_word_route(geodesic_snapshots, rank):
    # every ordered pair of the rank's snapshots, across paths too
    snaps = [G for path in geodesic_snapshots[rank] for G in path]
    for G in snaps:
        for Gp in snaps:
            lam, wit = stretch_factor(G, Gp)
            ref, ref_wit = _word_route_stretch(G, Gp)
            assert lam == ref
            assert (wit.shape, wit.edges) == (ref_wit.shape, ref_wit.edges)


@pytest.mark.parametrize("rank", [2, 3])
def test_stretch_kernel_matches_brute_force(geodesic_snapshots, rank):
    for path in geodesic_snapshots[rank]:
        for G in path:
            for Gp in path:
                assert stretch_factor(G, Gp)[0] == brute_stretch(G, Gp)[0]


def _with_loop(G, i, loop):
    marking_in = dict(G.marking_in)
    marking_in[i] = loop
    return type(G)(G.group, G.vertices, G.edge_ends, G.lengths, marking_in,
                   G.marking_out, G.basepoint, G.subdivided)


@pytest.mark.parametrize("bad", [
    _with_loop(R_unit(), 2, (2, 9)),      # a rose loop through no edge 9
    _with_loop(theta4(), 1, (1, 2)),      # 1 ends where 2 does not start
])
def test_stretch_rejects_a_non_incident_marking(bad):
    assert bad.validate()
    with pytest.raises(ValueError):
        stretch_factor(R_skew(), bad)
    with pytest.raises(ValueError):
        optimize_in_simplex(theta4(), bad)


def _cell_lp(f, sigma, combo):
    """The LP of one cell, built and solved for every cell, kept as the
    reference for the test that skips cells where no tension edge can
    shorten.  Returns (value, x_new): the optimum and the offsets it
    moves the vertices to."""
    from outerspace import simplex_lp
    G, Gp = f.source, f.target
    verts = sorted(G.vertices)
    rows, nonneg = [], []
    for e in sorted(G.edge_ends):
        o, t = G.edge_ends[e]
        path = f.edge_images[e]
        if path.is_point() and combo[o] == combo[t]:
            for s in (1, -1):
                coef = {o: s}
                coef[t] = coef.get(t, 0) - s
                rows.append((coef, Fr(0), e))
            continue
        coef = {}
        for (v, d) in ((o, e), (t, -e)):
            coef[v] = coef.get(v, 0) + lipschitz._end_coefficient(
                f.germ(d), *combo[v])
        rows.append((coef, path.length(), e))
        if len(path.segs) == 1:
            nonneg.append((coef, path.length()))
    idx = {v: i for i, v in enumerate(verts)}
    nvar = 2 * len(verts) + 1
    A, b = [], []
    for coef, base, e in rows:
        row = [Fr(0)] * nvar
        for v, cv in coef.items():
            row[2 * idx[v]] += cv
            row[2 * idx[v] + 1] -= cv
        row[-1] = G.lengths[e]
        A.append(row)
        b.append(sigma * G.lengths[e] - base)
    for coef, base in nonneg:
        row = [Fr(0)] * nvar
        for v, cv in coef.items():
            row[2 * idx[v]] -= cv
            row[2 * idx[v] + 1] += cv
        A.append(row)
        b.append(base)
    for v in verts:
        e, x_cur = combo[v]
        for k, bound in ((0, Gp.lengths[e] - x_cur), (1, x_cur)):
            row = [Fr(0)] * nvar
            row[2 * idx[v] + k] = Fr(1)
            A.append(row)
            b.append(bound)
    c_obj = [Fr(0)] * (nvar - 1) + [Fr(1)]
    value, sol = simplex_lp.solve_lp_max(c_obj, A, b)
    return value, {v: combo[v][1] + sol[2 * idx[v]] - sol[2 * idx[v] + 1]
                   for v in verts}


def _unfiltered_try_cell_lp(f, sigma, combo):
    value, x_new = _cell_lp(f, sigma, combo)
    if value <= 0:
        return False
    lipschitz._transport(f, combo, x_new)
    assert f.sigma() == sigma - value
    return True


def _seeded_pairs():
    rng = random.Random(71)
    for rank in (3, 4):
        for _ in range(8):
            yield (random_marked_graph(rng, FreeGroup(rank), 5),
                   random_marked_graph(rng, FreeGroup(rank), 5))


def test_cells_skipped_without_lp_have_optimum_zero(monkeypatch):
    # a descent that tries every cell both ways: a cell rejected before
    # its LP has LP value <= 0, and every other cell moves exactly when
    # its LP value is positive
    from outerspace import simplex_lp
    solved = []
    solve = simplex_lp.solve_lp_max
    monkeypatch.setattr(simplex_lp, "solve_lp_max",
                        lambda *a: solved.append(1) or solve(*a))
    skipped = tried = 0
    for G, Gp in _seeded_pairs():
        lam, _ = stretch_factor(G, Gp)
        f = lipschitz.initial_difference_of_markings(G, Gp)
        while f.sigma() != lam:
            sigma = f.sigma()
            for combo in lipschitz._star(f):
                value, _ = _cell_lp(f, sigma, combo)
                before = len(solved)
                moved = lipschitz._try_cell_lp(f, sigma, combo)
                tried += 1
                assert moved == (value > 0)
                if len(solved) == before:
                    skipped += 1
                    assert value <= 0
                if moved:
                    break
            else:
                raise AssertionError("no cell lowers sigma")
    assert tried > 100 and skipped > tried // 4


def test_optimal_maps_equal_unfiltered_cell_lps(monkeypatch):
    pairs = list(_seeded_pairs())
    got = [optimal_map(G, Gp) for G, Gp in pairs]
    monkeypatch.setattr(lipschitz, "_try_cell_lp", _unfiltered_try_cell_lp)
    for f, (G, Gp) in zip(got, pairs):
        ref = optimal_map(G, Gp)
        assert f.vertex_images == ref.vertex_images
        assert f.edge_images == ref.edge_images
