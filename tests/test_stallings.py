import random

import pytest

from outerspace.words import FreeGroup, Word
from outerspace.stallings import (core_graph, contains_element,
                                  conjugate_into, canonical_code, FactorHandle,
                                  express_in_generators)
from outerspace.oracles import subgroup_elements_up_to, conjugate_into_bruteforce
from outerspace.randomgen import random_word, random_automorphism


F3 = FreeGroup(3)


def test_single_loop():
    H = core_graph([F3.word("a")], based=True)
    assert len(H.vertices) == 1 and len(H.edges) == 1
    assert contains_element(H, F3.word("a") ** 3)


def test_conjugate_generator_core_shape():
    # <a, b a b^-1>: two vertices, three edges, rank 2 (checked by hand,
    # cross-checked against the membership oracle below)
    H = core_graph([F3.word("a"), F3.word([2, 1, -2])], based=True)
    assert len(H.vertices) == 2
    assert len(H.edges) == 3
    assert H.rank() == 2
    assert not contains_element(H, F3.word("ab"))


def test_cyclic_cores_of_conjugates_coincide():
    c1 = core_graph([F3.word("ab")], based=False)
    c2 = core_graph([F3.word("ba")], based=False)
    assert canonical_code(c1) == canonical_code(c2)


def test_identity_membership():
    H = core_graph([F3.word("ab"), F3.word("c")], based=True)
    assert contains_element(H, F3.identity())


def test_membership_against_enumeration():
    rng = random.Random(11)
    for _ in range(8):
        gens = [random_word(rng, F3, rng.randint(1, 4)) for _ in range(2)]
        gens = [g for g in gens if len(g) > 0]
        if not gens:
            continue
        H = core_graph(gens, based=True)
        members = subgroup_elements_up_to(gens, 6)
        universe = set()
        frontier = [F3.identity()]
        for _ in range(6):
            nxt = []
            for w in frontier:
                for x in F3.all_letters():
                    u = w * Word(F3, [x])
                    if len(u) == len(w) + 1 and u.letters not in universe:
                        universe.add(u.letters)
                        nxt.append(u)
            frontier = nxt
        for letters in universe:
            w = Word(F3, letters)
            assert contains_element(H, w) == (letters in members), letters


def test_conjugate_into_trivial_cases():
    H = core_graph([F3.word([2, 1, -2])], based=False)   # <b a b^-1>
    K = core_graph([F3.word("a")], based=False)
    ok, morphism = conjugate_into(H, K)
    assert ok and morphism is not None
    ok2, _ = conjugate_into(core_graph([F3.word("ab")], based=False),
                            core_graph([F3.word("a"), F3.word("b")], based=False))
    assert ok2
    ok3, _ = conjugate_into(core_graph([F3.word("a")], based=False),
                            core_graph([F3.word("b"), F3.word("c")], based=False))
    assert not ok3


def test_conjugate_into_against_bruteforce():
    rng = random.Random(12)
    for _ in range(10):
        hw = [random_word(rng, F3, rng.randint(1, 3))]
        kw = [random_word(rng, F3, rng.randint(1, 3)),
              random_word(rng, F3, rng.randint(1, 3))]
        hw = [w for w in hw if len(w)]
        kw = [w for w in kw if len(w)]
        if not hw or not kw:
            continue
        H = core_graph(hw, based=False)
        K = core_graph(kw, based=False)
        got, _ = conjugate_into(H, K)
        expect = conjugate_into_bruteforce(hw, kw, 6)
        # the brute force can only certify positives up to conjugator
        # length 6; equality of negatives relies on small cores
        if expect:
            assert got
        else:
            assert not got


def test_morphism_is_label_preserving_and_locally_injective():
    H = core_graph([F3.word("ab")], based=False)
    K = core_graph([F3.word("a"), F3.word("b")], based=False)
    ok, vmap = conjugate_into(H, K)
    assert ok
    for (o, t, lab) in H.edges:
        assert K.rows[vmap[o]].get(lab) == vmap[t]
        assert K.rows[vmap[t]].get(-lab) == vmap[o]


def test_conjugate_into_reflexive_transitive():
    rng = random.Random(13)
    cores = []
    for _ in range(6):
        ws = [random_word(rng, F3, rng.randint(1, 3)) for _ in range(2)]
        ws = [w for w in ws if len(w)]
        if ws:
            cores.append(core_graph(ws, based=False))
    for c in cores:
        assert conjugate_into(c, c)[0]
    for a in cores:
        for b in cores:
            for c in cores:
                if conjugate_into(a, b)[0] and conjugate_into(b, c)[0]:
                    assert conjugate_into(a, c)[0]


def _turns(core):
    """The turns of a core: pairs of signed labels leaving one vertex."""
    return {frozenset((x, y)) for row in core.rows.values()
            for x in row for y in row if x != y}


def _random_cores(rng, group, count):
    """Cores of random subgroups, each followed by a core of a subgroup
    of a conjugate of it, so that some pairs conjugate in."""
    cores = []
    for _ in range(count):
        gens = [random_word(rng, group, rng.randint(1, 4)) for _ in range(2)]
        gens = [g for g in gens if len(g)]
        if not gens:
            continue
        cores.append(core_graph(gens, based=False))
        u = random_word(rng, group, rng.randint(0, 3))
        sub = [u * gens[rng.randrange(len(gens))] * gens[-1] * u.inverse()]
        if len(sub[0]):
            cores.append(core_graph(sub, based=False))
    return cores


@pytest.mark.parametrize("rank", [3, 4])
def test_containment_needs_nested_turns(rank):
    from outerspace.stallings import _walk
    cores = _random_cores(random.Random(40 + rank), FreeGroup(rank), 12)
    turns = [_turns(c) for c in cores]
    masks = [_walk(c)[2] for c in cores]
    contained = 0
    for i, H in enumerate(cores):
        for j, K in enumerate(cores):
            nested = turns[i] <= turns[j]
            assert (not masks[i] & ~masks[j]) == nested
            if conjugate_into(H, K)[0]:
                contained += 1
                assert nested
    assert contained > len(cores)     # more than the pairs (H, H)


def _reference_conjugate_into(H, K):
    """The vertex map found by a walk from H's least vertex, tried from
    every vertex of K in order, least first.  The walk reads each row in
    label order, not in the row's own order as ``_walk`` does: in a
    folded K the map is fixed by the image of the least vertex."""
    h0 = min(H.vertices)
    walk, queue = [], [h0]
    for v in queue:
        for lab, w in sorted(H.rows[v].items()):
            walk.append((v, lab, w))
            if w not in queue:
                queue.append(w)
    for seed in sorted(K.vertices):
        vmap = {h0: seed}
        for (v, lab, w) in walk:
            img = K.rows[vmap[v]].get(lab)
            if img is None or vmap.setdefault(w, img) != img:
                break
        else:
            return True, vmap
    return False, None


def test_conjugate_into_vertex_maps_unchanged():
    # the cases of the trivial-case and brute-force tests above
    rng = random.Random(12)
    pairs = [([F3.word([2, 1, -2])], [F3.word("a")]),
             ([F3.word("ab")], [F3.word("a"), F3.word("b")]),
             ([F3.word("a")], [F3.word("b"), F3.word("c")])]
    for _ in range(10):
        hw = [random_word(rng, F3, rng.randint(1, 3))]
        kw = [random_word(rng, F3, rng.randint(1, 3)),
              random_word(rng, F3, rng.randint(1, 3))]
        pairs.append(([w for w in hw if len(w)], [w for w in kw if len(w)]))
    found = 0
    for hw, kw in pairs:
        if not hw or not kw:
            continue
        H, K = core_graph(hw, based=False), core_graph(kw, based=False)
        got = conjugate_into(H, K)
        assert got == _reference_conjugate_into(H, K)
        found += got[0]
    assert found >= 2


def test_codes_separate_factors():
    h1 = FactorHandle.from_words([F3.word("a")])
    h2 = FactorHandle.from_words([F3.word([3, 1, -3])])
    assert h1 == h2
    h3 = FactorHandle.from_words([F3.word("a"), F3.word("b")])
    h4 = FactorHandle.from_words([F3.word("a"), F3.word("c")])
    assert h3 != h4


def test_code_constant_over_representations():
    # re-present <a,b> by images under automorphisms fixing the factor
    rng = random.Random(14)
    F2 = FreeGroup(2)
    base = FactorHandle.from_words([F3.word("a"), F3.word("b")])
    for _ in range(100):
        phi2, _ = random_automorphism(rng, F2, rng.randint(1, 5))
        images = []
        for img in phi2.images:
            images.append(Word(F3, img.letters))
        g = random_word(rng, F3, rng.randint(0, 3))
        images = [g * w * g.inverse() for w in images]
        h = FactorHandle.from_words(images)
        assert h == base


def test_folding_confluent_under_generator_permutation():
    rng = random.Random(15)
    for _ in range(20):
        gens = [random_word(rng, F3, rng.randint(1, 4)) for _ in range(3)]
        gens = [g for g in gens if len(g)]
        if len(gens) < 2:
            continue
        perm = gens[::-1]
        c1 = core_graph(gens, based=False)
        c2 = core_graph(perm, based=False)
        assert canonical_code(c1) == canonical_code(c2)


def test_express_in_generators_roundtrip():
    loops = [(1, 2), (2,), (3, -1)]
    targets = [(1,), (3,), (1, 2, 3)]
    exprs = express_in_generators(loops, targets)
    for target, expr in zip(targets, exprs):
        letters = []
        for x in expr:
            w = loops[abs(x) - 1]
            letters.extend(w if x > 0 else [-t for t in reversed(w)])
        from outerspace.words import free_reduce
        assert tuple(free_reduce(letters)) == target


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        core_graph([], based=True)


def test_json_and_dot_exports():
    from outerspace.stallings import SubgroupCoreGraph, folded_core
    H = core_graph([F3.word("a"), F3.word([2, 1, -2])], based=True)
    data = H.to_json()
    assert data["basepoint"] == H.basepoint
    assert len(data["edges"]) == 3
    dot = H.to_dot()
    assert "digraph" in dot
    # based and cyclic cores, and the one-vertex core of a tree, read
    # back from their JSON
    graphs = [H, core_graph([F3.word("abAc"), F3.word("bb")], based=False),
              folded_core([(0, 1, (1, 2)), (0, 2, (3,))])]
    assert graphs[2].vertices == {0} and not graphs[2].edges
    for g in graphs:
        back = SubgroupCoreGraph.from_json(g.to_json(), 3)
        assert (back.vertices, back.edges, back.rows, back.basepoint) == \
            (g.vertices, g.edges, g.rows, g.basepoint)
        assert back.to_json() == g.to_json()


@pytest.mark.parametrize("vertices, edges, basepoint", [
    ([0, 1], [(0, 2, "a")], None),           # an edge names an unlisted vertex
    ([0], [(0, 0, "z")], None),              # a label outside rank 3
    ([0], [(0, 0, "ab")], None),             # a label of two letters
    ([0, 1], [(0, 0, "a"), (0, 1, "a")], None),   # not folded
    ([0, 1, 2], [(0, 1, "a"), (2, 1, "a")], None),   # not folded at 1
    ([0], [(0, 0, "a")], 1),                 # an unlisted basepoint
], ids=["unlisted-vertex", "label-outside-rank", "two-letter-label",
        "unfolded-at-0", "unfolded-at-1", "unlisted-basepoint"])
def test_from_json_rejects(vertices, edges, basepoint):
    from outerspace.stallings import SubgroupCoreGraph
    data = {"vertices": vertices,
            "edges": [{"from": o, "to": t, "label": lab}
                      for (o, t, lab) in edges]}
    if basepoint is not None:
        data["basepoint"] = basepoint
    with pytest.raises(ValueError):
        SubgroupCoreGraph.from_json(data, 3)


def test_from_edges_rejects_unfolded_pairs():
    from outerspace.stallings import SubgroupCoreGraph
    for edges in ([(0, 1, 1), (0, 2, 1)], [(1, 0, 2), (2, 0, 2)],
                  [(0, 0, 1), (0, 1, -1)]):
        with pytest.raises(ValueError):
            SubgroupCoreGraph.from_edges({0, 1, 2}, edges)
    # the same edge twice is one edge
    g = SubgroupCoreGraph.from_edges({0, 1}, [(0, 1, 1), (1, 0, -1)])
    assert g.edges == {(0, 1, 1)} and g.rows == {0: {1: 1}, 1: {-1: 0}}


@pytest.mark.parametrize("loops, targets", [
    ([(1,), (1,)], [(1,)]),                  # not free
    ([(1, 2), (), (3,)], [(3,)]),            # an empty loop
    ([(1, 1), (2,), (3,)], [(1,)]),          # target outside the subgroup
    ([(1, 1), (2,)], [(1, 2, 1)]),           # target leaves the folded wedge
])
def test_express_in_generators_rejects(loops, targets):
    with pytest.raises(ValueError):
        express_in_generators(loops, targets)


def test_express_in_generators_inverts_automorphisms():
    # loops = images of phi, targets = generators: the answer is phi^-1
    rng = random.Random(21)
    for rank in (2, 3, 4):
        F = FreeGroup(rank)
        for k in range(20):
            phi, phi_inv = random_automorphism(rng, F, k % 9)
            exprs = express_in_generators([im.letters for im in phi.images],
                                          [(j,) for j in range(1, rank + 1)])
            assert exprs == [w.letters for w in phi_inv.images]


def test_fold_names_vertices_by_least_id():
    # single-letter and empty arcs on given vertices: every class of
    # folded vertices keeps its least id, whatever the order of the arcs
    from outerspace.stallings import fold_labeled_graph
    rng = random.Random(31)
    for _ in range(40):
        arcs = [(rng.randrange(9), rng.randrange(9),
                 rng.choice([(), (1,), (-1,), (2,), (-2,)]))
                for _ in range(rng.randint(1, 12))]
        arcs.append((0, rng.randrange(9), (3,)))
        first = fold_labeled_graph(arcs, basepoint=0)
        assert first.basepoint == 0
        _assert_rows_hold_edges(first)
        for _ in range(5):
            rng.shuffle(arcs)
            again = fold_labeled_graph(arcs, basepoint=0)
            assert again.vertices == first.vertices
            assert again.edges == first.edges
            assert again.rows == first.rows


def _assert_rows_hold_edges(graph):
    """rows[v][a] == w exactly when rows[w][-a] == v, and the entries
    with a > 0 are the edges."""
    rows = graph.rows
    assert set(rows) == graph.vertices
    for v, row in rows.items():
        for a, w in row.items():
            assert a and rows[w].get(-a) == v
    assert {(v, w, a) for v, row in rows.items() for a, w in row.items()
            if a > 0} == graph.edges
    assert sum(map(len, rows.values())) == 2 * len(graph.edges)


def _trim_by_rounds(graph, keep_basepoint):
    """The former pruning, kept as a reference: each round drops every
    valence-<2 vertex at once and rebuilds the graph."""
    from outerspace.stallings import SubgroupCoreGraph
    g = graph
    while True:
        deg = g.degrees()
        victims = {v for v in g.vertices if deg[v] < 2
                   and not (keep_basepoint and v == g.basepoint)}
        if not victims:
            return g
        verts = g.vertices - victims
        edges = {(o, t, lab) for (o, t, lab) in g.edges
                 if o not in victims and t not in victims}
        if not verts:
            return SubgroupCoreGraph.from_edges(
                {0 if g.basepoint is None else g.basepoint}, set(), g.basepoint)
        g = SubgroupCoreGraph.from_edges(verts, edges, g.basepoint)


@pytest.mark.parametrize("keep_basepoint", [True, False])
def test_folded_core_matches_rounds(keep_basepoint):
    # random folded graphs with hairs, trees and several components; the
    # basepoint is kept if given, so the cyclic case folds without one
    from outerspace.stallings import fold_labeled_graph, folded_core
    rng = random.Random(41)
    trivial = 0
    for _ in range(300):
        arcs = [(rng.randrange(10), rng.randrange(10),
                 tuple(rng.choice([1, -1, 2, -2, 3, -3])
                       for _ in range(rng.randint(0, 3))))
                for _ in range(rng.randint(1, 6))]
        arcs.append((0, rng.randrange(10), (rng.choice([1, 2, 3]),)))
        bp = rng.choice([None, 0]) if keep_basepoint else None
        got = folded_core(arcs, bp)
        ref = _trim_by_rounds(fold_labeled_graph(arcs, basepoint=bp),
                              keep_basepoint)
        assert (got.vertices, got.edges, got.rows, got.basepoint) == \
            (ref.vertices, ref.edges, ref.rows, ref.basepoint)
        _assert_rows_hold_edges(got)
        trivial += not got.edges
    assert trivial > 0


def test_folded_core_of_a_tree_is_one_vertex():
    from outerspace.stallings import fold_labeled_graph, folded_core
    arcs = [(0, 1, (1, 2)), (0, 2, (3,))]
    core = folded_core(arcs)
    assert (core.vertices, core.edges, core.basepoint) == ({0}, set(), None)
    ref = _trim_by_rounds(fold_labeled_graph(arcs), False)
    assert (core.vertices, core.edges, core.basepoint) == \
        (ref.vertices, ref.edges, ref.basepoint)


def _word_fold_graph(arcs, basepoint):
    """The folded graph of arcs by the word-carrying fold with empty
    words, the reference for the plain fold.  basepoint is 0 or None;
    0 is the least id, so its class keeps it."""
    from outerspace.stallings import SubgroupCoreGraph, _fold_words
    out = _fold_words((o, t, letters, ()) for o, t, letters in arcs)
    assert all(u == () for row in out.values() for _, u in row.values())
    edges = [(v, w, a) for v, row in out.items()
             for a, (w, _) in row.items() if a > 0]
    return SubgroupCoreGraph.from_edges(out, edges, basepoint)


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_plain_fold_matches_word_fold(seed):
    # long, empty and single-letter arcs, unreduced, on up to three
    # components with disjoint vertex ids
    from outerspace.stallings import fold_labeled_graph, folded_core
    rng = random.Random(seed)
    merged = several = 0
    for _ in range(150):
        components = rng.randint(1, 3)
        arcs = []
        for c in range(components):
            for _ in range(rng.randint(1, 5)):
                length = rng.choice([0, 0, 1, 3, rng.randint(6, 16)])
                arcs.append((10 * c + rng.randrange(5),
                             10 * c + rng.randrange(5),
                             tuple(rng.choice([1, -1, 2, -2, 3, -3])
                                   for _ in range(length))))
        arcs.append((0, rng.randrange(5), (rng.choice([1, 2, 3]),)))
        bp = rng.choice([None, 0])
        ref = _word_fold_graph(arcs, bp)
        got = fold_labeled_graph(arcs, bp)
        assert (got.vertices, got.edges, got.rows, got.basepoint) == \
            (ref.vertices, ref.edges, ref.rows, ref.basepoint)
        _assert_rows_hold_edges(got)
        core = folded_core(arcs, bp)
        ref_core = _trim_by_rounds(ref, bp is not None)
        assert (core.vertices, core.edges, core.rows, core.basepoint) == \
            (ref_core.vertices, ref_core.edges, ref_core.rows,
             ref_core.basepoint)
        _assert_rows_hold_edges(core)
        naive = 1 + max(x for arc in arcs for x in arc[:2]) + sum(
            max(len(letters) - 1, 0) for _, _, letters in arcs)
        merged += len(got.vertices) < naive
        several += components > 1
    assert merged > 100 and several > 50


def _code_from_every_start(graph):
    """canonical_code with a full BFS from every start vertex."""
    if not graph.vertices:
        return b"empty"
    best = None
    labels = sorted({lab for (_, _, lab) in graph.edges})
    signed = [s * l for l in labels for s in (1, -1)]
    for start in sorted(graph.vertices):
        number = {start: 0}
        order = [start]
        rows = []
        for v in order:
            row = []
            for lab in signed:
                w = graph.rows[v].get(lab)
                if w is None:
                    row.append(-1)
                    continue
                if w not in number:
                    number[w] = len(order)
                    order.append(w)
                row.append(number[w])
            rows.append(tuple(row))
        code = (tuple(labels), tuple(rows))
        if best is None or code < best:
            best = code
    return repr(best).encode()


def test_canonical_code_from_least_first_rows_matches_every_start():
    from outerspace.factor_complex import build_ball, project
    from outerspace.folding import standard_geodesic
    from outerspace.randomgen import random_marked_graph
    cores = [h.core for h in
             build_ball(F3, bound=4, aut_product_length=2).handles.values()]
    rng = random.Random(10)
    for rank in (3, 4, 5):
        group = FreeGroup(rank)
        G = random_marked_graph(rng, group, 3)
        Gp = random_marked_graph(rng, group, 3)
        for ev in standard_geodesic(G, Gp).path.events:
            cores += [h.core for h in project(ev.graph)]
    # cycles with letters repeated, where several starts share the least
    # first row
    for _ in range(100):
        gens = [random_word(rng, F3, rng.randint(1, 8)) for _ in range(2)]
        cores.append(core_graph([g for g in gens if len(g)] or [F3.word("a")],
                                based=False))
    # cycles whose starts all look alike: the cyclic cores of (ab)^n at
    # 150, 300 and 600 vertices
    cores += [core_graph([F3.word("ab" * n)], based=False)
              for n in (75, 150, 300)]
    assert max(len(core.vertices) for core in cores) >= 5
    for core in cores:
        assert canonical_code(core) == _code_from_every_start(core)


def test_canonical_code_skips_starts_in_one_orbit():
    # the 300 starts of (ab)^300's 600-vertex cycle that have the least
    # first row are one orbit of its rotations; a BFS from each of them
    # took 0.2 s
    import time
    core = core_graph([F3.word("ab" * 300)], based=False)
    t0 = time.process_time()
    canonical_code(core)
    assert time.process_time() - t0 < 0.1


def _stack_fold(arcs, basepoint=None):
    """The fold that adds every letter as an edge before any merge, kept
    as the reference for reading arcs in: each arc is cut into one edge
    per letter through vertices numbered above every given end, and one
    stack merges equally labeled edges, the larger end into the smaller."""
    arcs = list(arcs)
    fresh = 1 + max((x for arc in arcs for x in arc[:2]), default=0)
    out, alias, stack = {}, {}, []
    for o, t, letters in arcs:
        ends = [o, *range(fresh, fresh + len(letters) - 1), t]
        fresh += max(len(letters) - 1, 0)
        for v in ends:
            out.setdefault(v, {})
        if not letters:
            stack.append((o, 0, t))
        for k, a in enumerate(letters):
            stack.append((ends[k], a, ends[k + 1]))
    while stack:
        v, a, w = stack.pop()
        while v in alias:
            v = alias[v]
        while w in alias:
            w = alias[w]
        if not a:
            y1, y2 = v, w
        elif a in out[v]:
            y1, y2 = out[v][a], w
        elif -a in out[w]:
            y1, y2 = out[w][-a], v
        else:
            out[v][a] = w
            out[w][-a] = v
            continue
        if y1 == y2:
            continue
        y1, y2 = min(y1, y2), max(y1, y2)
        alias[y2] = y1
        for b, x in out.pop(y2).items():
            if x != y2:
                del out[x][-b]
            stack.append((y2, b, x))
        if a:
            stack.append((v, a, w))
    while basepoint in alias:
        basepoint = alias[basepoint]
    return out, basepoint


@pytest.mark.parametrize("seed", [61, 62])
def test_read_in_fold_matches_stack_fold(seed):
    # arcs drawn from a few words that share prefixes and suffixes, so
    # later arcs read along earlier ones; empty arcs, loops, backtracks
    # and arcs that close onto their own first letter (a w a^-1 at one
    # vertex), with and without a basepoint
    from outerspace.stallings import _fold
    rng = random.Random(seed)
    letters = [1, -1, 2, -2, 3, -3]
    kinds = dict.fromkeys(("empty", "loop", "backtrack", "closing"), 0)
    for _ in range(400):
        stems = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                 for _ in range(3)]
        arcs = []
        for _ in range(rng.randint(1, 7)):
            o, t = rng.randrange(5), rng.randrange(5)
            pick = rng.randrange(6)
            if pick == 0:
                word = ()
            elif pick == 1:
                a = rng.choice(letters)
                word = (a, *rng.choice(stems), -a)
                t = o
            else:
                word = rng.choice(stems) + rng.choice(((),) + tuple(stems))
            arcs.append((o, t, word))
            kinds["empty"] += not word
            kinds["loop"] += bool(word) and o == t
            kinds["closing"] += pick == 1
            kinds["backtrack"] += any(x == -y for x, y in zip(word, word[1:]))
        bp = rng.choice([None, arcs[0][0]])
        assert _fold(arcs, bp) == _stack_fold(arcs, bp)
    assert min(kinds.values()) > 100


def test_read_in_fold_by_hand():
    from outerspace.stallings import _fold
    # a b a^-1 at 0 closes onto its first letter: the two ends of the
    # a-edges meet in vertex 1, which carries the b-loop
    assert _fold([(0, 0, (1, 2, -1))]) == ({0: {1: 1}, 1: {-1: 0, 2: 1, -2: 1}},
                                          None)
    # the second arc reads a b along the first, to vertex 1, and adds
    # c c as a loop there; of its interior vertices 3, 4 and 5, reading
    # skips 3 and 4 and the middle c c keeps 5
    arcs = [(0, 1, (1, 2)), (0, 1, (1, 2, 3, 3))]
    assert _fold(arcs, 0) == _stack_fold(arcs, 0) == (
        {0: {1: 2}, 1: {-2: 2, 3: 5, -3: 5}, 2: {-1: 0, 2: 1},
         5: {-3: 1, 3: 1}}, 0)
