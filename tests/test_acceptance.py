"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Each test prints a single PASS line (run with `pytest -s` to see them
inline); a failed assertion is the FAIL signal.  All comparisons are
exact rational equality unless a criterion states otherwise.
"""

import itertools
import random
import time
from fractions import Fraction as Fr

import pytest

from outerspace.words import FreeGroup, CyclicWord, Word
from outerspace.lipschitz import (stretch_factor, optimal_map,
                                  optimize_in_simplex)
from outerspace.traintrack import (TrainTrackStructure, classify_recurrence,
                                   is_legal, find_spanning_legal_loop)
from outerspace.folding import standard_geodesic, path_statistics
from outerspace.whitehead import is_simple
from outerspace.factor_complex import (project, build_ball,
                                       check_reparam_quasigeodesic)
from outerspace.stallings import (core_graph, contains_element, conjugate_into,
                                  FactorHandle)
from outerspace import oracles
from outerspace.randomgen import (random_marked_graph, random_cyclic_word,
                                  random_word, random_automorphism)
from outerspace.cli import run_experiment


F3 = FreeGroup(3)


def _report(n, text):
    print(f"\n[ACCEPTANCE {n}] PASS: {text}")


@pytest.fixture(scope="module")
def seeded_pairs():
    rng = random.Random(1001)
    return [(random_marked_graph(rng, F3, 3), random_marked_graph(rng, F3, 3))
            for _ in range(50)]


@pytest.fixture(scope="module")
def optimal_maps(seeded_pairs):
    out = []
    for G, Gp in seeded_pairs:
        lam, wit = stretch_factor(G, Gp)
        out.append((G, Gp, lam, wit, optimal_map(G, Gp, lam)))
    return out


@pytest.fixture(scope="module")
def seeded_paths():
    rng = random.Random(2002)
    paths = []
    for _ in range(20):
        G = random_marked_graph(rng, F3, 3)
        Gp = random_marked_graph(rng, F3, 3)
        paths.append((G, Gp, standard_geodesic(G, Gp)))
    return paths


def test_01_candidate_sufficiency(seeded_pairs):
    t0 = time.monotonic()
    for G, Gp in seeded_pairs:
        lam, _ = stretch_factor(G, Gp)
        blam, _ = oracles.brute_stretch(G, Gp)
        assert lam == blam
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, f"candidate max = brute-force max exactly on 50/50 rank-3 "
               f"pairs in {elapsed:.1f}s")


def test_02_witness_bound(optimal_maps):
    for G, Gp, lam, wit, f in optimal_maps:
        assert G.volume() == 1
        assert wit.length_in(G) < 2
        tens = f.tension_edges()
        assert all(abs(e) in tens for e in wit.edges)
        tt = f.gates(tens)
        assert is_legal(tt, wit.edges, cyclic=True)
    _report(2, "witness length < 2 on volume-1 sources, legal and inside "
               "the tension graph, 50/50 instances")


def test_03_optimal_map_certification(optimal_maps):
    for G, Gp, lam, wit, f in optimal_maps:
        assert f.sigma() == lam
        tens = f.tension_edges()
        assert all(abs(e) in tens for e in wit.edges)
    _report(3, "sigma(optimal map) = lambda exactly on 50/50 instances; "
               "tension graph contains the witness")


def test_04_folding_geodesic_additivity(seeded_paths):
    t0 = time.monotonic()
    triples_checked = 0
    for G, Gp, sg in seeded_paths:
        snaps = [ev.graph.normalize() for ev in sg.path.events]
        lam_cache = {}

        def lam(i, j):
            if (i, j) not in lam_cache:
                lam_cache[(i, j)] = stretch_factor(snaps[i], snaps[j])[0]
            return lam_cache[(i, j)]

        n = len(snaps)
        for i, j, k in itertools.combinations(range(n), 3):
            assert lam(i, j) * lam(j, k) == lam(i, k)
            triples_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5 min"
    _report(4, f"exact additivity over {triples_checked} event-time triples "
               f"on 20 folding paths in {elapsed:.1f}s")


def test_05_illegal_turn_monotonicity(seeded_paths):
    rng = random.Random(3003)
    violations = 0
    for G, Gp, sg in seeded_paths:
        probes = [random_cyclic_word(rng, F3, rng.randint(2, 7))
                  for _ in range(10)]
        stats = path_statistics(sg.path, probe_loops=probes)
        for pi in range(len(probes)):
            seq = [row["loops"][pi]["illegal_turns"] for row in stats]
            if not all(x >= y for x, y in zip(seq, seq[1:])):
                violations += 1
    assert violations == 0
    _report(5, "illegal-turn counts non-increasing for 10 probe loops on "
               "each of 20 paths; zero violations")


def test_06_standard_geodesic_multiplicativity(seeded_paths):
    for G, Gp, sg in seeded_paths:
        lam, _ = stretch_factor(G, Gp)
        mid = sg.mid.normalize()
        lam1, _ = stretch_factor(G, mid)
        lam2, _ = stretch_factor(mid, Gp)
        assert lam1 * lam2 == lam
    _report(6, "lambda(G->G') = lambda(G->G_mid) * lambda(G_mid->G') "
               "exactly on 20 instances")


def _all_cyclic_classes_up_to(n):
    letters = [1, -1, 2, -2, 3, -3]
    classes = set()
    for L in range(1, n + 1):
        for tup in itertools.product(letters, repeat=L):
            if all(tup[i] != -tup[(i + 1) % L] for i in range(L)):
                cw = CyclicWord(F3, tup)
                if len(cw) == L:
                    classes.add(cw)
    return sorted(classes, key=lambda c: (len(c), c.letters))


def test_07_whitehead_oracle_agreement():
    t0 = time.monotonic()
    classes = _all_cyclic_classes_up_to(6)
    cache_orc = {}
    verdicts = {True: 0, False: 0}
    for cw in classes:
        v = is_simple(cw)
        o = oracles.whitehead_simple_oracle(cw, cache=cache_orc)
        assert v == o, f"mismatch on {cw}"
        verdicts[v] += 1
    rng = random.Random(4004)
    for _ in range(100):
        phi, _ = random_automorphism(rng, F3, rng.randint(1, 7))
        w = phi.apply(F3.word("a")).cyclic()
        assert is_simple(w)
    assert not is_simple(CyclicWord(F3, (1, 1, 2, 2, 3, 3)))
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"runtime {elapsed:.1f}s exceeds 10 min"
    _report(7, f"is_simple = oracle on all {len(classes)} cyclic words of "
               f"length <= 6 ({verdicts[True]} simple / {verdicts[False]} not); "
               f"100 primitive images simple; a2b2c2 non-simple; {elapsed:.1f}s")


def _random_tt(rng):
    """A random gate structure on a random rank-3 graph with <= 8 edges."""
    G = random_marked_graph(rng, F3, 2)
    gates = {}
    for v in G.vertices:
        dirs = list(G.directions_at(v))
        rng.shuffle(dirs)
        k = rng.randint(1, len(dirs))
        cells = [[] for _ in range(k)]
        for i, d in enumerate(dirs):
            cells[i % k].append(d)
        gates[v] = cells
    return TrainTrackStructure(G, gates)


def test_08_recurrence_classification():
    rng = random.Random(5005)
    for _ in range(100):
        tt = _random_tt(rng)
        assert len(tt.edge_support()) <= 8
        verdict = classify_recurrence(tt)
        expect = oracles.spanning_legal_loop_bruteforce(tt)
        assert verdict.is_recurrent() == expect
        loop = find_spanning_legal_loop(tt)
        assert (loop is not None) == expect
        if loop is not None:
            assert is_legal(tt, loop, cyclic=True)
            assert {abs(d) for d in loop} == tt.edge_support()
    # in-simplex minimizers induce recurrent structures and beat samples.
    # Rose simplices keep the minimum interior (every petal carries a
    # one-edge candidate, so lengths cannot degenerate at the optimum).
    from outerspace.randomgen import random_rose
    count_beat = 0
    for k in range(30):
        rng2 = random.Random(6000 + k)
        base = random_rose(rng2, F3, rng2.randint(0, 3))
        Gp = random_marked_graph(rng2, F3, 3)
        lengths, lam_star = optimize_in_simplex(base, Gp)
        X = base.with_lengths(lengths)
        lamX, witX = stretch_factor(X, Gp)
        assert lamX == lam_star
        f = optimal_map(X, Gp, lamX)
        assert f.tension_edges() == set(X.edge_ends)
        tt = f.gates(set(X.edge_ends))
        verdict = classify_recurrence(tt)
        assert verdict.kind in ("recurrent", "birecurrent")
        for _ in range(100):
            raw = {e: Fr(rng2.randint(1, 24), 24) for e in base.edge_ends}
            vol = sum(raw.values())
            Y = base.with_lengths({e: l / vol for e, l in raw.items()})
            lamY, _ = stretch_factor(Y, Gp)
            assert lamY >= lam_star
            count_beat += 1
    _report(8, f"classification = brute force on 100 random structures; 30 "
               f"minimizers recurrent/birecurrent and below {count_beat} samples")


def test_09_projection_diameter():
    rng = random.Random(7007)
    graphs = []
    while len(graphs) < 30:
        G = random_marked_graph(rng, F3, 3)
        img = project(G)
        if all(h.edge_count() <= 6 for h in img):
            graphs.append((G, img))
    seeds = {}
    for _, img in graphs:
        for h in img:
            seeds[h.code] = h
    ball = build_ball(F3, seeds=list(seeds.values()), bound=6,
                      aut_product_length=2, vertex_cap=6000)
    worst = 0
    for _, img in graphs:
        handles = list(img)
        for i in range(len(handles)):
            for j in range(i + 1, len(handles)):
                d = ball.distance_upper(handles[i], handles[j])
                assert d is not None and d <= 4, (d,)
                worst = max(worst, d)
    _report(9, f"projected-factor pairs of 30 random graphs at ball-distance "
               f"<= 4 (worst {worst}) in a bound-6 ball of {len(ball.handles)} factors")


def test_10_stallings_correctness():
    rng = random.Random(8008)
    # membership vs enumeration to length 8
    for _ in range(6):
        gens = [random_word(rng, F3, rng.randint(1, 4)) for _ in range(2)]
        gens = [g for g in gens if len(g)]
        if not gens:
            continue
        H = core_graph(gens, based=True)
        members = oracles.subgroup_elements_up_to(gens, 8)
        probe = set(members)
        for _ in range(300):
            w = random_word(rng, F3, rng.randint(0, 8))
            probe.add(w.letters)
        for letters in probe:
            w = Word(F3, letters)
            if len(w) <= 8:
                assert contains_element(H, w) == (letters in members)
    # conjugate containment vs conjugator search to length 6
    for _ in range(8):
        hw = [random_word(rng, F3, rng.randint(1, 3))]
        kw = [random_word(rng, F3, rng.randint(1, 3)),
              random_word(rng, F3, rng.randint(1, 3))]
        hw = [w for w in hw if len(w)]
        kw = [w for w in kw if len(w)]
        if not hw or not kw:
            continue
        got, _ = conjugate_into(core_graph(hw, based=False),
                                core_graph(kw, based=False))
        expect = oracles.conjugate_into_bruteforce(hw, kw, 6)
        assert got == expect
    # canonical codes constant over 100 re-presentations
    rng2 = random.Random(9009)
    F2 = FreeGroup(2)
    base = FactorHandle.from_words([F3.word("a"), F3.word("b")])
    for _ in range(100):
        phi2, _ = random_automorphism(rng2, F2, rng2.randint(1, 5))
        imgs = [Word(F3, im.letters) for im in phi2.images]
        g = random_word(rng2, F3, rng2.randint(0, 3))
        h = FactorHandle.from_words([g * w * g.inverse() for w in imgs])
        assert h.code == base.code
    _report(10, "membership = length-8 enumeration; conjugate containment = "
                "length-6 conjugator search; codes constant over 100 "
                "re-presentations")


def test_11_quasigeodesic_experiment():
    rng = random.Random(1111)
    certified = 0
    progress_rows = 0
    total_events = 0
    for k in range(10):
        G = random_marked_graph(rng, F3, 5)
        Gp = random_marked_graph(rng, F3, 5)
        sg = standard_geodesic(G, Gp)
        images = [project(ev.graph) for ev in sg.path.events]
        total_events += len(images) - 1
        seeds = {h.code: h for img in images for h in img}
        bound = max([8] + [h.edge_count() for h in seeds.values()])
        ball = build_ball(F3, seeds=list(seeds.values()), bound=bound,
                          aut_product_length=2, vertex_cap=6000)
        report = check_reparam_quasigeodesic(images, K=6, ball=ball)
        assert report.ok, f"no certificate on path {k}"
        certified += 1
        progress_rows += len(report.progress_table)
    # the constructed teleporting sequence must fail
    img_a = [FactorHandle.from_words([F3.word("a")])]
    img_b = [FactorHandle.from_words([F3.word("b")])]
    tele_ball = build_ball(F3, bound=4, aut_product_length=2)
    tele = check_reparam_quasigeodesic([img_a, img_b] * 3, K=1, ball=tele_ball)
    assert not tele.ok
    _report(11, f"subdivision certificates with K=6 on {certified}/10 long "
                f"paths ({total_events} events, {progress_rows} progress rows); "
                f"teleport test fails as designed")


def test_12_determinism():
    suites = ["distance-oracle", "whitehead-oracle", "fold-additivity"]
    for suite in suites:
        reports = set()
        for workers in (1, 4, 8):
            _, rep = run_experiment(suite, seed=31337, instances=5,
                                    workers=workers)
            reports.add(rep)
        assert len(reports) == 1, f"suite {suite} not deterministic"
    _report(12, "byte-identical reports for three suites at 1, 4 and 8 workers")
