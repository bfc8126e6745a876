import pickle
import random
from fractions import Fraction as Fr

import pytest

from outerspace import oracles
from outerspace.cli import main
from outerspace.lipschitz import _loop_canon
from outerspace.marked_graph import standard_marking
from outerspace.oracles import (OracleBudgetExceeded, all_short_loops,
                                minimal_level_set, whitehead_simple_oracle)
from outerspace.randomgen import random_cyclic_word, random_marked_graph
from outerspace.whitehead import (WhiteheadGraph, all_type_ii_automorphisms,
                                  apply_whitehead, greedy_descent,
                                  length_changes)
from outerspace.words import CyclicWord, FreeGroup


F3 = FreeGroup(3)


def cw(text):
    return CyclicWord(F3, F3.word(text).letters)


def theta4():
    ends = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    return standard_marking(F3, {0, 1}, ends, {e: Fr(1, 4) for e in ends}, 0)


def _every_start_loops(graph, max_crossings=2):
    """The loop enumeration that starts a DFS at every oriented edge and
    extends along every edge, keeping the first path met of each class."""
    found = {}
    edges = sorted(graph.edge_ends)
    index = {e: i for i, e in enumerate(edges)}
    for start in [s * e for e in edges for s in (1, -1)]:
        v0 = graph.origin(start)
        usage0 = [0] * len(edges)
        usage0[index[abs(start)]] = 1
        stack = [((start,), tuple(usage0))]
        while stack:
            path, usage = stack.pop()
            head = graph.terminus(path[-1])
            if head == v0 and path[-1] != -path[0]:
                found.setdefault(_loop_canon(path), tuple(path))
            for e in graph.directions_at(head):
                i = index[abs(e)]
                if e == -path[-1] or usage[i] >= max_crossings:
                    continue
                u2 = list(usage)
                u2[i] += 1
                stack.append((path + (e,), tuple(u2)))
    return list(found.values())


def _classes(loops):
    return {_loop_canon(loop) for loop in loops}


@pytest.mark.parametrize("rank, max_crossings, seed, count",
                         [(3, 2, 7, 4), (4, 1, 7, 4), (4, 2, 4, 2)])
def test_short_loops_from_least_edge_match_every_start(rank, max_crossings,
                                                       seed, count):
    # the same classes, met in the same order, with the same paths
    rng = random.Random(seed)
    group = FreeGroup(rank)
    for _ in range(count):
        G = random_marked_graph(rng, group, 2)
        loops = all_short_loops(G, max_crossings)
        assert len(loops) == len(_classes(loops))
        assert loops == _every_start_loops(G, max_crossings)


def _closure_by_scored_moves(w):
    """The minimal level set as greedy descent and graph-scored moves close
    it: breadth-first from the greedy minimum under the moves whose length
    change, read off the Whitehead graph, is 0.  No move may shorten."""
    current = greedy_descent(w)[-1]
    moves = all_type_ii_automorphisms(w.group)
    level = {current}
    frontier = [] if current.is_trivial() else [current]
    while frontier:
        nxt = []
        for u in frontier:
            for tau, change in zip(moves, length_changes(WhiteheadGraph(u),
                                                         moves)):
                assert change >= 0, (w, u, tau)
                if change > 0:
                    continue
                img = apply_whitehead(tau, u)
                if img not in level:
                    level.add(img)
                    nxt.append(img)
        frontier = nxt
    return level


@pytest.mark.parametrize("rank, count, lengths", [(2, 20, (6, 14)),
                                                  (3, 12, (4, 7)),
                                                  (4, 10, (5, 7))])
def test_level_set_matches_closure_by_scored_moves(rank, count, lengths):
    rng = random.Random(80 + rank)
    group = FreeGroup(rank)
    for _ in range(count):
        w = random_cyclic_word(rng, group, rng.randint(*lengths))
        assert minimal_level_set(greedy_descent(w)[-1]) == \
            _closure_by_scored_moves(w), w


def test_level_set_of_squares():
    level = minimal_level_set(cw("aabbcc"))
    assert len(level) == 328
    assert all(len(w) == 6 and len(w.support()) == 3 for w in level)


def test_level_set_rejects_a_word_that_is_not_minimal():
    # abc is primitive: some move takes it to a shorter word
    with pytest.raises(ValueError):
        minimal_level_set(cw("abc"))


def test_each_oracle_budget_raises_with_its_state():
    with pytest.raises(OracleBudgetExceeded) as info:
        all_short_loops(theta4(), budget=5)
    assert (info.value.oracle, info.value.budget, info.value.done) == \
        ("all_short_loops", 5, {"steps": 6, "loops": 2})

    with pytest.raises(OracleBudgetExceeded) as info:
        whitehead_simple_oracle(cw("aabbcc"), budget=10)
    assert (info.value.oracle, info.value.budget, info.value.done) == \
        ("whitehead_simple_oracle", 10, {"states": 11})
    assert str(info.value) == \
        "whitehead_simple_oracle exceeded its budget of 10 (states 11)"
    # minimal_level_set: test_whitehead.test_level_graph_reports_raise_when_capped


def test_budget_error_survives_pickling():
    # a worker process raising it must hand it back whole
    exc = OracleBudgetExceeded("all_short_loops", 5, {"steps": 6, "loops": 2})
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is OracleBudgetExceeded
    assert (back.oracle, back.budget, back.done) == \
        (exc.oracle, exc.budget, exc.done)
    assert str(back) == str(exc)


def test_experiment_budget_failure_exits_1(monkeypatch, capsys):
    def exhausted(G, Gp, max_crossings=2):
        raise OracleBudgetExceeded("all_short_loops", 5,
                                   {"steps": 6, "loops": 2})

    monkeypatch.setattr(oracles, "brute_stretch", exhausted)
    rc = main(["experiment", "--suite", "distance-oracle", "--instances", "1",
               "--seed", "7", "--workers", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: OracleBudgetExceeded: all_short_loops "
                            "exceeded its budget of 5 (steps 6, loops 2)\n")
