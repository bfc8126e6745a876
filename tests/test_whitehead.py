import json
import random

import pytest

from outerspace import whitehead
from outerspace.words import FreeGroup, CyclicWord, Word
from outerspace.cli import main
from outerspace.whitehead import (WhiteheadGraph, connectivity_report,
                                  WhiteheadAutomorphism, apply_whitehead,
                                  reduce_to_minimal, is_simple,
                                  all_type_ii_automorphisms, outer_moves,
                                  greedy_descent, length_changes)
from outerspace.oracles import (whitehead_simple_oracle, minimal_level_set,
                                OracleBudgetExceeded)
from outerspace.randomgen import random_automorphism, random_cyclic_word


F3 = FreeGroup(3)
F4 = FreeGroup(4)


def cw(text):
    return CyclicWord(F3, F3.word(text).letters)


def _total_multiplicity(W):
    """The number of edges of a Whitehead graph, with multiplicity."""
    return sum(W.edges.values())


def _rotations(w):
    """Every rotation of a cyclic word's letters."""
    n = len(w.letters)
    return [w.letters[r:] + w.letters[:r] for r in range(n)]


def _omitting(res):
    """The classes of the greedy minimum's level set that omit a generator."""
    rank = res.descent[-1].group.rank
    return {w for w in minimal_level_set(res.descent[-1])
            if len(w.support()) < rank}


def test_graph_of_abc_is_perfect_matching():
    W = WhiteheadGraph(cw("abc"))
    assert W.multiplicity(-1, 2) == 1
    assert W.multiplicity(-2, 3) == 1
    assert W.multiplicity(-3, 1) == 1
    assert _total_multiplicity(W) == 3
    assert connectivity_report(W).kind == "disconnected"


def test_graph_of_squares_is_six_cycle():
    W = WhiteheadGraph(cw("aabbcc"))
    expected = [(-1, 1), (-1, 2), (-2, 2), (-2, 3), (-3, 3), (-3, 1)]
    for x, y in expected:
        assert W.multiplicity(x, y) == 1, (x, y)
    assert _total_multiplicity(W) == 6
    assert connectivity_report(W).kind == "two-connected"


def test_graph_of_single_letter():
    W = WhiteheadGraph(cw("a"))
    assert W.multiplicity(-1, 1) == 1
    assert _total_multiplicity(W) == 1


def test_graph_total_multiplicity_is_length():
    rng = random.Random(71)
    for _ in range(20):
        w = random_cyclic_word(rng, F3, rng.randint(1, 8))
        assert _total_multiplicity(WhiteheadGraph(w)) == len(w)


def test_connectivity_cut_vertex_star():
    # b a b c a c: graph has a cut vertex (constructed instance)
    # build a star-like graph from a word where one letter meets all
    for text in ("abAcab", "babcac", "aabac"):
        W = WhiteheadGraph(cw(text))
        rep = connectivity_report(W)
        assert rep.kind in ("disconnected", "cut-vertex", "two-connected")
    # a disconnected example with an isolated absent letter pair
    W = WhiteheadGraph(CyclicWord(F3, (1, 2)))
    rep = connectivity_report(W)
    assert set(rep.isolated) == {3, -3}


def test_trivial_word_rejected():
    with pytest.raises(ValueError):
        WhiteheadGraph(CyclicWord(F3, ()))


def test_apply_whitehead_inner_preserves_length():
    # cut = all letters except v^-1 conjugates every generator: inner
    tau = WhiteheadAutomorphism(F3, 1, {1, 2, -2, 3, -3})
    for text in ("ab", "abc", "aabbcc"):
        assert len(apply_whitehead(tau, cw(text))) == len(cw(text))


def test_apply_whitehead_shortens_constructed():
    # abc is primitive; some move strictly shortens it
    taus = all_type_ii_automorphisms(F3)
    assert any(len(apply_whitehead(t, cw("abc"))) < 3 for t in taus)


def test_apply_whitehead_then_inverse():
    tau = WhiteheadAutomorphism(F3, 1, {1, -2})
    phi = tau.automorphism()
    phi_inv = phi.inverse()
    rng = random.Random(72)
    for _ in range(20):
        w = random_cyclic_word(rng, F3, 5)
        assert phi_inv.apply(phi.apply(w)) == w


def test_apply_whitehead_rotation_independent():
    tau = WhiteheadAutomorphism(F3, 2, {2, 1, -3})
    w = cw("abcab")
    for rot in _rotations(w):
        assert apply_whitehead(tau, CyclicWord(F3, rot)) == apply_whitehead(tau, w)


def test_reduce_primitive_to_single_letter():
    # abc is primitive: the descent oracle finds minimal length 1
    res = reduce_to_minimal(cw("abc"))
    assert res.minimal_length == 1
    assert _omitting(res)


def test_reduce_aba_inverse_b():
    # a b a^-1 b is automorphic to a^2 b^2 (apply b -> ab); its minimal
    # length computed by exhaustive descent is 4
    res = reduce_to_minimal(CyclicWord(F3, (1, 2, -1, 2)))
    assert res.minimal_length == 4
    assert _omitting(res)   # the class lies in <a, b>


def test_reduce_squares_minimal():
    res = reduce_to_minimal(cw("aabbcc"))
    assert res.minimal_length == 6
    assert not _omitting(res)


def test_greedy_descent_strictly_decreases():
    rng = random.Random(73)
    for _ in range(20):
        w = random_cyclic_word(rng, F3, rng.randint(1, 7))
        res = reduce_to_minimal(w)
        lengths = [len(x) for x in res.descent]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        assert len(res.descent) <= len(w) + 1


def test_is_simple_generator():
    assert is_simple(cw("a"))


def test_is_simple_abc():
    assert is_simple(cw("abc"))


def test_is_simple_squares_false():
    assert not is_simple(cw("aabbcc"))
    assert not whitehead_simple_oracle(cw("aabbcc"))


def test_commutator_simple_in_rank3():
    w = CyclicWord(F3, (1, 2, -1, -2))
    assert is_simple(w)
    assert whitehead_simple_oracle(w)


def test_primitive_images_classified_simple():
    rng = random.Random(74)
    for _ in range(30):
        phi, _ = random_automorphism(rng, F3, rng.randint(1, 6))
        w = phi.apply(F3.word("a")).cyclic()
        assert is_simple(w)


def test_is_simple_agrees_with_oracle_randomized():
    rng = random.Random(75)
    cache_o = {}
    for _ in range(60):
        w = random_cyclic_word(rng, F3, rng.randint(1, 6))
        assert is_simple(w) == whitehead_simple_oracle(w, cache=cache_o)


def test_graph_criterion_on_minimal_level():
    # at minimal length, simplicity matches disconnected-or-cut-vertex
    # Whitehead graphs on the tested instances
    for text, simple in (("aabbcc", False), ("abc", True)):
        level = minimal_level_set(reduce_to_minimal(cw(text)).descent[-1])
        reports = {w: connectivity_report(WhiteheadGraph(w)) for w in level}
        has_bad = any(r.kind in ("disconnected", "cut-vertex")
                      or len(w.support()) < 3
                      for w, r in reports.items())
        assert has_bad == simple


def test_malformed_whitehead_automorphism():
    with pytest.raises(ValueError):
        WhiteheadAutomorphism(F3, 1, {2})        # special letter not in cut
    with pytest.raises(ValueError):
        WhiteheadAutomorphism(F3, 1, {1, -1})    # inverse in cut


def test_graph_length_changes_match_rewriting():
    # every type-II move, on seeded random words at ranks 2-4
    rng = random.Random(76)
    for rank in (2, 3, 4):
        group = FreeGroup(rank)
        moves = all_type_ii_automorphisms(group)
        for _ in range(12):
            w = random_cyclic_word(rng, group, rng.randint(1, 12))
            changes = length_changes(WhiteheadGraph(w), moves)
            for tau, change in zip(moves, changes):
                assert change == len(apply_whitehead(tau, w)) - len(w), (w, tau)


def _planted_rank4(rng, simple):
    """The image of a^2 b^2 c^2 d^2 (not simple) or of a word in <a, b, c>
    (simple) under a random automorphism of F4."""
    if simple:
        base = random_cyclic_word(rng, FreeGroup(3), rng.randint(2, 8)).letters
    else:
        base = (1, 1, 2, 2, 3, 3, 4, 4)
    phi, _ = random_automorphism(rng, F4, rng.randint(1, 8))
    return phi.apply(CyclicWord(F4, base))


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_outer_moves_keep_one_move_per_inner_class(rank):
    # every dropped move is inner or the conjugate, by its special letter
    # v, of a move kept before it: x -> v tau(x) v^-1, image by image
    group = FreeGroup(rank)
    every = all_type_ii_automorphisms(group)
    kept = outer_moves(group)
    assert len(kept) == (len(every) - 2 * rank) // 2
    position = {t.sort_key(): k for k, t in enumerate(every)}
    order = [position[t.sort_key()] for t in kept]
    assert order == sorted(set(order))
    assert all(every[k] is t for k, t in zip(order, kept))
    kept_keys = {t.sort_key() for t in kept}
    conjugates = set()   # images of the kept moves so far, conjugated
    inner = dropped = 0
    for t in every:
        v, images = t.special, t.automorphism().images
        if t.sort_key() in kept_keys:
            conjugates.add(tuple(Word(group, (v,) + im.letters + (-v,))
                                 for im in images))
        elif images == tuple(Word(group, (-v, i, v))
                             for i in range(1, rank + 1)):
            inner += 1
        else:
            assert images in conjugates, t
            dropped += 1
    assert inner == 2 * rank and dropped == len(kept)


def test_greedy_descent_over_outer_moves_equals_every_move(monkeypatch):
    rng = random.Random(79)
    words = [random_cyclic_word(rng, F3, rng.randint(1, 14))
             for _ in range(40)]
    words += [_planted_rank4(rng, k % 2 == 0) for k in range(30)]
    chains = [greedy_descent(w) for w in words]
    assert sum(len(c) > 2 for c in chains) >= 10
    monkeypatch.setattr(whitehead, "outer_moves", all_type_ii_automorphisms)
    assert [greedy_descent(w) for w in words] == chains


def test_rank4_planted_verdicts():
    rng = random.Random(77)
    for k in range(40):
        simple = k % 2 == 0
        w = _planted_rank4(rng, simple)
        assert is_simple(w) == simple, w


def test_simple_command_rank4_not_simple(capsys):
    w = _planted_rank4(random.Random(78), simple=False)
    assert len(w) > 8
    assert main(["simple", str(w), "--rank", "4"]) == 0
    assert capsys.readouterr().out.strip() == "not simple"


def test_reduce_command_rank4_returns_the_greedy_chain(capsys):
    w = _planted_rank4(random.Random(78), simple=False)
    assert main(["reduce", str(w), "--rank", "4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    chain = reduce_to_minimal(w).descent
    assert out == {"minimal_length": 8, "minimum": str(chain[-1]),
                   "descent": [str(x) for x in chain]}
    assert out["descent"][0] == str(w) and len(chain) > 1


def test_level_graph_reports_raise_when_capped():
    # the minimal level set of a^2 b^2 c^2 has 328 classes
    with pytest.raises(OracleBudgetExceeded) as info:
        minimal_level_set(reduce_to_minimal(cw("aabbcc")).descent[-1],
                          budget=10)
    assert (info.value.oracle, info.value.budget, info.value.done) == \
        ("minimal_level_set", 10, {"states": 11})


def test_rank_one_agrees_with_oracle():
    # Z has no nontrivial proper free factor: only the trivial class is
    # simple
    F1 = FreeGroup(1)
    for letters in [(), (1,), (-1,), (1, 1, 1), (-1,) * 6]:
        c = CyclicWord(F1, letters)
        assert is_simple(c) == whitehead_simple_oracle(c) == (not letters)


def test_certificate_error_survives_pickling():
    # a worker process raising it must hand it back whole
    import pickle
    from outerspace.whitehead import (SimplicityCertificateError,
                                      ConnectivityReport)
    exc = SimplicityCertificateError(cw("aabbcc"), [cw("aabbcc")],
                                     ConnectivityReport("cut-vertex", 1))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is SimplicityCertificateError
    assert (back.word, back.descent, back.report) == \
        (exc.word, exc.descent, exc.report)
    assert str(back) == str(exc)


def _raise(exc):
    raise exc


def test_certificate_error_crosses_a_spawned_worker():
    # what `experiment --workers N` sees when a worker's certificate fails
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from outerspace.whitehead import (SimplicityCertificateError,
                                      ConnectivityReport)
    exc = SimplicityCertificateError(cw("aabbcc"), [cw("aabbcc"), cw("abc")],
                                     ConnectivityReport("cut-vertex", 1))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        with pytest.raises(SimplicityCertificateError) as info:
            pool.submit(_raise, exc).result()
    back = info.value
    assert back is not exc
    assert (back.word, back.descent, back.report) == \
        (exc.word, exc.descent, exc.report)
    assert str(back) == str(exc)


def test_a_move_that_misses_its_score_raises_a_typed_error(monkeypatch,
                                                            capsys):
    # length_changes under-reports the best score by one: the first move
    # taken misses it, which greedy_descent reports with its chain
    import pickle
    real = whitehead.length_changes

    def under_report(W, moves):
        changes = real(W, moves)
        changes[changes.index(min(changes))] -= 1
        return changes

    w = cw("abAcab")
    changes = real(WhiteheadGraph(w), outer_moves(F3))
    best = min(changes)
    monkeypatch.setattr(whitehead, "length_changes", under_report)
    with pytest.raises(whitehead.GreedyDescentError) as info:
        greedy_descent(w)
    exc = info.value
    assert (exc.word, exc.descent, exc.change) == (w, [w], best - 1)
    assert exc.move is outer_moves(F3)[changes.index(best)]
    for command in ("simple", "reduce"):
        assert main([command, "abAcab"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.count("\n") == 1
        assert err.startswith("error: GreedyDescentError: ")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is whitehead.GreedyDescentError
    assert (back.word, back.descent, back.change) == \
        (exc.word, exc.descent, exc.change)
    assert back.move.sort_key() == exc.move.sort_key()
    assert str(back) == str(exc)


def test_moves_act_through_their_signed_table_alone(monkeypatch):
    from outerspace import words

    def refuse(*args):
        raise AssertionError("a Whitehead move went through an Automorphism")

    rng = random.Random(80)
    planted = [(_planted_rank4(rng, k % 2 == 0), k % 2 == 0)
               for k in range(10)]
    monkeypatch.setattr(WhiteheadAutomorphism, "automorphism", refuse)
    monkeypatch.setattr(words.Automorphism, "apply", refuse)
    assert [is_simple(w) for w, _ in planted] == [s for _, s in planted]
    moves = outer_moves(F4)
    for w, _ in planted[:2]:
        changes = length_changes(WhiteheadGraph(w), moves)
        assert [len(apply_whitehead(t, w)) - len(w) for t in moves] == changes
