import random

import pytest

from outerspace.words import (FreeGroup, Word, CyclicWord, Automorphism,
                              RankMismatchError, parse_letters, free_reduce,
                              inverse, signed_table, substitute)
from outerspace.randomgen import random_automorphism


F3 = FreeGroup(3)


def test_reduce_cancellation():
    assert str(F3.word("abB")) == "a"
    assert str(F3.word("abBc")) == "ac"


def test_reduce_empty():
    assert F3.word("").is_identity()
    assert F3.word("aA").is_identity()


def test_reduce_already_reduced():
    assert str(F3.word("abA")) == "abA"


def test_reduce_idempotent():
    rng = random.Random(1)
    for _ in range(100):
        letters = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(12)]
        w = Word(F3, letters)
        assert Word(F3, w.letters).letters == w.letters


def test_reduce_length_subadditive():
    rng = random.Random(2)
    for _ in range(100):
        u = Word(F3, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(8)])
        v = Word(F3, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(8)])
        assert len(u * v) <= len(u) + len(v)


def test_cyclic_normal_form_conjugation():
    assert str(F3.word("abA").cyclic()) == "b"


def test_cyclic_normal_form_rotation():
    assert str(F3.word("ba").cyclic()) == "ab"


def test_cyclic_normal_form_conjugated_pair():
    w = F3.word("A") * F3.word("cb") * F3.word("a")
    assert w.cyclic() == F3.word("cb").cyclic()


def test_cyclic_conjugacy_invariance_randomized():
    rng = random.Random(3)
    for _ in range(60):
        w = Word(F3, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(6)])
        g = Word(F3, [rng.choice([1, -1, 2, -2, 3, -3])
                      for _ in range(rng.randint(0, 4))])
        assert w.cyclic() == (g * w * g.inverse()).cyclic()


def test_inverse_not_quotiented():
    w = F3.word("ab")
    assert w.cyclic() != w.inverse().cyclic()


def test_apply_identity():
    phi = Automorphism.identity(F3)
    w = F3.word("abcAB")
    assert phi.apply(w) == w


def test_apply_elementary():
    phi = Automorphism(F3, [F3.word("ab"), F3.word("b"), F3.word("c")])
    assert str(phi.apply(F3.word("a"))) == "ab"


def test_apply_respects_composition():
    rng = random.Random(4)
    phi = Automorphism(F3, [F3.word("ab"), F3.word("b"), F3.word("c")])
    psi = Automorphism(F3, [F3.word("a"), F3.word("bc"), F3.word("c")])
    comp = phi.compose(psi)
    for _ in range(40):
        w = Word(F3, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(7)])
        assert comp.apply(w) == phi.apply(psi.apply(w))


def test_inverse_roundtrip_randomized():
    rng = random.Random(5)
    from outerspace.randomgen import random_automorphism
    for _ in range(20):
        phi, phi_inv_known = random_automorphism(rng, F3, 6)
        inv = phi.inverse()
        assert phi.compose(inv).is_identity()
        assert inv.compose(phi).is_identity()
        for _ in range(5):
            w = Word(F3, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(8)])
            assert inv.apply(phi.apply(w)) == w


def test_inverse_of_symbol_sequences():
    assert inverse(()) == ()
    assert inverse([1, -2, 3]) == (-3, 2, -1)
    rng = random.Random(6)
    for _ in range(50):
        seq = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 9))]
        assert inverse(inverse(seq)) == tuple(seq)
        assert free_reduce(list(seq) + list(inverse(seq))) == []


def test_signed_table_pairs_each_image_with_its_inverse():
    table = signed_table({1: (1, 2), 2: [-3], 3: ()})
    assert table == {1: (1, 2), -1: (-2, -1), 2: (-3,), -2: (3,),
                     3: (), -3: ()}
    assert all(type(im) is tuple for im in table.values())


def test_substitute_reduces_after_replacing():
    table = signed_table({1: (1, 2), 2: (-2,), 3: (3,)})
    assert substitute((1, 2), table) == (1,)           # a b . B = a
    assert substitute((1, -1), table) == ()
    assert substitute((), table) == ()
    assert substitute((3, 1, 2, -3), table) == (3, 1, -3)
    # edge substitutions: () collapses a symbol
    assert substitute((5, 7, -5), {5: (1,), -5: (-1,), 7: (), -7: ()}) == ()


def _old_apply(phi, w):
    """Automorphism.apply as a letter-by-letter loop over the images."""
    letters = []
    for x in w.letters:
        img = phi.images[abs(x) - 1].letters
        letters.extend(img if x > 0 else [-y for y in reversed(img)])
    return type(w)(phi.group, letters)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_apply_matches_letter_loop(rank):
    F = FreeGroup(rank)
    letters = F.all_letters()
    rng = random.Random(100 + rank)
    for _ in range(40):
        phi, phi_inv = random_automorphism(rng, F, rng.randint(0, 8))
        for aut in (phi, phi_inv):
            for _ in range(5):
                raw = [rng.choice(letters) for _ in range(rng.randint(0, 12))]
                for w in (Word(F, raw), CyclicWord(F, raw)):
                    assert aut.apply(w) == _old_apply(aut, w)


def test_non_automorphism_rejected():
    bad = Automorphism(F3, [F3.word("a"), F3.word("a"), F3.word("c")])
    with pytest.raises(ValueError):
        bad.inverse()


def test_rank_mixing_is_hard_error():
    F2 = FreeGroup(2)
    with pytest.raises(RankMismatchError):
        F3.word("a") * F2.word("b")


def test_letter_out_of_range():
    with pytest.raises(ValueError):
        Word(FreeGroup(2), [3])


def test_string_serialization():
    w = F3.word("aBc")
    assert parse_letters(str(w)) == list(w.letters)
    assert str(F3.identity()) == "1"


def test_inverse_equals_known_inverse_ranks_2_to_5():
    from outerspace.randomgen import random_automorphism
    rng = random.Random(11)
    for rank in range(2, 6):
        F = FreeGroup(rank)
        for k in range(104):
            phi, phi_inv_known = random_automorphism(rng, F, k % 13)
            assert phi.inverse().images == phi_inv_known.images


def test_least_rotation_matches_all_rotations():
    from outerspace.words import CyclicWord, least_rotation, letter_key
    rng = random.Random(2)
    phi = Automorphism(F3, [F3.word("ab"), F3.word("b"), F3.word("Ac")])
    for _ in range(300):
        period = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(1, 4))]
        seq = tuple(period * rng.randint(1, 3)) if rng.random() < 0.5 else \
            tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 9)))
        rots = [seq[r:] + seq[:r] for r in range(len(seq))] or [()]
        assert least_rotation(seq) == min(rots)
        best = min(rots, key=lambda s: [letter_key(x) for x in s])
        assert least_rotation(seq, [2 * abs(x) - (x > 0) for x in seq]) == best
        cw = CyclicWord(F3, seq)
        assert phi.apply(cw) == CyclicWord(F3, phi.apply(cw.word()).letters)
        # a letter and its inverse tie; ties go to the first least rotation
        for s in (seq, tuple(period * (2 + len(seq) % 5))):
            ties = [abs(x) for x in s]
            r = min(range(len(s)), key=lambda r: ties[r:] + ties[:r],
                    default=0)
            assert least_rotation(s, ties) == s[r:] + s[:r]
            assert least_rotation(s) == min([s[r:] + s[:r]
                                             for r in range(len(s))] or [()])


def test_values_survive_pickling():
    # experiment workers send words and automorphisms back by pickle
    import pickle
    phi = Automorphism(F3, [F3.word("ab"), F3.word("b"), F3.word("cA")])
    phi.inverse()
    for value in (F3.word("abC"), F3.identity(), F3.word("bca").cyclic(), phi):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
    assert pickle.loads(pickle.dumps(phi)).inverse() == phi.inverse()


def _slice_min_rotation(seq, keys):
    r = min(range(len(seq)), key=lambda r: keys[r:] + keys[:r], default=0)
    return seq[r:] + seq[:r]


def test_least_rotation_on_ties_matches_slice_min():
    from outerspace.words import least_rotation
    rng = random.Random(870)
    letters = (1, -1, 2, -2, 3)
    for _ in range(2000):
        period = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        seq = period * rng.randint(1, 8)
        if rng.random() < 0.3:
            seq += tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        for keys in (seq, tuple(abs(x) for x in seq), tuple(x % 2 for x in seq)):
            assert least_rotation(seq, keys) == _slice_min_rotation(seq, keys)


def test_least_rotation_of_a_periodic_word_is_linear():
    import time
    from outerspace.words import least_rotation
    word = (1, 2) * 5000
    t0 = time.perf_counter()
    assert least_rotation(word) == word
    assert least_rotation(word[1:] + word[:1]) == word
    assert time.perf_counter() - t0 < 0.1
