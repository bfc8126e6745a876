"""The bit-set Whitehead graph and table-built moves against a reference
kept here: the graph keyed by frozensets of letters (a singleton for a
pair x x^-1), its depth-first connectivity report that skips one vertex
at a time, set-based length changes, and moves built as
words.Automorphism images."""

import random
from collections import Counter

from outerspace.words import FreeGroup, Word, Automorphism, letter_key, letter_str
from outerspace.whitehead import (WhiteheadGraph, connectivity_report,
                                  apply_whitehead, greedy_descent,
                                  all_type_ii_automorphisms, outer_moves)
from outerspace.randomgen import random_automorphism, random_cyclic_word


class _ReferenceGraph:
    def __init__(self, cw):
        self.group = cw.group
        self.edges = Counter()
        letters = cw.letters
        n = len(letters)
        for k in range(n):
            x, y = letters[k], letters[(k + 1) % n]
            self.edges[frozenset((-x, y)) if -x != y else frozenset((y,))] += 1

    def support(self):
        return set().union(*self.edges)

    def neighbors(self, v):
        out = set()
        for e in self.edges:
            if v in e:
                out |= (e - {v}) if len(e) > 1 else {v}
        return out

    def to_dot(self, name="whitehead"):
        lines = [f"graph {name} {{"]
        for v in sorted(self.support(), key=letter_key):
            lines.append(f'  "{letter_str(v)}";')
        for e, m in sorted(self.edges.items(),
                           key=lambda kv: sorted(map(letter_key, kv[0]))):
            vs = sorted(e, key=letter_key)
            lines += [f'  "{letter_str(vs[0])}" -- "{letter_str(vs[-1])}";'] * m
        lines.append("}")
        return "\n".join(lines)


def _reference_report(G):
    """(kind, cut vertex, isolated letters) by one DFS per skipped vertex."""
    support = sorted(G.support(), key=letter_key)
    isolated = tuple(v for v in G.group.all_letters() if v not in support)
    adjacency = {v: G.neighbors(v) for v in support}

    def connected(skip=None):
        verts = [v for v in support if v != skip]
        seen, stack = {verts[0]}, [verts[0]]
        while stack:
            for w in adjacency[stack.pop()]:
                if w != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    if not connected():
        return ("disconnected", None, isolated)
    for v in support:
        if len(support) > 2 and not connected(skip=v):
            return ("cut-vertex", v, isolated)
    return ("two-connected", None, isolated)


def _reference_automorphism(tau):
    group, v = tau.group, tau.special
    images = []
    for i in range(1, group.rank + 1):
        if i == abs(v):
            images.append(group.generator(i))
            continue
        letters = []
        if -i in tau.cut:
            letters.append(-v)
        letters.append(i)
        if i in tau.cut:
            letters.append(v)
        images.append(Word(group, letters))
    return Automorphism(group, images)


def _reference_chain(cw, moves, autos):
    """Greedy descent scored on the frozenset graph: a move (v, Y)
    changes the length by the edges with one end in Y^-1, less the
    degree of v^-1."""
    inverse_cuts = [frozenset(-x for x in t.cut) for t in moves]
    chain = [cw]
    while not cw.is_trivial():
        edges = _ReferenceGraph(cw).edges.items()

        def cap(ends):
            return sum(m for e, m in edges if 0 < len(e & ends) < len(e))

        degree = {x: cap({x}) for x in cw.group.all_letters()}
        changes = [cap(ys) - degree[-t.special]
                   for t, ys in zip(moves, inverse_cuts)]
        best = min(changes)
        if best >= 0:
            break
        cw = autos[changes.index(best)].apply(cw)
        assert len(cw) == len(chain[-1]) + best
        chain.append(cw)
    return chain


def _seeded_words():
    """1,260 words at ranks 2-5: random words and, every third, a random
    automorphism's image of one, so that some chains are long."""
    rng = random.Random(5)
    out = []
    for k in range(1260):
        group = FreeGroup(2 + k % 4)
        w = random_cyclic_word(rng, group, rng.randint(1, 12))
        if k % 3 == 0:
            phi, _ = random_automorphism(rng, group, rng.randint(1, 6))
            w = phi.apply(w)
        if not w.is_trivial():
            out.append(w)
    return out


def test_table_moves_equal_automorphism_moves():
    for rank in (2, 3, 4, 5):
        for tau in all_type_ii_automorphisms(FreeGroup(rank)):
            assert tau.automorphism() == _reference_automorphism(tau), tau


def test_bit_set_graph_equals_the_frozenset_reference():
    words = _seeded_words()
    assert len(words) >= 1000
    kinds = Counter()
    long_chains = 0
    autos = {rank: [_reference_automorphism(t) for t in outer_moves(FreeGroup(rank))]
             for rank in (2, 3, 4, 5)}
    for w in words:
        G, W = _ReferenceGraph(w), WhiteheadGraph(w)
        assert W.to_dot() == G.to_dot(), w
        rep = connectivity_report(W)
        assert (rep.kind, rep.cut_vertex, rep.isolated) == _reference_report(G), w
        kinds[rep.kind] += 1
        moves = outer_moves(w.group)
        chain = greedy_descent(w)
        assert chain == _reference_chain(w, moves, autos[w.group.rank]), w
        long_chains += len(chain) > 2
        for k in range(0, len(moves), max(1, len(moves) // 7)):
            assert apply_whitehead(moves[k], w) == autos[w.group.rank][k].apply(w)
    assert min(kinds[k] for k in ("disconnected", "cut-vertex",
                                  "two-connected")) >= 200, kinds
    assert long_chains >= 100
