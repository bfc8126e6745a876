"""Whitehead graphs, Whitehead automorphisms, and the simplicity decision.

The Whitehead graph of a cyclically reduced word has one vertex per
signed letter and, for each cyclically adjacent pair (x, y), an edge
between x^-1 and y (x^-1 != y).  ``edges`` counts the edges by the bit
set of their ends, bit letter_key(x) for the letter x; every reader of
the graph reads this one table.  Type-II Whitehead automorphisms are
parametrized by a special letter v and a cut set Y with v in Y, v^-1
not in Y:

    x  ->  v^(-1 if x^-1 in Y else 0) . x . v^(1 if x in Y else 0)

for letters x not in {v, v^-1}, and v -> v.  A move acts through its
signed table (``WhiteheadAutomorphism.table``, built on first use).

Every move's length change is read off the Whitehead graph (see
``length_changes``), so a greedy descent rewrites the word once per
step.  Moves that differ by an inner automorphism act alike on
conjugacy classes, so the fast paths scan one move per outer class
(``outer_moves``: 42 of 90 at rank 3, 248 of 504 at rank 4).  By
Whitehead's theorem the greedy chain ends at minimal length in the
Aut-orbit.

A conjugacy class is simple when it is contained in a proper free
factor.  The decision runs the greedy descent to its minimum m: if m
omits a generator the class is simple; otherwise the Whitehead graph
of m must be two-connected, which certifies non-simplicity by
Whitehead's cut-vertex lemma (a class in a proper free factor has a
disconnected graph or one with a cut vertex).  At a greedy minimum with
full support a cut vertex, or a component not closed under inversion,
would give a strictly shortening move, so a failed certificate is a
defect, raised as SimplicityCertificateError.  No level set is closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from functools import cache

from .words import (Word, Automorphism, CyclicWord, letter_str, letter_key,
                    signed_table, substitute, _same_group)


class SimplicityCertificateError(RuntimeError):
    """A greedy minimum with full support whose Whitehead graph is not
    two-connected: non-simplicity is not certified."""

    def __init__(self, word, descent, report):
        super().__init__(word, descent, report)  # args rebuild it when unpickled
        self.word = word
        self.descent = descent
        self.report = report

    def __str__(self):
        return (f"greedy minimum {self.descent[-1]} of {self.word} has full "
                f"support but its Whitehead graph is {self.report}")


class GreedyDescentError(RuntimeError):
    """A greedy move whose image misses its scored length change."""

    def __init__(self, word, descent, move, change):
        super().__init__(word, descent, move, change)  # args rebuild it when unpickled
        self.word = word
        self.descent = descent
        self.move = move
        self.change = change

    def __str__(self):
        return (f"{self.move} takes {self.descent[-1]} to "
                f"{apply_whitehead(self.move, self.descent[-1])}, not a "
                f"length change of {self.change}")


def _letter(key):
    """The signed letter numbered key by letter_key."""
    return -(key // 2 + 1) if key & 1 else key // 2 + 1


def _ends(edge):
    """The letter keys (low, high) of an edge's two ends."""
    return (edge & -edge).bit_length() - 1, edge.bit_length() - 1


class WhiteheadGraph:
    """Letter-adjacency graph of a cyclic word, edges keyed by bit set."""

    def __init__(self, cw):
        if cw.is_trivial():
            raise ValueError("trivial word has no Whitehead graph")
        self.group = cw.group
        self.word = cw
        letters = cw.letters
        self.edges = Counter(1 << letter_key(-x) | 1 << letter_key(y)
                             for x, y in zip(letters, letters[1:] + letters[:1]))

    def multiplicity(self, x, y):
        return self.edges.get(1 << letter_key(x) | 1 << letter_key(y), 0)

    def to_dot(self, name="whitehead"):
        support = sorted({k for e in self.edges for k in _ends(e)})
        lines = [f"graph {name} {{"]
        lines += [f'  "{letter_str(_letter(k))}";' for k in support]
        for e in sorted(self.edges, key=_ends):
            a, b = map(_letter, _ends(e))
            lines += [f'  "{letter_str(a)}" -- "{letter_str(b)}";'] * self.edges[e]
        lines.append("}")
        return "\n".join(lines)


@dataclass
class ConnectivityReport:
    kind: str                   # "disconnected" | "cut-vertex" | "two-connected"
    cut_vertex: int = None
    isolated: tuple = ()        # absent letters, excluded from the analysis

    def __str__(self):
        if self.kind == "cut-vertex":
            return f"cut vertex {letter_str(self.cut_vertex)}"
        return self.kind


def connectivity_report(W):
    """Connectivity / cut-vertex analysis on the support of the graph,
    by bit-set searches over each letter's neighbour set."""
    neighbours = [0] * (2 * W.group.rank)
    for e in W.edges:
        low, high = _ends(e)
        neighbours[low] |= 1 << high
        neighbours[high] |= 1 << low
    isolated = tuple(_letter(k) for k, nb in enumerate(neighbours) if not nb)
    full = sum(1 << k for k, nb in enumerate(neighbours) if nb)

    def connected(verts):
        seen = frontier = verts & -verts
        while frontier:
            k = (frontier & -frontier).bit_length() - 1
            frontier ^= 1 << k
            new = neighbours[k] & verts & ~seen
            seen |= new
            frontier |= new
        return seen == verts

    if not connected(full):
        return ConnectivityReport("disconnected", isolated=isolated)
    for k, nb in enumerate(neighbours):   # one letter left is connected
        if nb and not connected(full ^ 1 << k):
            return ConnectivityReport("cut-vertex", cut_vertex=_letter(k),
                                      isolated=isolated)
    return ConnectivityReport("two-connected", isolated=isolated)


class WhiteheadAutomorphism:
    """Type-II Whitehead automorphism (special letter v, cut set Y)."""

    __slots__ = ("group", "special", "cut", "_table", "_inverse_cut_bits",
                 "_inverse_special_bit")

    def __init__(self, group, special, cut):
        cut = frozenset(cut)
        group.check_letter(special)
        for x in cut:
            group.check_letter(x)
        if special not in cut or -special in cut:
            raise ValueError("cut must contain the special letter and not its inverse")
        self.group = group
        self.special = special
        self.cut = cut
        self._table = None
        self._inverse_cut_bits = sum(1 << letter_key(-x) for x in cut)
        self._inverse_special_bit = 1 << letter_key(-special)

    @property
    def table(self):
        """Signed-letter images, built on first use: most moves are only scored."""
        if self._table is None:
            v, cut = self.special, self.cut
            self._table = signed_table({
                i: (i,) if i == abs(v) else
                (-v,) * (-i in cut) + (i,) + (v,) * (i in cut)
                for i in range(1, self.group.rank + 1)})
        return self._table

    def automorphism(self):
        """The move as a words.Automorphism."""
        return Automorphism(self.group, [Word(self.group, self.table[i])
                                         for i in range(1, self.group.rank + 1)])

    def sort_key(self):
        return (letter_key(self.special),
                tuple(sorted(map(letter_key, self.cut))))

    def __repr__(self):
        cut = ",".join(letter_str(x) for x in sorted(self.cut, key=letter_key))
        return f"WhiteheadAutomorphism({letter_str(self.special)}; {{{cut}}})"


@cache
def all_type_ii_automorphisms(group):
    """The nontrivial type-II Whitehead automorphisms, as a tuple built
    once per rank."""
    letters = group.all_letters()
    out = []
    for v in letters:
        rest = [x for x in letters if abs(x) != abs(v)]
        for mask in range(1, 1 << len(rest)):   # mask 0 is the identity
            cut = {v} | {rest[k] for k in range(len(rest)) if mask >> k & 1}
            out.append(WhiteheadAutomorphism(group, v, cut))
    return tuple(sorted(out, key=lambda t: t.sort_key()))


@cache
def outer_moves(group):
    """The type-II moves up to inner automorphisms, as a tuple built
    once per rank.

    The partner (v^-1, L - Y) of a move (v, Y), L being all letters, is
    (v, Y) followed by conjugation by v, so the two send every conjugacy
    class to the same class.  (v, L - {v^-1}) is inner: its partner is
    the identity.  Inner moves are dropped, and of each partner pair the
    one that comes first in all_type_ii_automorphisms order is kept, so
    a scan that keeps the first best or first new class over these moves
    picks the same move as a scan over all of them.
    """
    letters = frozenset(group.all_letters())
    out, kept = [], set()
    for tau in all_type_ii_automorphisms(group):
        v, cut = tau.special, tau.cut
        if cut == letters - {-v} or (-v, letters - cut) in kept:
            continue
        kept.add((v, cut))
        out.append(tau)
    return tuple(out)


def apply_whitehead(tau, cw):
    """Image of a CyclicWord under a WhiteheadAutomorphism, a CyclicWord."""
    _same_group(tau, cw)
    return CyclicWord(cw.group, substitute(cw.letters, tau.table))


@dataclass
class MinimizationResult:
    minimal_length: int
    descent: list                 # the greedy chain, start to minimum


def length_changes(W, moves):
    """|tau(w)| - |w| for each move tau, read off the Whitehead graph W of w.

    With an edge {x^-1, y} per cyclically adjacent pair xy, the move
    (v, Y) changes the length by cap(Y^-1) - deg(v^-1), where
    Y^-1 = {y^-1 : y in Y} and cap counts the edges with exactly one end
    in Y^-1.
    """
    edges = list(W.edges.items())

    def cap(bits):
        return sum(m for ends, m in edges if 0 != ends & bits != ends)

    degree = {1 << i: cap(1 << i) for i in range(2 * W.group.rank)}
    return [cap(tau._inverse_cut_bits) - degree[tau._inverse_special_bit]
            for tau in moves]


def greedy_descent(cw):
    """Greedy strict shortening: the chain from cw down to minimal length.

    Each step scores every type-II move up to inner automorphisms
    (outer_moves; partners score alike) from the Whitehead graph and
    applies only the one that shortens most, the first in
    all_type_ii_automorphisms order on ties.  The rewritten word's
    length is checked against the score, so the chain strictly shortens;
    a miss raises GreedyDescentError with the chain so far.
    """
    moves = outer_moves(cw.group)
    chain = [cw]
    if cw.is_trivial() or not moves:
        return chain
    while True:
        changes = length_changes(WhiteheadGraph(chain[-1]), moves)
        best = min(changes)
        if best >= 0:
            return chain
        tau = moves[changes.index(best)]
        img = apply_whitehead(tau, chain[-1])
        if len(img) != len(chain[-1]) + best:
            raise GreedyDescentError(cw, chain, tau, best)
        chain.append(img)


def reduce_to_minimal(cw):
    """The minimal length of the class and the greedy chain reaching it."""
    descent = greedy_descent(cw)
    return MinimizationResult(len(descent[-1]), descent)


def is_simple(cw):
    """Is the class contained in a proper free factor?

    Runs greedy_descent to its minimum m.  Simple when m omits a
    generator (a letter pair); otherwise the Whitehead graph of m must
    be two-connected, which certifies "not simple" by Whitehead's
    cut-vertex lemma.  A failed certificate raises
    SimplicityCertificateError with the input, the greedy chain and the
    connectivity report.

    A word whose support misses a generator is simple outright; at rank
    1 a nontrivial class is not, since Z has no nontrivial proper free
    factor.
    """
    rank = cw.group.rank
    if cw.is_trivial() or len(cw.support()) < rank:
        return True
    if rank < 2:
        return False
    descent = greedy_descent(cw)
    verdict = len(descent[-1].support()) < rank
    if not verdict:
        report = connectivity_report(WhiteheadGraph(descent[-1]))
        if report.kind != "two-connected":
            raise SimplicityCertificateError(cw, descent, report)
    return verdict
