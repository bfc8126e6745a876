"""Train track structures: gates, legality, and recurrence classification.

A train track structure on a graph is a partition of the directions at
each vertex into gates.  A turn is illegal when its two directions lie
in one gate; a path is legal when it crosses no illegal turn.  The
recurrence classification works in the direction digraph D whose nodes
are oriented edges, with an arc e -> e' whenever "e then e'" is a legal
transition.  The arcs out of e are read off the directions leaving the
terminus of e, and the strongly connected components of D by
reachability: D has at most 2(3N - 3) nodes at rank N.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class TrainTrackStructure:
    """Gate partition of (a subset of) the directions of a graph."""

    def __init__(self, graph, gates):
        # gates: dict vertex -> iterable of iterables of directions
        self.graph = graph
        self.gates = {v: tuple(frozenset(g) for g in gs) for v, gs in gates.items()}
        self._gate_of = {}
        for v, gs in self.gates.items():
            for g in gs:
                if not g:
                    raise ValueError("empty gate")
                for d in g:
                    self._gate_of[d] = g

    @classmethod
    def from_germs(cls, graph, germ_of, directions):
        """Partition directions by equal germ values."""
        by_vertex = {}
        for d in directions:
            v = graph.origin(d)
            by_vertex.setdefault(v, {}).setdefault(germ_of(d), []).append(d)
        return cls(graph, {v: groups.values()
                           for v, groups in by_vertex.items()})

    def support(self):
        return set(self._gate_of)

    def gate_of(self, d):
        return self._gate_of[d]

    def gate_count(self, v):
        return len(self.gates.get(v, ()))

    def is_illegal_turn(self, d1, d2):
        """Turn = unordered pair of directions at one vertex."""
        if self.graph.origin(d1) != self.graph.origin(d2):
            raise ValueError("turn directions at different vertices")
        return self._gate_of[d1] is self._gate_of[d2]

    def edge_support(self):
        return {abs(d) for d in self._gate_of}

    def to_dot(self, name="direction_digraph"):
        """DOT export of D with one color class per gate."""
        palette = ["red", "blue", "green", "orange", "purple", "brown",
                   "cyan", "magenta", "gray", "olive"]
        color = {}
        idx = 0
        for v in sorted(self.gates):
            for g in self.gates[v]:
                for d in g:
                    color[d] = palette[idx % len(palette)]
                idx += 1
        D = direction_digraph(self)
        lines = [f"digraph {name} {{"]
        for d in sorted(D.nodes):
            lines.append(f'  "{d}" [color={color.get(d, "black")}];')
        for d, outs in sorted(D.arcs.items()):
            for d2 in sorted(outs):
                lines.append(f'  "{d}" -> "{d2}";')
        lines.append("}")
        return "\n".join(lines)


def illegal_turn_count(tt, edges, cyclic=False):
    """The illegal turns of an edge path: (reverse of a, b) for each step
    a, b, and the closing step of a cyclic path."""
    count = 0
    for a, b in zip(edges, edges[1:]):
        count += tt.is_illegal_turn(-a, b)
    if cyclic and edges:
        count += tt.is_illegal_turn(-edges[-1], edges[0])
    return count


def is_legal(tt, edges, cyclic=False):
    return illegal_turn_count(tt, edges, cyclic) == 0


@dataclass
class DirectionDigraph:
    nodes: set
    arcs: dict  # node -> set of nodes


def direction_digraph(tt):
    """D: an arc e -> e' for each direction e' in the support leaving the
    terminus of e whose gate is not the gate of the reverse of e."""
    graph, gate_of = tt.graph, tt._gate_of
    arcs = {e: {e2 for e2 in graph.directions_at(graph.terminus(e))
                if e2 in gate_of and gate_of[-e] is not gate_of[e2]}
            for e in gate_of}
    return DirectionDigraph(tt.support(), arcs)


def strongly_connected_components(D):
    """The components of D as frozensets, in the order of their least node.

    One search per node: the component of v is the set of nodes that v
    reaches and that reach v.
    """
    reach = {}
    for v in D.nodes:
        reach[v] = seen = {v}
        stack = [v]
        while stack:
            for w in D.arcs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    sccs, met = [], set()
    for v in sorted(D.nodes):
        if v not in met:
            sccs.append(frozenset(w for w in reach[v] if v in reach[w]))
            met |= sccs[-1]
    return sccs


def _closed_walk_through(D, scc, targets):
    """A closed walk inside one SCC visiting every node of `targets`."""
    targets = [t for t in sorted(targets) if t in scc]
    if not targets:
        return None
    start = targets[0]

    def bfs(src, goal_set):
        # shortest path src -> any goal (nonempty move), inside scc
        q = deque([(src, ())])
        seen = {src}
        while q:
            n, path = q.popleft()
            for m in sorted(D.arcs[n]):
                if m not in scc:
                    continue
                if m in goal_set:
                    return path + (m,)
                if m not in seen:
                    seen.add(m)
                    q.append((m, path + (m,)))
        return None

    walk = [start]
    remaining = set(targets[1:])
    while remaining:
        seg = bfs(walk[-1], remaining)
        if seg is None:
            return None
        walk.extend(seg)
        remaining.discard(walk[-1])
    back = bfs(walk[-1], {start})
    if back is None:
        return None
    walk.extend(back)
    return walk[:-1]  # cyclic: last == first dropped


@dataclass
class RecurrenceVerdict:
    kind: str                 # birecurrent | recurrent | reducible | one-orientation-subgraph
    certificate: tuple = None  # cyclic edge word (legal loop) when (bi)recurrent
    subgraph: frozenset = None  # positive edge ids for the subgraph cases

    def is_recurrent(self):
        return self.kind in ("birecurrent", "recurrent")


def classify_recurrence(tt):
    """The four-way recurrence classification via the direction digraph.

    birecurrent: a legal loop crosses every edge in both orientations
    (D strongly connected); recurrent: some legal loop crosses every
    edge (a single SCC meets every edge).  Otherwise the lexicographically
    least terminal SCC is reported, as a both-orientations subgraph
    (reducible) or a one-orientation subgraph.
    """
    for v in tt.gates:
        if tt.gate_count(v) < 1:
            raise ValueError("vertex without gates")
    D = direction_digraph(tt)
    sccs = strongly_connected_components(D)
    all_edges = tt.edge_support()

    if len(sccs) == 1 and sccs[0] == frozenset(D.nodes) and D.nodes:
        walk = _closed_walk_through(D, sccs[0], D.nodes)
        if walk is not None:
            return RecurrenceVerdict("birecurrent", certificate=tuple(walk))

    spanning = [c for c in sccs if {abs(d) for d in c} == all_edges]
    if spanning:
        scc = min(spanning, key=lambda c: tuple(sorted(c)))
        # pick one orientation per edge, preferring what the SCC offers
        targets = []
        for e in sorted(all_edges):
            if e in scc:
                targets.append(e)
            else:
                targets.append(-e)
        walk = _closed_walk_through(D, scc, targets)
        if walk is not None:
            return RecurrenceVerdict("recurrent", certificate=tuple(walk))

    terminal = [c for c in sccs if all(D.arcs[n] <= c for n in c)]
    scc = min(terminal, key=lambda c: tuple(sorted(c)))
    edges = frozenset(abs(d) for d in scc)
    both = all(d in scc and -d in scc for d in scc)
    if both:
        return RecurrenceVerdict("reducible", subgraph=edges)
    return RecurrenceVerdict("one-orientation-subgraph", subgraph=edges)


def find_spanning_legal_loop(tt):
    """A legal loop crossing every edge, as a cyclic edge tuple, or None."""
    verdict = classify_recurrence(tt)
    return verdict.certificate if verdict.is_recurrent() else None
