"""Train track structures: gates, legality, and recurrence classification.

A train track structure on a graph is a partition of the directions at
each vertex into gates.  A turn is illegal when its two directions lie
in one gate; a path is legal when it crosses no illegal turn.  The
recurrence classification works in the direction digraph D whose nodes
are oriented edges, with an arc e -> e' whenever "e then e'" is a legal
transition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .marked_graph import EdgePath


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
    def from_germs(cls, graph, germ_of, directions=None):
        """Partition directions by equal germ values."""
        if directions is None:
            directions = graph.oriented_edges()
        by_vertex = {}
        for d in directions:
            v = graph.origin(d)
            by_vertex.setdefault(v, {}).setdefault(germ_of(d), []).append(d)
        gates = {v: [set(g) for g in groups.values()]
                 for v, groups in by_vertex.items()}
        return cls(graph, gates)

    def support(self):
        return set(self._gate_of)

    def directions_at(self, v):
        return [d for g in self.gates.get(v, ()) for d in g]

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


def turns_of_path(edges, cyclic=False):
    """Turns crossed by an edge path: pairs (reverse of incoming, outgoing)."""
    pairs = list(zip(edges, edges[1:]))
    if cyclic and edges:
        pairs.append((edges[-1], edges[0]))
    return [(-a, b) for a, b in pairs]


def illegal_turn_count(tt, edges, cyclic=False):
    if isinstance(edges, EdgePath):
        cyclic = edges.cyclic
        edges = edges.edges
    count = 0
    for d1, d2 in turns_of_path(edges, cyclic):
        if tt.is_illegal_turn(d1, d2):
            count += 1
    return count


def is_legal(tt, edges, cyclic=False):
    return illegal_turn_count(tt, edges, cyclic) == 0


@dataclass
class DirectionDigraph:
    nodes: set
    arcs: dict  # node -> set of nodes


def direction_digraph(tt):
    graph = tt.graph
    nodes = set(tt.support())
    arcs = {n: set() for n in nodes}
    for e in nodes:
        v = graph.terminus(e)
        for e2 in nodes:
            if graph.origin(e2) != v:
                continue
            if tt._gate_of[-e] is not tt._gate_of[e2]:
                arcs[e].add(e2)
    return DirectionDigraph(nodes, arcs)


def strongly_connected_components(D):
    """Tarjan, iterative.  Returns a list of frozensets of nodes."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in sorted(D.nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(D.arcs[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(D.arcs[w]))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
    return sccs


def _terminal_sccs(D, sccs):
    member = {}
    for c in sccs:
        for n in c:
            member[n] = c
    terminal = []
    for c in sccs:
        if all(member[m] is c for n in c for m in D.arcs[n]):
            terminal.append(c)
    return terminal


def _closed_walk_through(D, scc, targets):
    """A closed walk inside one SCC visiting every node of `targets`."""
    targets = [t for t in sorted(targets) if t in scc]
    if not targets:
        return None
    start = targets[0]

    def bfs(src, goal_set):
        # shortest path src -> any goal (nonempty move), inside scc
        from collections import deque
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

    terminal = _terminal_sccs(D, sccs)
    scc = min(terminal, key=lambda c: tuple(sorted(c)))
    edges = frozenset(abs(d) for d in scc)
    both = all(d in scc and -d in scc for d in scc)
    if both:
        return RecurrenceVerdict("reducible", subgraph=edges)
    return RecurrenceVerdict("one-orientation-subgraph", subgraph=edges)


def find_spanning_legal_loop(tt):
    """A legal loop crossing every edge, or None."""
    verdict = classify_recurrence(tt)
    if verdict.is_recurrent():
        return EdgePath(tt.graph, verdict.certificate, cyclic=True)
    return None


def spanning_legal_loop_bruteforce(tt):
    """Independent check: DP over (direction, covered-edge set).

    Returns True iff some legal loop crosses every edge of the support.
    """
    D = direction_digraph(tt)
    edges = sorted(tt.edge_support())
    bit = {e: 1 << i for i, e in enumerate(edges)}
    full = (1 << len(edges)) - 1
    for start in sorted(D.nodes):
        seen = set()
        frontier = [(start, bit[abs(start)])]
        seen.add((start, bit[abs(start)]))
        while frontier:
            d, mask = frontier.pop()
            if mask == full and start in D.arcs[d]:
                return True
            for d2 in D.arcs[d]:
                st = (d2, mask | bit[abs(d2)])
                if st not in seen:
                    seen.add(st)
                    frontier.append(st)
    return False
