"""Marked metric graphs: points of unprojectivized Outer space.

A marked metric graph is a finite connected graph with positive
rational edge lengths together with a two-way marking identifying its
fundamental group with the free group of the ambient rank:

* marking-in: for each generator ``i`` a based edge-path loop ``p_i``;
* marking-out: for each oriented edge ``e`` a word ``u_e``, so that the
  word of a based loop is the product of the ``u_e`` along it.

Compatibility means the two directions are mutually inverse: the word
of ``p_i`` is exactly the i-th generator, and every spanning-tree loop
round-trips through both markings to itself.

Oriented edges are signed integers, exactly like letters: the positive
id runs origin -> target, the negative id is the reverse.  Edge paths
are tuples of signed ids; free reduction of such a tuple is homotopy
rel endpoints.
"""

from __future__ import annotations

from fractions import Fraction

from .words import (Word, CyclicWord, free_reduce, cyclic_reduce, letter_str,
                    least_rotation)
from . import stallings


class ValidationError(ValueError):
    pass


class EdgePath:
    """A tightened edge path; cyclic=True for a free homotopy class."""

    __slots__ = ("graph", "edges", "cyclic")

    def __init__(self, graph, edges, cyclic=False):
        edges = tuple(edges)
        if cyclic:
            core, _ = cyclic_reduce(free_reduce(list(edges)))
            edges = tuple(core)
        else:
            edges = tuple(free_reduce(list(edges)))
        self.graph = graph
        self.edges = edges
        self.cyclic = cyclic
        graph.check_path(edges, cyclic=cyclic)

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __eq__(self, other):
        if not isinstance(other, EdgePath) or self.cyclic != other.cyclic:
            return False
        if not self.cyclic:
            return self.edges == other.edges
        return least_rotation(self.edges) == least_rotation(other.edges)

    def __hash__(self):
        return hash((least_rotation(self.edges) if self.cyclic else self.edges,
                     self.cyclic))

    def length(self):
        return sum(self.graph.lengths[abs(e)] for e in self.edges)

    def __repr__(self):
        kind = "cyclic" if self.cyclic else "based"
        return f"EdgePath({kind}, {list(self.edges)})"


class MarkedMetricGraph:
    """A marked metric graph with exact rational edge lengths."""

    def __init__(self, group, vertices, edge_ends, lengths, marking_in,
                 marking_out, basepoint, subdivided=False):
        self.group = group
        self.vertices = set(vertices)
        self.edge_ends = dict(edge_ends)           # e>0 -> (origin, target)
        self.lengths = {e: Fraction(l) for e, l in lengths.items()}
        self.marking_in = {i: tuple(p) for i, p in marking_in.items()}
        self.marking_out = dict(marking_out)       # e>0 -> Word
        self.basepoint = basepoint
        self.subdivided = subdivided
        # v -> oriented edges leaving v, in oriented_edges() order, and
        # oriented edge -> (origin, terminus); no code changes vertices
        # or edge_ends after construction
        self._leaving = {v: [] for v in self.vertices}
        self._ends = {}
        for e in self.oriented_edges():
            o, t = self.edge_ends[abs(e)]
            if e < 0:
                o, t = t, o
            self._ends[e] = (o, t)
            self._leaving.setdefault(o, []).append(e)

    # -- basic incidence ------------------------------------------------

    def origin(self, e):
        return self._ends[e][0]

    def terminus(self, e):
        return self._ends[e][1]

    def oriented_edges(self):
        return [s * e for e in sorted(self.edge_ends) for s in (1, -1)]

    def directions_at(self, v):
        """Oriented edges leaving v, in oriented_edges() order (the list
        is the graph's own; do not change it)."""
        return self._leaving.get(v, [])

    def degree(self, v):
        return len(self.directions_at(v))

    def check_path(self, edges, cyclic=False):
        for e in edges:
            if abs(e) not in self.edge_ends:
                raise ValueError(f"unknown edge {e}")
        for a, b in zip(edges, edges[1:]):
            if self.terminus(a) != self.origin(b):
                raise ValueError(f"non-incident edges {a},{b}")
        if cyclic and edges and self.terminus(edges[-1]) != self.origin(edges[0]):
            raise ValueError("cyclic path does not close up")

    def volume(self):
        return sum(self.lengths.values())

    def rank(self):
        return len(self.edge_ends) - len(self.vertices) + 1

    # -- marking --------------------------------------------------------

    def label_word(self, e):
        """Marking-out word of an oriented edge."""
        w = self.marking_out[abs(e)]
        return w if e > 0 else w.inverse()

    def path_word(self, edges):
        """Word of an edge path under marking-out."""
        out = []
        for e in edges:
            out.extend(self.label_word(e).letters)
        return Word(self.group, out)

    def based_loop_of(self, word):
        """Based edge-path loop representing a word, via marking-in."""
        path = []
        for x in word.letters:
            loop = self.marking_in[abs(x)]
            path.extend(loop if x > 0 else [-e for e in reversed(loop)])
        return tuple(free_reduce(path))

    def loop_representative(self, cw):
        """The immersed cyclic edge path of a conjugacy class."""
        if isinstance(cw, Word):
            cw = CyclicWord(cw.group, cw.letters)
        if cw.is_trivial():
            raise ValueError("trivial class has no immersed representative")
        path = self.based_loop_of(cw.word())
        return EdgePath(self, path, cyclic=True)

    def translation_length(self, cw):
        if isinstance(cw, Word):
            cw = CyclicWord(cw.group, cw.letters)
        if cw.is_trivial():
            return Fraction(0)
        return self.loop_representative(cw).length()

    # -- normalization ---------------------------------------------------

    def with_lengths(self, lengths):
        return MarkedMetricGraph(self.group, self.vertices, self.edge_ends,
                                 lengths, self.marking_in, self.marking_out,
                                 self.basepoint, self.subdivided)

    def normalize(self):
        vol = self.volume()
        return self.with_lengths({e: l / vol for e, l in self.lengths.items()})

    # -- spanning tree helpers -------------------------------------------

    def spanning_tree(self, root=None):
        """BFS spanning tree; returns (parent: v -> signed edge into v, order)."""
        root = self.basepoint if root is None else root
        parent = {root: None}
        order = [root]
        queue = [root]
        while queue:
            v = queue.pop(0)
            for e in self.directions_at(v):
                w = self.terminus(e)
                if w not in parent:
                    parent[w] = e
                    order.append(w)
                    queue.append(w)
        if len(parent) != len(self.vertices):
            raise ValidationError("graph is not connected")
        return parent, order

    def tree_path(self, parent, v):
        """Edge path root -> v inside the spanning tree."""
        path = []
        while parent[v] is not None:
            e = parent[v]
            path.append(e)
            v = self.origin(e)
        return tuple(reversed(path))

    def tree_loop(self, parent, e):
        """Based loop through edge e: tree path to o(e), e, tree path back."""
        back = self.tree_path(parent, self.terminus(e))
        return (self.tree_path(parent, self.origin(e)) + (e,)
                + tuple(-x for x in reversed(back)))

    # -- validation --------------------------------------------------------

    def validate(self):
        """Return a list of diagnostics; empty means valid."""
        diags = []
        for e, l in self.lengths.items():
            if l <= 0:
                diags.append(f"nonpositive length on edge {e}")
        for e, (o, t) in self.edge_ends.items():
            if o not in self.vertices or t not in self.vertices:
                diags.append(f"edge {e} has missing endpoint")
        if self.basepoint not in self.vertices:
            diags.append("missing basepoint")
        try:
            self.spanning_tree()
        except ValidationError:
            diags.append("not connected")
            return diags
        if self.rank() != self.group.rank:
            diags.append(f"rank {self.rank()} != ambient rank {self.group.rank}")
        if not self.subdivided:
            for v in self.vertices:
                if self.degree(v) < 3:
                    diags.append(f"vertex {v} has degree {self.degree(v)} < 3 "
                                 "(graph not flagged subdivided)")
        for i in range(1, self.group.rank + 1):
            loop = self.marking_in.get(i)
            if loop is None:
                diags.append(f"missing marking loop for generator {i}")
                continue
            try:
                self.check_path(loop)
            except ValueError as exc:
                diags.append(f"marking loop {i}: {exc}")
                continue
            if loop and (self.origin(loop[0]) != self.basepoint
                         or self.terminus(loop[-1]) != self.basepoint):
                diags.append(f"marking loop {i} not based at basepoint")
                continue
            w = self.path_word(loop)
            if w.letters != (i,):
                diags.append(f"marking mismatch: word of loop {i} is {w}")
        if not diags:
            # round-trip: spanning-tree loops survive out-then-in
            parent, _ = self.spanning_tree()
            tree = {abs(parent[v]) for v in parent if parent[v] is not None}
            for e in sorted(self.edge_ends):
                if e in tree:
                    continue
                loop = self.tree_loop(parent, e)
                w = self.path_word(loop)
                back = self.based_loop_of(w)
                if tuple(free_reduce(list(loop))) != back:
                    diags.append(f"marking round-trip fails on edge loop {e}")
        return diags

    # -- marking maintenance ----------------------------------------------

    def recompute_marking_out(self):
        """Rebuild marking-out from marking-in (canonical tree-based cocycle)."""
        parent, _ = self.spanning_tree()
        loops = [self.marking_in[i] for i in range(1, self.group.rank + 1)]
        targets = []
        keys = sorted(self.edge_ends)
        for e in keys:
            targets.append(tuple(free_reduce(list(self.tree_loop(parent, e)))))
        exprs = stallings.express_in_generators(loops, targets, self.group.rank)
        # u_e := word of the tree-conjugated edge loop; tree edges come out
        # trivial, and products along based loops telescope to the right word.
        self.marking_out = {e: Word(self.group, w.letters)
                            for e, w in zip(keys, exprs)}
        return self

    def remark(self, phi, phi_inverse=None):
        """Precompose the marking with an automorphism (new point of the orbit)."""
        if phi_inverse is None:
            phi_inverse = phi.inverse()
        new_out = {e: phi.apply(w) for e, w in self.marking_out.items()}
        new_in = {}
        for i in range(1, self.group.rank + 1):
            w = phi_inverse.apply(self.group.generator(i))
            new_in[i] = self.based_loop_of(w)
        return MarkedMetricGraph(self.group, self.vertices, self.edge_ends,
                                 self.lengths, new_in, new_out, self.basepoint,
                                 self.subdivided)

    # -- factors and subgroup cores -----------------------------------------

    def _subgraph_handle(self, edge_subset):
        """FactorHandle of a connected subgraph given by positive edge ids;
        None if the subgraph is disconnected.

        The subgraph itself is folded, each edge spelling its
        marking-out word; its core is the factor's cyclic core.
        """
        adjacent = {}
        for e in edge_subset:
            o, t = self.edge_ends[e]
            adjacent.setdefault(o, set()).add(t)
            adjacent.setdefault(t, set()).add(o)
        reached = [min(adjacent)]
        for v in reached:
            reached.extend(adjacent[v].difference(reached))
        if len(reached) != len(adjacent):
            return None
        core = stallings.folded_core(
            self.group.rank, [(*self.edge_ends[e], self.marking_out[e].letters)
                              for e in sorted(edge_subset)])
        return stallings.FactorHandle(core, self.group.rank)

    def _core_subsets(self):
        """Every nonempty edge subset in which no vertex has valence 1.

        A depth-first include/exclude search decides the edges from the
        greatest id down, excluding before including, so the subsets
        come in increasing order of their bit masks (bit k for the k-th
        least edge).  A vertex is closed once its least edge is decided;
        a branch that closes a vertex of valence 1 is dropped.  Each
        subset is a list of edge ids in increasing order.
        """
        edges = sorted(self.edge_ends)
        closes = [[] for _ in edges]       # vertices closed by edges[k]
        least = {}
        for k, e in enumerate(edges):
            for v in self.edge_ends[e]:
                if v not in least:
                    least[v] = k
                    closes[k].append(v)
        deg = dict.fromkeys(least, 0)
        chosen, subsets = [], []

        def decide(k):
            if k < 0:
                if chosen:
                    subsets.append(chosen[::-1])
                return
            if all(deg[v] != 1 for v in closes[k]):
                decide(k - 1)
            o, t = self.edge_ends[edges[k]]
            deg[o] += 1
            deg[t] += 1
            chosen.append(edges[k])
            if all(deg[v] != 1 for v in closes[k]):
                decide(k - 1)
            deg[o] -= 1
            deg[t] -= 1
            chosen.pop()

        decide(len(edges) - 1)
        return subsets

    def subgraph_factors(self):
        """Handles of all connected proper core subgraphs (rank 1..N-1).

        A subset of edges is its own core exactly when none of its
        vertices has valence below 2.  ``_core_subsets`` searches for
        those subsets, so every core subgraph is met as its own subset
        and no other subset is visited to the end.  Handles come in the
        order of the subsets' bit masks, each handle once.
        """
        handles = {}
        for subset in self._core_subsets():
            verts = {v for e in subset for v in self.edge_ends[e]}
            if not 1 <= len(subset) - len(verts) + 1 <= self.group.rank - 1:
                continue
            h = self._subgraph_handle(subset)
            if h is None:  # disconnected
                continue
            handles[h.code] = h
        return list(handles.values())

    def subgroup_core_in_graph(self, H):
        """Immersed cyclic core of the H-cover over this graph, with volume.

        H: a SubgroupCoreGraph over the ambient letters (based or not).
        Returns (core, volume) where core is a SubgroupCoreGraph whose
        labels are oriented edge ids of this graph.
        """
        if H.rank() < 1:
            raise ValueError("trivial subgroup")
        core = stallings.folded_core(
            max(self.edge_ends),
            [(o, t, self.marking_in[lab]) for (o, t, lab) in sorted(H.edges)])
        vol = sum(self.lengths[lab] for (_, _, lab) in core.edges)
        return core, vol

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "rank": self.group.rank,
            "vertices": sorted(self.vertices),
            "edges": [{"id": e, "from": self.edge_ends[e][0],
                       "to": self.edge_ends[e][1],
                       "length": f"{self.lengths[e].numerator}/{self.lengths[e].denominator}"}
                      for e in sorted(self.edge_ends)],
            "marking": {
                "loops": {letter_str(i): list(self.marking_in[i])
                          for i in range(1, self.group.rank + 1)},
                "labels": {str(e): str(self.marking_out[e])
                           for e in sorted(self.edge_ends)},
            },
            "basepoint": self.basepoint,
            "subdivided": self.subdivided,
        }

    @classmethod
    def from_json(cls, data, group=None):
        from .words import FreeGroup, parse_letters
        group = group or FreeGroup(data["rank"])
        edge_ends = {e["id"]: (e["from"], e["to"]) for e in data["edges"]}
        lengths = {e["id"]: Fraction(e["length"]) for e in data["edges"]}
        marking_in = {}
        for key, loop in data["marking"]["loops"].items():
            idx = parse_letters(key)[0]
            marking_in[idx] = tuple(loop)
        marking_out = {}
        for key, wstr in data["marking"]["labels"].items():
            marking_out[int(key)] = group.word("" if wstr == "1" else wstr)
        return cls(group, data["vertices"], edge_ends, lengths, marking_in,
                   marking_out, data["basepoint"],
                   data.get("subdivided", False))

    def __repr__(self):
        return (f"MarkedMetricGraph(rank={self.group.rank}, V={len(self.vertices)}, "
                f"E={len(self.edge_ends)}, vol={self.volume()})")


def rose(group, lengths=None):
    """The rose with identity marking; lengths default to 1/N each."""
    n = group.rank
    if lengths is None:
        lengths = {i: Fraction(1, n) for i in range(1, n + 1)}
    else:
        lengths = {i: Fraction(l) for i, l in zip(range(1, n + 1), lengths)}
    return MarkedMetricGraph(
        group,
        vertices={0},
        edge_ends={i: (0, 0) for i in range(1, n + 1)},
        lengths=lengths,
        marking_in={i: (i,) for i in range(1, n + 1)},
        marking_out={i: group.generator(i) for i in range(1, n + 1)},
        basepoint=0,
    )


def standard_marking(group, vertices, edge_ends, lengths, basepoint):
    """Mark a bare graph: spanning-tree edges get the trivial word, the
    j-th non-tree edge the j-th generator."""
    g = MarkedMetricGraph(group, vertices, edge_ends, lengths,
                          {i: () for i in range(1, group.rank + 1)},
                          {e: group.identity() for e in edge_ends}, basepoint)
    parent, _ = g.spanning_tree()
    tree = {abs(parent[v]) for v in parent if parent[v] is not None}
    nontree = [e for e in sorted(edge_ends) if e not in tree]
    if len(nontree) != group.rank:
        raise ValidationError("graph rank does not match the group rank")
    marking_out = {}
    for e in edge_ends:
        marking_out[e] = group.identity()
    marking_in = {}
    for j, e in enumerate(nontree, start=1):
        marking_out[e] = group.generator(j)
        marking_in[j] = tuple(free_reduce(list(g.tree_loop(parent, e))))
    g.marking_out = marking_out
    g.marking_in = marking_in
    return g
