"""Marked metric graphs: points of unprojectivized Outer space.

A marked metric graph is a finite connected graph with positive
rational edge lengths together with a two-way marking identifying its
fundamental group with the free group of the ambient rank:

* marking-in: for each generator ``i`` a based edge-path loop ``p_i``;
* marking-out: for each edge ``e`` a reduced letter tuple ``u_e`` (the
  reverse edge spells its inverse), so that the word of a based loop is
  the product of the ``u_e`` along it.

Compatibility means the two directions are mutually inverse: the word
of ``p_i`` is exactly the i-th generator, and every spanning-tree loop
round-trips through both markings to itself.

Oriented edges are signed integers, exactly like letters: the positive
id runs origin -> target, the negative id is the reverse.  Edge paths
are tuples of signed ids; free reduction of such a tuple is homotopy
rel endpoints.  Both markings are signed tables, so reading a path's
word and a word's based loop are each one ``words.substitute``.
"""

from __future__ import annotations

from fractions import Fraction

from .words import (FreeGroup, RankMismatchError, free_reduce, cyclic_reduce,
                    inverse, letter_str, parse_letters, signed_table,
                    substitute, word_str)
from . import stallings


class ValidationError(ValueError):
    pass


class MarkedMetricGraph:
    """A marked metric graph with exact rational edge lengths."""

    def __init__(self, group, vertices, edge_ends, lengths, marking_in,
                 marking_out, basepoint, subdivided=False):
        self.group = group
        self.vertices = set(vertices)
        self.edge_ends = dict(edge_ends)           # e>0 -> (origin, target)
        self.lengths = {e: Fraction(l) for e, l in lengths.items()}
        self.marking_in = {i: tuple(p) for i, p in marking_in.items()}
        self.marking_out = {e: tuple(w) for e, w in marking_out.items()}
        self.basepoint = basepoint
        self.subdivided = subdivided
        # v -> oriented edges leaving v, in oriented_edges() order,
        # oriented edge -> (origin, terminus), signed letter -> marking
        # loop and oriented edge -> label; no code changes vertices,
        # edge_ends or either marking after construction
        self._marking = signed_table(self.marking_in)
        self._labels = signed_table(self.marking_out)
        self._ends, self._leaving = _incidence(self.vertices, self.edge_ends)
        # (graph, fold edge map) this graph was folded from, set by
        # folded_marked_graph until subgraph_factors takes the parent's
        # table; core subset -> handle, kept by subgraph_factors until a
        # graph folded from this one takes it
        self.folded_from = None
        self._factor_table = None

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

    def path_word(self, edges):
        """The reduced letter tuple of an edge path under marking-out."""
        return substitute(edges, self._labels)

    def based_loop_of(self, letters):
        """The reduced based edge-path loop of a letter tuple, via
        marking-in."""
        return substitute(letters, self._marking)

    def path_length(self, edges):
        return sum(self.lengths[abs(e)] for e in edges)

    def loop_representative(self, cw):
        """The immersed cyclic edge path of a CyclicWord: its based loop,
        cyclically reduced, as a tuple."""
        if cw.is_trivial():
            raise ValueError("trivial class has no immersed representative")
        core = tuple(cyclic_reduce(self.based_loop_of(cw.letters))[0])
        self.check_path(core, cyclic=True)
        return core

    def translation_length(self, cw):
        """The length of the immersed loop of a CyclicWord."""
        if cw.is_trivial():
            return Fraction(0)
        return self.path_length(self.loop_representative(cw))

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
        return _spanning_tree(self.vertices, self._ends, self._leaving, root)

    def tree_loop(self, parent, e):
        """Based loop through edge e: tree path to o(e), e, tree path back."""
        return _tree_loop(self._ends, parent, e)

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
            if w != (i,):
                diags.append(f"marking mismatch: word of loop {i} is "
                             f"{word_str(w)}")
        if not diags:
            # round-trip: spanning-tree loops survive out-then-in
            parent, _ = self.spanning_tree()
            tree = {abs(parent[v]) for v in parent if parent[v] is not None}
            for e in sorted(self.edge_ends):
                if e in tree:
                    continue
                loop = self.tree_loop(parent, e)
                back = self.based_loop_of(self.path_word(loop))
                if tuple(free_reduce(list(loop))) != back:
                    diags.append(f"marking round-trip fails on edge loop {e}")
        return diags

    # -- remarking ----------------------------------------------------------

    def remark(self, phi, phi_inverse):
        """Precompose the marking with an automorphism phi, given with its
        inverse (new point of the orbit): labels go through phi, and
        marking loops are the based loops of the images under phi^-1."""
        if not phi.group == phi_inverse.group == self.group:
            raise RankMismatchError("automorphism of another rank")
        new_out = {e: substitute(w, phi.table)
                   for e, w in self.marking_out.items()}
        new_in = {i: self.based_loop_of(im.letters)
                  for i, im in enumerate(phi_inverse.images, start=1)}
        return MarkedMetricGraph(self.group, self.vertices, self.edge_ends,
                                 self.lengths, new_in, new_out, self.basepoint,
                                 self.subdivided)

    # -- factors and subgroup cores -----------------------------------------

    def _core_subsets(self):
        """Every nonempty edge subset in which no vertex has valence 1.

        A depth-first include/exclude search decides the edges from the
        greatest id down, excluding before including, so the subsets
        come in increasing order of their bit masks (bit k for the k-th
        least edge).  A vertex is closed once its least edge is decided;
        a branch that closes a vertex of valence 1 is dropped.  Each
        subset is a tuple of edge ids in increasing order.
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
                    subsets.append(tuple(chosen[::-1]))
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
        and no other subset is visited to the end.  A subset that
        ``_carried`` reads off the graph this one was folded from takes
        that graph's handle.  One pass makes every other handle: a
        union-find over the subset's edge ends counts its vertices and
        components, a connected subset of proper rank is folded, each
        edge spelling its marking-out word, and the core of that fold is
        the factor's cyclic core.

        Distinct connected core subgraphs of a marked graph carry
        distinct factor classes (the core subgraph is the image of the
        class's minimal subtree in the universal cover), so no two
        handles share a code.  The graph keeps its table, subset ->
        handle, and the handles come in the table's order, that of the
        subsets' bit masks.  Handles are canonical (``FactorHandle``), so
        the result depends on this graph alone, not on what was
        projected before.
        """
        n, ends, labels = self.group.rank, self.edge_ends, self.marking_out
        carried = self._carried()
        table = {}
        for subset in self._core_subsets():
            h = carried.get(subset)
            if h is None:
                parent = {}
                parts = 0
                for e in subset:
                    o, t = ends[e]
                    if o not in parent:
                        parent[o] = o
                        parts += 1
                    if t not in parent:
                        parent[t] = t
                        parts += 1
                    while parent[o] != o:
                        o = parent[o]
                    while parent[t] != t:
                        t = parent[t]
                    if o != t:
                        parent[t] = o
                        parts -= 1
                if parts != 1 or not 1 <= len(subset) - len(parent) + 1 < n:
                    continue
                h = stallings.FactorHandle(stallings.folded_core(
                    [(*ends[e], labels[e]) for e in subset]), n)
            table[subset] = h
        self._factor_table = table
        return list(table.values())

    def _carried(self):
        """Core subsets of this graph that keep a handle of the graph it
        was folded from, as a dict subset -> handle.

        When that graph still holds its table, this graph takes it over:
        the link and the old table are dropped, so a chain of fold events
        keeps at most two tables alive.  The fold map f is a homotopy
        equivalence that respects the markings, so it sends the factor of
        an old subset S into the factor of S' = {|x| : x in f(e), e in S},
        a connected subgraph.  A free factor inside a free factor of equal
        rank is all of it, so S' carries S's class when |S'| - |V(S')| + 1
        equals S's rank.  (S' may still fail to be a core subset; then
        ``subgraph_factors`` never asks for it.)
        """
        link, self.folded_from = self.folded_from, None
        if link is None:
            return {}
        old, edge_map = link
        table, old._factor_table = old._factor_table, None
        if table is None:
            return {}
        ends = self.edge_ends
        carried = {}
        for subset, h in table.items():
            image = {abs(x) for e in subset for x in edge_map[e]}
            if len(image) - len({v for x in image for v in ends[x]}) + 1 \
                    == h.rank:
                carried[tuple(sorted(image))] = h
        return carried

    def subgroup_core_in_graph(self, H):
        """Immersed cyclic core of the H-cover over this graph, with volume.

        H: a SubgroupCoreGraph over the ambient letters (based or not).
        Returns (core, volume) where core is a SubgroupCoreGraph whose
        labels are oriented edge ids of this graph.
        """
        if H.rank() < 1:
            raise ValueError("trivial subgroup")
        core = stallings.folded_core(
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
                "labels": {str(e): word_str(self.marking_out[e])
                           for e in sorted(self.edge_ends)},
            },
            "basepoint": self.basepoint,
            "subdivided": self.subdivided,
        }

    @classmethod
    def from_json(cls, data, group=None):
        group = group or FreeGroup(data["rank"])
        edge_ends = {e["id"]: (e["from"], e["to"]) for e in data["edges"]}
        lengths = {e["id"]: Fraction(e["length"]) for e in data["edges"]}
        marking_in = {}
        for key, loop in data["marking"]["loops"].items():
            idx = parse_letters(key)[0]
            marking_in[idx] = tuple(loop)
        marking_out = {}
        for key, wstr in data["marking"]["labels"].items():
            marking_out[int(key)] = group.word(
                "" if wstr == "1" else wstr).letters
        return cls(group, data["vertices"], edge_ends, lengths, marking_in,
                   marking_out, data["basepoint"],
                   data.get("subdivided", False))

    def __repr__(self):
        return (f"MarkedMetricGraph(rank={self.group.rank}, V={len(self.vertices)}, "
                f"E={len(self.edge_ends)}, vol={self.volume()})")


def rose(group, lengths=None):
    """The rose with identity marking, the standard marking of one vertex;
    lengths default to 1/N each."""
    n = group.rank
    if lengths is None:
        lengths = [Fraction(1, n)] * n
    return standard_marking(group, {0}, {i: (0, 0) for i in range(1, n + 1)},
                            dict(zip(range(1, n + 1), lengths)), 0)


def _incidence(vertices, edge_ends):
    """(ends, leaving) of a graph: oriented edge -> (origin, terminus), and
    vertex -> the oriented edges leaving it, in oriented_edges() order."""
    ends, leaving = {}, {v: [] for v in vertices}
    for e in sorted(edge_ends):
        o, t = edge_ends[e]
        ends[e], ends[-e] = (o, t), (t, o)
        leaving.setdefault(o, []).append(e)
        leaving.setdefault(t, []).append(-e)
    return ends, leaving


def _spanning_tree(vertices, ends, leaving, root):
    """BFS spanning tree from root, taking the edges leaving each vertex
    in order; returns (parent: v -> signed edge into v, order)."""
    parent = {root: None}
    order = [root]
    for v in order:                 # order is the BFS queue
        for e in leaving.get(v, ()):
            w = ends[e][1]
            if w not in parent:
                parent[w] = e
                order.append(w)
    if len(parent) != len(vertices):
        raise ValidationError("graph is not connected")
    return parent, order


def _tree_path(ends, parent, v):
    """Edge path root -> v inside the spanning tree."""
    path = []
    while parent[v] is not None:
        e = parent[v]
        path.append(e)
        v = ends[e][0]
    return tuple(reversed(path))


def _tree_loop(ends, parent, e):
    """Based loop through edge e: tree path to o(e), e, tree path back."""
    o, t = ends[e]
    return _tree_path(ends, parent, o) + (e,) + inverse(
        _tree_path(ends, parent, t))


def _tree_loops(vertices, edge_ends, basepoint):
    """Edge id -> the reduced loop at the basepoint through the edge
    along the BFS spanning tree, in edge id order; tree edges give ()."""
    vertices = set(vertices)
    ends, leaving = _incidence(vertices, edge_ends)
    parent, _ = _spanning_tree(vertices, ends, leaving, basepoint)
    return {e: tuple(free_reduce(_tree_loop(ends, parent, e)))
            for e in sorted(edge_ends)}


def standard_marking(group, vertices, edge_ends, lengths, basepoint):
    """Mark a bare graph: spanning-tree edges get the trivial word, the
    j-th non-tree edge the j-th generator, whose marking loop is its
    tree loop."""
    loops = _tree_loops(vertices, edge_ends, basepoint)
    nontree = [e for e, loop in loops.items() if loop]
    if len(nontree) != group.rank:
        raise ValidationError("graph rank does not match the group rank")
    marking_out = dict.fromkeys(edge_ends, ())
    marking_in = {}
    for j, e in enumerate(nontree, start=1):
        marking_out[e] = (j,)
        marking_in[j] = loops[e]
    return MarkedMetricGraph(group, vertices, edge_ends, lengths, marking_in,
                             marking_out, basepoint)


def folded_marked_graph(G, sub, vertices, cells, basepoint):
    """The subdivided marked graph on cells that the fold map sub carries
    G to, keeping (G, sub) as ``folded_from``.

    sub: oriented edge of G -> edge path over the cells, a homotopy
    equivalence taking G's basepoint to basepoint; cells: edge id ->
    (origin, terminus, length, ...).  The marking loops are G's pushed
    through sub, and the labels the tree cocycle: each tree loop is read
    in one fold of G's edges, e spelling sub[e] and carrying G's label
    (``stallings.express_in_generators``), G's basepoint numbered 0.
    """
    edge_ends = {e: c[:2] for e, c in cells.items()}
    loops = _tree_loops(vertices, edge_ends, basepoint)
    number = {v: k for k, v in
              enumerate([G.basepoint, *(G.vertices - {G.basepoint})])}
    labels = stallings.express_in_generators(
        [(number[o], number[t], sub[e], G.marking_out[e])
         for e, (o, t) in G.edge_ends.items()], loops.values())
    graph = MarkedMetricGraph(
        G.group, vertices, edge_ends, {e: c[2] for e, c in cells.items()},
        {i: substitute(loop, sub) for i, loop in G.marking_in.items()},
        dict(zip(loops, labels)), basepoint, True)
    graph.folded_from = (G, sub)
    return graph
