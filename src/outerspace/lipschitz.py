"""The asymmetric Lipschitz metric between marked metric graphs.

The stretch factor of a pair is the maximum, over the finite candidate
family (embedded circles, figure-eights, barbells), of target length
over source length.  Each candidate is built once: every embedded circle
is met from its least edge, crossed forwards, and one pass over the
pairs of circles builds the figure-eights and barbells.  The family
depends on the source's topology alone, so a graph keeps its list once
a stretch has built it, and so do the graph's ``with_lengths`` copies.

One kernel gives the candidates' lengths in both graphs, to the stretch
factor and to the in-simplex minimizer.  The target image loop of each
oriented source edge is built and checked once; a candidate's image is
the concatenation of its edges' images, freely reduced on one stack and
trimmed cyclically.  Lengths add as integers, read off each graph's
one integer length table (over the lcm of its denominators), and
ratios compare by cross-multiplying.  The word
route (``class_of_loop``, then ``MarkedMetricGraph.translation_length``)
stays as the independent check of the kernel.

An optimal map realizing the stretch exactly is built by convex
descent.  The vertex images of a straight map range over a product of
copies of the target's universal-cover tree, and the maximal slope is
convex there with minimum the stretch factor (Francaviglia-Martino,
"Metric properties of Outer space").  Starting from the tree-collapse
difference-of-markings map, each step solves an exact LP in a closed
cell around the current vertex images and moves to its optimum, until
the maximal slope equals the known stretch factor.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .words import CyclicWord, inverse, least_rotation, signed_table
from .paths import TargetPath, vertex_point, edge_point, direction_germ
from .traintrack import TrainTrackStructure
from . import simplex_lp


class OptimalMapError(RuntimeError):
    """The descent failed to certify sigma = lambda.

    optimal_map fills in its state at the failure: sigma of the map, the
    stretch factor lam, the descent steps taken and the cells tried.
    """

    sigma = lam = None
    steps = cells = 0

    def __str__(self):
        if self.sigma is None:
            return self.args[0]
        return (f"{self.args[0]} (sigma {self.sigma}, lambda {self.lam}, "
                f"{self.steps} steps, {self.cells} cells tried)")


class BoundaryOptimumError(RuntimeError):
    """The in-simplex minimizer landed on a missing face."""

    def __init__(self, lengths, value):
        super().__init__("optimum on the simplex boundary")
        self.lengths = lengths
        self.value = value


# -- candidates ------------------------------------------------------------


class Candidate:
    """A candidate loop: embedded circle, figure-eight, or barbell."""

    __slots__ = ("edges", "shape")

    def __init__(self, edges, shape):
        self.edges = tuple(edges)
        self.shape = shape

    def canonical_key(self):
        return _loop_canon(self.edges)

    def crossing_counts(self):
        counts = {}
        for e in self.edges:
            counts[abs(e)] = counts.get(abs(e), 0) + 1
        return counts

    def length_in(self, graph):
        return graph.path_length(self.edges)

    def __eq__(self, other):
        return isinstance(other, Candidate) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Candidate({self.shape}, {list(self.edges)})"


def _loop_canon(edges):
    """Canonical form of a cyclic loop up to rotation AND inversion."""
    return min(least_rotation(edges), least_rotation(inverse(edges)))


def _embedded_circles(graph):
    """All embedded circles (vertex-simple cycles) as oriented edge tuples.

    The search from each positive edge e0 crosses only edges above e0, so
    it meets exactly the circles whose least edge is e0, each once and
    starting with e0 crossed forwards.
    """
    circles = []
    for e0 in sorted(graph.edge_ends):
        v0 = graph.origin(e0)
        stack = [((e0,), {graph.terminus(e0)})]
        while stack:
            path, visited = stack.pop()
            head = graph.terminus(path[-1])
            if head == v0:
                circles.append(path)
                continue
            for e in graph.directions_at(head):
                w = graph.terminus(e)
                if abs(e) > e0 and (w == v0 or w not in visited):
                    stack.append((path + (e,), visited | {w}))
    return circles


def _rotate_to_vertex(graph, cycle, v):
    i = next(i for i, e in enumerate(cycle) if graph.origin(e) == v)
    return cycle[i:] + cycle[:i]


def candidates(graph):
    """All candidate loops, each built once, sorted by canonical key.

    Beside the embedded circles, one pass over the pairs of circles: a
    pair sharing exactly one vertex gives two figure-eights, a
    vertex-disjoint pair two barbells per embedded arc between them.  A
    figure-eight is a barbell with an empty arc, so one loop builds both.
    """
    circles = _embedded_circles(graph)
    result = [Candidate(c, "embedded-circle") for c in circles]
    with_vertices = [(c, {graph.origin(e) for e in c}) for c in circles]
    for (c1, v1), (c2, v2) in itertools.combinations(with_vertices, 2):
        common = v1 & v2
        if len(common) > 1:
            continue
        if common:
            shape, joins = "figure-eight", [(v, (), v) for v in common]
        else:
            shape = "barbell"
            joins = [(graph.origin(arc[0]), arc, graph.terminus(arc[-1]))
                     for arc in _arcs_between(graph, v1, v2)]
        for u1, arc, u2 in joins:
            r1 = _rotate_to_vertex(graph, c1, u1)
            r2 = _rotate_to_vertex(graph, c2, u2)
            for second in (r2, inverse(r2)):
                result.append(Candidate(r1 + arc + second + inverse(arc),
                                        shape))
    return sorted(result, key=Candidate.canonical_key)


def _arcs_between(graph, v1, v2):
    """Embedded arcs from v1 to the disjoint v2, interior avoiding both."""
    arcs = []
    for u in sorted(v1):
        stack = [((e,), {graph.terminus(e)})
                 for e in graph.directions_at(u) if graph.terminus(e) not in v1]
        while stack:
            path, seen = stack.pop()
            head = graph.terminus(path[-1])
            if head in v2:
                arcs.append(path)
                continue
            for e in graph.directions_at(head):
                w = graph.terminus(e)
                if w not in seen and w not in v1:
                    stack.append((path + (e,), seen | {w}))
    return arcs


# -- stretch ---------------------------------------------------------------


def class_of_loop(graph, edges):
    """Conjugacy class of a cyclic edge path, via marking-out."""
    return CyclicWord(graph.group, graph.path_word(edges))


def _candidates_of(graph):
    """The graph's candidate loops, as a tuple: built by ``candidates``
    the first time a stretch needs them, then kept on the graph (and on
    its ``with_lengths`` copies, which share the topology)."""
    if graph.candidates is None:
        graph.candidates = tuple(candidates(graph))
    return graph.candidates


def _candidate_lengths(G, Gp, cands):
    """The length of each candidate loop of G in G and in Gp, exactly.

    Returns (pairs, scale, scale_p): pairs[k] holds the two lengths of
    cands[k] as integers over scale (G) and scale_p (Gp), read off each
    graph's integer length table.  The image loop of each edge of G is
    built and checked once, and the reverse edge's is its inverse; a
    loop's image is the concatenation of its edges' images, freely
    reduced on one stack and trimmed cyclically.  The images are closed
    at Gp's basepoint, so the concatenation is an edge path, and its
    cyclic reduction is the immersed loop of the class.
    """
    if G.group.rank != Gp.group.rank:
        raise ValueError("rank mismatch")
    loops = {}
    for e in sorted(G.edge_ends):
        loop = Gp.based_loop_of(G.path_word((e,)))
        Gp.check_path(loop)
        if loop and not (Gp.origin(loop[0]) == Gp.terminus(loop[-1])
                         == Gp.basepoint):
            raise ValueError(f"image of edge {e} is not a loop at the "
                             "basepoint")
        loops[e] = loop
    images = signed_table(loops)
    source, target = G.int_lengths, Gp.int_lengths
    pairs = []
    for cand in cands:
        path = []
        for d in cand.edges:
            img = images[d]
            k = 0
            while path and k < len(img) and path[-1] == -img[k]:
                path.pop()
                k += 1
            path.extend(img[k:])   # an image is reduced: no more cancels
        i, j = 0, len(path) - 1
        while i < j and path[i] == -path[j]:
            i += 1
            j -= 1
        pairs.append((sum(map(source.__getitem__, cand.edges)),
                      sum(map(target.__getitem__, path[i:j + 1]))))
    return pairs, G.scale, Gp.scale


def stretch_factor(G, Gp):
    """(lambda, witness): max over candidates of target/source length.

    Ratios compare by cross-multiplying integer lengths, in candidate
    order with a strict >, so the witness is the first maximum.
    """
    cands = _candidates_of(G)
    pairs, scale, scale_p = _candidate_lengths(G, Gp, cands)
    best = 0
    lg, lt = pairs[0]
    for k, (sg, tg) in enumerate(pairs):
        if tg * lg > lt * sg:
            best, lg, lt = k, sg, tg
    return Fraction(lt * scale, lg * scale_p), cands[best]


def distance(G, Gp):
    """Asymmetric Lipschitz stretch between normalized representatives."""
    lam, _ = stretch_factor(G.normalize(), Gp.normalize())
    return lam


# -- graph maps --------------------------------------------------------------


class GraphMap:
    """A difference-of-markings map with PL edge images."""

    def __init__(self, source, target, vertex_images, edge_images):
        self.source = source
        self.target = target
        self.vertex_images = dict(vertex_images)   # v -> Point
        self.edge_images = dict(edge_images)       # e>0 -> TargetPath

    def image_of_direction(self, d):
        p = self.edge_images[abs(d)]
        return p if d > 0 else p.reverse()

    def slope(self, e):
        return self.edge_images[abs(e)].length() / self.source.lengths[abs(e)]

    def sigma(self):
        return max(self.slope(e) for e in self.source.edge_ends)

    def slopes(self):
        return {e: self.slope(e) for e in sorted(self.source.edge_ends)}

    def tension_edges(self):
        s = self.sigma()
        return {e for e in self.source.edge_ends if self.slope(e) == s}

    def germ(self, d):
        """The first germ of the image of direction d, or None for a point
        image."""
        return direction_germ(self.edge_images[abs(d)], d)

    def gates(self, restrict_edges):
        """Train track structure by first-germ partition of the directions
        on restrict_edges (positive edge ids)."""
        directions = [d for d in self.source.oriented_edges()
                      if abs(d) in restrict_edges]
        for d in directions:
            if self.germ(d) is None:
                raise ValueError(f"collapsed edge {abs(d)} in restriction")
        return TrainTrackStructure.from_germs(self.source, self.germ, directions)

    def loop_image(self, edges):
        """Image of a closed edge path as a closed TargetPath."""
        v = self.source.origin(edges[0])
        path = TargetPath(self.target, self.vertex_images[v])
        for d in edges:
            path = path.concat(self.image_of_direction(d))
        return path

    def image_class(self, edges):
        """Conjugacy class (as a CyclicWord) of the image of a loop."""
        closed = self.loop_image(edges)
        cyc = closed.closed_class_edges()
        return CyclicWord(self.target.group, self.target.path_word(cyc))

    def is_difference_of_markings(self):
        group = self.source.group
        for i in range(1, group.rank + 1):
            loop = self.source.marking_in[i]
            if self.image_class(loop) != CyclicWord(group, (i,)):
                return False
        return True

    def check_consistency(self):
        """Edge images connect the right vertex images."""
        for e in sorted(self.source.edge_ends):
            p = self.edge_images[e]
            o, t = self.source.edge_ends[e]
            if p.start != self.vertex_images[o] or p.end() != self.vertex_images[t]:
                raise AssertionError(f"edge {e} image endpoints inconsistent")
        return True

    def to_dot(self, name="graph_map"):
        lines = [f"digraph {name} {{"]
        for v in sorted(self.source.vertices):
            lines.append(f'  "v{v}" [label="{v} -> {self.vertex_images[v]}"];')
        for e in sorted(self.source.edge_ends):
            o, t = self.source.edge_ends[e]
            s = self.slope(e)
            lines.append(f'  "v{o}" -> "v{t}" [label="e{e} slope {s}"];')
        lines.append("}")
        return "\n".join(lines)


def initial_difference_of_markings(G, Gp):
    """Tree-collapse map: every vertex to the target basepoint."""
    parent, _ = G.spanning_tree()
    bp = vertex_point(Gp.basepoint)
    vertex_images = {v: bp for v in G.vertices}
    edge_images = {}
    for e in sorted(G.edge_ends):
        target_loop = Gp.based_loop_of(G.path_word(G.tree_loop(parent, e)))
        edge_images[e] = TargetPath.from_edge_word(Gp, target_loop, bp)
    return GraphMap(G, Gp, vertex_images, edge_images)


def optimal_map(G, Gp, lam=None):
    """An optimal difference-of-markings map: sigma(f) = stretch exactly.

    lam is recomputed if not supplied.  A straight map is fixed
    by its vertex images, which range over a product of copies of the
    universal-cover tree of Gp; each edge image length is a tree
    distance, so the maximal slope sigma is convex on that product and
    its minimum is the stretch factor lambda (Francaviglia-Martino,
    "Metric properties of Outer space").  A point with sigma > lambda is
    therefore improved inside some closed cell of its star, where the
    edge image lengths are affine in the vertex offsets.

    The descent starts from the tree-collapse map and moves, by an exact
    LP, to the optimum of the first cell of the star that strictly lowers
    sigma.  No cell is visited twice and finitely many lie below the
    starting sigma, so the descent ends.  Raises OptimalMapError, which
    carries sigma, lambda, the descent steps and the cells tried, if
    no cell improves a point with sigma > lambda, sigma drops below
    lambda or a cell model disagrees with the map (none of which happens
    on valid inputs).
    """
    if lam is None:
        lam, _ = stretch_factor(G, Gp)
    f = initial_difference_of_markings(G, Gp)
    steps = cells = 0
    try:
        while True:
            sigma = f.sigma()
            if sigma == lam:
                return f
            if sigma < lam:
                raise OptimalMapError("sigma dropped below lambda")
            for combo in _star(f):
                cells += 1
                if _try_cell_lp(f, sigma, combo):
                    steps += 1
                    break
            else:
                raise OptimalMapError("no cell of the star lowers sigma "
                                      "above lambda")
    except OptimalMapError as exc:
        exc.sigma, exc.lam, exc.steps, exc.cells = f.sigma(), lam, steps, cells
        raise


def _star(f):
    """The closed cells around the current vertex images, in a fixed order.

    A cell gives every source vertex a line (target edge e, current offset
    in +e coordinates) to move on.  A vertex inside an edge has that edge
    only; a vertex on a target vertex u has one line per oriented edge
    leaving u, so a loop at u gives (e, 0) for +e and (e, L) for -e.  The
    germs of the incident edge images come first: moving into them
    shortens those images.
    """
    Gp = f.target
    verts = sorted(f.source.vertices)
    lines = []
    for v in verts:
        pt = f.vertex_images[v]
        if pt[0] == "e":
            lines.append([(pt[1], pt[2])])
            continue
        germs = [f.germ(d) for d in f.source.directions_at(v)]
        dirs = [g[0] for g in germs if g is not None] + Gp.directions_at(pt[1])
        lines.append(list(dict.fromkeys(
            (abs(d), Fraction(0) if d > 0 else Gp.lengths[abs(d)])
            for d in dirs)))
    for combo in itertools.product(*lines):
        yield dict(zip(verts, combo))


def _try_cell_lp(f, sigma, combo):
    """Move f to the optimum of the cell `combo` if that lowers sigma.

    Returns True if the map moved.  A tension edge's row has right-hand
    side 0, so sigma drops only if that edge can shorten: when the
    cell's box lets no end of some tension edge move the way that
    shortens it, the LP optimum is 0 and no LP is solved.  A negative
    right-hand side or an unbounded LP means the cell model is wrong,
    and so does a moved map whose sigma is not the LP optimum: all three
    raise OptimalMapError.
    """
    G, Gp = f.source, f.target
    verts = sorted(G.vertices)

    # affine model: len_e(x) = len_cur + sum_ends coef * (x_v - x_cur_v),
    # with a pair of rows for a degenerate edge whose ends share a line.
    rows = []          # (coef dict v -> c, base length, edge)
    nonneg = []        # (coef dict, base): model validity, length >= 0
    for e in sorted(G.edge_ends):
        o, t = G.edge_ends[e]
        path = f.edge_images[e]
        base = path.length()
        if path.is_point() and combo[o] == combo[t]:
            # shared line: length |x_o - x_t|, two signed rows
            for s in (1, -1):
                coef = {}
                coef[o] = coef.get(o, 0) + s
                coef[t] = coef.get(t, 0) - s
                rows.append((coef, Fraction(0), e))
            continue
        coef = {}
        for (v, d) in ((o, e), (t, -e)):
            coef[v] = coef.get(v, 0) + _end_coefficient(f.germ(d), *combo[v])
        rows.append((coef, base, e))
        if len(path.segs) == 1:
            # a single-segment image may not shrink through zero; the
            # affine model is only valid while its length stays >= 0
            nonneg.append((coef, base))

    b = []
    for coef, base, e in rows:
        rhs = sigma * G.lengths[e] - base
        if rhs < 0:
            raise OptimalMapError(f"edge {e} is above sigma in the cell model")
        b.append(rhs)
    # an end moves up its line (y+) while its offset is below the line's
    # length, and down (y-) while it is above 0
    for (coef, _, _), rhs in zip(rows, b):
        if not rhs and not any(
                cv < 0 and combo[v][1] < Gp.lengths[combo[v][0]]
                or cv > 0 and combo[v][1] > 0 for v, cv in coef.items()):
            return False

    # variables: (y+_v, y-_v) per vertex, then z' = sigma - z; maximize z'
    nv = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    nvar = 2 * nv + 1
    c_obj = [Fraction(0)] * (2 * nv) + [Fraction(1)]
    A = []
    for coef, base, e in rows:
        row = [Fraction(0)] * nvar
        for v, cv in coef.items():
            row[2 * idx[v]] += cv
            row[2 * idx[v] + 1] -= cv
        row[-1] = G.lengths[e]
        A.append(row)
    for coef, base in nonneg:
        row = [Fraction(0)] * nvar
        for v, cv in coef.items():
            row[2 * idx[v]] -= cv
            row[2 * idx[v] + 1] += cv
        A.append(row)
        b.append(base)
    for v in verts:
        e, x_cur = combo[v]
        up = [Fraction(0)] * nvar
        up[2 * idx[v]] = Fraction(1)
        A.append(up)
        b.append(Gp.lengths[e] - x_cur)
        dn = [Fraction(0)] * nvar
        dn[2 * idx[v] + 1] = Fraction(1)
        A.append(dn)
        b.append(x_cur)
    try:
        value, sol = simplex_lp.solve_lp_max(c_obj, A, b)
    except simplex_lp.Unbounded:
        raise OptimalMapError("cell LP unbounded") from None
    if value <= 0:
        return False
    x_new = {v: combo[v][1] + sol[2 * idx[v]] - sol[2 * idx[v] + 1]
             for v in verts}
    _transport(f, combo, x_new)
    if f.sigma() != sigma - value:
        raise OptimalMapError("moved map misses the cell LP optimum")
    return True


def _end_coefficient(germ, ev, off_v):
    """Rate of change of a path's length when the end whose outward
    germ is `germ` moves along +ev."""
    if germ is None:
        # degenerate path, endpoints on distinct lines: it grows away
        # from the wall offset
        return Fraction(1) if off_v == 0 else Fraction(-1)
    ge = germ[0]
    if abs(ge) == ev:
        # moving into the germ shortens the path
        return Fraction(-1) if ge > 0 else Fraction(1)
    # germ on a different edge: the path grows away from the wall
    return Fraction(1) if off_v == 0 else Fraction(-1)


def _transport(f, combo, x_new):
    """Move each vertex from its line's offset to x_new, adding connectors.

    An edge image leaving a moved vertex gains the segment new -> old in
    front; one arriving there gains old -> new at the back.  Both run
    along the vertex's line, so a loop's two ends stay apart.
    """
    G, Gp = f.source, f.target
    conn = {}
    for v, (e, x0) in combo.items():
        x1 = x_new[v]
        if x1 != x0:
            conn[v] = (e, x0, x1)
        f.vertex_images[v] = edge_point(Gp, e, x1)
    for eid in sorted(G.edge_ends):
        o, t = G.edge_ends[eid]
        path = f.edge_images[eid]
        if o in conn:
            e, x0, x1 = conn[o]
            path = TargetPath(Gp, f.vertex_images[o], [(e, x1, x0)]).concat(path)
        if t in conn:
            path = path.concat(TargetPath(Gp, path.end(), [conn[t]]))
        f.edge_images[eid] = path


# -- in-simplex optimization --------------------------------------------------


def optimize_in_simplex(G, Gp):
    """Exact minimizer of the stretch to Gp over the open simplex of G.

    Returns (lengths dict, lambda*).  The underlying LP maximizes t with
    sum_{e in alpha} x_e >= t * l_{Gp}(alpha) over all candidates alpha,
    sum x = 1, x >= 0.  A zero coordinate in the optimum is reported as
    a boundary optimum (caller misuse or degenerate target).
    """
    cands = _candidates_of(G)
    pairs, _, scale_p = _candidate_lengths(G, Gp, cands)
    target_lengths = [Fraction(lt, scale_p) for _, lt in pairs]
    edges = sorted(G.edge_ends)
    n = len(edges)
    mults = []
    for cand in cands:
        counts = cand.crossing_counts()
        mults.append([Fraction(counts.get(e, 0)) for e in edges])
    # variables: x_1..x_{n-1}, t  (x_n = 1 - sum of the others)
    c = [Fraction(0)] * (n - 1) + [Fraction(1)]
    A = []
    b = []
    for lt, m in zip(target_lengths, mults):
        row = [(m[n - 1] - m[i]) for i in range(n - 1)] + [lt]
        A.append(row)
        b.append(m[n - 1])
    A.append([Fraction(1)] * (n - 1) + [Fraction(0)])
    b.append(Fraction(1))
    value, x = simplex_lp.solve_lp_max(c, A, b)
    if value <= 0:
        raise OptimalMapError("degenerate in-simplex optimum")
    xs = list(x[:n - 1]) + [1 - sum(x[:n - 1])]
    lengths = {e: xs[i] for i, e in enumerate(edges)}
    lam_star = 1 / value
    if any(l <= 0 for l in lengths.values()):
        raise BoundaryOptimumError(lengths, lam_star)
    return lengths, lam_star
