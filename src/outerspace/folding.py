"""Greedy folding paths and standard geodesics, event by event.

A fold state is a marked metric graph together with a residual map to
the target whose slope is exactly 1 on every edge (the natural
parametrization) and which has at least two gates at every vertex.
Greedy folding identifies initial segments of length t within each
gate; the combinatorics is constant between events, so the path is
represented by its event snapshots:

* an event time is the least metric common-prefix length over all
  same-gate direction pairs (at most half the length for edges folding at
  both ends);
* executing an event subdivides the participating edges and glues the
  gate stubs into plain cells (ends, length, image).  On the cells it
  merges every vertex other than the basepoint with two directions on
  distinct edges with distinct germs (a legal degree-2 vertex), then
  builds the marked graph, whose marking loops and labels both come
  through the fold map, and the residual map once.

A standard geodesic precomposes this with a segment inside the source
simplex: the edge lengths move to the pullback lengths of an optimal
map, after which the residual map has slope one everywhere.  Its
collapsed edges are quotiented away by the same cell routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import inverse, substitute
from .marked_graph import MarkedMetricGraph, folded_marked_graph
from .lipschitz import (GraphMap, optimal_map, stretch_factor,
                        OptimalMapError, _transport)
from .paths import direction_germ
from .stallings import _arcs
from .traintrack import TrainTrackStructure, illegal_turn_count


# Every event lowers the volume; a path with more events than this is
# taken for a loop that makes no progress.
MAX_EVENTS = 5000


class FoldTerminationError(RuntimeError):
    """The event loop failed to make progress (internal error)."""


@dataclass
class FoldEvent:
    """One event of a folding path.

    fold_vertex_map holds only the old vertices whose class is still a
    vertex of graph: a class that the degree-2 merge removed lies inside
    a merged edge and is left out.  The basepoint is never merged, so it
    is always mapped, and so is a vertex carrying an unfolded gate (two
    directions with one germ: an illegal turn, which the merge keeps).
    gates is built once, when the event is made; fold_step and
    path_statistics read it.
    """
    time: Fraction                  # accumulated natural time
    graph: MarkedMetricGraph        # snapshot after the event
    residual: GraphMap              # snapshot -> target
    fold_edge_map: dict             # oriented old edge -> tuple of new oriented edges
    fold_vertex_map: dict           # old vertex -> new vertex
    gates: TrainTrackStructure      # the residual's germ partition


@dataclass
class FoldingPath:
    source: MarkedMetricGraph
    target: MarkedMetricGraph
    events: list                    # list of FoldEvent; events[0].time == 0

    def times(self):
        return [ev.time for ev in self.events]

    def connecting_edge_map(self, i, j):
        """Composite fold map (oriented edge -> edge path) from event i to j."""
        if not 0 <= i <= j < len(self.events):
            raise IndexError("event indices out of range")
        comp = {d: (d,) for d in self.events[i].graph.oriented_edges()}
        for k in range(i + 1, j + 1):
            step = self.events[k].fold_edge_map
            comp = {d: substitute(path, step) for d, path in comp.items()}
        return comp


def _classes(vertices, pairs):
    """Map each vertex to the least vertex of its class, the classes
    being those of the equivalence relation the pairs generate.

    Union-find: joining two classes hangs the larger root under the
    smaller, so every root is the least vertex of its class and the
    map does not depend on the order of the pairs.
    """
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {v: find(v) for v in vertices}


def _far(cells, d):
    """The terminus of oriented edge d of the cells."""
    o, t = cells[abs(d)][:2]
    return t if d > 0 else o


def gates_of_residual(f):
    """Germ partition over all directions (residual maps are never collapsed)."""
    return f.gates(set(f.source.edge_ends))


def _multi_gates(tt):
    """All (vertex, gate directions) with at least two directions."""
    out = []
    for v in sorted(tt.gates):
        for g in tt.gates[v]:
            if len(g) >= 2:
                out.append((v, tuple(sorted(g))))
    return out


def _event_depth(f, gates):
    """The first combinatorial event time for the given folding gates."""
    tau = None
    for (v, dirs) in gates:
        images = [f.image_of_direction(d) for d in dirs]
        for i, first in enumerate(images):
            for second in images[i + 1:]:
                c = first.common_prefix_length(second)
                if c <= 0:
                    raise FoldTerminationError("same gate but no common prefix")
                tau = c if tau is None else min(tau, c)
    folding_dirs = {d for (_, dirs) in gates for d in dirs}
    for e in {abs(d) for d in folding_dirs}:
        if e in folding_dirs and -e in folding_dirs:
            tau = min(tau, f.source.lengths[e] / 2)
    return tau


def fold_step(event, gates=None, tau=None):
    """The next folding event after `event`, or None when no gate has
    two directions.

    The event's residual must have slope exactly 1 on every edge and at
    least two gates at every vertex.  gates (default: every gate of
    event.gates with two directions) and tau (default: their first
    event depth) are what is folded.  The new graph's ``folded_from``,
    set by ``folded_marked_graph``, carries event.graph's factors.
    """
    G, f = event.graph, event.residual
    if gates is None:
        gates = _multi_gates(event.gates)
    if not gates:
        return None
    if tau is None:
        tau = _event_depth(f, gates)
    folding_dirs = {d for (_, dirs) in gates for d in dirs}

    # subdivision: each edge cut tau from each folding end, into pieces
    next_vertex = max(G.vertices) + 1
    next_edge = max(G.edge_ends) + 1
    vertices = set(G.vertices)
    cells = {}           # piece id -> (origin, terminus, length, image)
    pieces_of = {}       # positive old edge -> list of piece ids, in order
    for e in sorted(G.edge_ends):
        o, t = G.edge_ends[e]
        L = G.lengths[e]
        cuts = {c for d, c in ((e, tau), (-e, L - tau))
                if d in folding_dirs and tau < L}
        marks = [Fraction(0)] + sorted(cuts) + [L]
        spans = [b - a for a, b in zip(marks, marks[1:])]
        pieces = f.edge_images[e].cut(spans)   # no cut: the image itself
        pieces_of[e] = []
        for b, span, piece in zip(marks[1:], spans, pieces):
            if b == L:
                nv = t
            else:
                nv = next_vertex
                next_vertex += 1
                vertices.add(nv)
            cells[next_edge] = (o, nv, span, piece)
            pieces_of[e].append(next_edge)
            next_edge += 1
            o = nv

    # gate gluing: each stub is identified with its gate's first stub,
    # whose image it shares
    glued = []           # (canonical stub end, stub end) pairs to identify
    edge_sub = {}        # oriented piece id -> oriented replacement id

    def segs(p):         # the image segments of oriented piece p
        return cells[p][3].segs if p > 0 else cells[-p][3].reverse().segs

    for (v, dirs) in gates:
        # each stub oriented away from v: a first piece or a reversed last one
        stubs = [pieces_of[d][0] if d > 0 else -pieces_of[-d][-1] for d in dirs]
        canon = stubs[0]
        canon_segs = segs(canon)
        for sp in stubs[1:]:
            if segs(sp) != canon_segs:
                raise FoldTerminationError("gate stubs have unequal prefixes")
            glued.append((_far(cells, canon), _far(cells, sp)))
            edge_sub[sp] = canon
            edge_sub[-sp] = -canon
            del cells[abs(sp)]

    # fold map on oriented edges
    edge_map = {}
    for e in sorted(G.edge_ends):
        seq = tuple(edge_sub.get(pid, pid) for pid in pieces_of[e])
        edge_map[e] = seq
        edge_map[-e] = inverse(seq)

    vmap = _classes(vertices, glued)
    new_graph, residual, edge_map = _quotient(G, f.target, cells, vmap,
                                              edge_map)
    vertex_map = {v: vmap[v] for v in G.vertices
                  if vmap[v] in new_graph.vertices}
    return FoldEvent(event.time + tau, new_graph, residual, edge_map,
                     vertex_map, gates_of_residual(residual))


def _quotient(G, Gp, cells, vmap, sub):
    """The marked graph on the cells, its residual map to Gp, and the edge
    substitution from G's oriented edges, with legal degree-2 vertices
    merged away.

    cells: edge id -> (origin, terminus, length, image), the ends before
    the vertex classes vmap are taken; sub: oriented edge of G -> edge
    path over the cells.  Each vertex other than the basepoint, least
    first, whose two directions d1, d2 (in oriented_edges() order) lie on
    distinct edges with distinct germs is merged: the path (-d1, d2)
    becomes one new edge max + 1, and sub is composed with the merge.
    The marked graph (``folded_marked_graph``, from G through sub) and
    the residual are built once, at the end.
    """
    cells = {e: (vmap[o], vmap[t], L, img)
             for e, (o, t, L, img) in cells.items()}
    vertices = set(vmap.values())
    basepoint = vmap[G.basepoint]

    leaving = {v: [] for v in vertices}     # as directions_at() lists them
    for e in sorted(cells):
        leaving[cells[e][0]].append(e)
        leaving[cells[e][1]].append(-e)

    def image(d):
        img = cells[abs(d)][3]
        return img if d > 0 else img.reverse()

    for v in sorted(vertices - {basepoint}):
        if len(leaving[v]) != 2:
            continue
        d1, d2 = leaving[v]
        if abs(d1) == abs(d2):
            continue   # loop at a valence-2 vertex: leave for folding
        if (direction_germ(cells[abs(d1)][3], d1)
                == direction_germ(cells[abs(d2)][3], d2)):
            continue   # illegal turn: the next event folds here
        # new edge E: terminus(d1) -> terminus(d2), path = (-d1) . d2
        E = max(cells) + 1
        o, t = _far(cells, d1), _far(cells, d2)
        step = {d: (d,) for e in cells for d in (e, -e)}
        step.update({-d1: (E,), d1: (-E,), d2: (), -d2: ()})
        cells[E] = (o, t, cells[abs(d1)][2] + cells[abs(d2)][2],
                    image(-d1).concat(image(d2)))
        del cells[abs(d1)], cells[abs(d2)]
        vertices.remove(v)
        # E is the greatest id, so its directions go last
        leaving[o].remove(-d1)
        leaving[o].append(E)
        leaving[t].remove(-d2)
        leaving[t].append(-E)
        # every path through v crosses (-d1, d2) or (-d2, d1)
        sub = {d: substitute(path, step) for d, path in sub.items()}

    graph = folded_marked_graph(G, sub, vertices, cells, basepoint)
    vertex_images = {}
    for o, t, _, img in cells.values():
        vertex_images[o] = img.start
        vertex_images[t] = img.end()
    residual = GraphMap(graph, Gp, vertex_images,
                        {e: c[3] for e, c in cells.items()})
    return graph, residual, sub


def _is_marking_isometry(f):
    """Is the residual map an isometry onto the target, up to subdivision?

    Called when no gate has two directions, so the map is locally
    injective (tight slope-1 images, singleton gates).  A locally
    injective homotopy equivalence covers the whole core target, and
    equal volumes force multiplicity one everywhere: a bijective local
    isometry.  Degree-2 vertices of the source (the basepoint survives
    folding unmerged) subdivide the target; that is the same point of
    Outer space.
    """
    G, Gp = f.source, f.target
    if G.volume() != Gp.volume():
        return False
    for e in G.edge_ends:
        if f.edge_images[e].is_point():
            return False
    return True


def folding_path(f):
    """Iterate fold events until the residual map is an isometry onto the target.

    f: the residual optimal map with >= 2 gates everywhere, on a source
    graph rescaled so that f has slope 1 on every edge.
    """
    G = f.source
    for e in G.edge_ends:
        if f.slope(e) != 1:
            raise ValueError("natural parametrization requires slope 1 on every edge")
    events = [FoldEvent(Fraction(0), G, f, None, None, gates_of_residual(f))]
    for v in G.vertices:
        if G.degree(v) >= 2 and events[0].gates.gate_count(v) < 2:
            raise ValueError(f"vertex {v} has one gate; the map is not optimal")
    for _ in range(MAX_EVENTS):
        ev = fold_step(events[-1])
        if ev is None:
            if not _is_marking_isometry(events[-1].residual):
                raise FoldTerminationError(
                    "no foldable gate but the residual is not an isometry")
            return FoldingPath(G, f.target, events)
        if ev.graph.volume() >= events[-1].graph.volume():
            raise FoldTerminationError("volume failed to decrease")
        events.append(ev)
    raise FoldTerminationError(f"event cap MAX_EVENTS = {MAX_EVENTS} "
                               "exceeded")


@dataclass
class StandardGeodesic:
    source: MarkedMetricGraph
    target: MarkedMetricGraph
    lengths_start: dict
    lengths_end: dict            # pullback lengths on the source graph, normalized
    collapsed_edges: frozenset   # edges whose pullback length is 0 (missing face)
    mid: MarkedMetricGraph       # the rescaled graph actually folded (natural lengths)
    path: FoldingPath


def _tighten_plain(f):
    """Slide vertex classes whose every direction shares one germ.

    Collapsed edges tie their endpoints into one class; a slide moves
    the whole class along the germ with ``lipschitz._transport`` (so a
    collapsed edge inside the class moves with its ends), strictly
    reducing total image length.  Terminates by the lattice bound and
    never raises sigma (nothing grows).
    """
    G = f.source
    while True:
        # classes of vertices joined by collapsed edges
        vmap = _classes(G.vertices, [G.edge_ends[e] for e in G.edge_ends
                                     if f.edge_images[e].is_point()])
        classes = {}
        for v in G.vertices:
            classes.setdefault(vmap[v], []).append(v)
        for _, members in sorted(classes.items()):
            live = [d for v in members for d in G.directions_at(v)
                    if f.germ(d) is not None]
            germs = {f.germ(d) for d in live}
            if len(germs) != 1:
                continue
            e_g, a_g = germs.pop()
            delta = min(abs(seg[2] - seg[1]) for seg in
                        (f.image_of_direction(d).segs[0] for d in live))
            # every member moves delta into the germ; all live
            # directions shrink
            x1 = a_g + delta if e_g > 0 else a_g - delta
            _transport(f, {v: (abs(e_g), a_g) for v in members},
                       dict.fromkeys(members, x1))
            break
        else:
            return f


def standard_geodesic(G, Gp):
    """Simplex segment to the pullback lengths, then the folding path."""
    lam, _ = stretch_factor(G, Gp)
    f = _tighten_plain(optimal_map(G, Gp, lam))
    if f.sigma() != lam:
        raise OptimalMapError("tightening broke optimality")
    pullback = {e: f.edge_images[e].length() for e in sorted(G.edge_ends)}
    collapsed = frozenset(e for e, l in pullback.items() if l == 0)
    mid_vol = sum(pullback.values())
    lengths_end = {e: l / mid_vol for e, l in pullback.items()}

    # the graph the fold runs on: collapsed edges quotiented away
    cells = {e: (o, t, pullback[e], f.edge_images[e])
             for e, (o, t) in G.edge_ends.items() if e not in collapsed}
    vmap = _classes(G.vertices, [G.edge_ends[e] for e in collapsed])
    sub = {d: () if abs(d) in collapsed else (d,) for d in G.oriented_edges()}
    mid, residual, _ = _quotient(G, Gp, cells, vmap, sub)
    return StandardGeodesic(G, Gp, dict(G.lengths), lengths_end, collapsed,
                            mid, folding_path(residual))


# -- statistics ----------------------------------------------------------------


def path_statistics(path, probe_loops=(), probe_subgroups=()):
    """Per-event statistics table.

    For each event: natural volume; per probe conjugacy class, the
    representative length and its illegal-turn count in the residual
    gate structure; per probe subgroup, the volume of its immersed core
    and a flag for legal segments of normalized length > 2 inside
    topological edges of the core.
    """
    rows = []
    for ev in path.events:
        G, tt = ev.graph, ev.gates
        vol = G.volume()
        row = {"time": ev.time, "volume": vol, "loops": [], "subgroups": []}
        for cw in probe_loops:
            rep = G.loop_representative(cw)
            row["loops"].append({
                "class": str(cw),
                "length": G.path_length(rep),
                "illegal_turns": illegal_turn_count(tt, rep, cyclic=True),
            })
        for H in probe_subgroups:
            core, hvol = G.subgroup_core_in_graph(H)
            flag = _long_legal_segment_in_core(G, tt, core)
            row["subgroups"].append({
                "volume": hvol,
                "long_legal_segment": flag,
            })
        rows.append(row)
    return rows


def _long_legal_segment_in_core(G, tt, core):
    """Any legal segment of normalized length > 2 inside a topological edge
    of the immersed core?

    The topological edges are the arcs between the core's branch
    vertices, those of valence other than 2 (``stallings._arcs``).  A
    core with no branch vertex is a circle, walked from the origin of
    its least edge.  Each arc is read from both ends, and the flag is
    the same either way: turns are unordered pairs.  Lengths are G's
    integers over its scale, so a segment is long when its integer
    length exceeds twice G's integer volume.
    """
    rows = core.rows
    branch = ({v for v, row in rows.items() if len(row) != 2}
              or {min(core.edges)[0]})
    ints = G.int_lengths
    bound = 2 * sum(ints[e] for e in G.edge_ends)
    for chain, _ in _arcs(rows, branch).values():
        run = 0
        for k, lab in enumerate(chain):
            run += ints[lab]
            if run > bound:
                return True
            if k + 1 < len(chain) and tt.is_illegal_turn(-lab, chain[k + 1]):
                run = 0
    return False
