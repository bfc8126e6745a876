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
* executing an event subdivides the participating edges, glues the
  gate stubs, rewrites the marking through the fold, and recomputes the
  residual map.

A standard geodesic precomposes this with a segment inside the source
simplex: the edge lengths move to the pullback lengths of an optimal
map, after which the residual map has slope one everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import free_reduce
from .marked_graph import MarkedMetricGraph
from .lipschitz import (GraphMap, optimal_map, stretch_factor,
                        OptimalMapError)
from .paths import edge_point
from .traintrack import illegal_turn_count


class FoldTerminationError(RuntimeError):
    """The event loop failed to make progress (internal error)."""


@dataclass
class FoldEvent:
    time: Fraction                  # accumulated natural time
    graph: MarkedMetricGraph        # snapshot after the event
    residual: GraphMap              # snapshot -> target
    fold_edge_map: dict             # oriented old edge -> tuple of new oriented edges
    fold_vertex_map: dict           # old vertex -> new vertex


@dataclass
class FoldingPath:
    source: MarkedMetricGraph
    target: MarkedMetricGraph
    events: list                    # list of FoldEvent; events[0].time == 0
    parametrization: str = "natural"

    def times(self):
        return [ev.time for ev in self.events]

    def snapshot(self, index, normalized=False):
        g = self.events[index].graph
        return g.normalize() if normalized else g

    def connecting_edge_map(self, i, j):
        """Composite fold map (oriented edge -> edge path) from event i to j."""
        if not 0 <= i <= j < len(self.events):
            raise IndexError("event indices out of range")
        comp = {d: (d,) for d in self.events[i].graph.oriented_edges()}
        for k in range(i + 1, j + 1):
            step = self.events[k].fold_edge_map
            comp = {d: _substitute(path, step) for d, path in comp.items()}
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


def _substitute(path, sub):
    """The free reduction of path with each oriented edge d replaced by
    the edge path sub[d] (a fold map, a merge map, or () to collapse d).

    Free reduction is confluent, so reducing after every substitution of
    a composite gives the same path as reducing once at the end.
    """
    return tuple(free_reduce([x for d in path for x in sub[d]]))


def _marked_quotient(G, vertices, edge_ends, lengths, sub, basepoint):
    """The subdivided marked graph on the given cells whose marking loops
    are G's pushed through the edge substitution sub.

    Edge labels are trivial; the marking-out words are recomputed from
    the new marking loops.
    """
    marking_in = {i: _substitute(G.marking_in[i], sub)
                  for i in range(1, G.group.rank + 1)}
    new = MarkedMetricGraph(G.group, vertices, edge_ends, lengths, marking_in,
                            {e: G.group.identity() for e in edge_ends},
                            basepoint, subdivided=True)
    new.recompute_marking_out()
    return new


def gates_of_residual(f):
    """Germ partition over all directions (residual maps are never collapsed)."""
    return f.gates(set(f.source.edge_ends))


def _multi_gates(f):
    """All (vertex, gate directions) with at least two directions."""
    tt = gates_of_residual(f)
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
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                c = f.image_of_direction(dirs[i]).common_prefix_length(
                    f.image_of_direction(dirs[j]))
                if c <= 0:
                    raise FoldTerminationError("same gate but no common prefix")
                tau = c if tau is None else min(tau, c)
    folding_dirs = {d for (_, dirs) in gates for d in dirs}
    for e in {abs(d) for d in folding_dirs}:
        if e in folding_dirs and -e in folding_dirs:
            tau = min(tau, f.source.lengths[e] / 2)
    return tau


def fold_step(state_graph, f, gates=None, tau=None):
    """One folding event.  Returns (tau, new_graph, new_residual, edge_map,
    vertex_map) or None when no gate has two directions.

    f must have slope exactly 1 on every edge of state_graph and at
    least two gates at every vertex.
    """
    G, Gp = state_graph, f.target
    if gates is None:
        gates = _multi_gates(f)
    if not gates:
        return None
    if tau is None:
        tau = _event_depth(f, gates)
    folding_dirs = {d for (_, dirs) in gates for d in dirs}

    # subdivision: per positive edge, the cut positions
    cuts = {}
    for e in sorted(G.edge_ends):
        cs = set()
        L = G.lengths[e]
        if e in folding_dirs and tau < L:
            cs.add(tau)
        if -e in folding_dirs and tau < L:
            cs.add(L - tau)
        cuts[e] = sorted(cs)

    next_vertex = max(G.vertices) + 1
    next_edge = max(G.edge_ends) + 1
    new_vertices = set(G.vertices)
    piece_ends = {}      # piece id -> (origin, target)
    piece_len = {}
    piece_image = {}
    pieces_of = {}       # positive old edge -> list of piece ids, in order
    for e in sorted(G.edge_ends):
        o, t = G.edge_ends[e]
        L = G.lengths[e]
        marks = [Fraction(0)] + cuts[e] + [L]
        ids = []
        prev_v = o
        img = f.edge_images[e]
        for k in range(len(marks) - 1):
            a, b = marks[k], marks[k + 1]
            if k == len(marks) - 2:
                nv = t
            else:
                nv = next_vertex
                next_vertex += 1
                new_vertices.add(nv)
            pid = next_edge
            next_edge += 1
            head, img = img.split_at(b - a)
            piece_ends[pid] = (prev_v, nv)
            piece_len[pid] = b - a
            piece_image[pid] = head
            ids.append(pid)
            prev_v = nv
        pieces_of[e] = ids

    # gate gluing: identify stubs and their endpoints
    glued = []           # (canonical stub end, stub end) pairs to identify
    edge_sub = {}        # oriented piece id -> oriented replacement id
    drop_pieces = set()

    def far_end(p):      # the end of oriented piece p
        return piece_ends[p][1] if p > 0 else piece_ends[-p][0]

    def segs(p):         # the image segments of oriented piece p
        return piece_image[p].segs if p > 0 else piece_image[-p].reverse().segs

    for (v, dirs) in gates:
        # each stub oriented away from v: a first piece or a reversed last one
        stubs = [pieces_of[d][0] if d > 0 else -pieces_of[-d][-1] for d in dirs]
        canon = stubs[0]
        # identify all stubs with the first one, which carries the same image
        for sp in stubs[1:]:
            if segs(sp) != segs(canon):
                raise FoldTerminationError("gate stubs have unequal prefixes")
            glued.append((far_end(canon), far_end(sp)))
            edge_sub[sp] = canon
            edge_sub[-sp] = -canon
            drop_pieces.add(abs(sp))

    # assemble quotient graph
    vmap = _classes(new_vertices, glued)
    verts = set(vmap.values())
    edge_ends = {}
    lengths = {}
    images = {}
    for pid in sorted(piece_ends):
        if pid in drop_pieces:
            continue
        o, t = piece_ends[pid]
        edge_ends[pid] = (vmap[o], vmap[t])
        lengths[pid] = piece_len[pid]
        images[pid] = piece_image[pid]

    # fold map on oriented edges
    edge_map = {}
    for e in sorted(G.edge_ends):
        seq = []
        for pid in pieces_of[e]:
            seq.append(edge_sub.get(pid, pid))
        edge_map[e] = tuple(seq)
        edge_map[-e] = tuple(-x for x in reversed(seq))

    new_graph = _marked_quotient(G, verts, edge_ends, lengths, edge_map,
                                 vmap[G.basepoint])
    vertex_images = {}
    for pid, (o, t) in edge_ends.items():
        vertex_images[o] = images[pid].start
        vertex_images[t] = images[pid].end()
    residual = GraphMap(new_graph, Gp, vertex_images, images)

    # simplify: merge legal degree-2 vertices (not the basepoint)
    new_graph, residual, merge_map = _merge_degree_two(new_graph, residual)
    if merge_map is not None:
        edge_map = {d: _substitute(path, merge_map)
                    for d, path in edge_map.items()}
    vertex_map = {v: vmap[v] for v in G.vertices}
    return tau, new_graph, residual, edge_map, vertex_map


def _merge_degree_two(G, f):
    """Merge degree-2 vertices whose two directions make a legal turn."""
    merge_map = {d: (d,) for d in G.oriented_edges()}
    changed = False
    while True:
        victim = None
        for v in sorted(G.vertices):
            if v == G.basepoint:
                continue
            dirs = G.directions_at(v)
            if len(dirs) != 2:
                continue
            d1, d2 = dirs
            if abs(d1) == abs(d2):
                continue   # loop at a valence-2 vertex: leave for folding
            if f.germ(d1) == f.germ(d2):
                continue   # illegal turn: the next event folds here
            victim = (v, d1, d2)
            break
        if victim is None:
            break
        changed = True
        v, d1, d2 = victim
        # new edge E: terminus(d1) -> terminus(d2), path = (-d1) . d2
        E = max(G.edge_ends) + 1
        o, t = G.terminus(d1), G.terminus(d2)
        img = f.image_of_direction(d1).reverse().concat(f.image_of_direction(d2))
        new_ends = {e: G.edge_ends[e] for e in G.edge_ends
                    if e not in (abs(d1), abs(d2))}
        new_ends[E] = (o, t)
        new_lengths = {e: G.lengths[e] for e in new_ends if e != E}
        new_lengths[E] = G.lengths[abs(d1)] + G.lengths[abs(d2)]
        sub = {d: (d,) for d in G.oriented_edges()
               if abs(d) not in (abs(d1), abs(d2))}
        sub[-d1] = (E,)
        sub[d2] = ()      # absorbed: (-d1).(d2) = E, so d2 alone maps through v
        sub[d1] = (-E,)
        sub[-d2] = ()
        # rewriting: every path through v crosses (-d1, d2) or (-d2, d1);
        # substituting -d1 -> E, d2 -> (), d1 -> -E, -d2 -> () realizes both.
        verts = set(G.vertices) - {v}
        new_graph = _marked_quotient(G, verts, new_ends, new_lengths, sub,
                                     G.basepoint)
        new_images = {e: f.edge_images[e] for e in new_ends if e != E}
        new_images[E] = img
        vertex_images = {w: f.vertex_images[w] for w in verts}
        f = GraphMap(new_graph, f.target, vertex_images, new_images)
        merge_map = {d: _substitute(path, sub)
                     for d, path in merge_map.items()}
        G = new_graph
    if not changed:
        return G, f, None
    return G, f, merge_map


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


def folding_path(G, f, max_events=5000):
    """Iterate fold events until the residual map is an isometry onto the target.

    G: marked graph rescaled so that f has slope 1 on every edge;
    f: the residual optimal map with >= 2 gates everywhere.
    """
    for e in G.edge_ends:
        if f.slope(e) != 1:
            raise ValueError("natural parametrization requires slope 1 on every edge")
    tt = gates_of_residual(f)
    for v in G.vertices:
        if G.degree(v) >= 2 and tt.gate_count(v) < 2:
            raise ValueError(f"vertex {v} has one gate; the map is not optimal")
    events = [FoldEvent(Fraction(0), G, f, None, None)]
    t = Fraction(0)
    current_graph, current_map = G, f
    for _ in range(max_events):
        step = fold_step(current_graph, current_map)
        if step is None:
            if not _is_marking_isometry(current_map):
                raise FoldTerminationError(
                    "no foldable gate but the residual is not an isometry")
            path = FoldingPath(G, f.target, events)
            return path
        tau, new_graph, new_map, edge_map, vertex_map = step
        if new_graph.volume() >= current_graph.volume():
            raise FoldTerminationError("volume failed to decrease")
        t += tau
        events.append(FoldEvent(t, new_graph, new_map, edge_map, vertex_map))
        current_graph, current_map = new_graph, new_map
    raise FoldTerminationError("event cap exceeded")


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
    the whole class, strictly reducing total image length.  Terminates
    by the lattice bound and never raises sigma (nothing grows).
    """
    G = f.source
    while True:
        # classes of vertices joined by collapsed edges
        vmap = _classes(G.vertices, [G.edge_ends[e] for e in G.edge_ends
                                     if f.edge_images[e].is_point()])
        classes = {}
        for v in G.vertices:
            classes.setdefault(vmap[v], []).append(v)
        moved = False
        for root, members in sorted(classes.items()):
            germs = set()
            live = []
            for v in members:
                for d in G.directions_at(v):
                    germ = f.germ(d)
                    if germ is None:
                        continue
                    germs.add(germ)
                    live.append((v, d))
            if len(germs) != 1 or not live:
                continue
            germ = germs.pop()
            delta = None
            for (v, d) in live:
                seg = f.image_of_direction(d).segs[0]
                c = seg[2] - seg[1]
                delta = c if delta is None else min(delta, c)
            # move every member along the germ; all live directions shrink
            e_g, a_g = germ
            new_point = edge_point(f.target, e_g, a_g + delta)
            for e in sorted(G.edge_ends):
                o, t = G.edge_ends[e]
                path = f.edge_images[e]
                if vmap[o] == root and not path.is_point():
                    path = path.drop_prefix(delta)
                if vmap[t] == root and not path.is_point():
                    rev = path.reverse().drop_prefix(delta)
                    path = rev.reverse()
                f.edge_images[e] = path
            for v in members:
                f.vertex_images[v] = new_point
            moved = True
            break
        if not moved:
            return f


def standard_geodesic(G, Gp, max_events=5000):
    """Simplex segment to the pullback lengths, then the folding path."""
    lam, wit = stretch_factor(G, Gp)
    f = optimal_map(G, Gp, lam, wit)
    f = _tighten_plain(f)
    if f.sigma() != lam:
        raise OptimalMapError("tightening broke optimality")
    pullback = {e: f.edge_images[e].length() for e in sorted(G.edge_ends)}
    collapsed = frozenset(e for e, l in pullback.items() if l == 0)
    mid_vol = sum(pullback.values())
    lengths_end = {e: l / mid_vol for e, l in pullback.items()}

    # quotient collapsed edges to build the graph the fold runs on
    vmap = _classes(G.vertices, [G.edge_ends[e] for e in collapsed])
    edge_ends = {e: (vmap[o], vmap[t]) for e, (o, t) in G.edge_ends.items()
                 if e not in collapsed}
    lengths = {e: pullback[e] for e in edge_ends}
    sub = {d: () if abs(d) in collapsed else (d,) for d in G.oriented_edges()}
    mid = _marked_quotient(G, set(vmap.values()), edge_ends, lengths, sub,
                           vmap[G.basepoint])
    vertex_images = {}
    for v in G.vertices:
        vertex_images[vmap[v]] = f.vertex_images[v]
    images = {e: f.edge_images[e] for e in edge_ends}
    residual = GraphMap(mid, Gp, vertex_images, images)
    mid2, residual2, _ = _merge_degree_two(mid, residual)
    path = folding_path(mid2, residual2, max_events=max_events)
    return StandardGeodesic(G, Gp, dict(G.lengths), lengths_end, collapsed,
                            mid2, path)


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
        G, f = ev.graph, ev.residual
        tt = gates_of_residual(f)
        vol = G.volume()
        row = {"time": ev.time, "volume": vol, "loops": [], "subgroups": []}
        for cw in probe_loops:
            rep = G.loop_representative(cw)
            row["loops"].append({
                "class": str(cw),
                "length": rep.length(),
                "illegal_turns": illegal_turn_count(tt, rep),
            })
        for H in probe_subgroups:
            core, hvol = G.subgroup_core_in_graph(H)
            flag = _long_legal_segment_in_core(G, tt, core, vol)
            row["subgroups"].append({
                "volume": hvol,
                "long_legal_segment": flag,
            })
        rows.append(row)
    return rows


def _long_legal_segment_in_core(G, tt, core, total_vol):
    """Any legal segment of normalized length > 2 inside a topological edge
    of the immersed core?"""
    deg = core.degrees()
    branch = {v for v, d in deg.items() if d != 2}
    chains = _core_chains(core, branch)
    for chain in chains:
        run = Fraction(0)
        best = Fraction(0)
        for k, lab in enumerate(chain):
            run += G.lengths[abs(lab)] / total_vol
            best = max(best, run)
            if k + 1 < len(chain):
                turn_ok = not tt.is_illegal_turn(-lab, chain[k + 1])
                if not turn_ok:
                    run = Fraction(0)
        if best > 2:
            return True
    return False


def _core_chains(core, branch):
    """Maximal label chains between branch vertices of an immersed core.

    rows[v] lists (signed label, far end, edge) for each oriented edge
    leaving v, over the (origin, target, label) edges of the core in
    sorted order.  A chain starts on every edge not yet walked at each
    branch vertex, least vertex first, and follows the one unwalked edge
    at each vertex of valence 2 until it reaches a branch vertex.  A
    core with no branch vertex is a circle, walked once forward from its
    least edge.  Edges are told apart by the whole triple, so both edges
    of a same-label 2-cycle o -> t -> o are walked.
    """
    rows = {v: [] for v in core.vertices}
    for edge in sorted(core.edges):
        o, t, lab = edge
        rows[o].append((lab, t, edge))
        rows[t].append((-lab, o, edge))
    if branch:
        starts = [row for b in sorted(branch) for row in rows[b]]
    else:
        o, t, lab = min(core.edges)
        starts = [(lab, t, (o, t, lab))]
    used = set()
    chains = []
    for row in starts:
        chain = []
        while row is not None and row[2] not in used:
            lab, v, edge = row
            used.add(edge)
            chain.append(lab)
            if v in branch:
                break
            row = next((r for r in rows[v] if r[2] not in used), None)
        if chain:
            chains.append(tuple(chain))
    return chains
