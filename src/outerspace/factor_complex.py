"""A finite window into the free factor graph.

Vertices are conjugacy classes of proper free factors (FactorHandles);
two handles are adjacent when one conjugates into the other, that is,
when the cyclic core of the smaller immerses into the core of the
larger by a label-preserving map.  An immersion sends every turn (an
unordered pair of signed labels leaving one vertex) to a turn, so a
pair is tested only when the smaller core's turns are a subset of the
larger's; the test is necessary, so it never drops an edge.  True
distances in the factor graph are not computable from a bounded ball,
so distance queries return explicit upper bounds (BFS hop counts in the
ball); the quasi-geodesic checker is phrased accordingly.  Hop counts
are computed once per source, per ball: one BFS fills a row that every
later query from that source reads, until the ball changes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import stallings
from .stallings import FactorHandle
from .whitehead import outer_moves
from .words import free_reduce


class ProjectionImage:
    """The set of factors represented by proper core subgraphs of a point."""

    def __init__(self, handles):
        handles = list(handles)
        if not handles:
            raise ValueError("empty projection")
        self.handles = {h.code: h for h in handles}

    def codes(self):
        return set(self.handles)

    def __iter__(self):
        return iter(self.handles.values())

    def __len__(self):
        return len(self.handles)


def project(G):
    """Projection of a marked graph: its subgraph factors, deduplicated."""
    if G.group.rank < 3:
        raise ValueError("the factor graph degenerates below rank 3")
    return ProjectionImage(G.subgraph_factors())


@dataclass
class FactorBall:
    bound: int                      # max cyclic-core edge count
    handles: dict = field(default_factory=dict)    # code -> FactorHandle
    adjacency: dict = field(default_factory=dict)  # code -> set of codes
    truncated: bool = False
    # source code -> {code: hops}; cleared whenever handles or edges change
    _hops: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def add(self, handle):
        if handle.edge_count() > self.bound:
            return False
        if handle.code not in self.handles:
            self.handles[handle.code] = handle
            self._hops.clear()
        return True

    def contains(self, handle):
        return handle.code in self.handles

    def compute_adjacency(self):
        """Adjacency = proper conjugate containment in either direction.

        Two distinct factor classes of equal rank never properly contain
        one another (a rank-k free factor of a rank-k factor is the whole
        thing), so only pairs lo, hi of lower and higher rank are tested.
        A containment is a label-preserving immersion core(lo) ->
        core(hi), which sends every turn of lo to a turn of hi, so a
        pair is replayed only when turns(lo) is a subset of turns(hi).
        Each handle's walk and turns are built once, and each higher
        core's vertices are sorted once.
        """
        codes = sorted(self.handles)
        self.adjacency = {c: set() for c in codes}
        self._hops.clear()
        walks = {c: stallings._walk(self.handles[c].core) for c in codes}
        by_rank = {}
        for c in codes:
            by_rank.setdefault(self.handles[c].rank, []).append(c)
        ranks = sorted(by_rank)
        for i, r in enumerate(ranks):
            higher = [(c, walks[c][2], self.handles[c].core,
                       sorted(self.handles[c].core.vertices))
                      for r2 in ranks[i + 1:] for c in by_rank[r2]]
            for lo in by_rank[r]:
                h0, walk, turns = walks[lo]
                for hi, hi_turns, hi_core, hi_seeds in higher:
                    if (not turns & ~hi_turns
                            and stallings._replay(h0, walk, hi_core,
                                                  hi_seeds)):
                        self.adjacency[lo].add(hi)
                        self.adjacency[hi].add(lo)

    def hops_from(self, code):
        """BFS hop counts from code to every handle it reaches in the ball."""
        if code not in self.handles:
            raise KeyError("handle not in ball")
        row = self._hops.get(code)
        if row is None:
            row = {code: 0}
            q = deque([code])
            while q:
                c = q.popleft()
                for c2 in self.adjacency[c]:
                    if c2 not in row:
                        row[c2] = row[c] + 1
                        q.append(c2)
            self._hops[code] = row
        return row

    def distance_upper(self, h1, h2):
        """BFS hop count in the ball: an upper bound for the true distance."""
        if h2.code not in self.handles:
            raise KeyError("handle not in ball")
        return self.hops_from(h1.code).get(h2.code)   # None: unreachable

    def diameter_upper(self, handles):
        """Max pairwise distance_upper over the given handles (None if split)."""
        codes = list(dict.fromkeys(h.code for h in handles))
        if any(c not in self.handles for c in codes):
            raise KeyError("handle not in ball")
        best = 0
        for i, c in enumerate(codes[:-1]):
            row = self.hops_from(c)
            for c2 in codes[i + 1:]:
                d = row.get(c2)
                if d is None:
                    return None
                best = max(best, d)
        return best


class SeedExceedsBound(ValueError):
    def __init__(self, edges, bound):
        super().__init__(edges, bound)   # args rebuild it when unpickled
        self.edges = edges
        self.bound = bound

    def __str__(self):
        return (f"a seed factor has {self.edges} edges, more than the "
                f"complexity bound {self.bound}")


def build_ball(group, seeds=(), bound=6, aut_product_length=3,
               vertex_cap=4000):
    """Enumerate small-core factors: sub-bases of the standard basis, their
    images under products of Whitehead automorphisms, plus the seeds.

    A handle is a conjugacy class, so one move per outer class
    (whitehead.outer_moves) meets every handle that all type-II moves
    meet, and meets it first at the same move: handles are added, and
    the ball is truncated at vertex_cap, in the same order.  Generating
    sets are lists of letter tuples, and each move is turned once into
    a table of the images of the signed letters.
    """
    ball = FactorBall(bound=bound)
    for h in seeds:
        if h.edge_count() > bound:
            raise SeedExceedsBound(h.edge_count(), bound)
        ball.add(h)
    n = group.rank

    def handle(gens):
        return FactorHandle(
            stallings.folded_core(n, [(0, 0, g) for g in gens]), n)

    base_factors = [[(i + 1,) for i in range(n) if mask >> i & 1]
                    for mask in range(1, (1 << n) - 1)]
    frontier = []
    for gens in base_factors:
        if ball.add(handle(gens)):
            frontier.append(gens)
    # A handle depends only on the generated subgroup, so a generating
    # set seen before lands on a handle already added or already rejected.
    seen = {frozenset(gens) for gens in base_factors}
    tables = []
    for t in outer_moves(group):
        table = {}
        for i, im in enumerate(t.automorphism().images, start=1):
            table[i] = im.letters
            table[-i] = tuple(-x for x in reversed(im.letters))
        tables.append(table)
    for _ in range(aut_product_length):
        nxt = []
        for gens in frontier:
            for table in tables:
                imgs = [tuple(free_reduce([y for x in g for y in table[x]]))
                        for g in gens]
                key = frozenset(imgs)
                if key not in seen:
                    seen.add(key)
                    h = handle(imgs)
                    if h.edge_count() <= bound and h.code not in ball.handles:
                        ball.add(h)
                        nxt.append(imgs)
                if len(ball.handles) >= vertex_cap:
                    ball.truncated = True
                    break
            if ball.truncated:
                break
        if ball.truncated:
            break
        frontier = nxt
    ball.compute_adjacency()
    return ball


@dataclass
class QuasiGeodesicReport:
    ok: bool
    breakpoints: list = None       # indices into the sequence
    window_diameters: list = None
    failed_window: tuple = None    # (start index, reason)
    progress_table: list = None    # (i, j, |i-j|, distance bound)
    # b - a <= d_upper + 2 on every pair of breakpoints a < b; False
    # refutes b - a <= d + 2, since d <= d_upper; True does not prove it
    consistent: bool = None


def _image_distance(ball, img1, img2):
    """Coarse distance between projection images: min over handle pairs."""
    best = None
    for h1 in img1:
        for h2 in img2:
            d = ball.distance_upper(h1, h2)
            if d is None:
                continue
            best = d if best is None else min(best, d)
    return best


def check_reparam_quasigeodesic(images, K, ball):
    """Greedy subdivision certificate for a projected path.

    images: list of ProjectionImage along the path.  Windows are grown
    while the diameter of the union of their projections stays <= K
    (diameters measured by ball distance_upper, conservative for the
    window condition).  The index condition b - a <= d(t_a, t_b) + 2, on
    breakpoints numbered a < b, is then checked with the same upper
    bounds and reported as ``consistent``.  An upper bound can refute
    it: b - a > d_upper + 2 >= d + 2.  It cannot certify it, so
    ``consistent`` True does not prove the condition, and ``ok``
    certifies the subdivision, not the proposition.
    """
    for img in images:
        for h in img:
            if not ball.contains(h):
                raise KeyError("projected handle missing from the ball")
    breakpoints = [0]
    diameters = []
    k = 0
    while k < len(images) - 1:
        j = k
        diam_here = 0
        while j + 1 < len(images):
            window = []
            for img in images[k:j + 2]:
                window.extend(img)
            d = ball.diameter_upper(window)
            if d is None or d > K:
                break
            diam_here = d
            j += 1
        if j == k:
            return QuasiGeodesicReport(
                ok=False, breakpoints=breakpoints,
                window_diameters=diameters,
                failed_window=(k, "single step exceeds the window bound"))
        breakpoints.append(j)
        diameters.append(diam_here)
        k = j
    progress = []
    consistent = True
    for a in range(len(breakpoints)):
        for b in range(a + 1, len(breakpoints)):
            d = _image_distance(ball, images[breakpoints[a]],
                                images[breakpoints[b]])
            bound_ok = d is None or (b - a) <= d + 2
            if d is not None and not bound_ok:
                consistent = False
            progress.append((breakpoints[a], breakpoints[b], b - a, d))
    return QuasiGeodesicReport(ok=True, breakpoints=breakpoints,
                               window_diameters=diameters,
                               progress_table=progress,
                               consistent=consistent)
