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

A ball is its seeds plus the standard ball: the sub-bases of the
standard basis and their images under products of the outer Whitehead
moves, grown once per process for each move set, rank, bound, product
length and cap (``_standard``) into a FactorBall whose adjacency is
frozen.  A growth that met no handle over its bound grows the same ball
at every greater bound, so those bounds share it.  The cap bounds that
growth, not the seeds, so a seeded ball holds the seedless ball of the
same parameters.  Adjacency is a function of the two codes, so a seeded
ball copies the standard adjacency and tests only the pairs that hold a
seed outside the standard part.  Each handle keeps its own replay walk
(``FactorHandle.walk``), and the standard handles are the same objects
in every ball, so each is walked once per process.  A handle keeps its
class's canonical core (``stallings.FactorHandle``), so the cores a ball
lists depend on the classes alone, not on the generating sets they
were folded from or their order.

Nothing evicts these per-process caches: ``_standard``, ``_saturated``
and the walks kept on standard handles live until the process ends.
A cold ``outerspace ball --rank 4 --bound 12 --products 3 --cap 6000``
peaks at about 89 MB resident (3 s of process time on a 2-core Xeon
VM, Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from . import stallings
from .stallings import FactorHandle
from .whitehead import outer_moves
from .words import substitute


def project(G):
    """Projection of a marked graph: the handles of its connected proper
    core subgraphs, one per subgraph, in subset order
    (``MarkedMetricGraph.subgraph_factors``).  A fold event's graph
    whose parent graph still holds its projection's table carries those
    handles through the fold map; the result is the same either way."""
    if G.group.rank < 3:
        raise ValueError("the factor graph degenerates below rank 3")
    return G.subgraph_factors()


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

    def compute_adjacency(self):
        """Adjacency = proper conjugate containment in either direction,
        tested on every pair of handles."""
        self.adjacency = {c: set() for c in sorted(self.handles)}
        self._link(set(self.handles))

    def _link(self, fresh):
        """Add the edges of every pair that holds a code in the set fresh.

        Two distinct factor classes of equal rank never properly contain
        one another (a rank-k free factor of a rank-k factor is the whole
        thing), so only pairs lo, hi of lower and higher rank are tested.
        A containment is a label-preserving immersion core(lo) ->
        core(hi), which sends every turn of lo to a turn of hi, so a
        pair is replayed only when turns(lo) is a subset of turns(hi).
        """
        self._hops.clear()
        by_rank = {}
        for h in self.handles.values():
            by_rank.setdefault(h.rank, []).append(h)
        ranks = sorted(by_rank)
        for i, r in enumerate(ranks):
            # (code, turns, sorted vertices, core) of each higher handle
            higher = [(h.code, *h.walk()[2:], h.core) for r2 in ranks[i + 1:]
                      for h in by_rank[r2]]
            higher_fresh = [p for p in higher if p[0] in fresh]
            for lo in by_rank[r]:
                h0, walk, turns, _ = lo.walk()
                for hi, hi_turns, hi_seeds, hi_core in (
                        higher if lo.code in fresh else higher_fresh):
                    if (not turns & ~hi_turns
                            and stallings._replay(h0, walk, hi_core,
                                                  hi_seeds)):
                        self.adjacency[lo.code].add(hi)
                        self.adjacency[hi].add(lo.code)

    def hops_from(self, code):
        """BFS hop counts from code to every handle it reaches in the ball."""
        if code not in self.handles:
            raise KeyError("handle not in ball")
        row = self._hops.get(code)
        if row is None:
            row = {code: 0}
            queue = [code]
            for c in queue:
                d = row[c] + 1
                for c2 in self.adjacency[c]:
                    if c2 not in row:
                        row[c2] = d
                        queue.append(c2)
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
    """Enumerate small-core factors: the seeds, then the standard ball,
    the sub-bases of the standard basis and their images under products
    of Whitehead automorphisms (``_standard``), in its order.

    Seeds always go into the ball, and vertex_cap bounds the growth of
    the standard part alone, so the ball may hold more than vertex_cap
    handles: its seeds plus the capped standard part.  ``truncated`` is
    the standard part's flag.  The standard part is cached per process;
    the ball copies its adjacency into sets of its own and tests only
    the pairs that hold a seed outside it.  A bound at or above the most
    edges a saturated growth met (``_saturated``) takes that growth's
    cache entry: it would grow the same ball in the same order.  The
    ball's own ``bound`` is the one asked for.
    """
    ball = FactorBall(bound=bound)
    for h in seeds:
        if not ball.add(h):
            raise SeedExceedsBound(h.edge_count(), bound)
    moves = outer_moves(group)
    most, grown_at = _saturated.get(
        (moves, group.rank, aut_product_length, vertex_cap), (None, None))
    if most is None or bound < most:
        grown_at = bound
    standard = _standard(moves, group.rank, grown_at, aut_product_length,
                         vertex_cap)
    for h in standard.handles.values():
        ball.add(h)
    ball.truncated = standard.truncated
    ball.adjacency = {c: set(standard.adjacency.get(c, ()))
                      for c in sorted(ball.handles)}
    ball._link(ball.handles.keys() - standard.handles.keys())
    return ball


def _handle(gens, n):
    """The handle of a generating set, a tuple of letter tuples."""
    return FactorHandle(stallings.folded_core([(0, 0, g) for g in gens]), n)


# (moves, n, aut_product_length, vertex_cap) -> (edges, bound): the
# first growth, at that bound, whose handles met, kept or not, have at
# most that many edges.  It rejected none for the bound, so every bound
# at or above the edge count grows the same ball in the same order.
_saturated = {}


@cache
def _standard(moves, n, bound, aut_product_length, vertex_cap):
    """The seedless FactorBall, its adjacency frozen (each code mapped
    to a frozenset of its neighbours): a seeded ball copies it and never
    changes it.  Keyed by the move tuple, so a patched move set grows a
    ball of its own.

    The sub-bases within the bound go in first.  Then each generating
    set is pushed through each move's signed table
    (``words.substitute``), breadth-first up to aut_product_length
    moves, and an image whose handle is new and within the bound goes
    in and is expanded in turn.  A handle is a conjugacy class, so one
    move per outer class (whitehead.outer_moves) meets every handle that
    all type-II moves meet, and meets it first at the same move.  The
    ball is truncated once it holds vertex_cap handles, checked after
    every image.  The most edges of any handle met, kept or not, is
    recorded in ``_saturated`` when it is within the bound.
    """
    ball = FactorBall(bound=bound)
    queue = []      # (generating set, moves applied), grown while read
    # A handle depends only on the generated subgroup, so a generating
    # set seen before lands on a handle already added or already rejected.
    seen = set()
    most = 0        # the most edges of a handle met
    for mask in range(1, (1 << n) - 1):
        gens = tuple((i + 1,) for i in range(n) if mask >> i & 1)
        seen.add(frozenset(gens))
        h = _handle(gens, n)
        most = max(most, h.edge_count())
        if ball.add(h):
            queue.append((gens, 0))
    tables = [t.table for t in moves]
    images = ((tuple(substitute(g, t) for g in gens), k + 1)
              for gens, k in queue if k < aut_product_length
              for t in tables)
    for img, k in images:
        key = frozenset(img)
        if key not in seen:
            seen.add(key)
            h = _handle(img, n)
            most = max(most, h.edge_count())
            if h.edge_count() <= bound and h.code not in ball.handles:
                ball.add(h)
                queue.append((img, k))
        if len(ball.handles) >= vertex_cap:
            ball.truncated = True
            break
    if most <= bound:
        _saturated.setdefault((moves, n, aut_product_length, vertex_cap),
                              (most, bound))
    ball.compute_adjacency()
    ball.adjacency = {c: frozenset(s) for c, s in ball.adjacency.items()}
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

    images: list of projections (lists of handles) along the path.  Windows are grown
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
            if h.code not in ball.handles:
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
