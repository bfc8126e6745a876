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

A ball grows from the sub-bases of the standard basis by the outer
Whitehead moves.  The images of a generating set under the moves, and
the fold of each image, are memoized once per process, so a ball
replays what earlier balls folded and gets the same handles in the same
order as a ball folded afresh.  So is the standard part: the adjacency
of the seedless ball of each rank, bound, product length and cap, with
each handle's walk.  Adjacency is a function of the two codes, so a
seeded ball takes the standard adjacency restricted to its own handles
and tests only the pairs that hold a handle outside the standard part.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache

from . import stallings
from .stallings import FactorHandle
from .whitehead import outer_moves
from .words import substitute


def project(G):
    """Projection of a marked graph: its subgraph factors, one handle per
    code, as a list."""
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
    # (known, prepared) from one exact ball (see _standard): code ->
    # frozenset of its neighbours, and code -> _prepare entry
    _known: tuple = field(default_factory=lambda: ({}, {}), init=False,
                          repr=False, compare=False)

    def add(self, handle):
        if handle.edge_count() > self.bound:
            return False
        if handle.code not in self.handles:
            self.handles[handle.code] = handle
            self._hops.clear()
        return True

    def compute_adjacency(self):
        """Adjacency = proper conjugate containment in either direction.

        Adjacency is a function of the two codes, so a pair of codes in
        the known part (``_known``; ``build_ball`` sets it to the cached
        standard part) is answered from it, restricted to the ball's own
        handles, and every pair that holds a handle outside it is
        tested.  With nothing known, as in a ball built by hand or the
        standard part itself, every pair is tested.

        Two distinct factor classes of equal rank never properly contain
        one another (a rank-k free factor of a rank-k factor is the whole
        thing), so only pairs lo, hi of lower and higher rank are tested.
        A containment is a label-preserving immersion core(lo) ->
        core(hi), which sends every turn of lo to a turn of hi, so a
        pair is replayed only when turns(lo) is a subset of turns(hi).
        """
        known, prepared = self._known
        codes = sorted(self.handles)
        present = set(codes)
        self.adjacency = {c: present.intersection(known.get(c, ()))
                          for c in codes}
        self._hops.clear()
        prep = {c: prepared.get(c) or _prepare(self.handles[c].core)
                for c in codes}
        by_rank = {}
        for c in codes:
            by_rank.setdefault(self.handles[c].rank, []).append(c)
        ranks = sorted(by_rank)
        for i, r in enumerate(ranks):
            # (code, turns, core, sorted vertices) of each higher handle
            higher = [(c, *prep[c][2:]) for r2 in ranks[i + 1:]
                      for c in by_rank[r2]]
            fresh = [p for p in higher if p[0] not in known]
            for lo in by_rank[r]:
                h0, walk, turns, _, _ = prep[lo]
                for hi, hi_turns, hi_core, hi_seeds in (
                        fresh if lo in known else higher):
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


class _Image:
    """A generating set (a tuple of letter tuples) and what its fold gave:
    the code and edge count, kept from the first fold, and the handle,
    kept once it has entered a ball.  A handle is a pure function of the
    set, so a dropped one folds again to the same core, vertex labels
    included."""

    __slots__ = ("gens", "key", "code", "edges", "handle")

    def __init__(self, gens):
        self.gens = gens
        self.key = frozenset(gens)
        self.code = self.edges = self.handle = None

    def fold(self, n):
        """The set's handle, folded now; its code and edge count are kept."""
        core = stallings.folded_core([(0, 0, g) for g in self.gens])
        h = FactorHandle(core, n)
        self.code, self.edges = h.code, h.edge_count()
        return h


def _prepare(core):
    """A core's ``stallings._walk`` triple, the core and its sorted
    vertices: what ``compute_adjacency`` reads to test a pair."""
    return (*stallings._walk(core), core, sorted(core.vertices))


@cache
def _sub_bases(n):
    """The proper sub-bases of the standard basis of F_n, as _Images."""
    return tuple(_Image(tuple((i + 1,) for i in range(n) if mask >> i & 1))
                 for mask in range(1, (1 << n) - 1))


@cache
def _images(moves, gens):
    """The image of a generating set under each move, as _Images.  Keyed
    by the move tuple, so each move set keeps a memo of its own."""
    return tuple(_Image(tuple(substitute(g, t.automorphism().table)
                              for g in gens))
                 for t in moves)


def build_ball(group, seeds=(), bound=6, aut_product_length=3,
               vertex_cap=4000):
    """Enumerate small-core factors: sub-bases of the standard basis, their
    images under products of Whitehead automorphisms, plus the seeds.

    A handle is a conjugacy class, so one move per outer class
    (whitehead.outer_moves) meets every handle that all type-II moves
    meet, and meets it first at the same move: handles are added, and
    the ball is truncated at vertex_cap, in the same order.  Generating
    sets are tuples of letter tuples, pushed through each move's signed
    table (``words.substitute``).

    Seeds go in first.  Every sub-basis within the bound is expanded,
    but an image is expanded only when its handle is new to the ball, so
    a seed whose class equals an image stops that image from being
    expanded: seeds can make the ball smaller.

    Folds are memoized per process: the images of a generating set
    under the move set, and the fold of each image, are computed once
    (``_sub_bases``, ``_images``), and later balls replay them.  So is
    the adjacency of the seedless ball with the same parameters, the
    standard part (``_standard``): a pair of handles that both lie in it
    is answered from it, and only the pairs that hold a handle outside
    it are tested.  The handles, their order, the adjacency and
    ``truncated`` are those of folding every image afresh and testing
    every pair.
    """
    ball = FactorBall(bound=bound)
    for h in seeds:
        if h.edge_count() > bound:
            raise SeedExceedsBound(h.edge_count(), bound)
        ball.add(h)
    moves = outer_moves(group)
    _grow(ball, group.rank, moves, aut_product_length, vertex_cap)
    ball._known = _standard(moves, group.rank, bound, aut_product_length,
                            vertex_cap)
    ball.compute_adjacency()
    return ball


def _grow(ball, n, moves, aut_product_length, vertex_cap):
    """Add the sub-bases and their images under products of the moves to
    the ball, in order, until vertex_cap."""
    frontier = []
    for img in _sub_bases(n):
        img.handle = img.handle or img.fold(n)
        if ball.add(img.handle):
            frontier.append(img.gens)
    # A handle depends only on the generated subgroup, so a generating
    # set seen before lands on a handle already added or already rejected.
    seen = {img.key for img in _sub_bases(n)}
    for _ in range(aut_product_length):
        nxt = []
        for gens in frontier:
            for img in _images(moves, gens):
                if img.key not in seen:
                    seen.add(img.key)
                    h = img.fold(n) if img.code is None else img.handle
                    if (img.edges <= ball.bound
                            and img.code not in ball.handles):
                        img.handle = h or img.fold(n)
                        ball.add(img.handle)
                        nxt.append(img.gens)
                if len(ball.handles) >= vertex_cap:
                    ball.truncated = True
                    return
        frontier = nxt


@cache
def _standard(moves, n, bound, aut_product_length, vertex_cap):
    """The seedless ball's adjacency, each code mapped to a frozenset of
    its neighbours, and each handle's ``_prepare`` entry.  Keyed by the
    move tuple, as ``_images`` is.  A ball keeps both as ``_known`` and
    only reads them: its adjacency sets are its own."""
    ball = FactorBall(bound=bound)
    _grow(ball, n, moves, aut_product_length, vertex_cap)
    prepared = {c: _prepare(h.core) for c, h in ball.handles.items()}
    ball._known = {}, prepared
    ball.compute_adjacency()
    return {c: frozenset(s) for c, s in ball.adjacency.items()}, prepared


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
