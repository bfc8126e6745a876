"""Points and piecewise-linear paths in a metric graph.

A Point is a vertex or an interior position on an edge; a TargetPath is
a tight PL path given by segments ``(e, a, b)``.  One edge coordinate
serves points, segments and germs alike: e > 0 is an edge id, and a
and b are offsets from the origin of e (0 <= a, b <= length, a != b).
A segment runs up its edge when b > a and down it when b < a, so its
reverse is ``(e, b, a)``.  A germ is (signed direction of travel, start
offset).  All arithmetic is exact rational.

These paths are the images of graph maps: vertex images are Points and
edge images TargetPaths.  Tightening, cutting, common-prefix length and
germ extraction are what the optimal-map and folding layers need.

A TargetPath is immutable once built: ``segs`` is a tuple, and the
length is summed at most once per path (``reverse``, ``concat`` and
``cut`` hand it to the paths they build), so a path may be shared by
any number of maps.  ``cut`` is the one splitting routine: it cuts a
path into consecutive pieces in one pass over its segments.
"""

from __future__ import annotations

from fractions import Fraction

from .words import cyclic_reduce


def vertex_point(v):
    return ("v", v)


def edge_point(graph, e, offset):
    """Canonical point at `offset` from the origin of edge e > 0."""
    L = graph.lengths[e]
    if offset == 0:
        return ("v", graph.origin(e))
    if offset == L:
        return ("v", graph.terminus(e))
    if not (0 < offset < L):
        raise ValueError("offset outside edge")
    return ("e", e, offset)


def seg_start(graph, seg):
    e, a, b = seg
    return edge_point(graph, e, a)


def seg_end(graph, seg):
    e, a, b = seg
    return edge_point(graph, e, b)


def direction_germ(image, d):
    """The first germ (signed direction of travel, start offset) of the
    image of oriented edge d, given the image of the edge |d|; None for
    a point.  Read off the edge image without reversing it."""
    if not image.segs:
        return None
    if d > 0:
        e, a, b = image.segs[0]
    else:
        e, b, a = image.segs[-1]
    return (e if b > a else -e, a)


class TargetPath:
    """Tight PL path; may be a single point (empty segment list)."""

    __slots__ = ("graph", "start", "segs", "_length")

    def __init__(self, graph, start, segs=()):
        self.graph = graph
        self.segs = []
        self.start = start
        self._length = None
        for s in segs:
            self._push(s)
        self.segs = tuple(self.segs)

    def _push(self, seg):
        """Append a segment, cancelling a backtrack against the tail.
        Returns the arclength cancelled from the tail, which is also the
        arclength cancelled from seg.

        A segment that goes on along the last one's edge from the
        offset where it stopped joins it: the two become one segment
        from the last one's start to seg's end, dropped if it is empty.
        Nothing further back can cancel: in a tight path only the first
        segment starts inside an edge, and a backtrack cannot run past
        the vertex where any other segment starts.
        """
        e, a, b = seg
        if a == b:
            return 0
        segs = self.segs
        if segs:
            le, la, lb = segs[-1]
            if le == e and lb == a:
                segs.pop()
                if la != b:
                    segs.append((e, la, b))
                return (abs(lb - la) + abs(b - a) - abs(b - la)) / 2
        if seg_start(self.graph, seg) != self.end():
            raise ValueError("segment does not start where the path ends")
        segs.append(seg)
        return 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edge_word(cls, graph, edges, start):
        """Whole-edge path from start along a (tight or not) signed edge
        tuple."""
        segs = []
        for e in edges:
            L = graph.lengths[abs(e)]
            segs.append((e, Fraction(0), L) if e > 0
                        else (-e, L, Fraction(0)))
        return cls(graph, start, segs)

    # -- geometry ---------------------------------------------------------

    def length(self):
        if self._length is None:
            self._length = sum(abs(b - a) for (_, a, b) in self.segs)
        return self._length

    def end(self):
        if not self.segs:
            return self.start
        return seg_end(self.graph, self.segs[-1])

    def is_point(self):
        return not self.segs

    def reverse(self):
        """The path run backwards: each segment ``(e, a, b)`` becomes
        ``(e, b, a)``, in reverse order.  The reverse of a tight,
        contiguous path is tight and contiguous, since ``_push`` joins
        pairs by a rule that reversal keeps."""
        out = TargetPath(self.graph, self.end())
        out.segs = tuple((e, b, a) for e, a, b in reversed(self.segs))
        out._length = self._length
        return out

    def concat(self, other):
        """This path followed by other, tightened where they meet.  This
        path is tight, so its segments are copied as they are; other's
        are pushed, and each arclength ``_push`` cancels is lost from
        both paths."""
        if self.end() != other.start:
            raise ValueError("paths not composable")
        out = TargetPath(self.graph, self.start)
        out.segs = list(self.segs)
        cancelled = 0
        for s in other.segs:
            cancelled += out._push(s)
        out.segs = tuple(out.segs)
        out._length = self.length() + other.length() - 2 * cancelled
        return out

    def cut(self, lengths):
        """The consecutive pieces of the given arclengths, which must be
        nonnegative and sum to the path's length, in one pass over the
        segments.  Each piece is built by the constructor, so its
        segments are checked like any other; a single piece is the path
        itself."""
        if len(lengths) == 1 and lengths[0] == self.length():
            return (self,)
        pieces = []
        segs = iter(self.segs)
        rest = None           # the part of the current segment not yet cut
        start = self.start
        for want in lengths:
            if want < 0:
                raise ValueError("piece length below 0")
            head = []
            remaining = want
            while remaining > 0:
                if rest is None:
                    rest = next(segs, None)
                    if rest is None:
                        raise ValueError("pieces overshoot the path")
                e, a, b = rest
                span = abs(b - a)
                if span <= remaining:
                    head.append(rest)
                    remaining -= span
                    rest = None
                else:
                    mid = a + remaining if b > a else a - remaining
                    head.append((e, a, mid))
                    rest = (e, mid, b)
                    remaining = 0
            piece = TargetPath(self.graph, start, head)
            piece._length = want
            pieces.append(piece)
            start = piece.end()
        if rest is not None or next(segs, None) is not None:
            raise ValueError("pieces fall short of the path")
        return tuple(pieces)

    def common_prefix_length(self, other):
        """Arclength of the maximal common initial portion."""
        if self.start != other.start:
            return Fraction(0)
        total = Fraction(0)
        i = j = 0
        sa, sb = list(self.segs), list(other.segs)
        while i < len(sa) and j < len(sb):
            e1, a1, b1 = sa[i]
            e2, a2, b2 = sb[j]
            if e1 != e2 or a1 != a2 or (b1 > a1) != (b2 > a2):
                break
            s1, s2 = abs(b1 - a1), abs(b2 - a2)
            total += min(s1, s2)
            if s1 == s2:
                i += 1
                j += 1
            elif s1 < s2:
                sb[j] = (e2, b1, b2)
                i += 1
            else:
                sa[i] = (e1, b2, b1)
                j += 1
        return total

    def closed_class_edges(self):
        """Cyclic signed-edge tuple of the free homotopy class of a closed path.

        The path must be closed.  Returns () for a nullhomotopic path.  A
        start inside an edge moves to that edge's origin: the stub from
        the origin, the path and the stub back are concatenated, and
        ``_push`` tightens them into whole edges.
        """
        if self.end() != self.start:
            raise ValueError("path is not closed")
        path = self
        if self.start[0] == "e":
            _, e, x = self.start
            stub = TargetPath(self.graph, vertex_point(self.graph.origin(e)),
                              [(e, Fraction(0), x)])
            path = stub.concat(self).concat(stub.reverse())
        core, _ = cyclic_reduce([e if b > a else -e for e, a, b in path.segs])
        return tuple(core)

    def __eq__(self, other):
        return (isinstance(other, TargetPath) and self.graph is other.graph
                and self.start == other.start and self.segs == other.segs)

    def __repr__(self):
        return f"TargetPath(start={self.start}, segs={list(self.segs)})"
