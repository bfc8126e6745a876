"""Points and piecewise-linear paths in a metric graph.

A Point is a vertex or an interior position on an edge; a TargetPath is
a tight PL path given by segments ``(signed edge, a, b)`` traversing the
oriented edge from parameter ``a`` to ``b`` (0 <= a < b <= length), the
parameter measured along the segment's own orientation.  All arithmetic
is exact rational.

These paths are the images of graph maps: vertex images are Points and
edge images TargetPaths.  Tightening, prefix splitting, common-prefix
length and germ extraction are what the optimal-map and folding layers
need.
"""

from __future__ import annotations

from fractions import Fraction

from .words import cyclic_reduce


def vertex_point(v):
    return ("v", v)


def edge_point(graph, e, offset):
    """Canonical point at `offset` from the origin of oriented edge e."""
    L = graph.lengths[abs(e)]
    if e < 0:
        e, offset = -e, L - offset
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


def seg_reverse(graph, seg):
    e, a, b = seg
    L = graph.lengths[abs(e)]
    return (-e, L - b, L - a)


def direction_germ(image, d):
    """The first germ (signed edge, start parameter) of the image of
    oriented edge d, given the image of the edge |d|; None for a point.
    Read off the edge image without reversing it."""
    if not image.segs:
        return None
    e, a, _ = (image.segs[0] if d > 0
               else seg_reverse(image.graph, image.segs[-1]))
    return (e, a)


class TargetPath:
    """Tight PL path; may be a single point (empty segment list)."""

    __slots__ = ("graph", "start", "segs")

    def __init__(self, graph, start, segs=()):
        self.graph = graph
        self.segs = []
        self.start = start
        for s in segs:
            self._push(s)
        self.segs = tuple(self.segs)

    def _push(self, seg):
        """Append a segment, cancelling backtracks against the tail."""
        e, a, b = seg
        if a == b:
            return
        if a > b:
            raise ValueError("segment must move forward")
        segs = self.segs
        while True:
            if not segs:
                if seg_start(self.graph, seg) != self.start:
                    raise ValueError("segment does not start at path start")
                segs.append(seg)
                return
            last = segs[-1]
            if seg_end(self.graph, last) != seg_start(self.graph, seg):
                raise ValueError("segments not contiguous")
            le, la, lb = last
            e, a, b = seg
            if e == le and a == lb:           # same direction, contiguous
                segs[-1] = (e, la, b)
                return
            if e == -le:                      # potential backtrack
                L = self.graph.lengths[abs(e)]
                # seg runs over the same edge in reverse; overlap length
                delta = min(lb - la, b - a)
                if delta > 0 and a == L - lb:
                    new_last = (le, la, lb - delta)
                    new_seg = (e, a + delta, b)
                    segs.pop()
                    if new_last[1] != new_last[2]:
                        segs.append(new_last)
                        if new_seg[1] != new_seg[2]:
                            segs.append(new_seg)
                        return
                    if new_seg[1] == new_seg[2]:
                        return
                    seg = new_seg
                    continue
            segs.append(seg)
            return

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edge_word(cls, graph, edges, start):
        """Whole-edge path from start along a (tight or not) signed edge
        tuple."""
        segs = []
        for e in edges:
            L = graph.lengths[abs(e)]
            segs.append((e, Fraction(0), L))
        return cls(graph, start, segs)

    # -- geometry ---------------------------------------------------------

    def length(self):
        return sum(b - a for (_, a, b) in self.segs)

    def end(self):
        if not self.segs:
            return self.start
        return seg_end(self.graph, self.segs[-1])

    def is_point(self):
        return not self.segs

    def reverse(self):
        """The path run backwards.  Its segments are built directly: the
        reverse of a tight, contiguous path is tight and contiguous,
        since ``_push`` merges and cancels pairs by symmetric rules."""
        out = TargetPath(self.graph, self.end())
        out.segs = tuple(seg_reverse(self.graph, s) for s in reversed(self.segs))
        return out

    def concat(self, other):
        if self.end() != other.start:
            raise ValueError("paths not composable")
        out = TargetPath(self.graph, self.start, self.segs)
        out.segs = list(out.segs)
        for s in other.segs:
            out._push(s)
        out.segs = tuple(out.segs)
        return out

    def split_at(self, dist):
        """Split at arclength `dist`; returns (head, tail)."""
        if dist < 0 or dist > self.length():
            raise ValueError("split distance out of range")
        head = []
        segs = list(self.segs)
        remaining = dist
        i = 0
        while i < len(segs) and remaining > 0:
            e, a, b = segs[i]
            if b - a <= remaining:
                head.append((e, a, b))
                remaining -= (b - a)
                i += 1
            else:
                head.append((e, a, a + remaining))
                segs[i] = (e, a + remaining, b)
                remaining = 0
                break
        tail_segs = segs[i:]
        h = TargetPath(self.graph, self.start, head)
        t = TargetPath(self.graph, h.end(), tail_segs)
        return h, t

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
            if e1 != e2 or a1 != a2:
                break
            step = min(b1, b2) - a1
            total += step
            if b1 == b2:
                i += 1
                j += 1
            elif b1 < b2:
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
        core, _ = cyclic_reduce([e for e, _, _ in path.segs])
        return tuple(core)

    def __eq__(self, other):
        return (isinstance(other, TargetPath) and self.graph is other.graph
                and self.start == other.start and self.segs == other.segs)

    def __repr__(self):
        return f"TargetPath(start={self.start}, segs={list(self.segs)})"
