"""Folded core graphs for finitely generated subgroups of a free group.

A subgroup graph is a connected graph with oriented edges labeled by
letters (nonzero integers over some alphabet; for subgroups of F_N the
alphabet is the generator index set).  Folded means: at each vertex, at
most one outgoing edge per signed label.  Reading edge labels along
paths from the basepoint spells subgroup elements.

A graph is the fold's table of rows ``vertex -> {signed label: far
end}``, which every reader uses; data from outside is checked by
``SubgroupCoreGraph.from_edges`` (and ``from_json``, its JSON reader).

Graphs are folded by a worklist fold (Stallings, "Topology of finite
graphs", 1983) whose arcs are paths: (origin, target, letters), and an
arc with no letters identifies its ends.  The plain fold, ``_fold``,
reads each arc into the graph folded so far (Touikan, "A fast algorithm
for Stallings' folding process", 2006): it follows the longest prefix
of the arc's letters from its origin and the longest remaining suffix
back from its target, and adds only the letters in between.  Two
vertices folded together go into the least id, so a basepoint 0 stays
put and the folded graph's ids depend neither on the order of the arcs
nor on what reading skips.  ``fold_labeled_graph`` returns its graph;
``folded_core`` trims its rows to the core, and builds subgroup cores
(``core_graph``), subgraph factors, factor-ball images and immersed
covers of marked graphs.

``_fold_words`` is the worklist fold, without reading, for arcs whose
first edge also carries a word over another alphabet; it keeps a gauge
on every merge.  Its one caller, ``express_in_generators``, folds arcs
and reads targets as words in the words they carry: the generators in
the wedge of an automorphism's images (``Automorphism.inverse``), and
the tree loops of a folded graph in the edges of the graph it was
folded from (``marked_graph.folded_marked_graph``).  The plain fold is
kept apart because its cores are tiny and the fixed cost of each call
sets its price: on the 47,288 subset folds of the geodesic benchmark's
seed-1 projection (6.7 letters each) the reading fold took 0.46-0.48 s,
a fold that adds every letter as an edge before merging (the tests'
reference) 0.69-0.76 s, and the word-carrying fold with empty words
1.19-1.24 s, all with identical rows (process time, best of five in
each of three runs, Python 3.11 on a 2-core Xeon).

A folded core's vertex ids still depend on its arcs: on the generators
and their order, or on the ids of the graph whose edges were folded.  A
``FactorHandle`` does not keep that core.  It keeps its class's
canonical core, read back from the code that won ``canonical_code``'s
search (``_canonical``), so every handle of one class has the same
core, row entry order included.  Codes are read on the core's skeleton:
its branch vertices (valence other than 2) and the arcs between them,
which one walk (``_arcs``) reads for the codes and for the legal
segments of ``folding.path_statistics``.  A cyclic core of rank r has
at most 2r - 2 branch vertices, so a long core costs one walk of its
edges and a BFS over a few vertices from each of a few starts.
"""

from __future__ import annotations

from .words import (free_reduce, inverse, least_rotation, letter_key,
                    letter_str, FreeGroup)


class SubgroupCoreGraph:
    """Folded, labeled core graph; based or basepoint-free (cyclic core).

    rows: dict vertex -> {signed label: far end}, trusted, with edge
    v -a-> w as rows[v][a] == w and rows[w][-a] == v; vertices: set of
    ints; edges: set of (origin, target, label>0), derived from rows.
    """

    def __init__(self, rows, basepoint=None):
        self.rows = rows
        self.vertices = set(rows)
        self.edges = {(v, w, a) for v, row in rows.items()
                      for a, w in row.items() if a > 0}
        self.basepoint = basepoint

    @classmethod
    def from_edges(cls, vertices, edges, basepoint=None):
        """The graph of edges (origin, target, nonzero label) on vertices.

        Raises ValueError if an edge or the basepoint names a vertex
        that is not listed, or the graph is not folded.
        """
        rows = {v: {} for v in vertices}
        for (o, t, lab) in edges:
            if o not in rows or t not in rows:
                raise ValueError(f"edge {o} -> {t} names a vertex that is "
                                 "not listed")
            if rows[o].setdefault(lab, t) != t or \
                    rows[t].setdefault(-lab, o) != o:
                raise ValueError("not folded: duplicate label at vertex")
        if basepoint is not None and basepoint not in rows:
            raise ValueError(f"basepoint {basepoint} is not listed")
        return cls(rows, basepoint)

    def degrees(self):
        return {v: len(row) for v, row in self.rows.items()}

    def rank(self):
        return len(self.edges) - len(self.vertices) + 1

    def trace(self, letters):
        """Follow a letter sequence from the basepoint; None if it leaves."""
        v = self.basepoint
        rows = self.rows
        for x in letters:
            v = rows[v].get(x)
            if v is None:
                return None
        return v

    def to_json(self):
        data = {
            "vertices": sorted(self.vertices),
            "edges": [{"from": o, "to": t, "label": letter_str(lab)}
                      for (o, t, lab) in sorted(self.edges)],
        }
        if self.basepoint is not None:
            data["basepoint"] = self.basepoint
        return data

    @classmethod
    def from_json(cls, data, rank):
        """The graph in ``to_json`` data, labeled by letters of rank rank.

        Raises ValueError if a label is not one letter of that rank, or
        ``from_edges`` rejects the graph.
        """
        letters = {letter_str(x): x for x in FreeGroup(rank).all_letters()}
        edges = []
        for e in data["edges"]:
            if e["label"] not in letters:
                raise ValueError(f"label {e['label']!r} is not a letter of "
                                 f"rank {rank}")
            edges.append((e["from"], e["to"], letters[e["label"]]))
        return cls.from_edges(data["vertices"], edges, data.get("basepoint"))

    def to_dot(self, name="core"):
        lines = [f"digraph {name} {{"]
        for v in sorted(self.vertices):
            shape = "doublecircle" if v == self.basepoint else "circle"
            lines.append(f'  {v} [shape={shape}];')
        for (o, t, lab) in sorted(self.edges):
            lines.append(f'  {o} -> {t} [label="{letter_str(lab)}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        kind = "based" if self.basepoint is not None else "cyclic"
        return (f"SubgroupCoreGraph({kind}, V={len(self.vertices)}, "
                f"E={len(self.edges)}, rank={self.rank()})")


def _fold(arcs, basepoint=None):
    """Stallings-fold arcs (origin, target, letters) with integer ends.

    Each arc is read into the graph folded so far: the rows are followed
    from its origin along the longest prefix of its letters, and from
    its target backwards along the longest remaining suffix.  If no
    letter is left, the two vertices reached are identified; otherwise
    the middle letters become new edges.  The k-th interior vertex of an
    arc is numbered fresh + k - 1, fresh being one above every given
    end and every earlier arc's interior vertices.  Identifications, and
    edges whose label is taken at one of their ends (a backtrack, or an
    arc closing onto its own first letter), go through one merge loop:
    folding two equally labeled edges v -> y1 and v -> y2 puts the
    larger of y1, y2 into the smaller.  So each class of vertices keeps
    its least id.  A vertex that reading skips would have gone into a
    vertex already in the graph, whose id is smaller, so the ids are
    those of the fold that adds every letter as an edge, and they do not
    depend on the order of the arcs.

    Returns (out, bp): out maps each vertex of the folded graph to
    {signed letter: far end}; bp is the vertex that basepoint (an arc
    end, or None) went into.
    """
    arcs = list(arcs)
    out = {v: {} for arc in arcs for v in arc[:2]}  # vertex -> {letter: end}
    fresh = 1 + max(out, default=0)
    alias = {}              # merged vertex -> vertex it went into
    # edges (origin, letter, end) to merge; letter 0 joins the ends
    stack = []
    for o, t, letters in arcs:
        while o in alias:
            o = alias[o]
        while t in alias:
            t = alias[t]
        i, j = 0, len(letters)
        while i < j:
            v = out[o].get(letters[i])
            if v is None:
                break
            o = v
            i += 1
        while j > i:
            v = out[t].get(-letters[j - 1])
            if v is None:
                break
            t = v
            j -= 1
        if i == j:
            if o != t:
                stack.append((o, 0, t))
        else:
            v = o
            for k in range(i, j):
                a = letters[k]
                if k < j - 1:
                    w = fresh + k
                    out[w] = {}
                else:
                    w = t
                if a in out[v] or -a in out[w]:
                    stack.append((v, a, w))
                else:
                    out[v][a] = w
                    out[w][-a] = v
                v = w
        fresh += max(len(letters) - 1, 0)
        while stack:
            v, a, w = stack.pop()
            while v in alias:
                v = alias[v]
            while w in alias:
                w = alias[w]
            if not a:
                y1, y2 = v, w
            elif a in out[v]:
                y1, y2 = out[v][a], w
            elif -a in out[w]:
                y1, y2 = out[w][-a], v
            else:
                out[v][a] = w
                out[w][-a] = v
                continue
            if y1 == y2:
                continue
            if y1 > y2:
                y1, y2 = y2, y1
            alias[y2] = y1
            for b, x in out.pop(y2).items():
                if x != y2:
                    del out[x][-b]
                stack.append((y2, b, x))
            if a:
                stack.append((v, a, w))
    while basepoint in alias:
        basepoint = alias[basepoint]
    return out, basepoint


def _mul(*words):
    """The reduced product of reduced words."""
    words = [w for w in words if w]
    if len(words) < 2:
        return tuple(words[0]) if words else ()
    return tuple(free_reduce([x for w in words for x in w]))


def _fold_words(arcs):
    """The worklist fold, without reading, for arcs that carry words over
    another alphabet.

    arcs: (origin, target, letters, word); an arc's first edge carries
    the word, a reduced tuple, and an arc with no letters identifies its
    ends.  Folding two equally labeled edges v -> y1 (word u1) and
    v -> y2 (word u2) puts the larger of y1, y2 into the smaller and
    regauges it, so both edges carry the same word; the least id of each
    class survives, never regauged.  With y1 == y2 and u1 != u2 the fold
    would kill a nontrivial word: then the words are not a free basis of
    the subgroup they generate, and ValueError is raised.

    Returns out, which maps each vertex of the folded graph to
    {signed letter: (far end, word)}.
    """
    arcs = list(arcs)
    fresh = 1 + max((x for arc in arcs for x in arc[:2]), default=0)
    out = {}                # vertex -> {signed letter: (far end, word)}
    alias = {}              # merged vertex -> (vertex it went into, gauge)
    # edges (origin, letter, end, word) to insert; letter 0 joins the ends
    stack = []
    for o, t, letters, word in arcs:
        ends = [o, *range(fresh, fresh + len(letters) - 1), t]
        fresh += max(len(letters) - 1, 0)
        for v in ends:
            out.setdefault(v, {})
        if not letters:
            stack.append((o, 0, t, word))
        for k, a in enumerate(letters):
            stack.append((ends[k], a, ends[k + 1], () if k else word))

    def find(v):
        g = ()
        while v in alias:
            v, h = alias[v]
            if h:
                g = _mul(h, g)
        return v, g

    while stack:
        v, a, w, u = stack.pop()
        v, gv = find(v)
        w, gw = find(w)
        if gv or gw:
            u = _mul(gv, u, inverse(gw))
        if not a:
            (y1, u1), (y2, u2) = (v, ()), (w, u)
        elif a in out[v]:
            (y1, u1), (y2, u2) = out[v][a], (w, u)
        elif -a in out[w]:
            (y1, u1), (y2, u2) = out[w][-a], (v, inverse(u))
        else:
            out[v][a] = (w, u)
            out[w][-a] = (v, inverse(u))
            continue
        if y1 == y2:
            if u1 != u2:
                raise ValueError("the fold kills a nontrivial word: the arc "
                                 "words are not a free basis")
            continue
        if y1 > y2:
            (y1, u1), (y2, u2) = (y2, u2), (y1, u1)
        alias[y2] = (y1, _mul(inverse(u1), u2))
        for b, (x, ub) in out.pop(y2).items():
            if x != y2:
                del out[x][-b]
            stack.append((y2, b, x, ub))
        if a:
            stack.append((v, a, w, u))
    return out


def fold_labeled_graph(arcs, basepoint=None):
    """The folded SubgroupCoreGraph of arcs (origin, target, letters).

    Each arc is a path spelling its letters.  The result is not trimmed;
    it is based at the image of basepoint (an arc end), if one is given.
    """
    return SubgroupCoreGraph(*_fold(arcs, basepoint))


def folded_core(arcs, basepoint=None):
    """The core of the folded graph of arcs (origin, target, letters).

    The folded graph loses every vertex of valence less than 2, until
    none is left; the basepoint, if one is given, stays, and a graph
    pruned away entirely keeps the one vertex 0.  The fold's rows lose
    the pruned vertices and the entries that lead to them, and become
    the graph's rows.
    """
    rows, bp = _fold(arcs, basepoint)
    gone = _pruned(rows, bp)
    rows = {v: {a: w for a, w in row.items() if w not in gone}
            for v, row in rows.items() if v not in gone}
    return SubgroupCoreGraph(rows or {0: {}}, bp)


def _pruned(rows, keep):
    """The vertices that trimming to the core removes.

    One worklist prunes: removing a vertex lowers the degree of each
    neighbour its row reaches, and a neighbour whose degree falls below
    2 is removed in turn.  The vertex keep (or None) is never removed.
    """
    deg = {v: len(row) for v, row in rows.items()}
    stack = [v for v, d in deg.items() if d < 2 and v != keep]
    gone = set(stack)
    while stack:
        for w in rows[stack.pop()].values():
            if w in gone:
                continue
            deg[w] -= 1
            if deg[w] < 2 and w != keep:
                gone.add(w)
                stack.append(w)
    return gone


def core_graph(generators, based=True):
    """Folded core of the subgroup generated by the given Words.

    based=True keeps the basepoint (membership queries); based=False
    returns the cyclic core representing the conjugacy class.
    """
    gens = [g for g in generators if len(g) > 0]
    if not gens:
        raise ValueError("empty generator list")
    return folded_core([(0, 0, g.letters) for g in gens], 0 if based else None)


def contains_element(H, g):
    """Membership g in H for a based core graph H."""
    if H.basepoint is None:
        raise ValueError("membership needs a based core graph")
    if g.is_identity():
        return True
    return H.trace(g.letters) == H.basepoint


def _walk(H):
    """H's least vertex, the walk ``_replay`` follows, and H's turns.

    Returns (h0, walk, turns).  walk lists (v, signed label, w) for
    every oriented edge of H in BFS order from h0, each row in its own
    order, or is None when H is not connected.  turns has one bit per
    turn of H, an unordered pair of signed labels leaving one vertex.
    A label-preserving morphism of H into a folded K is an immersion,
    so it sends every turn of H to a turn of K: ``turns & ~K_turns`` is
    nonzero only if H does not conjugate into K.
    """
    h0 = min(H.vertices)
    rows = H.rows
    walk = []
    reached = {h0}
    queue = [h0]
    for v in queue:
        for lab, w in rows[v].items():
            walk.append((v, lab, w))
            if w not in reached:
                reached.add(w)
                queue.append(w)
    # signed labels are numbered by letter_key; the turn {i, k} with
    # i < k is bit k (k - 1) / 2 + i
    turns = 0
    for row in rows.values():
        ks = sorted(map(letter_key, row))
        for j, k in enumerate(ks):
            for i in ks[:j]:
                turns |= 1 << (k * (k - 1) // 2 + i)
    return h0, (walk if len(reached) == len(rows) else None), turns


def _replay(h0, walk, K, seeds):
    """The vertex map of H into K that follows H's walk, or None.

    K is folded, so the map is fixed by the image of h0; every vertex
    of K is tried as that image, in the order of seeds, which lists
    K's vertices least first.
    """
    if walk is None:
        return None
    rows = K.rows
    for seed in seeds:
        vmap = {h0: seed}
        for (v, lab, w) in walk:
            img = rows[vmap[v]].get(lab)
            if img is None or vmap.setdefault(w, img) != img:
                break
        else:
            return vmap
    return None


def conjugate_into(H, K):
    """Does some conjugate of H lie in K?  (H, K cyclic cores.)

    Returns (True, vertex_map) with a label-preserving morphism
    core(H) -> core(K), or (False, None).  H's BFS walk is built once
    by ``_walk`` and replayed against K by ``_replay``; a caller that
    tests one H against many K keeps the walk and replays it.
    """
    if not H.vertices:
        return True, {}
    h0, walk, _ = _walk(H)
    vmap = _replay(h0, walk, K, sorted(K.vertices))
    return vmap is not None, vmap


def _arcs(rows, branch):
    """The arcs between the vertices of branch: (b, x) -> (letters, far
    end), for each vertex b of branch and each label x leaving it.

    An arc leaves b by x and, at each vertex outside branch (valence 2),
    goes on by the label it did not come in by, until it reaches a
    vertex of branch; letters spells it.  Each arc is met once from
    each end.
    """
    arcs = {}
    for b in branch:
        for x, v in rows[b].items():
            letters = [x]
            while v not in branch:
                y, z = rows[v]
                if y == -letters[-1]:
                    y = z
                letters.append(y)
                v = rows[v][y]
            arcs[b, x] = (tuple(letters), v)
    return arcs


def _canonical(graph):
    """The canonical code of a nonempty connected graph and its canonical
    rows, read on the graph's skeleton.

    The skeleton is the branch vertices, those of valence other than 2,
    and the arcs between them (``_arcs``); a cyclic core of rank r has
    at most 2r - 2 branch vertices.  A code is one BFS over the branch vertices
    from a start: for each branch vertex met, one entry per label
    leaving it, in numeric order, giving the arc's letters and the
    number of its far end.  The least code over all starts wins.  A
    graph with no branch vertex is a circle, coded as one vertex with
    one arc back to itself: the least rotation of its word or of the
    word's inverse (``words.least_rotation``).

    An isomorphism carries branch vertices, arcs and letters to their
    like, so isomorphic graphs get equal codes; a code spells its graph
    back, so equal codes mean isomorphic graphs.  The canonical rows are
    read back from the winning code: branch vertices 0..k-1 in BFS
    order, then the interior vertices of each arc, arcs in the order
    the code first meets them.  Isomorphic labeled graphs get equal
    rows, entry order included.  A disconnected graph raises ValueError.
    """
    rows = graph.rows
    branch = {v for v, row in rows.items() if len(row) != 2}
    if branch:
        arcs = _arcs(rows, branch)
        best = None
        for s in branch:
            number = {s: 0}
            order = [s]
            code = []
            for b in order:
                row = []
                for x in sorted(rows[b]):
                    letters, w = arcs[b, x]
                    if w not in number:
                        number[w] = len(order)
                        order.append(w)
                    row.append((letters, number[w]))
                code.append(tuple(row))
            code = tuple(code)
            if best is None or code < best:
                best = code
    else:
        v = next(iter(rows))
        (word, _), (back, _) = _arcs(rows, {v}).values()
        best = (((min(least_rotation(word), least_rotation(back)), 0),),)
    out = {i: {} for i in range(len(best))}
    placed = set()      # (vertex, label) of the far end of each arc placed
    for i, row in enumerate(best):
        for letters, j in row:
            if (i, letters[0]) in placed:
                continue
            placed.add((j, -letters[-1]))
            v = i
            for x in letters[:-1]:
                w = len(out)
                out[v][x] = w
                out[w] = {-x: v}
                v = w
            out[v][letters[-1]] = j
            out[j][-letters[-1]] = v
    if len(out) != len(rows):
        raise ValueError("graph is not connected")
    return repr(best).encode(), out


def canonical_code(graph):
    """Canonical byte string: equal exactly for isomorphic labeled
    graphs (connected ones; ``_canonical`` rejects any other)."""
    if not graph.vertices:
        return b"empty"
    return _canonical(graph)[0]


class FactorHandle:
    """A conjugacy class of a (trusted) free factor, keyed by canonical code.

    Handles do not verify free-factor-ness; they are built only through
    provenance-safe constructors (subgraph factors, automorphism images
    of coordinate factors, explicit sub-bases).  FactorHandle(core, n)
    takes the connected cyclic core of a factor of F_n and checks only
    that its rank is between 1 and n - 1 and (in ``_canonical``) that
    it is connected.  The handle keeps the class's
    canonical core, the rows ``_canonical`` read back from the code
    (branch vertices first, then arc interiors; vertices 0..k-1), so two
    handles of one class have identical cores whatever core and vertex
    ids they were made from.  ``walk()`` is built on first use and kept
    with the handle, so a handle shared by many balls is walked once.
    """

    __slots__ = ("core", "code", "rank", "_walked")

    def __init__(self, core, n):
        if core.rank() < 1:
            raise ValueError("factor must have rank >= 1")
        if core.rank() >= n:
            raise ValueError("factor must be proper")
        self.code, rows = _canonical(core)
        self.core = SubgroupCoreGraph(rows)
        self.rank = core.rank()
        self._walked = None

    @classmethod
    def from_words(cls, words):
        return cls(core_graph(words, based=False), words[0].group.rank)

    def edge_count(self):
        return len(self.core.edges)

    def walk(self):
        """The core's ``_walk`` triple and its sorted vertices: the walk
        replayed to test this handle into another, and the start order
        of a replay of another into this one."""
        if self._walked is None:
            self._walked = (*_walk(self.core), sorted(self.core.vertices))
        return self._walked

    def __eq__(self, other):
        return isinstance(other, FactorHandle) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return f"FactorHandle(rank={self.rank}, edges={self.edge_count()})"


def express_in_generators(arcs, targets):
    """Read targets, loops at vertex 0, as words in the words arcs carry.

    arcs: (origin, target, letters, word), as ``_fold_words`` takes
    them, on ends numbered from 0: each arc spells its letters and
    carries its word.  The fold never regauges vertex 0, the least id,
    so the product of the words met while reading a loop there is the
    loop's expression.  Returns one reduced letter tuple per target;
    raises ValueError if the fold kills a nontrivial word or a target
    is not a loop at 0 that the folded graph reads.
    """
    out = _fold_words(arcs)
    results = []
    for t in targets:
        v, letters = 0, []
        for x in t:
            if x not in out[v]:
                raise ValueError("target not readable in the folded graph")
            v, u = out[v][x]
            letters.extend(u)
        if v != 0:
            raise ValueError("target is not a loop at the basepoint")
        results.append(tuple(free_reduce(letters)))
    return results
