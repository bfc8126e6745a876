"""Brute-force oracles: slow, independent routes used to check fast paths.

These deliberately avoid the candidate machinery, the direction-digraph
classification, and the greedy Whitehead descent; comparisons against
them are the backbone of the test suite and of the experiment runner.
The exhaustive Whitehead searches live here: ``whitehead_simple_oracle``
and the level-set closure ``minimal_level_set``; so does the spanning
legal loop DP ``spanning_legal_loop_bruteforce`` over (direction,
covered-edge set).  Every open-ended search has a budget; one that
runs out raises OracleBudgetExceeded with the oracle's name, its budget
and the work done so far, never a partial answer.
"""

from __future__ import annotations

from . import stallings
from .lipschitz import _loop_canon, class_of_loop
from .traintrack import direction_digraph
from .whitehead import all_type_ii_automorphisms, apply_whitehead
from .words import Word


class OracleBudgetExceeded(RuntimeError):
    """An oracle ran out of budget before its search was complete."""

    def __init__(self, oracle, budget, done):
        super().__init__(oracle, budget, done)  # args rebuild it when unpickled
        self.oracle = oracle
        self.budget = budget
        self.done = done        # {counter: value} when the budget ran out

    def __str__(self):
        done = ", ".join(f"{k} {v}" for k, v in self.done.items())
        return f"{self.oracle} exceeded its budget of {self.budget} ({done})"


def all_short_loops(graph, max_crossings=2, budget=2_000_000):
    """All immersed cyclic loops crossing each unoriented edge at most twice.

    Returns a list of cyclic edge tuples, one per loop class up to
    rotation and inversion.  DFS over oriented edges with usage counts
    from each edge, both ways, through edges not below it, so each loop
    is found from its least edge (more than once if it crosses it twice,
    hence the dedupe).  More than budget steps raise OracleBudgetExceeded.
    """
    found = {}
    steps = 0
    edges = sorted(graph.edge_ends)
    index = {e: i for i, e in enumerate(edges)}
    dirs_at = {v: tuple(graph.directions_at(v)) for v in graph.vertices}
    term = {d: graph.terminus(d) for v in graph.vertices for d in dirs_at[v]}
    for start in [s * e for e in edges for s in (1, -1)]:
        v0 = graph.origin(start)
        least = index[abs(start)]
        usage0 = [0] * len(edges)
        usage0[least] = 1
        stack = [((start,), tuple(usage0))]
        while stack:
            steps += 1
            if steps > budget:
                raise OracleBudgetExceeded("all_short_loops", budget, {
                    "steps": steps, "loops": len(found)})
            path, usage = stack.pop()
            head = term[path[-1]]
            if head == v0 and path[-1] != -path[0]:
                key = _loop_canon(path)
                found.setdefault(key, tuple(path))
                # longer loops may still close differently; keep extending
            for e in dirs_at[head]:
                i = index[abs(e)]
                if e == -path[-1] or i < least or usage[i] >= max_crossings:
                    continue
                u2 = list(usage)
                u2[i] += 1
                stack.append((path + (e,), tuple(u2)))
    return list(found.values())


def brute_stretch(G, Gp):
    """Max of target/source length over ALL loops crossing each edge <= twice."""
    best = None
    best_loop = None
    for loop in all_short_loops(G):
        lg = sum(G.lengths[abs(e)] for e in loop)
        lt = Gp.translation_length(class_of_loop(G, loop))
        ratio = lt / lg
        if best is None or ratio > best:
            best = ratio
            best_loop = loop
    return best, best_loop


def spanning_legal_loop_bruteforce(tt):
    """Independent check: DP over (direction, covered-edge set).

    Returns True iff some legal loop crosses every edge of the support.
    """
    D = direction_digraph(tt)
    edges = sorted(tt.edge_support())
    bit = {e: 1 << i for i, e in enumerate(edges)}
    full = (1 << len(edges)) - 1
    for start in sorted(D.nodes):
        seen = set()
        frontier = [(start, bit[abs(start)])]
        seen.add((start, bit[abs(start)]))
        while frontier:
            d, mask = frontier.pop()
            if mask == full and start in D.arcs[d]:
                return True
            for d2 in D.arcs[d]:
                st = (d2, mask | bit[abs(d2)])
                if st not in seen:
                    seen.add(st)
                    frontier.append(st)
    return False


def subgroup_elements_up_to(gen_words, max_length):
    """Elements of <gen_words> of word length <= max_length, by BFS closure.

    States are reduced words; expansion multiplies by generators on the
    right, pruned at max_length plus the longest generator (long products
    that dip back under the bound survive).
    """
    group = gen_words[0].group
    gens = []
    for w in gen_words:
        gens.append(w)
        gens.append(w.inverse())
    bound = max_length + max(len(g) for g in gens)
    seen = {group.identity().letters}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = w * g
                if len(u) > bound:
                    continue
                if u.letters not in seen:
                    seen.add(u.letters)
                    nxt.append(u)
        frontier = nxt
    return {ls for ls in seen if len(ls) <= max_length}


def conjugate_into_bruteforce(H_words, K_words, conjugator_length):
    """Is g^-1 <H> g <= <K> for some |g| <= conjugator_length?  Word search."""
    group = H_words[0].group
    K_based = stallings.core_graph(K_words, based=True)

    def all_words(n):
        out = [group.identity()]
        frontier = [group.identity()]
        for _ in range(n):
            nxt = []
            for w in frontier:
                for x in group.all_letters():
                    u = w * Word(group, [x])
                    if len(u) == len(w) + 1:
                        nxt.append(u)
            out.extend(nxt)
            frontier = nxt
        return out

    for g in all_words(conjugator_length):
        gi = g.inverse()
        if all(stallings.contains_element(K_based, gi * h * g) for h in H_words):
            return True
    return False


def whitehead_simple_oracle(cw, budget=200_000, cache=None):
    """Simplicity by search: some image under a chain of non-length-increasing
    type-II Whitehead moves omits a generator.

    Independent of the greedy descent: explores the full non-increasing
    cone with breadth-first closure.  A negative verdict certifies every
    word in the explored cone, so an optional cache dict amortizes
    sweeps (positives propagate forward when hit during the search).
    A cone of more than budget words raises OracleBudgetExceeded.
    """
    group = cw.group
    moves = all_type_ii_automorphisms(group)
    start = cw
    if _omits_generator(start):
        return True
    if cache is not None and start in cache:
        return cache[start]
    seen = {start}
    frontier = [start]
    found = False
    while frontier and not found:
        nxt = []
        for w in frontier:
            for tau in moves:
                img = apply_whitehead(tau, w)
                if len(img) > len(w):
                    continue
                if img in seen:
                    continue
                if _omits_generator(img):
                    found = True
                    break
                if cache is not None and img in cache:
                    if cache[img]:
                        found = True
                        break
                    # a cached negative covers its whole cone; no need
                    # to expand past it
                    seen.add(img)
                    continue
                seen.add(img)
                if len(seen) > budget:
                    raise OracleBudgetExceeded("whitehead_simple_oracle",
                                               budget, {"states": len(seen)})
                nxt.append(img)
            if found:
                break
        frontier = nxt
    if cache is not None:
        if found:
            cache[start] = True
        else:
            for w in seen:
                cache[w] = False
    return found


def minimal_level_set(m, budget=100_000):
    """The classes reachable from m by length-preserving type-II moves.

    m must have minimal length, as the greedy minimum has.  Independent of
    the greedy descent and of the graph-scored length changes: the
    breadth-first closure applies every move and measures each image.  A
    shorter image raises ValueError (m was not minimal); more than budget
    classes raise OracleBudgetExceeded.
    """
    moves = all_type_ii_automorphisms(m.group)
    level = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for w in frontier:
            for tau in moves:
                img = apply_whitehead(tau, w)
                if len(img) < len(m):
                    raise ValueError(f"{tau} takes {w} to the shorter {img}; "
                                     f"{m} is not of minimal length")
                if len(img) > len(m) or img in level:
                    continue
                level.add(img)
                if len(level) > budget:
                    raise OracleBudgetExceeded("minimal_level_set", budget,
                                               {"states": len(level)})
                nxt.append(img)
        frontier = nxt
    return level


def _omits_generator(cw):
    return len(cw.support()) < cw.group.rank
