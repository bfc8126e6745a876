"""Seeded random instances: graphs, markings, words, automorphisms.

Everything is driven by a caller-supplied random.Random so that a fixed
seed reproduces instances bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .words import Word, Automorphism
from .marked_graph import standard_marking, rose


def random_word(rng, group, length):
    letters = []
    while len(letters) < length:
        x = rng.choice(group.all_letters())
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return Word(group, letters)


def random_cyclic_word(rng, group, length):
    """A cyclic word of length at least max(1, length - 2), at most length."""
    if length < 1:
        raise ValueError(f"a random cyclic word needs length >= 1, "
                         f"not {length}")
    w = random_word(rng, group, length)
    cw = w.cyclic()
    while len(cw) < max(1, length - 2):
        cw = random_word(rng, group, length).cyclic()
    return cw


@cache
def elementary_automorphisms(group):
    """Nielsen moves x_i -> x_i x_j^(+-1) with their inverses, plus
    inversions, as a tuple of pairs built once per rank."""
    pairs = []
    n = group.rank
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for s in (1, -1):
                imgs = [group.generator(k) for k in range(1, n + 1)]
                imgs[i - 1] = Word(group, [i, s * j])
                inv = [group.generator(k) for k in range(1, n + 1)]
                inv[i - 1] = Word(group, [i, -s * j])
                pairs.append((Automorphism(group, imgs), Automorphism(group, inv)))
    for i in range(1, n + 1):
        imgs = [group.generator(k) for k in range(1, n + 1)]
        imgs[i - 1] = Word(group, [-i])
        pairs.append((Automorphism(group, imgs), Automorphism(group, imgs)))
    return tuple(pairs)


def random_automorphism(rng, group, length):
    """A product of `length` elementary moves; returns (phi, phi_inverse)."""
    pairs = elementary_automorphisms(group)
    phi = Automorphism.identity(group)
    inv = Automorphism.identity(group)
    for _ in range(length):
        a, a_inv = rng.choice(pairs)
        phi = a.compose(phi)
        inv = inv.compose(a_inv)
    return phi, inv


def random_graph_skeleton(rng, rank):
    """Connected graph of the given rank with all degrees >= 3.

    Spanning tree plus chords, rejection-sampled on the degree bound
    (500 tries).  Returns (vertices, edge_ends).
    """
    for _ in range(500):
        n_vertices = rng.randint(1, 2 * rank - 2)
        vertices = list(range(n_vertices))
        edges = {}
        eid = 1
        for v in range(1, n_vertices):
            u = rng.randrange(v)
            edges[eid] = (u, v)
            eid += 1
        for _ in range(rank):
            u = rng.randrange(n_vertices)
            v = rng.randrange(n_vertices)
            edges[eid] = (u, v)
            eid += 1
        deg = {v: 0 for v in vertices}
        for (o, t) in edges.values():
            deg[o] += 1
            deg[t] += 1
        if all(d >= 3 for d in deg.values()):
            return set(vertices), edges
    raise RuntimeError("failed to sample a degree-3 skeleton")


def random_lengths(rng, edge_ids):
    """Random positive rationals k/24 with 1 <= k <= 6, volume-normalized."""
    raw = {e: Fraction(rng.randint(1, 6), 24) for e in edge_ids}
    vol = sum(raw.values())
    return {e: l / vol for e, l in raw.items()}


def random_marked_graph(rng, group, twist_length=4):
    """Random normalized marked graph: skeleton, lengths, twisted marking."""
    vertices, edge_ends = random_graph_skeleton(rng, group.rank)
    lengths = random_lengths(rng, list(edge_ends))
    basepoint = 0
    G = standard_marking(group, vertices, edge_ends, lengths, basepoint)
    phi, phi_inv = random_automorphism(rng, group, twist_length)
    return G.remark(phi, phi_inv)


def random_rose(rng, group, twist_length=4):
    lengths = random_lengths(rng, list(range(1, group.rank + 1)))
    R = rose(group, [lengths[e] for e in sorted(lengths)])
    phi, phi_inv = random_automorphism(rng, group, twist_length)
    return R.remark(phi, phi_inv)
