"""The benchmark's workloads: seeded inputs, the work per instance, checks.

An instance is one input pair or one word.  Instance ``i`` of a workload
is generated from ``random.Random(f"{workload}/{i}")``, so the corpus of
each workload is fixed; the run seed chooses which instances of the
corpus a run measures (see ``schedule``).  ``execute`` returns ``None``
when every exact check of the instance passed, or a one-line reason.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from outerspace import factor_complex, folding, lipschitz, whitehead
from outerspace.randomgen import (random_automorphism, random_cyclic_word,
                                  random_marked_graph)
from outerspace.words import CyclicWord, FreeGroup

STRATA_FILE = Path(__file__).with_name("strata.json")

# qg-window certifies the first QG_WINDOW fold events of each path: the
# checker's cost grows with the cube of the path length, and a few
# 25-event paths would otherwise decide a whole run.
QG_WINDOW = 12
QG_K = 6
PROBE_LOOPS = 10


@dataclass
class Instance:
    workload: str
    index: int
    kind: str
    data: tuple
    expected: object = None       # known verdict, where there is one


# -- geodesic -----------------------------------------------------------------


def _geodesic_input(rng, index):
    rank, twist = (4, 4) if index % 2 == 0 else (5, 3)
    group = FreeGroup(rank)
    G = random_marked_graph(rng, group, twist)
    Gp = random_marked_graph(rng, group, twist)
    probes = tuple(random_cyclic_word(rng, group, rng.randint(2, 7))
                   for _ in range(PROBE_LOOPS))
    return f"rank{rank}", (G, Gp, probes), None


def _geodesic_run(inst):
    G, Gp, probes = inst.data
    sg = folding.standard_geodesic(G, Gp)
    snaps = [ev.graph.normalize() for ev in sg.path.events]
    first, last = snaps[0], snaps[-1]
    whole = lipschitz.stretch_factor(first, last)[0]
    for k, s in enumerate(snaps):
        if (lipschitz.stretch_factor(first, s)[0]
                * lipschitz.stretch_factor(s, last)[0] != whole):
            return f"fold additivity fails at event {k}"
    rows = folding.path_statistics(sg.path, probe_loops=probes)
    for p in range(len(probes)):
        seq = [row["loops"][p]["illegal_turns"] for row in rows]
        if any(a < b for a, b in zip(seq, seq[1:])):
            return f"illegal turns of probe {p} increase along the path"
    for ev in sg.path.events:
        factor_complex.project(ev.graph)
    return None


# -- simplicity ---------------------------------------------------------------

F3 = FreeGroup(3)
A2B2C2 = CyclicWord(F3, (1, 1, 2, 2, 3, 3))
# Planted non-simple words dominate the mix so that the median instance
# sits inside one dense cost cluster (the a^2 b^2 c^2 level set).
SIMPLICITY_KINDS = ("planted-nonsimple", "random", "planted-nonsimple",
                    "planted-simple", "planted-nonsimple")


def _factor_word(rng):
    """A nontrivial cyclic word in two of the three generators."""
    pair = rng.sample((1, 2, 3), 2)
    while True:
        letters, length = [], rng.randint(3, 8)
        while len(letters) < length:
            x = rng.choice(pair) * rng.choice((1, -1))
            if not letters or letters[-1] != -x:
                letters.append(x)
        cw = CyclicWord(F3, letters)
        if len(cw) >= 2:
            return cw


def _simplicity_input(rng, index):
    kind = SIMPLICITY_KINDS[index % len(SIMPLICITY_KINDS)]
    if kind == "random":
        return kind, (random_cyclic_word(rng, F3, rng.randint(8, 12)),), None
    base, expected = ((A2B2C2, False) if kind == "planted-nonsimple"
                      else (_factor_word(rng), True))
    phi, _ = random_automorphism(rng, F3, rng.randint(1, 6))
    return kind, (phi.apply(base),), expected


def _simplicity_run(inst):
    verdict = whitehead.is_simple(inst.data[0])
    if not isinstance(verdict, bool):
        return f"verdict {verdict!r} is not a bool"
    if inst.expected is not None and verdict != inst.expected:
        return f"verdict {verdict} on a word planted as {inst.expected}"
    return None


# -- qg-window ----------------------------------------------------------------


def _qg_input(rng, index):
    return "rank3", (random_marked_graph(rng, F3, 5),
                     random_marked_graph(rng, F3, 5)), None


def _qg_run(inst):
    G, Gp = inst.data
    sg = folding.standard_geodesic(G, Gp)
    images = [factor_complex.project(ev.graph)
              for ev in sg.path.events[:QG_WINDOW + 1]]
    seeds = {h.code: h for img in images for h in img}
    bound = max([8] + [h.edge_count() for h in seeds.values()])
    ball = factor_complex.build_ball(F3, seeds=list(seeds.values()),
                                     bound=bound, aut_product_length=2,
                                     vertex_cap=6000)
    report = factor_complex.check_reparam_quasigeodesic(images, K=QG_K,
                                                        ball=ball)
    if not report.ok:
        return f"no subdivision certificate: {report.failed_window}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: int           # instances 0 .. corpus-1 form the fixed corpus
    strata: int           # instances in a run's set, one per stratum
    make: object
    run: object


WORKLOADS = {w.name: w for w in (
    Workload("geodesic", 600, 80, _geodesic_input, _geodesic_run),
    Workload("simplicity", 500, 60, _simplicity_input, _simplicity_run),
    Workload("qg-window", 400, 60, _qg_input, _qg_run),
)}
# The set sizes make one pass over a set take about 30 s on a 2-core
# Xeon, so a 30 s run times it once.  Geodesic instances are cheaper on
# average but have the heaviest tail (a few optimal_map slide-budget
# pairs take 3-9 s), so geodesic takes more instances: the pick from its
# top stratum then decides less of the run.


def make_instance(workload, index):
    w = WORKLOADS[workload]
    kind, data, expected = w.make(random.Random(f"{workload}/{index}"), index)
    return Instance(workload, index, kind, data, expected)


def execute(inst):
    return WORKLOADS[inst.workload].run(inst)


def strata_order(workload):
    """The corpus indices of a workload, cheapest first, from strata.json."""
    order = json.loads(STRATA_FILE.read_text())[workload]
    if sorted(order) != list(range(WORKLOADS[workload].corpus)):
        raise ValueError(f"strata.json does not list the {workload} corpus")
    return order


def schedule(workload, seed):
    """The corpus indices a run measures: one instance from every stratum.

    strata.json lists the corpus sorted by the time each instance took
    when the strata were made; it is cut into strata of (nearly) equal
    size.  Every run's instance set then holds the same mix of cheap and
    expensive instances whatever the seed: run-to-run spread comes from
    the program and the host, not from how many expensive instances one
    seed happened to draw.  The seed chooses the instance of each stratum
    and the order in which they run.
    """
    order = strata_order(workload)
    n, strata = len(order), WORKLOADS[workload].strata
    rng = random.Random(f"{workload}/schedule/{seed}")
    picks = [rng.choice(order[k * n // strata:(k + 1) * n // strata])
             for k in range(strata)]
    rng.shuffle(picks)
    return picks
