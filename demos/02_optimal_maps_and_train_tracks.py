"""Optimal maps, tension graphs, gates, and recurrence.

An optimal map realizes the stretch factor exactly.  Its tension graph
(the edges stretched maximally) carries a gate structure: directions
with a common image germ share a gate.  At the point of a simplex
minimizing the distance to a target, the whole graph is tension and the
structure is recurrent: some legal loop crosses every edge.
"""

import random
from fractions import Fraction as Fr

from outerspace import (FreeGroup, rose, stretch_factor, optimal_map,
                        optimize_in_simplex, classify_recurrence)
from outerspace.randomgen import random_marked_graph

F = FreeGroup(3)
rng = random.Random(7)

G = rose(F, [Fr(1, 3)] * 3)
H = random_marked_graph(rng, F, twist_length=4)

lam, wit = stretch_factor(G, H)
f = optimal_map(G, H, lam)
print(f"stretch {lam}; slopes per edge: "
      f"{ {e: str(s) for e, s in f.slopes().items()} }")
print(f"tension graph: {sorted(f.tension_edges())}")

tt = f.gates(f.tension_edges())
for v in sorted(tt.gates):
    print(f"gates at vertex {v}: {[sorted(g) for g in tt.gates[v]]}")

print("\nminimizing over the rose simplex...")
lengths, lam_star = optimize_in_simplex(G, H)
print(f"optimal lengths {lengths} with stretch {lam_star} (< {lam})")

X = G.with_lengths(lengths)
fX = optimal_map(X, H)
ttX = fX.gates(set(X.edge_ends))
verdict = classify_recurrence(ttX)
print(f"induced structure on the minimizer: {verdict.kind}")
print(f"certifying legal loop: {list(verdict.certificate)}")
