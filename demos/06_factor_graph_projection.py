"""The coarse projection to the free factor graph.

A marked graph projects to the set of factors represented by its proper
core subgraphs; this set has uniformly bounded diameter (at most 4).
Along a folding path the projections move slowly, and the checker
produces a subdivision certificate for the reparameterized
quasi-geodesic property under ball distance upper bounds.
"""

import random

from outerspace import FreeGroup, project, build_ball, standard_geodesic
from outerspace.factor_complex import check_reparam_quasigeodesic
from outerspace.randomgen import random_marked_graph

F = FreeGroup(3)
rng = random.Random(5)

G = random_marked_graph(rng, F, twist_length=4)
H = random_marked_graph(rng, F, twist_length=4)

img = project(G)
print(f"projection of G: {len(img)} factors, ranks "
      f"{sorted(h.rank for h in img)}")

sg = standard_geodesic(G, H)
images = [project(ev.graph) for ev in sg.path.events]
seeds = {h.code: h for im in images for h in im}
ball = build_ball(F, seeds=list(seeds.values()), bound=8,
                  aut_product_length=2)
print(f"ball: {len(ball.handles)} factors within core bound 8")
print(f"projection diameter of G in the ball: "
      f"{ball.diameter_upper(img)} (always <= 4)")

report = check_reparam_quasigeodesic(images, K=6, ball=ball)
print(f"\nquasi-geodesic certificate: breakpoints {report.breakpoints}, "
      f"window diameters {report.window_diameters}")
print(f"index condition consistent under upper bounds: {report.consistent}")
