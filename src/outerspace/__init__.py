"""Exact computations with marked metric graphs of free groups.

The package computes the asymmetric Lipschitz distance between marked
metric graphs with exact rational arithmetic, constructs optimal maps
and their train track structures, runs greedy folding paths and
standard geodesics, decides simplicity of conjugacy classes by
Whitehead reduction, manipulates Stallings subgroup graphs, and builds
finite windows into the free factor graph with coarse projection and a
reparameterized-quasi-geodesic checker.

See the demos directory of the source distribution for worked examples
of each capability.
"""

from .words import (FreeGroup, Word, CyclicWord, Automorphism,
                    RankMismatchError)
from .marked_graph import MarkedMetricGraph, rose, standard_marking
from .stallings import (SubgroupCoreGraph, FactorHandle, core_graph,
                        contains_element, conjugate_into, canonical_code)
from .lipschitz import (candidates, stretch_factor, distance, optimal_map,
                        optimize_in_simplex, GraphMap, Candidate,
                        OptimalMapError, BoundaryOptimumError)
from .traintrack import (TrainTrackStructure, DirectionDigraph,
                         direction_digraph, classify_recurrence,
                         find_spanning_legal_loop, is_legal,
                         illegal_turn_count)
from .folding import (fold_step, folding_path, standard_geodesic,
                      path_statistics, FoldingPath, StandardGeodesic)
from .whitehead import (WhiteheadGraph, WhiteheadAutomorphism,
                        connectivity_report,
                        apply_whitehead, reduce_to_minimal, is_simple,
                        all_type_ii_automorphisms, outer_moves,
                        SimplicityCertificateError, GreedyDescentError)
from .factor_complex import (FactorBall, project, build_ball,
                             check_reparam_quasigeodesic, SeedExceedsBound)

__version__ = "0.1.0"
