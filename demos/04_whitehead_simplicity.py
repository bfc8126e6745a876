"""Whitehead graphs and the simplicity decision.

A conjugacy class is simple when it lies in a proper free factor.
The decision shortens greedily with Whitehead automorphisms, each move
scored from the Whitehead graph.  The class is simple when the greedy
minimum omits a generator; otherwise the minimum's Whitehead graph is
connected without cut vertices, which certifies non-simplicity.
The minimal forms counted below are the greedy minimum's level set,
closed under length-preserving moves by the brute-force oracle
oracles.minimal_level_set.
"""

from outerspace import (FreeGroup, WhiteheadGraph, connectivity_report,
                        reduce_to_minimal, is_simple)
from outerspace.oracles import minimal_level_set
from outerspace.words import CyclicWord

F = FreeGroup(3)

for text in ("abc", "aabbcc", "abAB", "abacbc"):
    w = CyclicWord(F, F.word(text).letters)
    W = WhiteheadGraph(w)
    rep = connectivity_report(W)
    res = reduce_to_minimal(w)
    forms = minimal_level_set(res.descent[-1])
    verdict = is_simple(w)
    print(f"{text:10s} graph: {str(rep):14s} minimal length {res.minimal_length}"
          f"  ({len(forms)} minimal forms)  simple: {verdict}")

print()
w = CyclicWord(F, F.word("aabbcc").letters)
print("the Whitehead graph of a^2 b^2 c^2 (a single 6-cycle):")
print(WhiteheadGraph(w).to_dot())
