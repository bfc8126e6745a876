"""Whitehead graphs and the simplicity decision.

A conjugacy class is simple when it lies in a proper free factor.
The decision shortens greedily with Whitehead automorphisms, each move
scored from the Whitehead graph.  The class is simple when the greedy
minimum omits a generator; otherwise the minimum's Whitehead graph is
connected without cut vertices, which certifies non-simplicity.
reduce_to_minimal also closes the minimal level set under
length-preserving moves, to count the minimal forms printed below.
"""

from outerspace import (FreeGroup, whitehead_graph, connectivity_report,
                        reduce_to_minimal, is_simple)
from outerspace.words import CyclicWord

F = FreeGroup(3)

for text in ("abc", "aabbcc", "abAB", "abacbc"):
    w = CyclicWord(F, F.word(text).letters)
    W = whitehead_graph(w)
    rep = connectivity_report(W)
    res = reduce_to_minimal(w)
    verdict = is_simple(w)
    print(f"{text:10s} graph: {str(rep):14s} minimal length {res.minimal_length}"
          f"  ({len(res.representatives)} minimal forms)  simple: {verdict}")

print()
w = CyclicWord(F, F.word("aabbcc").letters)
print("the Whitehead graph of a^2 b^2 c^2 (a single 6-cycle):")
print(whitehead_graph(w).to_dot())
