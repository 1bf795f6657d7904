#!/usr/bin/env python3
"""Brute-force verification of the central equivalence on small graphs.

Three statements about a connected graph and a modulus q are equivalent:

  (1) q divides every signed number of edges shared by two circuits;
  (2) every cycle mod q is a coboundary mod q;
  (3) Phi[q] is isomorphic to (Z/q)^b1.

This script checks the equivalence on every connected multigraph with at
most 6 edges (up to isomorphism, loops and parallel edges included) and
every q up to 6, and also confirms that the circuit invariant read off
the component group agrees with brute-force circuit enumeration.
The command line equivalent is `nerongraph verify-lemma`.
"""

import time

from nerongraph import verify_equivalence

start = time.time()
report = verify_equivalence(max_edges=6, max_q=6)
elapsed = time.time() - start

for edges in sorted(report.graphs_by_edges):
    print(f"edges={edges}: {report.graphs_by_edges[edges]} graphs")
print(f"\n{report.total_graphs} graphs, {report.checks} (graph, q) checks "
      f"in {elapsed:.2f}s")

if report.ok:
    print("0 counterexamples: the three criteria agree everywhere.")
else:
    print(f"{len(report.counterexamples)} counterexamples:")
    for line in report.counterexamples:
        print(" ", line)
    raise SystemExit(1)
