#!/usr/bin/env python3
"""The finiteness verdicts and the indices m2, m3 on the six built-in graphs.

For a curve with semistable minimal regular model (m1 = 1), the Neron
model of its r-torsion Picard scheme is finite over the base if and only
if r divides the circuit invariant c.  More quantitatively, it becomes
finite exactly over the degree-m2 stack-theoretic base extension with
m2 = m1 * r / gcd(r, c), and is realised by torsion bundles on a twisted
reduction from degree m3 = m1 * r / gcd(r, t) on.
"""

from nerongraph import (
    ReductionData,
    analyze,
    group_neron_finite,
    index_m2,
    index_m3,
    is_r_divided,
    paper_fixtures,
)

R = 4
print(f"verdicts for r = {R}  (all six graphs have thickness 1, so m3 = r)\n")
header = f"{'fixture':<20}{'c':>3}{'m2':>4}{'m3':>4}   finite  r-divided"
print(header)
print("-" * len(header))
for name, graph in paper_fixtures():
    data = ReductionData(graph=graph, r=R)
    report = analyze(data)
    print(
        f"{name:<20}{report.c:>3}{report.m2:>4}{report.m3:>4}"
        f"   {str(report.group_neron_finite):<7} {report.r_divided}"
    )

# Reading the table:
#  * the loop never has a finite model (c = 1);
#  * the banana does for r | 2, the square for r | 4;
#  * two-squares-bridge and grid have finite models (r | c) although
#    neither graph is r-divided, so the classical sufficient condition
#    is strictly weaker than the circuit criterion.
print()
for name, r in (("two-squares-bridge", 4), ("grid", 2)):
    graph = dict(paper_fixtures())[name]
    data = ReductionData(graph=graph, r=r)
    print(
        f"{name} at r={r}: finite={group_neron_finite(data)}, "
        f"r-divided={is_r_divided(graph, r)}"
    )

# Thickness matters through the minimal regular model.  A banana whose
# two nodes both have thickness 3 resolves to a hexagon, so c jumps from
# 2 to 6 while t becomes 3; at r = 6 the model is finite over the base
# and the twisted-representability index is m3 = 2.
from nerongraph import MultiGraph

thick = MultiGraph(
    ["v0", "v1"],
    [("e0", "v0", "v1"), ("e1", "v0", "v1")],
    edge_thickness={"e0": 3, "e1": 3},
)
data = ReductionData(graph=thick, r=6)
print(
    f"\nthick banana at r=6: m2={index_m2(data)}, m3={index_m3(data)} "
    f"(chain 1 | {index_m2(data)} | {index_m3(data)} | 6)"
)
