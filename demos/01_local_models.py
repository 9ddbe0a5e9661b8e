"""Local determinantal models of a degeneracy sextic.

Build a Lagrangian subspace of Lambda^3 Q^6 as the graph of a symmetric
quadratic form, compute the degree-six local equation of its degeneracy
locus, and read off the Taylor pieces at the chart center.  A chart
keeps the Lagrangian it was built from, so each function below takes
the chart alone.
"""

import random

from epw.local_model import Chart, local_sextic, taylor_order_check
from epw.wedge import (
    degeneracy_dim, is_lagrangian, random_graph_lagrangian,
    standard_chart_basis,
)

rng = random.Random(2024)

# a graph Lagrangian whose form has a 2-dimensional kernel at the center
frame, gram = random_graph_lagrangian(rng, corank=2)
v0, basis = standard_chart_basis()
print("is_lagrangian:", is_lagrangian(frame.matrix))
print("degeneracy dimension at the center:", degeneracy_dim(frame, v0))

chart = Chart(frame, v0, basis)
sextic = local_sextic(chart)
print("degree of det(q_A + q_v):", sextic.degree())
print("number of terms:", len(sextic.f.terms))

print("\nTaylor pieces at the center:")
for i, part in enumerate(sextic.parts):
    label = part.to_text()
    if len(label) > 70:
        label = label[:67] + "..."
    print("  f%d = %s" % (i, label))

report = taylor_order_check(chart)
print("\nvanishing-order checks (k = %d):" % report.k)
for line in report.lines():
    print(" ", line)

# moving away from the center the degeneracy drops to zero
p = [x + y for x, y in zip(v0, basis[0])]
print("\ndegeneracy one step along c1:", degeneracy_dim(frame, p))
print("f(1,0,0,0,0) =", sextic.f.evaluate([1, 0, 0, 0, 0]))
