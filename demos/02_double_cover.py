"""The double cover above a chart of the degeneracy sextic.

The Schur complement of the nondegenerate block of q_A is kept exactly
as a pair (M_hat, D) with M_J = M_hat / D.  The determinant identity

    det(q_A + q_v) * D^(k-1) = det(M_hat)

is verified as an exact polynomial identity, and the cover above an
etale point (kernel dimension 1) is cut out by two explicit equations.
Each function takes the chart alone: it keeps the Lagrangian it was
built from.
"""

import random

from epw.local_model import (
    Chart, double_cover_ideal, schur_complement, schur_identity_check,
)
from epw.wedge import random_graph_lagrangian, standard_chart_basis

rng = random.Random(7)
frame, gram = random_graph_lagrangian(rng, corank=1)
v0, basis = standard_chart_basis()
chart = Chart(frame, v0, basis)

sd = schur_complement(chart)
print("kernel dimension:", sd.k)
print("nondegenerate block size:", len(sd.j_indices))
print("deg D =", sd.denom.degree(), " deg M_hat_11 =", sd.m_hat.entries[0][0].degree())
print("identity det(q_A+q_v) * D^(k-1) == det(M_hat):",
      schur_identity_check(chart, sd))

dc = double_cover_ideal(chart)
print("\ndouble cover in variables", dc.vars)
for i, g in enumerate(dc.generators):
    label = g.to_text()
    if len(label) > 70:
        label = label[:67] + "..."
    print("  g%d = %s" % (i, label))
print("\nthe second generator is xi1^2 - 1: two etale sheets, as expected")
print("at a kernel-free point the ideal is empty and the cover is unramified")
