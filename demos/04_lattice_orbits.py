"""The even-lattice tower and the four orbits of negative roots.

The rank-23 lattice U^3 + E8(-1)^2 + (-2) governs Hilbert squares of K3
surfaces; the orthogonal complement of a square-2 vector is the
polarized period lattice, whose negative roots of square -2 or -4 fall
into exactly four stable orbits classified by square, divisibility and
the starred discriminant class.  Each lattice holds its discriminant
group once built, so the functions below take the lattice alone.
"""

from epw.lattices import (
    classify_negative_root, disc_group, divisibility_and_star, gamma_tilde,
    iota_swap, lambda_lattice, lambda_tilde, overlattices, phi_tilde,
    reflection, sublattice_index_and_discr,
)

lt = lambda_tilde()
print("rank-23 lattice: det=%d signature=(%d,%d)" % ((lt.det(),) + lt.signature()))

lam = lambda_lattice()
d = disc_group(lam)
print("\npolarized lattice: rank=%d det=%d invariants=%s"
      % (lam.rank, lam.det(), d.invariants))
for name in ("e1", "e2", "e3"):
    div, star = divisibility_and_star(lam.vector(name), lam)
    print("  %s: square=%d div=%d q(star)=%s"
          % (name, lam.square(lam.vector(name)), div, d.q_value(star)))

print("\norbit tags:")
e12 = [a + b for a, b in zip(lam.vector("e1"), lam.vector("e2"))]
for label, v in [("e1", lam.vector("e1")), ("e2", lam.vector("e2")),
                 ("e3", lam.vector("e3")), ("e1+e2", e12)]:
    print("  %-6s -> %s" % (label, classify_negative_root(v, lam)))

m, stable = iota_swap(lam)
print("\nswap involution e1 <-> e2: integral isometry, stable:", stable)
_, stable = reflection(lt.vector("v1"), lt)
print("reflection in a square-2 vector is stable:", stable)

gt = gamma_tilde()
print("\ncomplement of e3: det =", gt.det())
ovs = overlattices(gt)
print("even index-2 overlattices:", len(ovs))
k3 = ovs[0].lattice
print("the unique one: rank=%d det=%d signature=(%d,%d)"
      % ((k3.rank, k3.det()) + k3.signature()))
idx, ok = sublattice_index_and_discr(k3, ovs[0].sub_in_super)
print("index in the overlattice: %d (discriminant identity: %s)" % (idx, ok))
print("same lattice via the tower constructor:", phi_tilde().det() == k3.det())
