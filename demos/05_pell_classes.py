"""Square-2 classes on the Hilbert square of a quartic surface.

The rank-2 Picard lattice diag(4, -2) embeds into Z[sqrt(2)] so that the
pairing is the negative trace form; classes of square 2 solve the Pell
equation N(y + x sqrt2) = -1 and the nodal classes alpha_n obstruct all
candidate polarizations except the geometric one.
"""

from epw.hilbert_square import (
    NSRank2, alpha_class, conic_class_arithmetic,
    is_effective_double, obstruction_pairing, pell_brute_force,
    pell_square_two_classes, trace_pairing,
)

ns = NSRank2(4)
print("Pell classes x*mu + y*xi of square 2:")
for n, x, y in pell_square_two_classes(3):
    print("  n=%+d: (x, y) = (%d, %d), q = %d" % (n, x, y, ns.q((x, y))))

brute = pell_brute_force()
print("\nbrute force over the box finds", len(brute), "solutions")

print("\nnodal classes alpha_n (square -2) and effectivity of 2 alpha_n:")
for n in range(-3, 4):
    v = alpha_class(n)
    sign = is_effective_double(n)
    print("  n=%+d: alpha=(%d,%d) q=%d effective side=%+d"
          % (n, v[0], v[1], ns.q(v), sign))

print("\nobstruction pairings (always -4):")
for n in (-2, -1, 1, 2):
    h, beta, val = obstruction_pairing(n)
    print("  n=%+d: h=(%d,%d), beta=(%d,%d), (h,beta)=%d"
          % (n, h[0], h[1], beta[0], beta[1], val))

print("\ntrace form equals the Gram form:",
      trace_pairing((3, -5), (2, 7)) == ns.pair((3, -5), (2, 7)))
rep = conic_class_arithmetic()
print("conic-bundle class square from its fiber integral:", rep.q_zeta)
