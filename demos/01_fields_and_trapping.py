"""Magnetic potentials, field matrices, and the trapping component.

The trapping component B_tau = (x/|x|) B is the quantity whose smallness
(or vanishing) makes a magnetic field harmless for dispersion. This
script samples it for the built-in vortex field, which is non-trapping
despite being singular at the origin, and for the paper's field family
B(y) = h(yhat . omega) y/|y|^3 through its closed-form potential, whose
member h(s) = 2s, omega = e_3 is the vortex field again.
"""

import numpy as np

from morcam.fields import (PotentialPair, example_field, magnetic_matrix,
                           trapping_component)

rng = np.random.default_rng(0)

# The vortex potential A = (-y, x, 0)/r^2: its field B is radial, so the
# trapping component vanishes identically.
pp = example_field("ex13")
pts = rng.standard_normal((500, 3))
pts *= rng.uniform(0.5, 4.0, (500, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)

B = magnetic_matrix(pp, pts)
# B_tau from the field matrix; ex13 declares non_trapping, so
# trapping_component returns zeros for it without forming B
bt = np.einsum("pi,pij->pj", pts / np.linalg.norm(pts, axis=1, keepdims=True), B)
print("vortex field |B| range:   [%.3f, %.3f]"
      % (np.linalg.norm(B, axis=(1, 2)).min(), np.linalg.norm(B, axis=(1, 2)).max()))
print("max |B_tau| over samples: %.2e  from B (non-trapping), %.2e declared" %
      (np.linalg.norm(bt, axis=1).max(),
       np.linalg.norm(trapping_component(pp, pts), axis=1).max()))

# The paper's field family B(y) = h(yhat . omega) y/|y|^3 has the closed-form
# potential A(x) = H(xhat . omega) (omega x x)/|omega x x|^2, H(c) = int_c^1 h.
# B is radial, so B_tau vanishes; a copy without the non_trapping declaration
# forms it from a central-difference Jacobian, off the omega axis.
def h(s):
    return s / (1 + s ** 2)


fam = example_field("ex14_family", h=h, omega=(1.0, 2.0, -0.5))
undeclared = PotentialPair(3, A=fam.A, domain_check=fam.domain_check)
omega = np.array([1.0, 2.0, -0.5]) / np.linalg.norm([1.0, 2.0, -0.5])
off_axis = pts[np.linalg.norm(np.cross(omega, pts), axis=1)
               >= 0.1 * np.linalg.norm(pts, axis=1)]
print("family max |B_tau| over %d samples: %.2e  (finite differences)"
      % (len(off_axis), np.linalg.norm(trapping_component(undeclared, off_axis), axis=1).max()))

# ex13 is the member h(s) = 2s with omega = e_3.
member = example_field("ex14_family", h=lambda s: 2 * s, omega=(0.0, 0.0, 1.0))
print("family h = 2s against ex13's A: max gap %.2e"
      % np.abs(member.eval_A(pts) - pp.eval_A(pts)).max())
