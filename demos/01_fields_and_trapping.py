"""Magnetic potentials, field matrices, and the trapping component.

The trapping component B_tau = (x/|x|) B is the quantity whose smallness
(or vanishing) makes a magnetic field harmless for dispersion. This
script samples it for the built-in vortex field, which is non-trapping
despite being singular at the origin, and reconstructs a potential from
a field via the Biot-Savart integral.
"""

import numpy as np

from morcam.fields import (biot_savart, example_field, magnetic_matrix,
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

# A purely radial field has a vanishing Biot-Savart potential: each
# evaluation below integrates over the whole ball adaptively.
def B_radial(Y):
    Y = np.asarray(Y, float)
    r = np.maximum(np.sqrt(np.sum(Y ** 2, axis=-1)), 1e-300)
    return np.exp(-r ** 2)[..., None] * (Y / r[..., None])

for p in ([0.0, 0.0, 1.0], [1.5, 0.0, 0.0]):
    A = biot_savart(B_radial, np.array(p))
    print("Biot-Savart of a radial field at %s: ||A|| = %.2e" % (p, np.linalg.norm(A)))

# A field family concentrated along a direction omega also induces no
# potential along that axis.
fam = example_field("ex14_family", h=lambda s: s / (1 + s ** 2),
                    omega=(0.0, 0.0, 1.0), alpha=2.0)
for t in (0.5, 1.0, 2.0):
    A = fam.eval_A(np.array([0.0, 0.0, t]))
    print("family potential on the axis at t=%.1f: ||A|| = %.2e"
          % (t, np.linalg.norm(A)))
