"""Solving the magnetic resolvent equation -Hu + (lambda + i eps)u = f.

The operator H = -Delta_A + V is discretized with unit-modulus link
phases (so gauge covariance survives discretization) and solved with
GMRES, right preconditioned by the exact inverse of the free shifted
operator (the sine matrix S_jk = sqrt(2/(m+1)) sin(pi j k/(m+1)) applied
along each axis diagonalizes it). The absorption parameter eps makes
the problem uniquely solvable; the basic energy inequality
|eps| int |u|^2 <= int |f u| holds exactly in the limit and numerically
to solver tolerance. The covariant-gradient energy comes from
radial_sweep, which forms the gradient one slab of the grid at a time
and sums each density per radial bin.
"""

import numpy as np

from morcam.fields import make_potential_pair
from morcam.grids import RadialGrid
from morcam.norms import morrey_campanato
from morcam.resolvent import build_problem, radial_sweep, solve

grid = RadialGrid(3, 8.0, 0.25)
pp = make_potential_pair(3, {"name": "ex13"},
                         {"name": "gaussian", "amplitude": 0.5})

prob = build_problem(pp, lam=1.0, eps=0.5,
                     f_spec={"name": "gaussian", "width": 0.8},
                     grid=grid)
u = solve(prob, tol=1e-10)
print("grid %d^3, lambda=1, eps=0.5, vortex A + gaussian well V" % grid.m)
print("relative apply-residual: %.2e" % u.residual)

l2 = grid.integrate(u.abs2())
fu = grid.integrate(np.abs(prob.f.values * u.values))
print("absorption inequality: |eps| int|u|^2 = %.4f <= int|fu| = %.4f"
      % (0.5 * l2, fu))

# one sweep over slabs of the grid bins |grad_A u|^2 per radius; the
# energy is the sum over the radial bins
[g2_bins] = radial_sweep(u, prob.disc, lambda slab: [slab.g2])
mc, rstar = morrey_campanato(u)
print("|||u||| = %.4f (max at R=%.2f), covariant-gradient energy %.4f"
      % (mc, rstar, g2_bins.sum()))
