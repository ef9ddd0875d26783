"""Benchmark workloads: one morcam CLI scenario each, made from a seed.

Seed 0 gives each base scenario exactly.  Any other seed scales the
datum's amplitude by a factor in [0.8, 1.25] and its width by one in
[0.97, 1.03].  Both keep the work the same: the amplitude does not enter
GMRES's relative tolerance, and the datum stays centred, so it keeps the
symmetries that keep the Krylov space small.  Moving the centre breaks
them: an offset of a few hundredths raises the iterations at eps = 0.01 from 102 to
about 190 on a 64^3 magnetic sweep, and from 21 to about 25 on a
128^3 identity run.  The
scenario builds its wave datum along x, so the wave vector's direction
is not a scenario parameter and is not varied.
"""

from __future__ import annotations

import copy

import numpy as np

_MAGNETIC = {"A": {"name": "ex13"},
             "V": {"name": "exp_screened", "amplitude": 0.3}}
# Also the eps values that per-eps metrics are reported for, on every workload.
LADDER = [1.0, 0.1, 0.01]
_WAVE = {"name": "wave", "width": 2.0, "k": 3.5}

# Each execution takes 4 to 9 s on one core, so that a run takes the
# median of several: on a shared machine single executions varied by about
# 10 % from one to the next, at every grid size tried.
BASE = {
    # Krylov-bound: 20/42/83 operator applications over the ladder.
    "magnetic_sweep": {
        "n": 3, "run": "sweep", "potential": _MAGNETIC,
        "grid": {"L": 12.0, "h": 0.5}, "lambda": 1.0,
        "eps_list": LADDER, "f": _WAVE, "tol": 1.0e-9,
    },
    # Few iterations on a fine grid: kernels, sampling and the identity.
    "identity_80": {
        "n": 3, "run": "verify-identity", "potential": _MAGNETIC,
        "grid": {"L": 5.0, "h": 0.125}, "lambda": 1.0, "eps": 1.0,
        "f": {"name": "gaussian", "width": 1.0}, "tol": 1.0e-10,
    },
    # A = V = 0: the preconditioner is exact, 3 applications per eps.  Its
    # DST-I length m + 1 = 97 is prime, the slow case of the FFT.
    "free_sweep": {
        "n": 3, "run": "sweep", "potential": {},
        "grid": {"L": 12.0, "h": 0.25}, "lambda": 1.0,
        "eps_list": LADDER, "f": _WAVE, "tol": 1.0e-9,
    },
}


def scenario(workload: str, seed: int) -> dict:
    sc = copy.deepcopy(BASE[workload])
    if seed != 0:
        rng = np.random.default_rng(seed)
        f = sc["f"]
        f["amplitude"] = float(np.exp(rng.uniform(np.log(0.8), np.log(1.25))))
        f["width"] = float(f["width"] * rng.uniform(0.97, 1.03))
    return sc


def operations(sc: dict) -> list[str]:
    """Operation keys of one execution: each eps-solve of a sweep, or the
    solve and the identity evaluation of a verify-identity run."""
    if sc["run"] == "sweep":
        return [f"{float(e):g}" for e in sc["eps_list"]]
    return ["solve", "identity"]
