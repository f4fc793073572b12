"""
Violation probability of a two-qubit Werner state
==================================================

A maximally entangled pair mixed with white noise violates the CHSH
inequality for random local measurements with a probability that has a
closed form.  This script prints that curve three ways: the closed form,
direct numerical quadrature, and a Monte Carlo estimate over Haar-random
settings, so the three routes can be eyeballed against each other.
"""

import math

from bellent.bell import default_set
from bellent.nlfrac import (PvEstimate, pv_werner2_closed,
                            pv_werner2_quadrature, violation_distribution)
from bellent.qstate import werner_like

M = 200_000
SEED = 7

iset = default_set(2)
print(f"inequality set: {iset.tag} ({len(iset)} relabelings)")
print(f"{'v':>6} {'closed':>10} {'quadrature':>10} {'monte carlo':>12}")
vs = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00)
# M settings drawn once for the noiseless state; a sample violates at v
# when its value is above 1/v
samples = violation_distribution(werner_like(math.pi / 4, 1.0, 2), iset, M, seed=SEED)
for v in vs:
    est = PvEstimate.of_count(samples.violations(v), M, iset.tag)
    closed = pv_werner2_closed(v)
    quad = pv_werner2_quadrature(v)
    print(f"{v:6.2f} {closed:10.5f} {quad:10.5f} "
          f"{est.p_v:8.5f} +- {est.std_err:.5f}")

print()
print(f"at v = 1 the closed form is 2(pi - 3) = {2 * (math.pi - 3):.10f}")
print(f"below v = 1/sqrt(2) = {1 / math.sqrt(2):.6f} no setting violates")
