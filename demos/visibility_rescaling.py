"""
One sample set, every visibility
=================================

For white-noise mixtures the Bell value at fixed settings is linear in
the visibility v.  So a single set of per-setting maxima over the set's
replay rows, computed once for the pure state, can be thresholded at
1/v to obtain p_V at every noise level, with no further quantum
mechanics.  This is bit-identical to rerunning the full estimator at
each v with the same seed, and turns a v-sweep from hours into
milliseconds.
"""

import sys
import time

import numpy as np

from bellent.bell import default_set
from bellent.nlfrac import (estimate_pv, pv_from_distribution,
                            violation_distribution)
from bellent.qstate import gghz, werner_like

iset = default_set(3)
m, seed = 20_000, 2026
ghz = gghz(np.pi / 4, 3).projector()

# the first draw imports scipy.special; pay that before the timer
violation_distribution(ghz, iset, 1, seed)
t0 = time.perf_counter()
samples = violation_distribution(ghz, iset, m, seed)
t_sample = time.perf_counter() - t0

vs = np.linspace(0.55, 1.0, 10)
t0 = time.perf_counter()
replayed = [pv_from_distribution(samples, v) for v in vs]
t_replay = time.perf_counter() - t0

# spot-check two points against the direct route, on the same settings
for v in (0.8, 1.0):
    direct = estimate_pv(werner_like(np.pi / 4, v, 3), iset, m, seed)
    assert pv_from_distribution(samples, v) == direct.p_v

# wall-clock times go to stderr, so stdout is the same on every run
print(f"sampled {m} settings once in {t_sample:.2f} s, "
      f"replayed {len(vs)} visibilities in {t_replay * 1000:.1f} ms", file=sys.stderr)
print(f"{'v':>6} {'p_v':>9}")
for v, p in zip(vs, replayed):
    print(f"{v:6.3f} {p:9.5f}")
