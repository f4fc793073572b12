"""
From coincidence counts to a violation fraction
================================================

Mimics the photonic workflow end to end on synthetic data.  Coincidence
counts for blocks of Haar-random settings are synthesized from a target
state, degraded with Poisson shot noise and an admixture of
separable-basis counts, then pushed through the same analysis an
experiment would use: group the records into complete blocks, form
behavior tables, count blocks violating any inequality of the set, and
get an uncertainty from Poissonian resampling plus the sampling noise
of the finite set of random blocks.
"""

import numpy as np

from bellent.bell import expand_relabelings, mermin
from bellent.expdata import (add_poisson_noise, mix_counts, normalize_cc,
                             poisson_resample, pv_cc, synth_basis_datasets,
                             synth_cc_dataset)
from bellent.nlfrac import estimate_pv
from bellent.qstate import werner_like

rho = werner_like(np.pi / 4, 0.986, 3)  # near-GHZ with realistic visibility
iset = expand_relabelings([mermin()])
n_blocks, seed, scale = 500, 17, 250.0  # ~30 counts per outcome

raw = synth_cc_dataset(rho, n_blocks, seed, scale=scale)
noisy = add_poisson_noise(raw, seed)
res = pv_cc(noisy, iset)
print(f"dataset: {len(noisy.records)} records, "
      f"{res.n_blocks} complete blocks, "
      f"{res.n_excluded_records} records dropped")
print(f"p_v = {res.estimate.p_v:.5f} "
      f"(interval {res.interval_low:.5f} .. {res.interval_high:.5f})")

direct = estimate_pv(rho, iset, n_blocks, seed)
print(f"noise-free direct estimate at the same settings: {direct.p_v:.5f}")

res = poisson_resample(noisy, iset, 40, seed)
print(f"resampled over 40 trials: {res.mean:.5f} +- {res.std:.5f} "
      f"(counts {res.std_poisson:.5f}, block sampling {res.std_sampling:.5f})")

# the same machinery models imperfect visibility by mixing in counts
# taken with the separable basis states
basis = [normalize_cc(b)
         for b in synth_basis_datasets(n_blocks, seed, scale=scale)]
mixed = mix_counts(normalize_cc(noisy), basis, 0.9)
print(f"after mixing to v_c = 0.9: p_v = {pv_cc(mixed, iset).estimate.p_v:.5f}")
