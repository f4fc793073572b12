"""
Inside the inequality catalog
==============================

Bell inequalities are stored as coefficient tables plus a local bound;
relabeling outputs, settings, or parties maps each inequality to an
orbit of equivalent forms.  The script prints the bundled families,
expands their orbits, and shows the quantum/classical gap at canonical
settings with the same kernel the Monte Carlo uses: a state's correlation
tensor and a batch of settings go to `batch_i_max`, which returns the
largest normalized value over the orbit (violation means I > 1).  The
orbit's rows are prepared by `product_rows`, as each estimate prepares
them, so only the full correlators the orbit reads are built.
"""

import numpy as np

from bellent.bell import (batch_i_max, chsh, expand_relabelings, mermin,
                          pauli_tensor, product_rows, svetlichny)
from bellent.qstate import gghz

for ineq in (chsh(), mermin(), svetlichny()):
    orbit = expand_relabelings([ineq])
    print(f"{ineq.name:12s} parties={ineq.n_parties} "
          f"bound={ineq.lhv_bound} orbit={len(orbit)}")

# CHSH at the Tsirelson settings: normalized value sqrt(2)
z, x = np.array([0, 0, 1.0]), np.array([1.0, 0, 0])
opt2 = np.array([[z, x], [(x + z) / np.sqrt(2), (-x + z) / np.sqrt(2)]])
pair = pauli_tensor(gghz(np.pi / 4, 2).projector())
val = batch_i_max(pair, opt2[None], product_rows(expand_relabelings([chsh()]).c_matrix))[0]
print(f"\nCHSH at optimal settings: I = {val:.6f} "
      f"(Tsirelson bound {np.sqrt(2):.6f})")

# GHZ against Svetlichny: equatorial settings at the right phases reach
# the algebraic maximum, random ones rarely get close
svet = product_rows(expand_relabelings([svetlichny()]).c_matrix)
ghz = pauli_tensor(gghz(np.pi / 4, 3).projector())
phases = np.array([(0, np.pi / 2), (0, np.pi / 2), (np.pi / 4, 3 * np.pi / 4)])
opt3 = np.stack([np.cos(phases), np.sin(phases), np.zeros_like(phases)], axis=-1)
print(f"Svetlichny at optimal settings: I = "
      f"{batch_i_max(ghz, opt3[None], svet)[0]:.6f}")

d = np.random.default_rng(1).standard_normal((200, 3, 2, 3))
d /= np.linalg.norm(d, axis=-1, keepdims=True)
best = batch_i_max(ghz, d, svet).max()
print(f"Svetlichny over 200 random settings: best I = {best:.4f} "
      f"(algebraic max sqrt(2) = {np.sqrt(2):.4f})")
