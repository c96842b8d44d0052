"""
Asplund distance maps, computed two ways
========================================

Each metric slides a probe over the image and measures, per cell, how
tightly the probe brackets the window from both sides: the multiplicative
one scales the probe (ln(lam/mu)), the additive one shifts it (c1 (-) c2).

The multiplicative bound maps and distance map admit two independent
computations, the paper's two:

* a grey-level dilation and erosion of the double-log transform hat(f),
  run by the same sliding kernel as every other map;
* the closed form, extrema of tilde-ratios, here applied one window at a
  time: mult_bounds and dist_mult of each full-overlap cell's window
  against the probe,

and each map can also be computed from the *other* family through the
isomorphism xi.  This script shows all of these agreeing to rounding
error on one synthetic scene.
"""

import numpy as np

from lipmaps import (
    dist_add,
    dist_metric_link,
    dist_mult,
    make_canvas,
    make_ring_probe,
    map_add,
    map_add_via_mult,
    map_mult,
    map_mult_via_add,
    mglb_mult,
    mlub_mult,
    mult_bounds,
    oracle_scan_add,
    oracle_scan_mult,
    plant_target,
    GreyImage,
)

M = 256.0

# A noisy canvas with the probe pattern planted at (20, 12).
probe = make_ring_probe(4, 2)
scene = plant_target(make_canvas(40, 40, seed=2), probe, (20, 12))

# --- multiplicative maps: dilation/erosion vs the closed form per window ----
# the bound maps (mlub = sup side, a dilation of hat(f); mglb = inf side, an
# erosion) and the distance map ln(mlub / mglb), through the kernel
lam = mlub_mult(scene, probe)
mu = mglb_mult(scene, probe)
morpho = map_mult(scene, probe)
print("mlub >= mglb everywhere:", bool(np.all(lam.values >= mu.values)))

# the closed form on each full-overlap cell's window: the image cells under
# the probe, as one row, against the probe's cells in the same order
dys, dxs, _ = probe.offsets()
g = GreyImage(probe.masked_values().reshape(1, -1))
worst_lam = worst_mu = worst_dist = 0.0
for r, c in zip(*np.nonzero(morpho.full_mask)):
    window = GreyImage(scene.values[r + dys, c + dxs].reshape(1, -1))
    lam_w, mu_w = mult_bounds(window, g)
    worst_lam = max(worst_lam, abs(lam.values[r, c] - lam_w) / lam_w)
    worst_mu = max(worst_mu, abs(mu.values[r, c] - mu_w) / mu_w)
    worst_dist = max(worst_dist, abs(morpho.values[r, c] - dist_mult(window, g)))
print("mlub_mult vs mult_bounds per window, max relative |diff|:", worst_lam)
print("mglb_mult vs mult_bounds per window, max relative |diff|:", worst_mu)
print("map_mult vs dist_mult per window, max |diff|:", worst_dist)
print("map value at planted anchor:", morpho.values[20, 12])

# --- additive map and the isomorphism link --------------------------------
add_direct = map_add(scene, probe)
add_via = map_add_via_mult(scene, probe)      # through the multiplicative map
mult_via = map_mult_via_add(scene, probe)     # through the additive map
print("additive map via multiplicative, max |diff|:",
      np.max(np.abs(add_via.values - add_direct.values)))
print("multiplicative map via additive, max scale-relative |diff|:",
      np.max(np.abs(mult_via.values - morpho.values) / (1 + morpho.values)))

# --- whole-image metrics and the definitional scan oracles ----------------
f = GreyImage(scene.values[18:22, 10:14])
g = GreyImage(scene.values[19:23, 11:15])
print("dist_mult(f, g) =", dist_mult(f, g))
print("dist_add(f, g)  =", dist_add(f, g))

# the metric link: both sides of the isomorphism relation
direct, linked = dist_metric_link(f, g)
print("metric link: direct", direct, "linked", linked)

# brute-force scans of the defining inf/sup conditions bracket the closed
# forms within one grid step; slow but entirely independent
lam_hat, mu_hat = oracle_scan_mult(f, g, 1.001)
c1_hat, c2_hat = oracle_scan_add(f, g, 0.01)
print("alpha-scan brackets: lam in [%.6f, %.6f], mu in [%.6f, %.6f]"
      % (lam_hat / 1.001, lam_hat, mu_hat, mu_hat * 1.001))
print("c-scan brackets:     c1 in [%.4f, %.4f], c2 in [%.4f, %.4f]"
      % (c1_hat - 0.01, c1_hat, c2_hat, c2_hat + 0.01))
