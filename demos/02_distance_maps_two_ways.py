"""
Asplund distance maps, computed two ways
========================================

Each metric slides a probe over the image and measures, per cell, how
tightly the probe brackets the window from both sides: the multiplicative
one scales the probe (ln(lam/mu)), the additive one shifts it (c1 (-) c2).

The multiplicative bound maps and distance map admit two independent
computation paths, the paper's two computations:

* a grey-level dilation and erosion of the double-log transform hat(f),
  the default, run by the same sliding kernel as every other map;
* the closed form, pointwise extrema of tilde-ratios (path="ratio"), kept
  as the reference the kernel is checked against,

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
    oracle_scan_add,
    oracle_scan_mult,
    plant_target,
    GreyImage,
)

M = 256.0

# A noisy canvas with the probe pattern planted at (20, 12).
probe = make_ring_probe(4, 2)
scene = plant_target(make_canvas(40, 40, seed=2), probe, (20, 12))

# --- multiplicative maps: dilation/erosion vs ratio closed form ------------
# the bound maps (mlub = sup side, a dilation of hat(f); mglb = inf side, an
# erosion), each computed both ways
lam = mlub_mult(scene, probe)
mu = mglb_mult(scene, probe)
for name, kernel, ratio in (
    ("mlub_mult", lam, mlub_mult(scene, probe, path="ratio")),
    ("mglb_mult", mu, mglb_mult(scene, probe, path="ratio")),
):
    print(f"{name}, two paths, max relative |diff|:",
          np.max(np.abs(kernel.values - ratio.values) / ratio.values))
print("mlub >= mglb everywhere:", bool(np.all(lam.values >= mu.values)))

# the distance map ln(mlub / mglb), both ways
ratio = map_mult(scene, probe, path="ratio")
morpho = map_mult(scene, probe)
print("multiplicative map, two paths, max |diff|:",
      np.max(np.abs(ratio.values - morpho.values)))
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
