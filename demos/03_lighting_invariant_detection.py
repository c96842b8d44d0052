"""
Detecting a pattern through a lighting change
=============================================

The additive Asplund metric does not move when a constant is LIP-added to
the image, which is exactly what a shorter camera exposure does to every
pixel.  So a template planted in a scene stays the global minimum of the
distance map after the whole scene is darkened, and a plain threshold
finds it in both versions.

Writes side-by-side viewable PGMs (scene, darkened scene, both maps) into
./out_detection/.
"""

import pathlib

import numpy as np

from lipmaps import (
    darken,
    detect_minima,
    make_canvas,
    make_ring_probe,
    map_add,
    plant_target,
    write_pgm8,
)

M = 256.0
OUT = pathlib.Path("out_detection")
OUT.mkdir(exist_ok=True)

# Scene: mid-grey noise with a bright-ring/dark-disk target at (48, 20).
probe = make_ring_probe(6, 3)          # ring grey 161 around disk grey 4
scene = plant_target(make_canvas(96, 96, seed=5), probe, (48, 20))

# Simulated exposure drop: LIP-add 200 to every pixel (much darker image).
dark = darken(scene, 200.0)
print("scene mean grey %.1f -> darkened mean grey %.1f"
      % (scene.values.mean(), dark.values.mean()))

# Distance maps between each scene and the same (bright-scene) probe.
map_bright = map_add(scene, probe)
map_dark = map_add(dark, probe)

diff = np.abs(map_dark.values[map_bright.full_mask]
              - map_bright.values[map_bright.full_mask])
print("max map difference on full-overlap cells: %.3e grey levels" % diff.max())

# Threshold both maps: same single detection, at the planted anchor.
threshold = 1e-3 * M
for name, dmap in (("bright", map_bright), ("dark", map_dark)):
    hits = detect_minima(dmap, threshold)
    print(f"{name:6s}: {len(hits)} detection(s) ->",
          [(d.row, d.col, round(d.value, 6)) for d in hits])

# Viewable 8-bit dumps (min-max normalised; dark cells = small distance).
write_pgm8(scene, OUT / "scene.pgm")
write_pgm8(dark, OUT / "scene_darkened.pgm")
write_pgm8(map_bright, OUT / "map_bright.pgm")
write_pgm8(map_dark, OUT / "map_dark.pgm")
print("wrote PGM views into", OUT)

# The same experiment drives the CLI:
#   lipmaps map-add --image scene.fmap --probe ring.probe --out map.fmap
#   lipmaps lighting --image scene.fmap --out dark.fmap --add 200
#   lipmaps detect --map map.fmap --threshold 0.256 --probe ring.probe
