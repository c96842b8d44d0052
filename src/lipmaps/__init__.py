"""Asplund distance maps in the logarithmic image processing (LIP) model.

The package provides, in dependency order:

* :mod:`lipmaps.lip` -- the LIP grey-value algebra (addition, scalar
  multiplication, transmittance, the log transforms and the isomorphism
  onto ordinary arithmetic) and the table of value regimes that every
  value check goes through;
* :mod:`lipmaps.rasters` -- immutable image / probe / map containers that
  carry the grey-scale bound ``m`` and enforce value regimes;
* :mod:`lipmaps.morphology` -- the run-length sliding max/min kernel
  behind every map, and grey-level dilation and erosion with a
  structuring function, clipped at raster borders;
* :mod:`lipmaps.asplund` -- both Asplund metrics, their sliding-window
  bound and distance maps (all through the kernel), the isomorphism
  link between the families, and two independent references: the ratio
  closed form of the multiplicative bounds and definitional scan oracles;
* :mod:`lipmaps.probing` -- lighting-change simulation, ring probes, and
  detection of map minima;
* :mod:`lipmaps.raster_io` -- PGM input, the bit-exact binary ``fmap``
  container, the ``probe`` text format and a lossy 8-bit PGM view;
* :mod:`lipmaps.cli` -- the ``lipmaps`` command-line tool.
"""

from .asplund import (
    add_bounds,
    dist_add,
    dist_metric_link,
    dist_mult,
    map_add,
    map_add_via_mult,
    map_mult,
    map_mult_via_add,
    mglb_add,
    mglb_mult,
    mlub_add,
    mlub_mult,
    mult_bounds,
    oracle_scan_add,
    oracle_scan_mult,
)
from .errors import (
    DimensionError,
    DomainError,
    LipError,
    ParseError,
    RegimeError,
    SingularityError,
    VerificationError,
)
from .lip import (
    DEFAULT_M,
    complement,
    complement_difference_identity,
    hat,
    hat_inv,
    lip_add,
    lip_mult,
    lip_neg,
    lip_sub,
    tilde,
    transmittance,
    xi,
    xi_inv,
)
from .morphology import dilate, erode, full_overlap_mask, reflect
from .probing import (
    Detection,
    darken,
    detect_minima,
    make_canvas,
    make_ring_probe,
    plant_target,
    random_image,
    random_probe,
)
from .rasters import DistanceMap, FmMap, GreyImage, Probe, RealMap, clamp_strict
from .raster_io import (
    read_image,
    read_map,
    read_pgm,
    read_probe,
    write_image,
    write_map,
    write_pgm8,
    write_probe,
)

__version__ = "0.1.0"
