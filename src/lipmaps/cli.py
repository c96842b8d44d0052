"""Command-line front end: distance maps, lighting changes, detection, link checks.

Exit codes: 0 success, 1 empty result (no detection), 2 input or domain
error, 3 numerical verification failure.  Results go to stdout,
diagnostics to stderr.  Every command is deterministic given its flags;
random instances come from numpy's seeded PCG64 generator with grey
values uniform in [10, 240].
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import asplund, probing, raster_io
from .errors import DomainError, LipError, VerificationError
from .lip import lip_mult
from .morphology import full_overlap_rect
from .rasters import GreyImage, clamp_strict

LINK_TOL = asplund.LINK_TOL


def _load_image(args):
    image = raster_io.read_image(args.image)
    if args.clamp is not None:
        image = clamp_strict(image, args.clamp)
    return image


def _max_dev(a, b, scale):
    """Max deviation between two value arrays, relative to ``scale`` (array or float).

    Matching infinities count as zero deviation; a lone infinity shows up
    as an infinite deviation.
    """
    both_inf = ~np.isfinite(a) & ~np.isfinite(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)
    diff = np.where(both_inf, 0.0, diff)
    return float(np.max(diff / scale))


def cmd_map(args) -> int:
    image = _load_image(args)
    probe = raster_io.read_probe(args.probe)
    result = getattr(asplund, args.map_name)(image, probe)
    raster_io.write_map(result, args.out)
    return 0


def cmd_lighting(args) -> int:
    image = _load_image(args)
    if args.add is not None:
        image = probing.darken(image, args.add)
    else:
        a = args.mult
        if not a > 0:
            raise DomainError(f"--mult factor must be positive, got {a}")
        image = GreyImage._adopt(lip_mult(a, image.values, image.m), image.m)
    raster_io.write_image(image, args.out)
    return 0


def cmd_detect(args) -> int:
    probe = None if args.probe is None else raster_io.read_probe(args.probe)
    dist_map = raster_io.read_map(args.map, probe)
    hits = probing.detect_minima(dist_map, args.threshold)
    for d in hits:
        print(f"{d.col} {d.row} {format(d.value, '.17g')}")
    return 0 if hits else 1


def _centre_window_pair(image, probe):
    """1xN image/probe pair over the most central full-overlap window."""
    r0, r1, c0, c1 = full_overlap_rect(image.shape, probe)
    if r0 == r1:
        raise DomainError("no full-overlap cell: image is smaller than the probe")
    # the row-major middle cell of the rectangle
    row, col = divmod((r1 - r0) * (c1 - c0) // 2, c1 - c0)
    dys, dxs, _ = probe.offsets()
    window = image.values[r0 + row + dys, c0 + col + dxs]
    return (
        GreyImage(window.reshape(1, -1), image.m),
        GreyImage(probe.masked_values().reshape(1, -1), probe.m),
    )


def cmd_verify_link(args) -> int:
    if args.image is not None:
        if args.probe is None:
            raise DomainError("verify-link needs --probe together with --image")
        image = _load_image(args)
        probe = raster_io.read_probe(args.probe)
    elif args.random is not None:
        if args.seed < 0:
            raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
        rng = np.random.default_rng(args.seed)
        w, h = args.random
        if w < 1 or h < 1:
            raise DomainError(f"--random needs W >= 1 and H >= 1, got W={w} H={h}")
        image = probing.random_image(h, w, rng)
        probe = probing.random_probe(3, 3, rng)
    else:
        raise DomainError("verify-link needs either --image/--probe or --random W H")

    # before the maps, so that an image with no full-overlap cell prints nothing
    fw, gw = _centre_window_pair(image, probe)
    devs = []
    # multiplicative distances are unbounded, so relative to 1 + |d|; additive ones lie in [0, m]
    for label, direct_map, via_map, scale in (
        ("map-mult via additive:", asplund.map_mult, asplund.map_mult_via_add, lambda d: 1.0 + np.abs(d)),
        ("map-add via multiplicative:", asplund.map_add, asplund.map_add_via_mult, lambda d: image.m),
    ):
        direct = direct_map(image, probe).values
        devs.append(_max_dev(via_map(image, probe).values, direct, scale(direct)))
        print(f"{label:27} max scale-relative deviation {devs[-1]:.3e}")

    direct, linked = asplund.dist_metric_link(fw, gw)
    dev_metric = abs(direct - linked) / (1.0 + abs(direct))
    print(f"metric pair: direct {direct:.6f} linked {linked:.6f} deviation {dev_metric:.3e}")

    if max(*devs, dev_metric) > LINK_TOL:
        print(f"verify-link: FAILED (tolerance {LINK_TOL:g})", file=sys.stderr)
        return 3
    print("verify-link: OK")
    return 0


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipmaps",
        description=(
            "Asplund distance maps in the logarithmic image processing model: "
            "lighting-invariant template probing, plus the isomorphism link "
            "between the multiplicative and additive metrics."
        ),
        epilog=(
            "Random instances (verify-link --random) draw grey values uniformly "
            "from [10, 240] with numpy's PCG64 generator seeded by --seed."
        ),
    )
    parser.add_argument(
        "--clamp",
        type=float,
        metavar="EPS",
        default=None,
        help="clamp loaded image values into [EPS, m-EPS] before regime checks "
        "(for 8-bit inputs containing 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("map-mult", "map of LIP-multiplicative Asplund distances"),
        ("map-add", "map of LIP-additive Asplund distances"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--image", required=True)
        p.add_argument("--probe", required=True)
        p.add_argument("--out", required=True)
        # the map is looked up on asplund when the command runs, so that patches of it apply
        p.set_defaults(func=cmd_map, map_name=name.replace("-", "_"))

    p = sub.add_parser("lighting", help="simulate a lighting change")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--add", type=float, metavar="K",
                   help="LIP-add the constant K (exposure-time change)")
    g.add_argument("--mult", type=float, metavar="A",
                   help="LIP-multiply by A (opacity/thickness change)")
    p.set_defaults(func=cmd_lighting)

    p = sub.add_parser("detect", help="threshold a distance map and list minima")
    p.add_argument("--map", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--probe", default=None,
                   help="probe whose full-overlap region detections are restricted to; "
                   "optional for maps that store their region, which must then match it")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("verify-link", help="check the metric/map link identities")
    p.add_argument("--image", default=None)
    p.add_argument("--probe", default=None)
    p.add_argument("--random", type=int, nargs=2, metavar=("W", "H"), default=None,
                   help="use a seeded random WxH image and 3x3 probe")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_link)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"lipmaps: verification failure: {exc}", file=sys.stderr)
        return 3
    except LipError as exc:
        print(f"lipmaps: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"lipmaps: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
