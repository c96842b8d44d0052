"""Acceptance battery: one test per criterion, stated tolerances, PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected constant is either dyadic-exact, recomputed by
the definitional scan oracles, or frozen from a 60-digit independent
evaluation of the closed forms.
"""

import time
from contextlib import contextmanager

import numpy as np
from conftest import reference

from lipmaps import (
    add_bounds,
    complement_difference_identity,
    darken,
    detect_minima,
    dist_add,
    dist_mult,
    lip_add,
    lip_mult,
    lip_neg,
    lip_sub,
    make_canvas,
    make_ring_probe,
    map_add,
    map_add_via_mult,
    map_mult,
    map_mult_via_add,
    mult_bounds,
    oracle_scan_add,
    oracle_scan_mult,
    plant_target,
    random_image,
    random_probe,
    read_pgm,
    read_map,
    read_probe,
    transmittance,
    write_map,
    write_probe,
    xi,
    xi_inv,
    DistanceMap,
    GreyImage,
    Probe,
)
from lipmaps.morphology import dilate, erode

M = 256.0


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE criterion {n}: FAIL ({label})")
        raise
    print(f"\nACCEPTANCE criterion {n}: PASS ({label})")


def _instances(seed, count, shape=(16, 16)):
    rng = np.random.default_rng(seed)
    for i in range(count):
        f = random_image(*shape, rng)
        for k in (3, 5):
            yield f, random_probe(k, k, rng)


def test_criterion_1_link_identities():
    with criterion(1, "cross-family map identities, 50 seeded 16x16 images, 3x3 and 5x5 probes"):
        t0 = time.perf_counter()
        worst_mult = worst_add = 0.0
        for f, b in _instances(101, 50):
            md = map_mult(f, b).values
            mv = map_mult_via_add(f, b).values
            worst_mult = max(worst_mult, float(np.max(np.abs(mv - md) / (1.0 + np.abs(md)))))
            ad = map_add(f, b).values
            av = map_add_via_mult(f, b).values
            worst_add = max(worst_add, float(np.max(np.abs(av - ad))))
        elapsed = time.perf_counter() - t0
        assert worst_mult <= 1e-9, worst_mult
        assert worst_add <= 1e-9 * M, worst_add
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def test_criterion_2_two_path_equivalence():
    with criterion(2, "ratio vs morphological path, same instance set"):
        worst = 0.0
        for f, b in _instances(101, 50):
            a = reference(map_mult)(f, b).values
            c = map_mult(f, b).values
            worst = max(worst, float(np.max(np.abs(a - c))))
        assert worst <= 1e-9, worst


def test_criterion_3_multiplicative_lighting_invariance():
    with criterion(3, "LIP-multiplication invariance of the multiplicative metric"):
        rng = np.random.default_rng(303)
        for _ in range(10):
            f = random_image(6, 6, rng)
            g = random_image(6, 6, rng)
            base = dist_mult(f, g)
            for alpha in (0.5, 2.0, 3.0):
                scaled = GreyImage(lip_mult(alpha, f.values))
                assert abs(dist_mult(scaled, g) - base) <= 1e-9
        # planted-target canvases: argmin cell survives the lighting change
        probe = make_ring_probe(5, 2)
        scene = plant_target(make_canvas(64, 64, seed=33), probe, (32, 32))
        base_map = map_mult(scene, probe)
        masked = np.where(base_map.full_mask, base_map.values, np.inf)
        anchor = np.unravel_index(np.argmin(masked), masked.shape)
        assert anchor == (32, 32)
        for alpha in (0.5, 2.0, 3.0):
            scaled_map = map_mult(GreyImage(lip_mult(alpha, scene.values)), probe)
            m2 = np.where(scaled_map.full_mask, scaled_map.values, np.inf)
            assert np.unravel_index(np.argmin(m2), m2.shape) == anchor


def test_criterion_4_additive_lighting_invariance_and_detection():
    with criterion(4, "LIP-addition of 200 leaves the additive map and detection fixed"):
        t0 = time.perf_counter()
        probe = make_ring_probe(5, 2)  # defaults: ring 161, disk 4
        scene = plant_target(make_canvas(64, 64, seed=44), probe, (32, 32))
        base = map_add(scene, probe)
        dark = map_add(darken(scene, 200.0), probe)
        fm = base.full_mask
        assert np.max(np.abs(dark.values[fm] - base.values[fm])) <= 1e-6 * M
        t = 1e-3 * M
        hits_base = detect_minima(base, t)
        hits_dark = detect_minima(dark, t)
        assert [(d.row, d.col) for d in hits_base] == [(32, 32)]
        assert [(d.row, d.col) for d in hits_dark] == [(32, 32)]
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"runtime {elapsed:.2f}s"


def test_criterion_5_metric_axioms():
    with criterion(5, "metric axioms on 200 seeded 4x4 triples, both metrics"):
        rng = np.random.default_rng(505)
        for _ in range(200):
            f = random_image(4, 4, rng)
            g = random_image(4, 4, rng)
            h = random_image(4, 4, rng)
            for dist in (dist_mult, dist_add):
                dfg = dist(f, g)
                assert dfg >= 0.0
                assert abs(dfg - dist(g, f)) <= 1e-12
                assert dist(f, f) == 0.0
                assert dist(f, h) <= dfg + dist(g, h) + 1e-9


def test_criterion_6_oracle_bracketing():
    with criterion(6, "closed forms inside the scan-oracle brackets"):
        fp = 1e-12  # one-ulp fudge at bracket edges
        rng = np.random.default_rng(606)
        ratio_step, c_step = 1.0001, 0.001
        for _ in range(20):
            f = random_image(1, 8, rng)
            g = random_image(1, 8, rng)
            lam, mu = mult_bounds(f, g)
            lam_hat, mu_hat = oracle_scan_mult(f, g, ratio_step)
            assert lam_hat / ratio_step * (1 - fp) <= lam <= lam_hat * (1 + fp)
            assert mu_hat * (1 - fp) <= mu <= mu_hat * ratio_step * (1 + fp)
            c1, c2 = add_bounds(f, g)
            c1_hat, c2_hat = oracle_scan_add(f, g, c_step)
            assert c1_hat - c_step * (1 + fp) <= c1 <= c1_hat + c_step * fp
            assert c2_hat - c_step * fp <= c2 <= c2_hat + c_step * (1 + fp)

        # the documented 1x2 instance, oracle-recomputed then frozen
        f = GreyImage([[100.0, 200.0]])
        g = GreyImage([[150.0, 150.0]])
        lam, mu = mult_bounds(f, g)
        c1, c2 = add_bounds(f, g)
        lam_hat, mu_hat = oracle_scan_mult(f, g, ratio_step)
        c1_hat, c2_hat = oracle_scan_add(f, g, c_step)
        assert lam_hat / ratio_step <= lam <= lam_hat
        assert mu_hat <= mu <= mu_hat * ratio_step
        assert c1_hat - c_step <= c1 <= c1_hat
        assert c2_hat <= c2 <= c2_hat + c_step
        # frozen float64 closed forms (60-digit evaluation) and their
        # 6-digit documented roundings
        assert abs(lam - 1.723669786066323) <= 1e-13
        assert abs(mu - 0.5617555786516293) <= 1e-13
        assert abs(c1 - 120.75471698113208) <= 1e-11
        assert abs(lam - 1.723674) <= 1e-5
        assert abs(mu - 0.561757) <= 1e-5
        assert abs(c1 - 120.754717) <= 1e-5
        assert abs(dist_mult(f, g) - 1.121145) <= 1e-5
        assert abs(dist_add(f, g) - 164.1026) <= 1e-3


def test_criterion_7_algebraic_suites():
    with criterion(7, "LIP algebra, isomorphism, complement identity, morphology laws"):
        rng = np.random.default_rng(707)
        tol = 1e-12 * M

        # LIP algebra laws, 120 scalar instances
        for _ in range(120):
            fv, gv, hv = rng.uniform(0.0, 255.5, 3)
            assert lip_add(fv, gv) == lip_add(gv, fv)
            assert abs(lip_add(lip_add(fv, gv), hv) - lip_add(fv, lip_add(gv, hv))) <= tol
            assert lip_add(fv, 0.0) == fv
            assert abs(lip_add(fv, M) - M) <= tol
            assert abs(lip_add(fv, lip_neg(fv))) <= tol
            assert abs(lip_add(lip_sub(fv, gv), gv) - fv) <= tol
            assert abs(
                transmittance(lip_add(fv, gv)) - transmittance(fv) * transmittance(gv)
            ) <= 1e-14
            lam, mu = rng.uniform(0.1, 5.0, 2)
            assert abs(lip_mult(lam, lip_mult(mu, fv)) - lip_mult(lam * mu, fv)) <= tol
            lhs = lip_mult(lam, lip_add(fv, gv))
            rhs = lip_add(lip_mult(lam, fv), lip_mult(lam, gv))
            assert abs(lhs - rhs) <= tol

        # isomorphism laws, 120 scalar instances
        for _ in range(120):
            fv, gv = rng.uniform(0.0, 250.0, 2)
            lam = rng.uniform(0.1, 4.0)
            assert abs(xi(lip_add(fv, gv)) - (xi(fv) + xi(gv))) <= 1e-9 * (
                1 + abs(xi(fv) + xi(gv))
            )
            if lip_mult(lam, fv) <= 255.99:
                assert abs(xi(lip_mult(lam, fv)) - lam * xi(fv)) <= 1e-9 * (
                    1 + lam * abs(xi(fv))
                )
            w = rng.uniform(-1000.0, 255.9)
            assert abs(xi_inv(xi(w)) - w) <= 1e-12 * (M + abs(w))
            assert (fv <= gv) == (xi(fv) <= xi(gv))

        # complement-difference identity on 120 random rasters
        for _ in range(120):
            fr = rng.uniform(0.0, 256.0, size=(4, 4))
            br = rng.uniform(0.5, 256.0, size=(4, 4))
            out = complement_difference_identity(fr, br)  # raises beyond 1e-9*m
            assert np.max(np.abs(out - M * (1.0 - fr / br))) <= 1e-9 * M

        # morphological adjunction and lattice distribution, 120 instances
        for _ in range(120):
            fr = rng.uniform(-10, 10, size=(8, 8))
            gr = rng.uniform(-10, 10, size=(8, 8))
            mask = rng.random((3, 3)) < 0.6
            if not mask.any():
                mask[1, 1] = True
            b = Probe(rng.uniform(-5, 5, size=(3, 3)), mask, (1, 1))
            assert bool(np.all(dilate(gr, b) <= fr)) == bool(np.all(gr <= erode(fr, b)))
            assert np.array_equal(
                dilate(np.maximum(fr, gr), b), np.maximum(dilate(fr, b), dilate(gr, b))
            )
            assert np.array_equal(
                erode(np.minimum(fr, gr), b), np.minimum(erode(fr, b), erode(gr, b))
            )


def test_criterion_8_io_round_trips(tmp_path):
    with criterion(8, "bit-exact fmap/probe round trips and P2/P5 parity"):
        rng = np.random.default_rng(808)
        for i in range(10):
            vals = rng.uniform(-1e6, 1e6, size=(5, 7))
            vals[0, 0] = np.inf
            vals[0, 1] = -np.inf
            vals[0, 2] = 0.1 + 0.2
            path = tmp_path / f"m{i}.fmap"
            write_map(DistanceMap(vals, None, M), path)
            back = read_map(path)
            assert np.array_equal(back.values, vals) and back.m == M

            pv = rng.uniform(1.0, 255.0, size=(3, 4))
            mask = rng.random((3, 4)) < 0.7
            mask[1, 1] = True
            probe = Probe(pv, mask, (1, 2), M)
            ppath = tmp_path / f"p{i}.probe"
            write_probe(probe, ppath)
            pback = read_probe(ppath)
            assert np.array_equal(pback.values, probe.values)
            assert np.array_equal(pback.mask, probe.mask)
            assert pback.anchor == probe.anchor and pback.m == probe.m

            pix = rng.integers(0, 256, size=(4, 6))
            p2 = tmp_path / f"a{i}.pgm"
            p5 = tmp_path / f"b{i}.pgm"
            rows = "\n".join(" ".join(str(v) for v in row) for row in pix)
            p2.write_text(f"P2\n6 4\n255\n{rows}\n")
            p5.write_bytes(b"P5\n6 4\n255\n" + bytes(int(v) for v in pix.ravel()))
            assert np.array_equal(read_pgm(p2).values, read_pgm(p5).values)
