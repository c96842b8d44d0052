"""Definitional grid-scan oracles: bracketing semantics against the closed forms."""

import numpy as np
import pytest

from lipmaps import (
    DomainError,
    add_bounds,
    mult_bounds,
    oracle_scan_add,
    oracle_scan_mult,
    random_image,
)

from conftest import grey

# one-ulp fudge so a closed-form value sitting exactly on a grid edge
# still counts as inside the bracket
FP = 1e-12


def assert_mult_brackets(f, g, step=1.0001):
    lam, mu = mult_bounds(f, g)
    lam_hat, mu_hat = oracle_scan_mult(f, g, step)
    assert lam_hat / step * (1 - FP) <= lam <= lam_hat * (1 + FP)
    assert mu_hat * (1 - FP) <= mu <= mu_hat * step * (1 + FP)
    return lam_hat, mu_hat


def assert_add_brackets(f, g, step=0.001):
    c1, c2 = add_bounds(f, g)
    c1_hat, c2_hat = oracle_scan_add(f, g, step)
    assert c1_hat - step * (1 + FP) <= c1 <= c1_hat + step * FP
    assert c2_hat - step * FP <= c2 <= c2_hat + step * (1 + FP)
    return c1_hat, c2_hat


class TestDocumentedInstance:
    def test_mult_bracket(self, instance_1x2):
        f, g, _ = instance_1x2
        lam_hat, mu_hat = assert_mult_brackets(f, g)
        assert abs(lam_hat - 1.723674) <= 2e-4  # bracket width ~ lam * 1e-4
        assert abs(mu_hat - 0.561757) <= 1e-4

    def test_add_bracket(self, instance_1x2):
        f, g, _ = instance_1x2
        c1_hat, c2_hat = assert_add_brackets(f, g)
        assert abs(c1_hat - 120.754717) <= 0.001
        assert abs(c2_hat + 120.754717) <= 0.001


class TestEqualImages:
    def test_mult(self, rng):
        f = random_image(2, 2, rng)
        lam_hat, mu_hat = oracle_scan_mult(f, f)
        assert 1.0 / 1.0001 <= lam_hat <= 1.0001
        assert 1.0 / 1.0001 <= mu_hat <= 1.0001

    def test_add(self, rng):
        f = random_image(2, 2, rng)
        c1_hat, c2_hat = oracle_scan_add(f, f)
        assert abs(c1_hat) <= 0.001 + 1e-9
        assert abs(c2_hat) <= 0.001 + 1e-9


class TestBracketProperties:
    def test_closed_forms_inside_brackets(self, rng):
        for _ in range(8):
            f = random_image(1, 8, rng)
            g = random_image(1, 8, rng)
            assert_mult_brackets(f, g)
            assert_add_brackets(f, g)

    def test_tightening_never_widens(self, rng):
        f = random_image(1, 6, rng)
        g = random_image(1, 6, rng)
        widths = []
        for step in (1.01, 1.001, 1.0001):
            lam_hat, mu_hat = assert_mult_brackets(f, g, step)
            widths.append(lam_hat - lam_hat / step)
        assert widths[0] >= widths[1] >= widths[2]

    def test_add_step_controls_width(self, rng):
        f = random_image(1, 6, rng)
        g = random_image(1, 6, rng)
        for step in (0.1, 0.01):
            assert_add_brackets(f, g, step)

    def test_explicit_lower_limit(self, instance_1x2):
        f, g, _ = instance_1x2
        c1_hat, c2_hat = oracle_scan_add(f, g, 0.001, c_min=-200.0)
        assert abs(c2_hat + 120.754717) <= 0.001


class TestValidation:
    def test_bad_steps(self, instance_1x2):
        f, g, _ = instance_1x2
        with pytest.raises(DomainError):
            oracle_scan_mult(f, g, 1.0)
        with pytest.raises(DomainError):
            oracle_scan_add(f, g, 0.0)

    @pytest.mark.parametrize("c_min", [-np.inf, np.inf, np.nan])
    def test_non_finite_c_min(self, c_min):
        with pytest.raises(DomainError, match="c_min must be finite"):
            oracle_scan_add(grey([[1.0, 5.0]]), grey([[2.0, 3.0]]), c_min=c_min)

    @pytest.mark.parametrize("step", [np.inf, np.nan])
    def test_non_finite_step(self, step):
        with pytest.raises(DomainError, match="step must be finite"):
            oracle_scan_add(grey([[1.0, 5.0]]), grey([[2.0, 3.0]]), step)

    @pytest.mark.parametrize("step_ratio", [np.inf, np.nan])
    def test_non_finite_step_ratio(self, step_ratio):
        with pytest.raises(DomainError, match="step_ratio must be finite"):
            oracle_scan_mult(grey([[1.0, 5.0]]), grey([[2.0, 3.0]]), step_ratio)

    @pytest.mark.parametrize("step", [1e-300, 5e-324, 1e-9])
    def test_grid_too_fine(self, step):
        # numpy would fail to allocate the grid; the scan names its step instead
        with pytest.raises(DomainError, match=r"^step .* gives a grid of .* points, more than 10000000$"):
            oracle_scan_add(grey([[1.0, 5.0]]), grey([[2.0, 3.0]]), step)

    @pytest.mark.parametrize("step_ratio", [1 + 2**-52, 1 + 1e-12, 1 + 1e-9])
    def test_ratio_grid_too_fine(self, step_ratio):
        with pytest.raises(DomainError, match=r"^step_ratio .* gives a grid of .* points, more than 10000000$"):
            oracle_scan_mult(grey([[1.0, 5.0]]), grey([[2.0, 3.0]]), step_ratio)

    def test_strict_regime(self):
        with pytest.raises(Exception):
            oracle_scan_mult(grey([[0.0, 10.0]]), grey([[10.0, 10.0]]))
