import math

import numpy as np
import pytest

from flashlab.degradation import (GammaParams, OffsetShape,
                                  RetentionModel3D, fit_gamma,
                                  retention_refs, sample_layer_profile)
from flashlab.grid import CellState
from flashlab.models.applications import estimate_rber, predict_vopt
from flashlab.models.cdf import gaussian_states
from reference import vth_offset

MODEL = RetentionModel3D()
DAY = 86400.0


def retention_states(pec, t):
    """Gaussian state models the retention regression implies."""
    return gaussian_states(lambda r: MODEL.eval(r, pec, t))


class TestRetentionModel:
    def test_hand_computed_log_rber(self):
        # (alpha*pec + beta)*ln(t) + gamma*pec + delta at pec=1e4, ln t=10
        got = MODEL.eval("log_rber_msb", 1e4, math.e**10)
        expect = (5.49e-6 * 1e4 + 0.16) * 10 + 1.33e-4 * 1e4 - 13.11
        assert got == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(-9.631, abs=1e-3)

    def test_va_row_has_no_time_term(self):
        assert MODEL.eval("va", 5000, 3600) == MODEL.eval("va", 5000, 90 * DAY)
        assert MODEL.eval("va", 5000, 3600) == pytest.approx(1.20e-3 * 5000 + 60.52)

    def test_rber_monotone_in_time_and_pec(self):
        for var in ("log_rber_msb", "log_rber_lsb"):
            ts = [3600, DAY, 7 * DAY, 90 * DAY]
            vals = [MODEL.eval(var, 3000, t) for t in ts]
            assert vals == sorted(vals)
            pecs = [100, 1000, 5000, 20000]
            vals = [MODEL.eval(var, p, 7 * DAY) for p in pecs]
            assert vals == sorted(vals)

    def test_state_means_converge_with_retention(self):
        # Retention loss shrinks the window: ER drifts up, P3 down.
        early = retention_states(5000, 3600)
        late = retention_states(5000, 90 * DAY)
        assert late.mu[0, CellState.ER] > early.mu[0, CellState.ER]
        assert late.mu[0, CellState.P3] < early.mu[0, CellState.P3]
        for m in (early, late):
            assert np.all(np.diff(m.mu) >= 0)

    def test_rejects_sub_second_times(self):
        with pytest.raises(ValueError):
            MODEL.eval("mu_ER", 1000, 0.5)

    def test_refs_ordered_and_tracking_drift(self):
        for pec in (0, 3000, 15000):
            for t in (3600, 7 * DAY, 365 * DAY):
                va, vb, vc = retention_refs(MODEL, pec, [t])[0]
                assert va < vb < vc
        # vb/vc drop with retention time, matching the shrinking window.
        r1, r2 = retention_refs(MODEL, 5000, [3600, 365 * DAY])
        assert r2[2] < r1[2] and r2[1] <= r1[1]

    def test_refs_agree_with_model_implied_optimum(self):
        # The table's reference rows and its state-model rows describe the
        # same device; the predicted optimum from the state models should
        # land near the tabulated references.
        for pec, t in ((1000, DAY), (8000, 30 * DAY)):
            models = retention_states(pec, t)
            table = retention_refs(MODEL, pec, [t])
            pred, _ = predict_vopt(models)
            assert np.all(np.abs(pred - table)[:, 1:] <= 8)

    def test_state_models_imply_rber_near_tabulated(self):
        # The table's rber rows and its Gaussian state-model rows were
        # regressed independently, so they agree only to order of
        # magnitude; hold them to within a factor of 8.
        for pec, t in ((3000, 7 * DAY), (10000, 30 * DAY)):
            models = retention_states(pec, t)
            refs = retention_refs(MODEL, pec, [t])
            (implied,) = estimate_rber(models, refs).total
            table = (math.exp(MODEL.eval("log_rber_msb", pec, t))
                     + math.exp(MODEL.eval("log_rber_lsb", pec, t))) / 2
            assert abs(math.log(implied / table)) <= math.log(8.0)


class TestGammaFit:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(2)
        true = GammaParams(shape=2.3, scale=0.435)
        x = rng.gamma(true.shape, true.scale, 200_000)
        fit = fit_gamma(x)
        assert fit.shape == pytest.approx(true.shape, rel=0.03)
        assert fit.scale == pytest.approx(true.scale, rel=0.03)

    def test_moment_identities(self):
        rng = np.random.default_rng(7)
        x = rng.gamma(4.0, 0.25, 5000)
        fit = fit_gamma(x)
        assert fit.mean == pytest.approx(float(np.mean(x)), rel=1e-9)
        assert fit.shape * fit.scale**2 == pytest.approx(float(np.var(x)), rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_gamma(np.ones(10))           # too few
        with pytest.raises(ValueError):
            fit_gamma(np.ones(50))           # zero variance
        with pytest.raises(ValueError):
            fit_gamma(np.linspace(-1, 1, 50))  # non-positive values
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)


class TestLayerProfile:
    def test_bottom_half_flat_top_half_droops(self):
        prof = sample_layer_profile(GammaParams(2.3, 1 / 2.3), seed=4)
        assert np.all(prof.va_offset[:51] == 0.0)
        assert np.all(prof.vb_offset[:51] == 0.0)
        assert np.all(np.diff(prof.va_offset[50:]) < 0)
        assert prof.va_offset[-1] == pytest.approx(-4.0)
        assert prof.vb_offset[-1] == pytest.approx(-2.0)

    def test_custom_offset_shape(self):
        prof = sample_layer_profile(GammaParams(2.3, 1.0),
                                    offset_cfg=OffsetShape(va_drop=6, vb_drop=3))
        assert prof.va_offset[-1] == pytest.approx(-6.0)
        assert prof.vb_offset[-1] == pytest.approx(-3.0)

    def test_multiplier_positive_with_unit_mean(self):
        prof = sample_layer_profile(GammaParams(2.3, 1 / 2.3), seed=9)
        assert np.all(prof.rber_multiplier > 0)
        assert float(np.mean(prof.rber_multiplier)) == pytest.approx(1.0, abs=0.35)

    def test_deterministic_in_seed(self):
        g = GammaParams(2.3, 1 / 2.3)
        a = sample_layer_profile(g, seed=12)
        b = sample_layer_profile(g, seed=12)
        c = sample_layer_profile(g, seed=13)
        assert np.array_equal(a.rber_multiplier, b.rber_multiplier)
        assert not np.array_equal(a.rber_multiplier, c.rber_multiplier)

    def test_vth_offset_moves_boundaries_not_vc(self):
        # The per-state offsets are chosen so the pairwise midpoints land
        # exactly on (va_offset, vb_offset, 0).
        prof = sample_layer_profile(GammaParams(2.3, 1 / 2.3), seed=1)
        layers = np.array([100, 100, 100, 100])
        states = np.array([0, 1, 2, 3])
        off = vth_offset(prof, layers, states)
        assert (off[0] + off[1]) / 2 == pytest.approx(prof.va_offset[100])
        assert (off[1] + off[2]) / 2 == pytest.approx(prof.vb_offset[100])
        assert (off[2] + off[3]) / 2 == pytest.approx(0.0)
        assert off[3] == 0.0
