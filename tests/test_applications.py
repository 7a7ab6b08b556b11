import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

from flashlab.grid import VC_SEARCH_MAX, CellState, ordered_refs, round_to_step
from flashlab.models import fitting
from flashlab.models.applications import (_gaussian_crossing, estimate_rber,
                                          predict_vopt, region_masses,
                                          sweep_vopt)
from flashlab.models.cdf import GaussianBatch, StateModel
from flashlab.models.fitting import PowerLawParams
import reference
from reference import (DEFAULT_READ_REFS, LIFETIME_HALVINGS,
                       enforce_constraints, estimate_lifetime, measure_rber,
                       sample_page, scanned_vopt)


def gauss_models(mus=(30.0, 110.0, 183.0, 260.0), sigmas=(12.0, 9.0, 9.0, 9.0)):
    return {st: StateModel("gaussian", mus[i], sigmas[i])
            for i, st in enumerate(CellState)}


class TestRegionMasses:
    def test_rows_sum_to_one(self):
        masses = region_masses(gauss_models(), np.array([70, 147, 222]))
        assert np.allclose(masses.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_normal_cdf_oracle(self):
        models = gauss_models()
        refs = np.array([70, 147, 222])
        va, vb, vc = refs
        masses = region_masses(models, refs)
        for i, st in enumerate(CellState):
            m = models[st]
            cdf = lambda v: ndtr((v - m.mu) / m.sigma)
            expect = [cdf(va), cdf(vb) - cdf(va), cdf(vc) - cdf(vb), 1 - cdf(vc)]
            assert np.allclose(masses[i], expect, atol=5e-5)


class TestEstimateRber:
    def test_fully_separated_states_read_clean(self):
        models = gauss_models(mus=(10, 100, 190, 280), sigmas=(2, 2, 2, 2))
        est = estimate_rber(models, np.array([55, 145, 235]))
        assert est.total < 1e-12

    def test_single_boundary_overlap_is_analytic(self):
        # Only P1/P2 overlap at vb; each state holds 1/4 of the cells and
        # a crossing at the boundary flips exactly the LSB.
        models = gauss_models(mus=(10, 130, 170, 290), sigmas=(2, 10, 10, 2))
        refs = np.array([75, 150, 230])
        vb = 150.0
        overlap = (1 - ndtr((vb - 130) / 10)) + ndtr((vb - 170) / 10)
        est = estimate_rber(models, refs)
        assert est.msb == pytest.approx(0.0, abs=1e-7)
        assert est.lsb == pytest.approx(overlap / 4.0, abs=1e-7)
        assert est.total == pytest.approx(overlap / 8.0, abs=1e-7)

    def test_matches_sampled_channel_within_binomial_noise(self):
        models = gauss_models()
        refs = np.array([70, 147, 222])
        n = 1_000_000
        state = sample_page(models, n, seed=11)
        measured = measure_rber(state, refs).total
        est = estimate_rber(models, refs).total
        sigma = math.sqrt(est * (1 - est) / (2 * n))
        assert abs(measured - est) <= 3 * sigma


class TestPredictVopt:
    def test_equal_sigma_gaussians_give_midpoints(self):
        models = gauss_models(mus=(20, 100, 180, 260), sigmas=(8, 8, 8, 8))
        assert predict_vopt(models).tolist() == [60, 140, 220]

    def test_unordered_means_read_at_sorted_midpoints(self):
        # extrapolated wear can cross the means; every boundary of such a
        # row reads at the midpoint of its sorted means, 61.5 a tie that
        # goes to the lower step, and the other rows are untouched
        models = gauss_models(mus=(100, 23, 180, 260), sigmas=(5, 30, 9, 9))
        assert predict_vopt(models).tolist() == [61, 140, 220]
        batch = GaussianBatch(
            np.array([[100.0, 23, 180, 260], [30, 110, 183, 260]]),
            np.array([[5.0, 30, 9, 9], [12, 9, 9, 9]]))
        assert predict_vopt(batch).tolist() == [
            [61, 140, 220], predict_vopt(gauss_models()).tolist()]

    def test_non_gaussian_models_rejected(self):
        # workflows build pure Gaussians only; others take scanned_vopt
        tailed = {st: StateModel("normal_laplace", m.mu, m.sigma, 0.5, 0.5)
                  for st, m in gauss_models().items()}
        misprogrammed = gauss_models()
        misprogrammed[CellState.ER] = StateModel("gaussian", 30, 12, lam=1e-3)
        for models in (tailed, misprogrammed):
            with pytest.raises(ValueError, match="pure Gaussian"):
                predict_vopt(models)

    def test_close_to_exhaustive_sweep_on_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            mus = np.sort(rng.uniform(10, 290, size=4))
            while np.min(np.diff(mus)) < 25:
                mus = np.sort(rng.uniform(10, 290, size=4))
            sigmas = rng.uniform(5, 16, size=4)
            models = gauss_models(mus=mus, sigmas=sigmas)
            pred = predict_vopt(models)
            best = sweep_vopt(models)
            r_pred = estimate_rber(models, pred).total
            r_best = estimate_rber(models, best).total
            assert r_pred <= 1.02 * r_best + 1e-12

    def test_beats_stock_references_on_shifted_model(self):
        models = gauss_models(mus=(25, 105, 165, 235), sigmas=(14, 11, 11, 12))
        pred = predict_vopt(models)
        r_pred = estimate_rber(models, pred).total
        r_stock = estimate_rber(models, DEFAULT_READ_REFS).total
        assert r_pred < r_stock

    def test_asymmetric_tails_pull_crossing_off_midpoint(self):
        # A heavy lower tail on P1 pulls the optimal vb below the mean
        # midpoint; the intersection method should track the sweep better.
        models = enforce_constraints({
            CellState.ER: StateModel("normal_laplace", 20.0, 8.0, 0.2, 0.2),
            CellState.P1: StateModel("normal_laplace", 110.0, 8.0, 1.0, 0.05),
            CellState.P2: StateModel("normal_laplace", 190.0, 8.0, 1.0, 1.0),
            CellState.P3: StateModel("normal_laplace", 265.0, 8.0, 0.5, 0.5),
        })
        inter = scanned_vopt(models)
        mus = [models[st].mu for st in CellState]
        mid = ordered_refs(*(round_to_step((lo + hi) / 2.0)
                             for lo, hi in zip(mus, mus[1:])))
        assert inter[1] < mid[1]
        r_inter = estimate_rber(models, inter).total
        r_mid = estimate_rber(models, mid).total
        assert r_inter <= r_mid


class TestGaussianCrossing:
    def test_equal_sigmas_cross_at_the_exact_midpoint(self):
        for mu_lo, mu_hi, sigma in ((20.0, 100.0, 8.0), (13.7, 58.1, 11.3),
                                    (101.25, 180.5, 0.7)):
            v = _gaussian_crossing(StateModel("gaussian", mu_lo, sigma),
                                   StateModel("gaussian", mu_hi, sigma))
            assert v.tolist() == [(mu_lo + mu_hi) / 2.0]

    def test_root_matches_brentq_on_exact_pdfs(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            mu_lo, mu_hi = np.sort(rng.uniform(10, 290, size=2))
            s_lo, s_hi = rng.uniform(3, 20, size=2)
            lo = StateModel("gaussian", mu_lo, s_lo)
            hi = StateModel("gaussian", mu_hi, s_hi)

            def gap(v):
                return norm.pdf(v, mu_lo, s_lo) - norm.pdf(v, mu_hi, s_hi)

            (v,) = _gaussian_crossing(lo, hi)
            if gap(mu_lo) <= 0 or gap(mu_hi) >= 0:
                assert np.isnan(v)
                continue
            want = brentq(gap, mu_lo, mu_hi, xtol=1e-13, rtol=1e-15)
            assert v == pytest.approx(want, abs=1e-9)

    def test_flags_pairs_whose_densities_never_cross(self):
        # A wide lower state outweighs a narrow upper one even at mu_hi.
        # predict_vopt reads such a pair at the midpoint of the means.
        models = gauss_models(mus=(20, 100, 110, 260), sigmas=(8, 8, 40, 8))
        crossings = [_gaussian_crossing(models[CellState(i)],
                                        models[CellState(i + 1)])[0]
                     for i in range(3)]
        assert np.isnan(crossings).tolist() == [False, True, False]
        assert predict_vopt(models)[1] == 105


class TestScannedCrossing:
    def test_heavy_tailed_channels_track_the_sweep(self):
        # Normal-Laplace densities can wiggle in the tails, so the density
        # gap may change sign more than once between two means; the scan
        # must keep the crossing that misreads least.
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(150):
            mus = np.sort(rng.uniform(10, 290, size=4))
            while np.min(np.diff(mus)) < 25:
                mus = np.sort(rng.uniform(10, 290, size=4))
            sig = rng.uniform(4, 16, size=4)
            alpha, beta = rng.uniform(0.05, 1, 4), rng.uniform(0.05, 1, 4)
            lam = rng.uniform(0, 0.05, 4)
            models = enforce_constraints({
                st: StateModel("normal_laplace", mus[i], sig[i], alpha[i],
                               beta[i], lam[i])
                for i, st in enumerate(CellState)})
            pred = scanned_vopt(models)
            r_pred = estimate_rber(models, pred).total
            r_best = estimate_rber(models, sweep_vopt(models)).total
            worst = max(worst, r_pred / r_best)
        assert worst <= 1.1


class TestDictIsABatchOfOne:
    """A dict of StateModel and a GaussianBatch row built from the same
    parameters give the same references and RBER, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(hst.lists(hst.tuples(
        hst.lists(hst.floats(-40.0, 340.0), min_size=4, max_size=4,
                  unique=True).map(sorted),
        hst.lists(hst.floats(0.5, 40.0), min_size=4, max_size=4)),
        min_size=1, max_size=8))
    def test_each_row_matches_its_dict(self, rows):
        mu, sigma = (np.array(x) for x in zip(*rows))
        batch = GaussianBatch(mu, sigma)
        steps = predict_vopt(batch)
        swept = sweep_vopt(batch)
        rber = estimate_rber(batch, steps)
        for i, (mus, sigmas) in enumerate(rows):
            models = gauss_models(mus, sigmas)
            assert predict_vopt(models).tolist() == steps[i].tolist()
            assert sweep_vopt(models).tolist() == swept[i].tolist()
            one = estimate_rber(models, steps[i])
            assert (one.total, one.msb, one.lsb) == (
                rber.total[i], rber.msb[i], rber.lsb[i])


def _argmin_round(voltage):
    """The nearest-step rule as a full scan: first minimum wins ties."""
    ks = np.arange(1, VC_SEARCH_MAX + 1)
    return int(ks[np.argmin(np.abs(ks - voltage))])


class TestRoundToStep:
    def test_matches_argmin_scan(self):
        rng = np.random.default_rng(3)
        steps = np.arange(1, VC_SEARCH_MAX + 1, dtype=float)
        halves = (steps[:-1] + steps[1:]) / 2.0
        voltages = np.concatenate([rng.uniform(-50, steps[-1] + 50, 2000),
                                   steps, halves, np.nextafter(halves, np.inf),
                                   np.nextafter(halves, -np.inf),
                                   [-1e9, 0.0, 1e9]])
        for v in voltages:
            assert round_to_step(v) == _argmin_round(v), v

    def test_ties_go_to_the_lower_step(self):
        assert round_to_step(60.5) == 60
        assert round_to_step(60.5000001) == 61


class TestSweepVopt:
    def test_no_random_reference_beats_the_sweep(self):
        models = gauss_models(mus=(30, 100, 175, 250), sigmas=(13, 10, 10, 11))
        best = sweep_vopt(models)
        r_best = estimate_rber(models, best).total
        rng = np.random.default_rng(3)
        for _ in range(200):
            va = int(rng.integers(1, 150))
            vb = int(rng.integers(va + 1, 250))
            vc = int(rng.integers(vb + 1, 400))
            r = estimate_rber(models, np.array([va, vb, vc])).total
            assert r_best <= r + 1e-12


def _symmetric_dynamic(sig_a=0.05, sig_b=0.6, sig_c=11.0):
    """Gaussian dynamic model: fixed means, sigma = a*pec^b + c for all."""
    dyn = {}
    mus = {"ER": 20.0, "P1": 100.0, "P2": 180.0, "P3": 260.0}
    for name, mu in mus.items():
        dyn[(name, "mu")] = PowerLawParams(0.0, 1.0, mu)
        dyn[(name, "sigma")] = PowerLawParams(sig_a, sig_b, sig_c)
    return dyn


def _analytic_rber(pec, sig_a=0.05, sig_b=0.6, sig_c=11.0):
    # With equal sigmas and equally spaced means, vopt sits at the
    # midpoints (gap 40 from each mean); only the 6 inner tails matter.
    sigma = sig_a * pec**sig_b + sig_c
    tail = 1 - ndtr(40.0 / sigma)
    # ER/P3 each leak one tail, P1/P2 two; each crossing flips one bit.
    return 6 * tail / 4.0 / 2.0


class TestEstimateLifetime:
    def test_crossing_found_within_one_step(self):
        limit = 2e-3
        # Independent bisection on the closed-form RBER curve.
        lo, hi = 0.0, 200000.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if _analytic_rber(mid) > limit:
                hi = mid
            else:
                lo = mid
        pec, exceeded = estimate_lifetime(_symmetric_dynamic(), "gaussian",
                                          limit)
        assert exceeded
        assert pec == pytest.approx(hi, abs=100.0)

    def test_limit_below_initial_rber_returns_zero(self):
        pec, exceeded = estimate_lifetime(_symmetric_dynamic(), "gaussian",
                                          1e-6)
        assert exceeded and pec == 0

    def test_monotone_in_ecc_limit(self):
        dyn = _symmetric_dynamic()
        pecs = [estimate_lifetime(dyn, "gaussian", lim)[0]
                for lim in (5e-4, 2e-3, 8e-3)]
        assert pecs == sorted(pecs)

    def test_never_crossing_returns_bound_unflagged(self, monkeypatch):
        monkeypatch.setattr(reference, "LIFETIME_PEC_MAX", 5000.0)
        dyn = _symmetric_dynamic(sig_a=0.0)
        pec, exceeded = estimate_lifetime(dyn, "gaussian", 0.4)
        assert not exceeded and pec == 5000

    @pytest.mark.parametrize("sig_a, limit", [(0.0, 0.4), (0.05, 8e-3),
                                              (0.05, 1e-6)])
    def test_builds_at_most_halvings_plus_two_models(self, sig_a, limit):
        # a 100-cycle scan built 2001 models for a drive that never wears
        # out, and 34 for one that crosses near 3300 P/E
        with patch.object(fitting, "predict_static",
                          wraps=fitting.predict_static) as build:
            estimate_lifetime(_symmetric_dynamic(sig_a=sig_a), "gaussian",
                              limit)
        assert 1 <= build.call_count <= LIFETIME_HALVINGS + 2

    def test_crossed_means_count_as_exceeded(self):
        # P1's mean reaches P2's at 80000 P/E; crossed means order no
        # read references, so the search counts them as exceeded
        dyn = _symmetric_dynamic()
        dyn[("P1", "mu")] = PowerLawParams(0.001, 1.0, 100.0)
        pec, exceeded = estimate_lifetime(dyn, "gaussian", 2e-3)
        assert exceeded
        assert pec == pytest.approx(1200, abs=100.0)

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            estimate_lifetime(_symmetric_dynamic(), "gaussian", 0.0)

