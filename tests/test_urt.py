import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flashlab import urt
from flashlab.degradation import RetentionModel3D
from flashlab.urt import (N_LOG_LEVELS, AccelLog, TempTrace, URTParams, af,
                          calibration_pack_from_retention, celsius_to_kelvin,
                          pvm_predict, srrm_delta, temp_generate, urt_predict)
from reference import (fine_tune, fit_ea, fit_pvm, fit_srrm,
                       reference_temp_generate)

KB = 8.62e-5
DAY = 86400.0


def bare_params(ea=1.04):
    return URTParams(pvm={}, srrm={}, ea=ea)


class TestAccelerationFactor:
    def test_seventy_celsius_reference_value(self):
        # exp((1.04/8.62e-5) * (1/293.15 - 1/343.15))
        got = float(af(343.15, bare_params()))
        expect = math.exp((1.04 / KB) * (1 / 293.15 - 1 / 343.15))
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(402.15, rel=1e-3)

    def test_unity_at_room_temperature(self):
        assert float(af(293.15, bare_params())) == pytest.approx(1.0, abs=1e-15)

    def test_multiplicative_decomposition(self):
        # af(T1->T3) = af(T1->T2) * af(T2->T3) for any chain.
        p = bare_params()
        rng = np.random.default_rng(0)
        for _ in range(20):
            t1, t2 = rng.uniform(263, 373, size=2)
            lhs = float(af(t2, p))
            p_mid = URTParams(pvm={}, srrm={}, ea=p.ea, t_room=t1)
            rhs = float(af(t1, p)) * float(af(t2, p_mid))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            af(0.0, bare_params())

    def test_nonpositive_ea_rejected(self):
        with pytest.raises(ValueError):
            URTParams(pvm={}, srrm={}, ea=0.0)


class TestFitEa:
    def test_recovers_known_activation_energy(self):
        true = bare_params(ea=1.04)
        t_ref, temp_ref = 3600.0, 293.15
        samples = []
        for temp in (313.15, 333.15, 353.15):
            # time at temp equivalent to t_ref at temp_ref
            p = URTParams(pvm={}, srrm={}, ea=true.ea, t_room=temp_ref)
            samples.append((t_ref / float(af(temp, p)), temp))
        got = fit_ea(samples, t_ref, temp_ref)
        assert got == pytest.approx(1.04, abs=1e-9)

    def test_single_pair_closed_form(self):
        t_ref, temp_ref = 1000.0, 293.15
        t1, temp1 = 10.0, 343.15
        got = fit_ea([(t1, temp1)], t_ref, temp_ref)
        expect = KB * math.log(t1 / t_ref) / (1 / temp1 - 1 / temp_ref)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_requires_distinct_temperature(self):
        with pytest.raises(ValueError):
            fit_ea([(3600.0, 293.15)], 3600.0, 293.15)


class TestPvm:
    def test_fit_recovers_plane(self):
        true = (2e-4, -0.013, 1.1e-3, 96.0)
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(60):
            tp = rng.uniform(290, 360)
            pec = rng.uniform(0, 2e4)
            y = true[0] * tp * pec + true[1] * tp + true[2] * pec + true[3]
            rows.append((tp, pec, y))
        got = fit_pvm(rows)
        assert np.allclose(got, true, rtol=1e-8, atol=1e-10)

    def test_predict_matches_formula(self):
        p = URTParams(pvm={"va": (1e-4, 0.02, 3e-3, 60.0)}, srrm={})
        got = pvm_predict(p, 300.0, 5000.0, "va")
        assert got == pytest.approx(1e-4 * 300 * 5000 + 0.02 * 300 + 3e-3 * 5000 + 60)


class TestSrrm:
    def test_zero_retention_gives_zero_shift(self):
        p = URTParams(pvm={}, srrm={"mu_ER": (0.1, 1e-4, 50.0, 2.0)})
        assert srrm_delta(p, 0.0, 1e6, 3000, "mu_ER") == 0.0

    def test_matches_formula(self):
        a, b, c, t0 = 0.3, 2e-5, 120.0, 5.0
        p = URTParams(pvm={}, srrm={"vb": (a, b, c, t0)})
        got = srrm_delta(p, 9e4, 4e3, 7000, "vb")
        assert got == pytest.approx(b * (7000 + c) * math.log(1 + 9e4 / (t0 + a * 4e3)))

    def test_negative_times_rejected(self):
        p = URTParams(pvm={}, srrm={"vb": (0.1, 1e-4, 1.0, 1.0)})
        with pytest.raises(ValueError):
            srrm_delta(p, -1.0, 0.0, 100, "vb")

    def test_fit_recovers_parameters(self):
        true = (0.2, 5e-5, 80.0, 3.0)
        rng = np.random.default_rng(4)
        rows = []
        for _ in range(400):
            t_er = rng.uniform(10, 5e6)
            t_ed = rng.uniform(0, 1e5)
            pec = rng.uniform(100, 2e4)
            y = true[1] * (pec + true[2]) * math.log(1 + t_er / (true[3] + true[0] * t_ed))
            rows.append((t_er, t_ed, pec, y))
        a, b, c, t0 = fit_srrm(rows)
        check = [(1e5, 2e4, 5000.0), (1e3, 0.0, 15000.0), (4e6, 9e4, 800.0)]
        pf = URTParams(pvm={}, srrm={"x": (a, b, c, t0)})
        pt = URTParams(pvm={}, srrm={"x": true})
        for t_er, t_ed, pec in check:
            got = srrm_delta(pf, t_er, t_ed, pec, "x")
            want = srrm_delta(pt, t_er, t_ed, pec, "x")
            assert got == pytest.approx(want, rel=1e-3)


class TestUrtPredict:
    def test_is_pvm_plus_srrm(self):
        p = URTParams(pvm={"va": (0.0, 0.0, 1e-3, 60.0)},
                      srrm={"va": (0.1, 2e-5, 10.0, 1.0)})
        got = urt_predict(p, "va", 3000, 300.0, 8e4 * 1.4, 2e3 * 0.8)
        want = (pvm_predict(p, 300.0, 3000, "va")
                + srrm_delta(p, 8e4 * 1.4, 2e3 * 0.8, 3000, "va"))
        assert got == pytest.approx(want, rel=1e-15)


class TestAccelLog:
    def test_constant_rate_full_span_is_exact(self):
        log = AccelLog()
        for _ in range(1000):
            log.update(2.5, 3.0)
        assert log.effective_time(3000.0) == pytest.approx(7500.0, rel=1e-9)

    def test_constant_rate_any_window_is_exact(self):
        # With a constant acceleration factor every chunk is proportional
        # to its span, so even the pro-rated walk is exact.
        log = AccelLog()
        for _ in range(500):
            log.update(3.0, 4.0)
        for window in (10.0, 63.0, 500.0, 1999.0):
            assert log.effective_time(window) == pytest.approx(3.0 * window, rel=1e-6)

    def test_window_beyond_history_clamps(self):
        log = AccelLog()
        log.update(1.0, 100.0)
        got = log.effective_time(1e6)
        assert got == pytest.approx(100.0, rel=1e-9)

    def test_storage_footprint_capped(self):
        log = AccelLog()
        log.update(5.0, 1e6)
        assert log.cur.size + log.prev.size == 52

    def test_two_phase_history_resolved_to_half_age(self):
        # 1000 s at af=10 followed by 1000 s at af=1; windows fully inside
        # the recent phase should be close despite ~age/2 resolution.
        log = AccelLog()
        for _ in range(1000):
            log.update(10.0, 1.0)
        for _ in range(1000):
            log.update(1.0, 1.0)
        exact_full = 11000.0
        assert log.effective_time(2000.0) == pytest.approx(exact_full, rel=1e-9)
        got = log.effective_time(500.0)
        assert got == pytest.approx(500.0, rel=0.5)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(8)
        log = AccelLog()
        for _ in range(800):
            log.update(float(rng.uniform(0.5, 50.0)), 2.0)
        vals = [log.effective_time(w) for w in np.linspace(1, 1600, 40)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class ChunkwiseAccelLog(AccelLog):
    """Reference: adds one 0.5 s chunk at a time, cascading each completion."""

    level0_real = 0.0  # real seconds in the partial level-0 chunk

    def update(self, af_value, tick_seconds):
        remaining = float(tick_seconds)
        while remaining > 1e-12:
            dt = min(remaining, self.base - self.level0_real)
            self.cur[0] += af_value * dt
            self.level0_real += dt
            self.elapsed += dt
            remaining -= dt
            if self.level0_real >= self.base - 1e-12:
                self._complete(0)
                self.level0_real = 0.0

    def _complete(self, k):
        value = self.cur[k]
        self.prev[k] = value
        self.cur[k] = 0.0
        self.pending[k] = 0
        if k + 1 < self.n_levels:
            self.cur[k + 1] += value
            self.pending[k + 1] += 1
            if self.pending[k + 1] == 2:
                self._complete(k + 1)


afs = hst.floats(0.01, 500.0)
# Few levels make the top level overflow within a short history.
levels = hst.sampled_from([2, 5, N_LOG_LEVELS])


def _replay(ticks, n_levels=N_LOG_LEVELS):
    # a log takes its depth from the module constant when it is built
    with patch.object(urt, "N_LOG_LEVELS", n_levels):
        bulk, ref = AccelLog(), ChunkwiseAccelLog()
    assert bulk.n_levels == ref.n_levels == len(bulk.cur) == n_levels
    for af_value, tick in ticks:
        bulk.update(af_value, tick)
        ref.update(af_value, tick)
    return bulk, ref


class TestAccelLogBulkUpdate:
    @settings(max_examples=80, deadline=None)
    @given(hst.lists(hst.tuples(afs, hst.integers(0, 1000).map(lambda n: 0.5 * n)),
                     min_size=1, max_size=20), levels)
    def test_whole_chunk_ticks_are_bit_identical(self, ticks, n_levels):
        bulk, ref = _replay(ticks, n_levels)
        for name in ("cur", "prev", "pending"):
            assert np.array_equal(getattr(bulk, name), getattr(ref, name)), name
        assert bulk.elapsed == ref.elapsed

    @settings(max_examples=80, deadline=None)
    @given(hst.lists(hst.tuples(afs, hst.one_of(
        hst.sampled_from([0.5, 13.0, 1e3]),
        hst.integers(0, 1000).map(lambda n: 0.5 * n))),
        min_size=1, max_size=20),
        hst.lists(hst.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_any_ticks_give_the_same_estimates(self, ticks, fractions):
        bulk, ref = _replay(ticks)
        assert bulk.elapsed == pytest.approx(ref.elapsed, rel=1e-12)
        for frac in fractions + [1.0]:
            window = frac * ref.elapsed
            assert bulk.effective_time(window) == pytest.approx(
                ref.effective_time(window), rel=1e-12, abs=1e-300)

    def test_long_tick_reaches_high_levels(self):
        bulk, ref = _replay([(5.0, 0.5), (7.0, 2.0**16), (2.0, 60.0)])
        assert np.count_nonzero(ref.prev) == 18
        assert np.array_equal(bulk.prev, ref.prev)
        assert np.array_equal(bulk.cur, ref.cur)
        assert np.array_equal(bulk.pending, ref.pending)
        assert bulk.effective_time(1e5) == pytest.approx(ref.effective_time(1e5), rel=1e-12)

    def test_partial_chunk_tick_rejected(self):
        log = AccelLog()
        with pytest.raises(ValueError, match="whole number"):
            log.update(2.0, 0.3)
        assert log.elapsed == 0.0


class TestTempTrace:
    def test_deterministic_per_seed_and_time(self):
        cfg = TempTrace(seed=3)
        assert temp_generate(cfg, 1234.0) == temp_generate(cfg, 1234.0)
        assert temp_generate(cfg, 1234.0) != temp_generate(TempTrace(seed=4), 1234.0)

    def test_noiseless_is_pure_sinusoid(self):
        cfg = TempTrace(mean_c=35, amplitude_c=15, noise_sigma_c=0)
        assert temp_generate(cfg, 0.0) == pytest.approx(35.0)
        assert temp_generate(cfg, 86400.0 / 4) == pytest.approx(50.0)
        assert temp_generate(cfg, 3 * 86400.0 / 4) == pytest.approx(20.0)

    def test_noise_statistics(self):
        cfg = TempTrace(mean_c=35, amplitude_c=0, noise_sigma_c=3, seed=5)
        xs = temp_generate(cfg, np.arange(2000.0))
        assert float(np.mean(xs)) == pytest.approx(35.0, abs=0.3)
        assert float(np.std(xs)) == pytest.approx(3.0, abs=0.3)

    def test_celsius_conversion(self):
        assert celsius_to_kelvin(20.0) == 293.15


class TestTempGenerateProperty:
    @settings(max_examples=100, deadline=None)
    @given(seed=hst.one_of(hst.just(0), hst.integers(1, 2 ** 32 - 1),
                           hst.integers(2 ** 32, 2 ** 128 - 1)),
           n_ticks=hst.integers(1, 1500),
           tick_s=hst.sampled_from([0.5, 60.0, 3600.0]),
           sigma=hst.sampled_from([0.0, 3.0]))
    def test_array_matches_one_stream_drawn_tick_by_tick(self, seed, n_ticks,
                                                         tick_s, sigma):
        cfg = TempTrace(mean_c=35, amplitude_c=15, noise_sigma_c=sigma,
                        seed=seed)
        t = np.arange(n_ticks) * tick_s
        got = temp_generate(cfg, t)
        assert got.shape == t.shape
        assert got.tolist() == reference_temp_generate(cfg, t).tolist()
        # a scalar time is tick 0 of the stream
        assert temp_generate(cfg, t[-1]) == reference_temp_generate(
            cfg, t[-1:])[0]


class TestCalibrationPack:
    def test_reduces_to_retention_regression_at_room(self):
        # At room temperature with zero dwell, prediction must match the
        # (alpha*PEC+beta)ln(t) + gamma*PEC + delta regression for t >> t0.
        model = RetentionModel3D()
        pack = calibration_pack_from_retention()
        for out in ("mu_ER", "sigma_P2", "vb", "log_rber_msb"):
            for pec in (500, 8000):
                for t in (DAY, 30 * DAY):
                    got = urt_predict(pack, out, pec, 293.15, t, 0.0)
                    want = model.eval(out, pec, t)
                    assert got == pytest.approx(want, rel=1e-3, abs=1e-3)

    def test_time_free_rows_stay_flat(self):
        pack = calibration_pack_from_retention()
        a = urt_predict(pack, "va", 4000, 293.15, DAY, 0.0)
        b = urt_predict(pack, "va", 4000, 293.15, 200 * DAY, 0.0)
        assert a == b

    def test_fine_tune_absorbs_intercept_shift(self):
        pack = calibration_pack_from_retention()
        obs = []
        for pec in (1000, 3000, 9000):
            y = urt_predict(pack, "vb", pec, 293.15, DAY, 0.0) + 2.5
            obs.append(("vb", pec, 293.15, DAY, 0.0, y))
        tuned = fine_tune(pack, obs)
        got = urt_predict(tuned, "vb", 5000, 293.15, DAY, 0.0)
        want = urt_predict(pack, "vb", 5000, 293.15, DAY, 0.0) + 2.5
        assert got == pytest.approx(want, rel=1e-12)
        # untouched outputs keep their coefficients
        assert tuned.pvm["va"] == pack.pvm["va"]

    def test_srrm_t0_must_be_positive(self):
        with pytest.raises(ValueError):
            URTParams(pvm={}, srrm={"vb": (0.1, 1e-4, 1.0, 0.0)})
