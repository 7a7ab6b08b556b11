"""End-to-end acceptance checks, one per headline capability.

Each test states its runtime budget and asserts it; tolerances are part
of the contract, not implementation details.
"""

import json
import math
import time

import mpmath
import numpy as np
import pytest

from flashlab import trace as trace_mod
from flashlab import urt as urt_mod
from flashlab.cli import main as cli_main
from flashlab.controller import (Geometry, LifetimeConfig, RefreshConfig,
                                 run_lifetime)
from flashlab.controller.heatwatch import (HeatwatchConfig, collect_samples,
                                           policy_lifetime_pec)
from flashlab.degradation import RetentionModel3D
from flashlab.grid import CellState
from flashlab.models import (fit_dynamic, fit_static, model_density,
                             pooled_kl, predict_static)
from flashlab.models.applications import estimate_rber, predict_vopt, sweep_vopt
from flashlab.models.cdf import StateModel
from flashlab.models.fitting import FitResult, PowerLawParams
from flashlab.raid_ecc import (EccConfig, conventional_layout,
                               ecc_failure_rate, li_raid_layout,
                               multirate_lifetime, op_fraction, BLANK, LSB,
                               MSB)
from reference import (GammaParams, OffsetShape, bin_cells, fit_ea,
                       layout_worst_group, multirate_schedule, sample_page,
                       sample_layer_profile, synth_hot)

DAY = 86400.0
MEANS = (30.0, 110.0, 183.0, 260.0)
SIGMAS = (11.0, 9.0, 8.5, 8.0)


def gauss_models(mus=MEANS, sigmas=SIGMAS):
    return {st: StateModel("gaussian", float(mus[i]), float(sigmas[i]))
            for i, st in enumerate(CellState)}


class TestStaticFitRecovery:
    """1e6 cells from a known heavy-tailed channel: the matching family
    recovers every mean within one step at tight KL; a gaussian fit is
    at least twice as far off."""

    def test_student_t_recovery_beats_gaussian(self):
        t0 = time.monotonic()
        true = {st: StateModel("student_t", MEANS[i], SIGMAS[i], 4.0, 5.0,
                               lam=(1e-3 if i < 2 else 0.0))
                for i, st in enumerate(CellState)}
        hist = bin_cells(sample_page(true, 1_000_000, seed=11))
        fit_t = fit_static(hist, "student_t")
        fit_g = fit_static(hist, "gaussian")
        for st in CellState:
            assert abs(fit_t.params[st].mu - true[st].mu) <= 1.0
        assert fit_t.kl_error <= 0.01
        assert fit_g.kl_error >= 2.0 * fit_t.kl_error
        assert time.monotonic() - t0 < 60.0


class TestDynamicPrediction:
    """Power-law parameter trajectories observed with 1% multiplicative
    noise at four wear points up to 10K P/E predict the 20K P/E channel
    within 0.05 nats."""

    @staticmethod
    def _law():
        law = {}
        for i, st in enumerate(CellState):
            law[(st.name, "mu")] = PowerLawParams(
                (0.004, 0.001, -0.0005, -0.001)[i], 1.0, MEANS[i])
            law[(st.name, "sigma")] = PowerLawParams(0.05, 0.6, SIGMAS[i])
        return law

    @classmethod
    def _models_at(cls, pec, noise=None):
        law = cls._law()
        out = {}
        for st in CellState:
            mu = float(law[(st.name, "mu")].predict(pec))
            sg = float(law[(st.name, "sigma")].predict(pec))
            if noise is not None:
                mu, sg = mu * noise(), sg * noise()
            out[st] = StateModel("gaussian", mu, sg)
        return out

    def test_extrapolation_to_double_the_training_range(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(4)
        noise = lambda: 1.0 + 0.01 * rng.standard_normal()
        fits = [(pec, FitResult(self._models_at(pec, noise), 0.0, 0, True))
                for pec in (1000, 4000, 7000, 10000)]
        dynamic = fit_dynamic(fits, "gaussian")
        predicted, clamped = predict_static(dynamic, 20000, "gaussian")
        kl = pooled_kl(model_density(self._models_at(20000)),
                       model_density(predicted))
        assert not clamped
        assert kl <= 0.05
        assert time.monotonic() - t0 < 30.0


class TestVoptQuality:
    """Over 200 random degraded channels the closed-form reference
    prediction stays within 2% of the exhaustive per-step sweep."""

    def test_predicted_rber_tracks_exhaustive_sweep(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(5)
        for _ in range(200):
            mus = np.sort(rng.uniform(10, 290, size=4))
            while np.min(np.diff(mus)) < 25:
                mus = np.sort(rng.uniform(10, 290, size=4))
            sigmas = rng.uniform(5, 16, size=4)
            models = gauss_models(mus, sigmas)
            pred = predict_vopt(models)
            best = sweep_vopt(models)
            r_pred = estimate_rber(models, pred).total
            r_best = estimate_rber(models, best).total
            assert r_pred <= 1.02 * r_best + 1e-12
        assert time.monotonic() - t0 < 120.0


class TestThermalCalculus:
    """Acceleration-factor algebra, activation-energy recovery, and the
    combined prediction against an independent hand calculator."""

    KB = 8.62e-5

    def test_af_multiplicativity(self):
        t0 = time.monotonic()
        params = urt_mod.URTParams(pvm={}, srrm={}, ea=1.04)
        for t1, t2 in ((300.0, 320.0), (290.0, 355.0), (310.0, 343.15)):
            lhs = urt_mod.af(t2, params) / urt_mod.af(t1, params)
            # af(T2)/af(T1) must itself be an Arrhenius factor between
            # T1 and T2, i.e. acceleration composes multiplicatively
            rhs = math.exp((params.ea / self.KB) * (1.0 / t1 - 1.0 / t2))
            assert abs(lhs - rhs) <= 1e-12 * rhs
        assert time.monotonic() - t0 < 5.0

    def test_activation_energy_recovery(self):
        ea, t_room = 1.04, 293.15
        t_ref = 9.0 * DAY
        samples = []
        for temp in (313.15, 328.15, 343.15, 358.15):
            accel = math.exp((ea / self.KB) * (1.0 / t_room - 1.0 / temp))
            samples.append((t_ref / accel, temp))
        fitted = fit_ea(samples, t_ref, t_room)
        assert abs(fitted - 1.04) <= 0.01

    def test_zero_retention_shifts_nothing(self):
        params = urt_mod.URTParams(pvm={}, srrm={"x": (0.3, -1.7, 210.0, 900.0)})
        assert urt_mod.srrm_delta(params, 0.0, 3 * DAY, 5000.0, "x") == 0.0

    def test_prediction_matches_independent_calculator(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(8)
        for _ in range(50):
            A, B, C, D = rng.uniform(-1e-4, 1e-4, 2).tolist() + \
                rng.uniform(-5, 5, 2).tolist()
            a, b, c, t_0 = (rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0),
                            rng.uniform(0.0, 500.0), rng.uniform(1.0, 1e4))
            pack = urt_mod.URTParams(
                pvm={"x": (A, B, C, D)},
                srrm={"x": (a, b, c, t_0)},
                ea=rng.uniform(0.8, 1.2))
            pec = rng.uniform(100, 30000)
            tp = rng.uniform(290, 350)
            t_r, t_d = rng.uniform(60, 90 * DAY), rng.uniform(60, 30 * DAY)
            af_r, af_d = rng.uniform(1, 400), rng.uniform(1, 400)
            t_er, t_ed = af_r * t_r, af_d * t_d
            got = urt_mod.urt_predict(pack, "x", pec, tp, t_er, t_ed)
            want = (A * tp * pec + B * tp + C * pec + D
                    + b * (pec + c) * math.log(1.0 + t_er / (t_0 + a * t_ed)))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert time.monotonic() - t0 < 5.0


class TestThermalReadPolicyOrdering:
    """Seven simulated days under a sinusoidal ambient temperature: the
    policy ladder must order fixed < retention-only <= thermal-aware <=
    oracle, with the thermal-aware policy within 5% of the oracle."""

    def test_policy_lifetime_ladder(self):
        t0 = time.monotonic()
        events = synth_hot(7 * DAY, 0.5, 0.02, 0.9, footprint_bytes=1 << 30,
                           seed=5, read_fraction=0.5)
        rm = RetentionModel3D()
        pack = urt_mod.calibration_pack_from_retention()
        cfg = HeatwatchConfig(temp=urt_mod.TempTrace(mean_c=35.0,
                                                     amplitude_c=15.0,
                                                     noise_sigma_c=3.0),
                              max_samples=60)
        samples = collect_samples(events, cfg, pack)
        life = {p: policy_lifetime_pec(p, samples, pack, rm, 2e-3)
                for p in ("fixed", "retention_only", "heatwatch", "oracle")}
        assert life["fixed"] > 0
        assert life["fixed"] < life["retention_only"]
        assert life["retention_only"] <= life["heatwatch"]
        assert life["heatwatch"] <= life["oracle"]
        assert life["heatwatch"] >= 0.95 * life["oracle"]
        assert time.monotonic() - t0 < 300.0


class TestHotColdSeparationBenefit:
    """Skewed traces (1% of pages take 95% of writes) on a 1 GB drive:
    hot/cold separation stretches analytic lifetime and removes exactly
    the refresh writes the hot pool no longer needs."""

    GEOM_BYTES = 1 << 30

    def _run(self, events, warm, refresh, initial_pec=0):
        cfg = LifetimeConfig(geometry=Geometry(self.GEOM_BYTES), warm=warm,
                             mode="analytic", refresh=refresh,
                             initial_pec=initial_pec)
        return run_lifetime(events, cfg)

    def test_lifetime_stretch_and_refresh_write_audit(self):
        t0 = time.monotonic()
        geom = Geometry(self.GEOM_BYTES)
        fast = synth_hot(3000.0, 100.0, 0.01, 0.95,
                         footprint_bytes=int(0.9 * geom.logical_pages
                                             * trace_mod.PAGE_SIZE), seed=9)
        base = self._run(fast, warm=False, refresh=RefreshConfig(mode="none"))
        warm = self._run(fast, warm=True, refresh=RefreshConfig(mode="none"))
        assert warm.lifetime_days >= 1.5 * base.lifetime_days

        # hot pages rewritten slower than the refresh period: an unaware
        # refresh engine keeps rewriting them, the hot pool never does
        slow = synth_hot(14 * DAY, 164 / (0.95 * 1.3 * DAY), 0.01, 0.95,
                         footprint_bytes=1 << 27, seed=9)
        fcr = RefreshConfig(mode="fcr", period_s=1 * DAY)
        plain = self._run(slow, warm=False, refresh=fcr, initial_pec=3200)
        paired = self._run(slow, warm=True, refresh=fcr, initial_pec=3200)
        saved = sum(plain.writes.values()) - sum(paired.writes.values())
        saved_refresh = plain.writes["refresh"] - paired.writes["refresh"]
        assert saved > 0
        assert saved <= saved_refresh  # nothing saved outside refresh
        assert paired.refresh_hot_writes == 0
        assert time.monotonic() - t0 < 300.0


class TestLayerVariationMitigation:
    """Gamma layer-to-layer variation with an 8-step reference droop:
    per-layer references cut block-mean error by at least a fifth, and
    the interleaved parity layout never has a weaker worst group than the
    conventional one."""

    PROFILE = sample_layer_profile(GammaParams(2.3, 1 / 2.3),
                                   OffsetShape(va_drop=8.0, vb_drop=4.0),
                                   seed=0)
    MSB_FACTOR = 2.4

    @classmethod
    def _layer_models(cls, layer):
        va = float(cls.PROFILE.va_offset[layer])
        vb = float(cls.PROFILE.vb_offset[layer])
        dmu = (2.0 * (va - vb), 2.0 * vb, 0.0, 0.0)
        return gauss_models([MEANS[i] + dmu[i] for i in range(4)])

    @classmethod
    def _weighted_rber(cls, est, layer):
        w = float(cls.PROFILE.rber_multiplier[layer])
        return w * (cls.MSB_FACTOR * est.msb + est.lsb) / (cls.MSB_FACTOR + 1)

    def test_per_layer_references_beat_block_reference(self):
        t0 = time.monotonic()
        prof = self.PROFILE
        assert prof.va_offset.max() - prof.va_offset.min() >= 6.0
        n_layers = prof.va_offset.size
        mean_dmu = [float(np.mean(2.0 * (prof.va_offset - prof.vb_offset))),
                    float(np.mean(2.0 * prof.vb_offset)), 0.0, 0.0]
        block_refs = predict_vopt(
            gauss_models([MEANS[i] + mean_dmu[i] for i in range(4)]))
        block = np.mean([
            self._weighted_rber(
                estimate_rber(self._layer_models(l), block_refs), l)
            for l in range(n_layers)])
        per_layer = np.mean([
            self._weighted_rber(
                estimate_rber(self._layer_models(l),
                              predict_vopt(self._layer_models(l))), l)
            for l in range(n_layers)])
        assert per_layer <= 0.80 * block
        assert time.monotonic() - t0 < 60.0

    def test_interleaved_layout_worst_group_and_golden_table(self):
        t0 = time.monotonic()
        li = li_raid_layout(4, 4)
        conv = conventional_layout(4, 4)
        golden = {
            0: [(0, 0, 1), (1, 2, 3), (2, 4, 5), (3, None, None)],
            1: [(0, None, None), (1, 1, 0), (2, 3, 2), (3, 5, 4)],
            2: [(0, 4, 5), (1, None, None), (2, 0, 1), (3, 2, 3)],
            3: [(0, 3, 2), (1, 5, 4), (2, None, None), (3, 1, 0)],
        }
        want = {}
        for chip, rows in golden.items():
            for wl, msb, lsb in rows:
                want[(chip, wl, MSB)] = BLANK if msb is None else msb
                want[(chip, wl, LSB)] = BLANK if lsb is None else lsb
        assert li.assignment == want

        rng = np.random.default_rng(2)
        for _ in range(10):
            per_wl = rng.gamma(2.3, 1 / 2.3, size=4) * 1e-3
            rber = np.empty((4, 4, 2))
            rber[:, :, LSB] = per_wl[None, :]
            rber[:, :, MSB] = self.MSB_FACTOR * per_wl[None, :]
            _, worst_li, _ = layout_worst_group(li, rber)
            _, worst_conv, _ = layout_worst_group(conv, rber)
            assert worst_li <= worst_conv + 1e-15
        assert time.monotonic() - t0 < 60.0


class TestAnalyticCalculus:
    """Code-failure tail, over-provisioning arithmetic, and the
    multi-rate ladder against exact references."""

    def test_code_failure_rate_matches_arbitrary_precision(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(13)
        with mpmath.workdps(50):
            for _ in range(100):
                l = int(rng.integers(64, 2 ** 14 + 1))
                t = int(rng.integers(1, max(2, l // 16)))
                p = float(10 ** rng.uniform(-6, -1.3))
                got = ecc_failure_rate(EccConfig(l, t, 0.9), p)
                want = float(mpmath.betainc(t + 1, l - t, 0, p,
                                            regularized=True))
                if want > 0:
                    assert abs(got - want) <= 1e-12 * want
        assert time.monotonic() - t0 < 5.0

    def test_op_fraction_reference_point(self):
        assert op_fraction(2.4e12, 2.0e12) == pytest.approx(0.20)

    def test_multirate_ladder_never_loses_to_single_engine(self):
        # (t, op, wa): weaker codes trade correction strength for more
        # spare area and lower write amplification
        schedules = [
            [(24.0, 0.116, 1.9), (40.0, 0.081, 2.0), (64.0, 0.046, 2.2)],
            [(16.0, 0.15, 1.8), (40.0, 0.081, 2.0)],
            [(24.0, 0.116, 1.9), (32.0, 0.10, 1.95), (48.0, 0.07, 2.05),
             (64.0, 0.046, 2.2)],
        ]
        # one monotone wear curve; the t=64 engine fails at 3000 P/E
        c = 3e-9 * (5200.0 / 3000.0) ** 1.6

        def rber_of_pec(pec):
            return 1e-4 + c * pec ** 1.6

        def schedule_of(engines):
            return multirate_schedule(engines, rber_of_pec, 1e-13, pec_step=50)

        for sched in schedules:
            engines = [(EccConfig(8192, int(t), 0.9), op, wa)
                       for t, op, wa in sched]
            segments = schedule_of(engines)
            assert segments
            ladder = multirate_lifetime(segments, dwpd=1.0)
            singles = [multirate_lifetime(schedule_of([e]), dwpd=1.0)
                       for e in engines]
            assert ladder >= max(singles) - 1e-12
            # the segments share one wear budget, which ends where the
            # strongest engine alone would fail
            strongest = max(engines, key=lambda e: e[0].correctable)
            own_end = sum(inc for inc, *_ in schedule_of([strongest]))
            assert sum(inc for inc, *_ in segments) == own_end


class TestDeterminism:
    """The same seed replays to byte-identical artifacts."""

    @staticmethod
    def _simulate(tmp_path, tag):
        trace_path = tmp_path / "trace.csv"
        if not trace_path.exists():
            events = synth_hot(200.0, 50.0, 0.05, 0.9,
                               footprint_bytes=24 << 20, seed=3)
            trace_mod.write_canonical(events, str(trace_path))
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"policies": [
            {"name": "run", "capacity_bytes": 32 << 20,
             "mode": "analytic", "refresh": "fcr:3d", "warm": True},
        ]}))
        out = tmp_path / tag
        rc = cli_main(["--seed", "11", "--out", str(out), "simulate",
                       "--config", str(cfg_path), "--trace", str(trace_path)])
        assert rc == 0
        return out

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first = self._simulate(tmp_path, "first")
        second = self._simulate(tmp_path, "second")
        for name in ("run.json", "run_series.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
