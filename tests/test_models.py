import math
from unittest.mock import patch

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import t as student_t
from scipy.integrate import quad
from hypothesis import given, settings, strategies as hst

from flashlab.grid import CellState
from flashlab.models.cdf import (StateModel, gaussian_states, gcdf,
                                 kl_divergence, model_density, ncdf,
                                 pooled_kl, tcdf)
from flashlab.models import fitting
from flashlab.models.fitting import (PowerLawParams, default_init,
                                     fit_power_law, fit_static,
                                     models_to_dict, predict_static,
                                     save_models_json)
from flashlab.models.simplex import NanObjective, bisect_failure, nelder_mead
from flashlab.models.tables import NU_GRID, LookupTables, default_tables
import reference
from reference import (bin_cells, enforce_constraints, load_models_json,
                       models_from_dict, sample_page)


TAB = default_tables()

_gcdf, _ncdf, _tcdf = gcdf, ncdf, tcdf


def gcdf(m, v):
    return _gcdf(v, m.mu, m.sigma)


def ncdf(m, v):
    return _ncdf(v, m.mu, m.sigma, m.alpha, m.beta)


def tcdf(m, v):
    return _tcdf(v, m.mu, m.sigma, m.alpha, m.beta)


class TestGcdf:
    def test_matches_scipy_normal_cdf(self):
        m = StateModel("gaussian", 12.0, 7.0)
        z = np.linspace(-40, 60, 300)
        expect = ndtr((z - 12.0) / 7.0)
        assert np.allclose(gcdf(m, z), expect, atol=2e-5)

    def test_equals_ndtr_bit_for_bit(self):
        # exact everywhere, also far past |z| = 8
        z = np.linspace(-40.0, 40.0, 8001)
        assert np.array_equal(_gcdf(z, 0.0, 1.0), ndtr(z))
        v = 12.0 + 7.0 * z
        assert np.array_equal(_gcdf(v, 12.0, 7.0), ndtr((v - 12.0) / 7.0))

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            StateModel("gaussian", 0.0, -1.0)


class TestNcdf:
    def nl_density(self, m):
        # oracle: normal-Laplace density = convolution of N(mu, sigma)
        # with an asymmetric Laplace, integrated numerically
        def f(x):
            a, b, mu, s = m.alpha, m.beta, m.mu, m.sigma
            w = a * b / (a + b)

            def integrand(y):
                lap = math.exp(-a * (x - y)) if y <= x else math.exp(-b * (y - x))
                return w * lap * math.exp(-0.5 * ((y - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))
            return quad(integrand, mu - 12 * s, mu + 12 * s, limit=200)[0]
        return f

    def test_matches_numeric_convolution(self):
        m = StateModel("normal_laplace", 0.0, 5.0, 0.4, 0.6)
        dens = self.nl_density(m)
        for lo, hi in [(-8.0, -2.0), (-2.0, 3.0), (3.0, 9.0)]:
            mass = quad(dens, lo, hi, limit=200)[0]
            got = float((ncdf(m, np.array([hi])) - ncdf(m, np.array([lo])))[0])
            assert got == pytest.approx(mass, abs=2e-3)

    def test_median_at_mu_when_symmetric(self):
        m = StateModel("normal_laplace", 3.0, 4.0, 0.5, 0.5)
        assert float(ncdf(m, np.array([3.0]))[0]) == pytest.approx(0.5, abs=1e-3)

    def test_gaussian_limit(self):
        m = StateModel("normal_laplace", 0.0, 5.0, 50.0, 50.0)
        z = np.linspace(-20, 20, 41)
        assert np.allclose(ncdf(m, z), ndtr(z / 5.0), atol=1e-4)

    def test_monotone_and_bounded(self):
        m = StateModel("normal_laplace", 0.0, 3.0, 0.2, 1.5)
        z = np.linspace(-60, 60, 500)
        c = ncdf(m, z)
        assert np.all(np.diff(c) >= -1e-12)
        assert np.all((c >= 0) & (c <= 1))


class TestTcdf:
    def test_matches_scipy_on_grid_nus(self):
        for nu in (0.5, 1.0, 2.0, 5.0, 12.0, 50.0):
            m = StateModel("student_t", 1.0, 4.0, nu, nu)
            z = np.linspace(-30, 32, 200)
            expect = student_t.cdf((z - 1.0) / 4.0, df=nu)
            assert np.allclose(tcdf(m, z), expect, atol=3e-4), nu

    def test_tables_equal_scipy_stats_bit_for_bit(self):
        # The tables are built with scipy.special.stdtr; exact equality with
        # scipy.stats.t.cdf keeps every fit and artifact as it was.
        for i, nu in enumerate(NU_GRID):
            if np.isfinite(nu):
                expect = student_t.cdf(TAB.t_z_grid, df=nu)
                assert np.array_equal(TAB.t_cdfs[i], expect), nu

    def test_tables_keep_no_counter(self):
        # a nu below the grid reads the lowest table and counts nothing
        tables = LookupTables()
        before = set(vars(tables))
        assert np.array_equal(tables.t_cdf(tables.t_z_grid, 0.1), tables.t_cdfs[0])
        assert "nu_clamp_count" not in before
        assert set(vars(tables)) == before

    def test_grid_nus_read_their_own_table_bit_for_bit(self):
        # at a grid nu the blend's weight is exactly 0 or 1
        for i, nu in enumerate(NU_GRID[:-1]):
            assert np.array_equal(TAB.t_cdf(TAB.t_z_grid, nu),
                                  TAB.t_cdfs[i]), nu

    def test_interpolates_between_grid_nus(self):
        m = StateModel("student_t", 0.0, 1.0, 4.0, 4.0)
        z = np.linspace(-6, 6, 50)
        expect = student_t.cdf(z, df=4.0)
        assert np.allclose(tcdf(m, z), expect, atol=5e-3)

    def test_asymmetric_tail_selection(self):
        # below mu the beta dof applies, above mu the alpha dof
        m = StateModel("student_t", 0.0, 1.0, 50.0, 1.0)
        left = float(tcdf(m, np.array([-4.0]))[0])
        right = float(tcdf(m, np.array([4.0]))[0])
        assert left == pytest.approx(student_t.cdf(-4.0, df=1.0), abs=1e-3)
        assert 1 - right == pytest.approx(student_t.sf(4.0, df=50.0), abs=1e-3)


class TestDensity:
    def models(self):
        return {
            CellState.ER: StateModel("student_t", -20.0, 17.0, 5.0, 5.0, 1e-3),
            CellState.P1: StateModel("student_t", 110.0, 11.0, 5.0, 5.0, 1e-3),
            CellState.P2: StateModel("student_t", 183.0, 11.0, 4.0, 4.0, 0.0),
            CellState.P3: StateModel("student_t", 260.0, 11.0, 4.0, 4.0, 0.0),
        }

    def test_rows_sum_to_one(self):
        dens = model_density(self.models())
        assert dens.shape == (4, 304)
        assert np.allclose(dens.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_sampled_histogram(self):
        st = sample_page(self.models(), 500_000, seed=21)
        hist = bin_cells(st)
        dens = model_density(self.models())
        assert pooled_kl(hist.densities(), dens) < 2e-3

    def test_kl_zero_iff_identical(self):
        dens = model_density(self.models())
        assert kl_divergence(dens[0], dens[0]) == pytest.approx(0.0, abs=1e-12)
        assert kl_divergence(dens[0], dens[1]) > 0.1

    def test_constraints_enforced(self):
        ms = enforce_constraints(self.models())
        assert ms[CellState.P2].lam == 0.0
        assert ms[CellState.P3].lam == 0.0
        assert ms[CellState.ER].beta == ms[CellState.ER].alpha
        assert ms[CellState.P3].alpha == ms[CellState.P3].beta


class TestGaussianStates:
    def test_reads_rows_in_state_order_and_floors_sigma(self):
        calls = []

        def row(name):
            calls.append(name)
            return -2.0 if name == "sigma_P2" else float(len(calls))

        models = gaussian_states(row)
        assert calls == [f"{q}_{st.name}" for st in CellState
                         for q in ("mu", "sigma")]
        assert models.mu.tolist() == [[1.0, 3.0, 5.0, 7.0]]
        assert models.sigma.tolist() == [[2.0, 4.0, 1e-3, 8.0]]


class TestNelderMead:
    def test_quadratic(self):
        x, f, it, conv = nelder_mead(lambda v: float((v[0] - 3) ** 2 + (v[1] + 1) ** 2),
                                     np.array([0.0, 0.0]))
        assert conv
        assert np.allclose(x, [3.0, -1.0], atol=1e-5)

    def test_rosenbrock(self):
        def rosen(v):
            return float(100 * (v[1] - v[0] ** 2) ** 2 + (1 - v[0]) ** 2)
        x, f, it, conv = nelder_mead(rosen, np.array([-1.2, 1.0]), max_iter=5000)
        assert np.allclose(x, [1.0, 1.0], atol=1e-3)

    @staticmethod
    def _bowl(v):
        return float((v[0] - 3) ** 2 + 4 * (v[1] + 1) ** 2)

    def test_nonzero_minimum_stops_on_the_values(self):
        # The simplex takes the same steps on f and f + 1, because they
        # order every set of points alike. So the offset bowl stops early
        # only if its values, within 1e-8 relative of 1, stop it before
        # the diameter falls to 1e-8.
        _, _, it0, conv0 = nelder_mead(self._bowl, np.array([0.0, 0.0]))
        x, f, it1, conv1 = nelder_mead(lambda v: 1.0 + self._bowl(v),
                                       np.array([0.0, 0.0]))
        assert conv0 and conv1
        assert it1 < it0
        assert f - 1.0 <= 1e-8
        assert np.allclose(x, [3.0, -1.0], atol=1e-3)

    def test_zero_minimum_stops_on_the_diameter(self):
        # At a zero minimum the relative value test cannot fire, so only
        # a simplex smaller than tol stops the search.
        x, f, _, conv = nelder_mead(self._bowl, np.array([0.0, 0.0]))
        assert conv
        assert np.allclose(x, [3.0, -1.0], rtol=0.0, atol=1e-8)
        assert f < 1e-15

    @pytest.mark.parametrize("step", [None, 1e-3, 0.2])
    def test_initial_simplex_steps_each_coordinate(self, step):
        # The first n + 1 evaluations are the initial vertices: x0, then x0
        # with coordinate i stepped by step * |x0[i]|, or by step at 0.
        x0 = np.array([2.0, -3.0, 0.0, 1e-3])
        calls = []

        def f(v):
            calls.append(v.copy())
            return float(np.sum(v * v))
        nelder_mead(f, x0, **({} if step is None else {"step": step}))
        s = 0.05 if step is None else step
        want = [x0] + [x0 + np.eye(4)[i] * (s * abs(x0[i]) if x0[i] else s)
                       for i in range(4)]
        assert np.array_equal(np.array(calls[:5]), np.array(want))

    def test_existing_callers_keep_the_default_step(self):
        # fit_power_law and fit_srrm pass no step, so their simplex is
        # the 5% one above, and they run as they did before step existed.
        kwargs = []

        def record(objective, x0, **kw):
            kwargs.append(kw)
            return nelder_mead(objective, x0, **kw)
        with patch.object(fitting, "nelder_mead", record), \
                patch.object(reference, "nelder_mead", record):
            fit_power_law([(1.0, 2.0), (2.0, 3.0), (4.0, 5.5), (8.0, 9.0)])
            reference.fit_srrm([(1.0, 2.0, 100.0, 0.1), (10.0, 5.0, 200.0, 0.3),
                                (100.0, 20.0, 300.0, 0.9),
                                (50.0, 1.0, 50.0, 0.2)])
        assert len(kwargs) == 4
        assert all("step" not in kw for kw in kwargs)

    def test_student_t_fit_converges_in_every_stage(self):
        # Each stage of a student_t fit of the acceptance channel stops on
        # its own, the 7-parameter (ER, P3) and 9-parameter (P1, P2) pair
        # polishes included, well inside FIT_MAX_ITER.
        true = {st: StateModel("student_t", (30.0, 110.0, 183.0, 260.0)[i],
                               (11.0, 9.0, 8.5, 8.0)[i], 4.0, 5.0,
                               lam=(1e-3 if i < 2 else 0.0))
                for i, st in enumerate(CellState)}
        hist = bin_cells(sample_page(true, 1_000_000, seed=11))
        stages = []

        def record(objective, x0, **kw):
            result = nelder_mead(objective, x0, **kw)
            stages.append((len(x0), result[2], result[3]))
            return result
        with patch.object(fitting, "nelder_mead", record):
            fr = fit_static(hist, "student_t")
        assert [n for n, _, _ in stages] == [3, 4, 4, 5, 7, 9]
        assert all(ok and iters < fitting.FIT_MAX_ITER
                   for _, iters, ok in stages), stages
        assert fr.converged
        assert fr.iterations == sum(iters for _, iters, _ in stages)
        assert fr.kl_error <= 0.01

    def test_nan_objective_raises(self):
        with pytest.raises(NanObjective):
            nelder_mead(lambda v: float("nan"), np.array([1.0]))


def policy_search_reference(fails):
    """The HeatWatch lifetime search as a loop to a 50 P/E bracket."""
    lo, hi = 0.0, 60000.0
    if fails(lo):
        return 0.0
    if not fails(hi):
        return hi
    while hi - lo > 50:
        mid = 0.5 * (lo + hi)
        if fails(mid):
            hi = mid
        else:
            lo = mid
    return lo


def direct_search_reference(fails):
    """The direct-mode lifetime search as 60 halvings of the day."""
    lo, hi = 0.0, 365.0 * 200
    if fails(lo):
        return 0.0
    if not fails(hi):
        return math.inf
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fails(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestBisectFailure:
    @settings(max_examples=200)
    @given(frac=hst.floats(0.0, 1.0))
    def test_matches_the_policy_search(self, frac):
        t = 60000.0 * frac
        fails = lambda x: x > t
        got = bisect_failure(fails, 60000.0, 11)
        assert got[0] == policy_search_reference(fails)
        assert got[0] <= t < got[1]

    @settings(max_examples=200)
    @given(frac=hst.floats(0.0, 1.0))
    def test_matches_the_direct_search(self, frac):
        t = 73000.0 * frac
        fails = lambda x: x > t
        got = bisect_failure(fails, 73000.0, 60)
        assert got[1] == direct_search_reference(fails)
        assert got[0] <= t < got[1]

    @given(frac=hst.floats(0.0, 1.0, exclude_max=True),
           halvings=hst.integers(0, 40))
    def test_probes_halvings_plus_two_points(self, frac, halvings):
        probes = []

        def fails(x):
            probes.append(x)
            return x > 1000.0 * frac

        lo, hi = bisect_failure(fails, 1000.0, halvings)
        assert len(probes) == halvings + 2
        assert probes[:2] == [0.0, 1000.0]
        assert not fails(lo) and fails(hi)
        assert hi - lo == 1000.0 / 2**halvings

    def test_failing_at_zero_is_the_empty_bracket(self):
        assert bisect_failure(lambda x: True, 1000.0, 11) == (0.0, 0.0)

    def test_passing_at_the_ceiling_is_unbounded(self):
        assert bisect_failure(lambda x: False, 1000.0, 11) == (1000.0,
                                                                math.inf)


class TestPowerLaw:
    def test_exact_recovery(self):
        true = PowerLawParams(3.2, 0.7, -4.0)
        xs = np.array([1e3, 3e3, 6e3, 1e4])
        pts = [(x, true.predict(x)) for x in xs]
        fit = fit_power_law(pts)
        for x in (2e4, 5e4):
            assert fit.predict(x) == pytest.approx(true.predict(x), rel=1e-6)

    def test_negative_exponent(self):
        true = PowerLawParams(500.0, -0.5, 2.0)
        pts = [(x, true.predict(x)) for x in (1e3, 2e3, 5e3, 1e4)]
        fit = fit_power_law(pts)
        assert fit.predict(2e4) == pytest.approx(true.predict(2e4), rel=1e-5)

    def test_constant_trajectory(self):
        fit = fit_power_law([(1e3, 5.0), (5e3, 5.0), (1e4, 5.0)])
        assert fit.predict(2e4) == pytest.approx(5.0)

    def test_zero_pec_points_dropped(self):
        true = PowerLawParams(2.0, 0.8, 1.0)
        pts = [(0.0, 123.0)] + [(x, true.predict(x)) for x in (1e3, 5e3, 1e4)]
        fit = fit_power_law(pts)
        assert fit.predict(2e4) == pytest.approx(true.predict(2e4), rel=1e-5)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_power_law([(1e3, 1.0), (2e3, 2.0)])


class TestStaticFit:
    def test_recovers_means_small(self):
        models = TestDensity().models()
        st = sample_page(models, 300_000, seed=30)
        fr = fit_static(bin_cells(st), "student_t")
        assert fr.kl_error < 0.01
        for s in CellState:
            assert fr.params[s].mu == pytest.approx(models[s].mu, abs=1.0)

    def test_gaussian_has_no_misprogram_weight(self):
        models = TestDensity().models()
        st = sample_page(models, 100_000, seed=31)
        init = default_init(bin_cells(st), "gaussian")
        assert all(m.lam == 0.0 for m in init.values())


class TestDynamic:
    def test_predict_static_clamps_bad_sigma(self):
        dyn = {}
        family = "gaussian"
        for st in CellState:
            dyn[(st.name, "mu")] = PowerLawParams(0.0, 1.0, 100.0 + 50 * st)
            dyn[(st.name, "sigma")] = PowerLawParams(-1.0, 0.5, 0.0)  # negative
        models, clamped = predict_static(dyn, 1e4, family)
        assert clamped
        assert all(m.sigma > 0 for m in models.values())


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        models = TestDensity().models()
        p = tmp_path / "m.json"
        save_models_json(models, p)
        back = load_models_json(p)
        for s in CellState:
            assert back[s] == models[s]

    def test_dict_round_trip(self):
        models = TestDensity().models()
        assert models_from_dict(models_to_dict(models)) == models
