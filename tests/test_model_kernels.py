"""CDF and fit-objective kernels against reference forms.

The normal-Laplace CDF is checked against an arbitrary-precision
quadrature of its defining convolution. The Student's t CDF, the density
matrix and the static fit are checked, bit for bit, against the forms they
replaced: a t-CDF that looks up both tails even when they are tied, a
density that evaluates every state's mixture CDF on its own (so misprogram
targets twice), and stage objectives that build all four density rows to
read one.
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from flashlab.channel import bin_cells, sample_page
from flashlab.grid import MISPROGRAM_TARGET, CellState, VoltageGrid
from flashlab.models import fitting
from flashlab.models.cdf import (StateModel, bin_masses, enforce_constraints,
                                 gcdf, model_density, ncdf, pooled_kl,
                                 state_cdf, tcdf)
from flashlab.models.simplex import nelder_mead
from flashlab.models.tables import default_tables

TAB = default_tables()


# --- reference forms ---------------------------------------------------------


def ref_tcdf(v, mu, sigma, alpha, beta, tables):
    z = (np.asarray(v, dtype=float) - mu) / sigma
    left = tables.t_cdf(z, beta)
    right = tables.t_cdf(z, alpha)
    return np.where(z <= 0.0, left, right)


def ref_component_cdf(m, v, tables):
    if m.family == "gaussian":
        return gcdf(v, m.mu, m.sigma, tables)
    if m.family == "normal_laplace":
        return ncdf(v, m.mu, m.sigma, m.alpha, m.beta, tables)
    return ref_tcdf(v, m.mu, m.sigma, m.alpha, m.beta, tables)


def ref_state_cdf(models, state, v, tables):
    m = models[state]
    own = ref_component_cdf(m, v, tables)
    if m.lam == 0.0 or state not in MISPROGRAM_TARGET:
        return own
    tgt = models[MISPROGRAM_TARGET[state]]
    return (1.0 - m.lam) * own + m.lam * ref_component_cdf(tgt, v, tables)


def ref_model_density(models, grid, tables):
    b = grid.boundaries()
    out = np.empty((4, 304))
    for state in CellState:
        c = ref_state_cdf(models, state, b, tables)
        out[state] = np.diff(np.concatenate(([0.0], c, [1.0])))
    return out


def ref_fit_static(hist, family, tol=1e-8, max_iter=1000, tables=TAB):
    """The static fit with full-density stage objectives."""
    grid = hist.grid
    measured = hist.densities()
    models = fitting.default_init(hist, family)
    init_kl = pooled_kl(measured, ref_model_density(models, grid, tables))
    total_iters, converged = 0, True

    def state_kl(ms, state):
        dens = ref_model_density(ms, grid, tables)
        seen = measured[state] > 0
        return float(np.sum(measured[state][seen] * np.log(
            measured[state][seen] / np.maximum(dens[state][seen], 1e-12))))

    for st in fitting._STAGE_ORDER:
        def objective(vec, st=st):
            trial = dict(models)
            trial[st] = fitting._unpack_state(vec, family, st)
            return state_kl(trial, st)

        x0 = np.array(fitting._pack_state(models[st], family, st))
        x, _, iters, ok = nelder_mead(objective, x0, tol=tol, max_iter=max_iter)
        models[st] = fitting._unpack_state(x, family, st)
        total_iters += iters
        converged &= ok

    def joint_objective(vec):
        return pooled_kl(measured, ref_model_density(fitting._unpack_all(vec, family),
                                                     grid, tables))

    x, kl, iters, ok = nelder_mead(joint_objective, fitting._pack_all(models, family),
                                   tol=tol, max_iter=max_iter)
    total_iters += iters
    if kl <= init_kl:
        models, final_kl = fitting._unpack_all(x, family), kl
    else:
        final_kl = pooled_kl(measured, ref_model_density(models, grid, tables))
    return fitting.FitResult(enforce_constraints(models), float(final_kl),
                             total_iters, converged and ok)


def nl_cdf_mp(x, mu, sigma, alpha, beta):
    """Normal-Laplace CDF as the quadrature of N(mu, sigma) convolved with
    the asymmetric Laplace CDF (right rate alpha, left rate beta)."""
    x, mu, sigma, alpha, beta = map(mpmath.mpf, (x, mu, sigma, alpha, beta))
    wsum = alpha + beta

    def lap_cdf(d):
        if d < 0:
            return alpha / wsum * mpmath.exp(beta * d)
        return 1 - beta / wsum * mpmath.exp(-alpha * d)

    def f(y):
        return mpmath.npdf(y, mu, sigma) * lap_cdf(x - y)

    knots = sorted(mu + k * sigma for k in (-10, -4, -1, 0, 1, 4, 10))
    below = [-mpmath.inf] + [k for k in knots if k < x] + [x]
    above = [x] + [k for k in knots if k > x] + [mpmath.inf]
    return mpmath.quad(f, below) + mpmath.quad(f, above)


# --- strategies --------------------------------------------------------------

tails = hst.floats(0.3, 60.0)
_FAMILY_TAILS = {"student_t": tails, "normal_laplace": hst.floats(0.01, 3.0)}


@hst.composite
def four_state_models(draw, family):
    mus = sorted(draw(hst.lists(hst.floats(-40.0, 340.0), min_size=4, max_size=4)))
    models = {}
    for st in CellState:
        sigma = draw(hst.floats(0.5, 40.0))
        lam = draw(hst.floats(1e-6, 0.5)) if st in MISPROGRAM_TARGET else 0.0
        if family == "gaussian":
            models[st] = StateModel(family, mus[st], sigma, lam=lam)
        else:
            a = draw(_FAMILY_TAILS[family])
            b = draw(_FAMILY_TAILS[family])
            models[st] = StateModel(family, mus[st], sigma, a, b, lam)
    return enforce_constraints(models)


grids = hst.sampled_from([VoltageGrid(), VoltageGrid(gap_after_101=7.5, gap_after_202=3.0)])


# --- tests -------------------------------------------------------------------


class TestNcdfExact:
    @settings(max_examples=150)
    @given(mu=hst.floats(-40.0, 340.0), sigma=hst.floats(0.5, 40.0),
           alpha=hst.floats(0.005, 50.0), beta=hst.floats(0.005, 50.0))
    def test_monotone_on_dense_grid(self, mu, sigma, alpha, beta):
        v = np.linspace(-200.0, 550.0, 15001)
        for params in ((mu, sigma, alpha, beta), (78.7, 5.94, 0.067, 0.256)):
            c = ncdf(v, *params)
            assert np.all((c >= 0.0) & (c <= 1.0))
            # exact up to rounding: a value near 1 may step down one ulp
            assert np.diff(c).min() >= -1e-15

    def test_matches_arbitrary_precision_convolution(self):
        mpmath.mp.dps = 25
        cases = [(78.7, 5.94, 0.067, 0.256), (0.0, 5.0, 0.4, 0.6),
                 (150.0, 10.0, 2.0, 0.05), (0.0, 5.0, 50.0, 50.0)]
        for mu, sigma, alpha, beta in cases:
            for k in (-60.0, -6.0, -1.5, 0.0, 0.7, 3.0, 25.0):
                x = mu + k * sigma
                want = float(nl_cdf_mp(x, mu, sigma, alpha, beta))
                got = float(ncdf(np.array([x]), mu, sigma, alpha, beta)[0])
                assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-9), (mu, sigma, alpha,
                                                                          beta, x)


class TestKernelsBitIdentical:
    @settings(max_examples=200)
    @given(mu=hst.floats(-40.0, 340.0), sigma=hst.floats(0.5, 40.0),
           alpha=tails, beta=tails, tied=hst.booleans())
    def test_tcdf(self, mu, sigma, alpha, beta, tied):
        beta = alpha if tied else beta
        v = np.linspace(-50.0, 400.0, 997)
        assert np.array_equal(tcdf(v, mu, sigma, alpha, beta, TAB),
                              ref_tcdf(v, mu, sigma, alpha, beta, TAB))

    @settings(max_examples=60)
    @given(data=hst.data(), family=hst.sampled_from(["gaussian", "normal_laplace",
                                                     "student_t"]), grid=grids)
    def test_density_and_state_rows(self, data, family, grid):
        models = data.draw(four_state_models(family))
        want = ref_model_density(models, grid, TAB)
        assert np.array_equal(model_density(models, grid, TAB), want)
        b = grid.boundaries()
        for st in CellState:
            assert np.array_equal(bin_masses(state_cdf(models, st, b, TAB)), want[st])


class TestFitStaticBitIdentical:
    def test_student_t_fit_matches_full_density_objectives(self):
        models = {
            CellState.ER: StateModel("student_t", -20.0, 17.0, 5.0, 5.0, 1e-3),
            CellState.P1: StateModel("student_t", 110.0, 11.0, 5.0, 3.0, 1e-3),
            CellState.P2: StateModel("student_t", 183.0, 11.0, 4.0, 6.0, 0.0),
            CellState.P3: StateModel("student_t", 260.0, 11.0, 4.0, 4.0, 0.0),
        }
        hist = bin_cells(sample_page(models, 50_000, seed=44))
        got = fitting.fit_static(hist, "student_t", max_iter=150, tables=TAB)
        want = ref_fit_static(hist, "student_t", max_iter=150)
        assert got == want
        assert got.iterations > 150  # the stages did move the simplex
