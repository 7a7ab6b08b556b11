"""CDF and fit-objective kernels against reference forms.

The normal-Laplace CDF is checked against an arbitrary-precision
quadrature of its defining convolution. The Student's t CDF, the density
matrix and the static fit are checked, bit for bit, against the forms they
replaced: a t-CDF that looks up both tails even when they are tied, a
density that evaluates every state's mixture CDF on its own (so misprogram
targets twice), and stage and pair objectives that build all four density
rows to read one or two. The pair polishes are checked to split the pooled
KL exactly and to land within a stated tolerance of the single joint
polish they replaced.
"""

import math
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flashlab.grid import BOUNDARIES, MISPROGRAM_TARGET, CellState
from flashlab.models import fitting
from flashlab.models.cdf import (StateModel, bin_masses, gcdf, model_density,
                                 ncdf, pooled_kl, state_cdf, tcdf)
from flashlab.models.simplex import nelder_mead
from flashlab.models.tables import default_tables
from reference import (bin_cells, enforce_constraints, pack_all,
                       sample_page, unpack_all)

TAB = default_tables()


# --- reference forms ---------------------------------------------------------


def ref_tcdf(v, mu, sigma, alpha, beta, tables):
    z = (np.asarray(v, dtype=float) - mu) / sigma
    left = tables.t_cdf(z, beta)
    right = tables.t_cdf(z, alpha)
    return np.where(z <= 0.0, left, right)


def ref_component_cdf(m, v, tables):
    if m.family == "gaussian":
        return gcdf(v, m.mu, m.sigma)
    if m.family == "normal_laplace":
        return ncdf(v, m.mu, m.sigma, m.alpha, m.beta)
    return ref_tcdf(v, m.mu, m.sigma, m.alpha, m.beta, tables)


def ref_state_cdf(models, state, v, tables):
    m = models[state]
    own = ref_component_cdf(m, v, tables)
    if m.lam == 0.0 or state not in MISPROGRAM_TARGET:
        return own
    tgt = models[MISPROGRAM_TARGET[state]]
    return (1.0 - m.lam) * own + m.lam * ref_component_cdf(tgt, v, tables)


def ref_model_density(models, tables):
    out = np.empty((4, 304))
    for state in CellState:
        c = ref_state_cdf(models, state, BOUNDARIES, tables)
        out[state] = np.diff(np.concatenate(([0.0], c, [1.0])))
    return out


def ref_fit_static(hist, family, tol=1e-8, max_iter=1000, tables=TAB,
                   joint=False):
    """The static fit with full-density objectives. With ``joint``, its
    former stage 2 replaces the pair polishes: one polish of every parameter
    from a 5%-step simplex, kept only if it ends at or below the initial
    model's pooled KL."""
    measured = hist.densities()
    models = fitting.default_init(hist, family)
    init_kl = pooled_kl(measured, ref_model_density(models, tables))
    total_iters, converged = 0, True

    def state_kl(dens, state):
        seen = measured[state] > 0
        return float(np.sum(measured[state][seen] * np.log(
            measured[state][seen] / np.maximum(dens[state][seen], 1e-12))))

    for st in fitting._STAGE_ORDER:
        def objective(vec, st=st):
            trial = dict(models)
            trial[st] = fitting._unpack_state(vec, family, st)
            return state_kl(ref_model_density(trial, tables), st)

        x0 = np.array(fitting._pack_state(models[st], family, st))
        x, _, iters, ok = nelder_mead(objective, x0, tol=tol, max_iter=max_iter)
        models[st] = fitting._unpack_state(x, family, st)
        total_iters += iters
        converged &= ok

    if joint:
        def joint_objective(vec):
            return pooled_kl(measured, ref_model_density(unpack_all(vec, family), tables))

        x, kl, iters, ok = nelder_mead(joint_objective, pack_all(models, family),
                                       tol=tol, max_iter=max_iter)
        total_iters += iters
        if kl <= init_kl:
            models, final_kl = unpack_all(x, family), kl
        else:
            final_kl = pooled_kl(measured, ref_model_density(models, tables))
        return fitting.FitResult(enforce_constraints(models), float(final_kl),
                                 total_iters, converged and ok)

    for st, tgt in MISPROGRAM_TARGET.items():
        n = len(fitting._state_param_names(family, st))

        def pair_objective(vec, st=st, tgt=tgt, n=n):
            trial = dict(models)
            trial[st] = fitting._unpack_state(vec[:n], family, st)
            trial[tgt] = fitting._unpack_state(vec[n:], family, tgt)
            dens = ref_model_density(trial, tables)
            return state_kl(dens, st) + state_kl(dens, tgt)

        x0 = np.array(fitting._pack_state(models[st], family, st)
                      + fitting._pack_state(models[tgt], family, tgt))
        x, _, iters, ok = nelder_mead(pair_objective, x0, tol=tol, max_iter=max_iter,
                                      step=fitting.POLISH_STEP)
        models[st] = fitting._unpack_state(x[:n], family, st)
        models[tgt] = fitting._unpack_state(x[n:], family, tgt)
        total_iters += iters
        converged &= ok
    models = enforce_constraints(models)
    return fitting.FitResult(models, pooled_kl(measured, ref_model_density(models, tables)),
                             total_iters, converged)


def pair_objectives(hist, family):
    """``fit_static``'s two pair objectives on ``hist``, (ER, P3) then
    (P1, P2), taken from its simplex calls, each of which returns its
    start."""
    found = []

    def start_only(objective, x0, **kw):
        if objective.__name__ == "joint_objective":
            found.append(objective)
        return x0, objective(x0), 0, True
    with patch.object(fitting, "nelder_mead", start_only):
        fitting.fit_static(hist, family)
    return found


def acceptance_channel(family, lam):
    """The acceptance tests' 4-state channel, ER and P1 misprogramming with
    probability ``lam``."""
    tails = (4.0, 5.0) if family != "gaussian" else (None, None)
    return {st: StateModel(family, (30.0, 110.0, 183.0, 260.0)[st],
                           (11.0, 9.0, 8.5, 8.0)[st], *tails,
                           lam=lam if st in MISPROGRAM_TARGET else 0.0)
            for st in CellState}


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


# A small histogram with empty bins, on which the pair objectives are read.
SPLIT_HIST = bin_cells(sample_page(acceptance_channel("student_t", 0.03), 20_000,
                                   seed=5))


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
        assert np.array_equal(tcdf(v, mu, sigma, alpha, beta),
                              ref_tcdf(v, mu, sigma, alpha, beta, TAB))

    @settings(max_examples=60)
    @given(data=hst.data(), family=hst.sampled_from(["gaussian", "normal_laplace",
                                                     "student_t"]))
    def test_density_and_state_rows(self, data, family):
        models = data.draw(four_state_models(family))
        want = ref_model_density(models, TAB)
        assert np.array_equal(model_density(models), want)
        for st in CellState:
            assert np.array_equal(bin_masses(state_cdf(models, st, BOUNDARIES)),
                                  want[st])


class TestFitStaticBitIdentical:
    def test_student_t_fit_matches_full_density_objectives(self):
        models = {
            CellState.ER: StateModel("student_t", -20.0, 17.0, 5.0, 5.0, 1e-3),
            CellState.P1: StateModel("student_t", 110.0, 11.0, 5.0, 3.0, 1e-3),
            CellState.P2: StateModel("student_t", 183.0, 11.0, 4.0, 6.0, 0.0),
            CellState.P3: StateModel("student_t", 260.0, 11.0, 4.0, 4.0, 0.0),
        }
        hist = bin_cells(sample_page(models, 50_000, seed=44))
        with patch.object(fitting, "FIT_MAX_ITER", 150):
            got = fitting.fit_static(hist, "student_t")
        want = ref_fit_static(hist, "student_t", max_iter=150)
        assert got == want
        assert got.iterations > 150  # the stages did move the simplex


class TestPairPolish:
    def test_misprogram_targets_partition_the_states(self):
        # The split holds only while no state mixes in a state of the other
        # pair: the misprogrammed states and their targets are disjoint and
        # cover every state once.
        sources, targets = set(MISPROGRAM_TARGET), set(MISPROGRAM_TARGET.values())
        assert not sources & targets
        assert sources | targets == set(CellState)
        assert len(targets) == len(MISPROGRAM_TARGET)

    @settings(max_examples=60)
    @given(data=hst.data(), family=hst.sampled_from(["gaussian", "normal_laplace",
                                                     "student_t"]))
    def test_pair_objectives_split_the_pooled_kl(self, data, family):
        drawn = data.draw(four_state_models(family))
        vecs = {st: fitting._pack_state(drawn[st], family, st) for st in CellState}
        models = {st: fitting._unpack_state(vecs[st], family, st) for st in CellState}
        want = pooled_kl(SPLIT_HIST.densities(), model_density(models))
        er_p3, p1_p2 = pair_objectives(SPLIT_HIST, family)
        got = (er_p3(np.array(vecs[CellState.ER] + vecs[CellState.P3]))
               + p1_p2(np.array(vecs[CellState.P1] + vecs[CellState.P2]))) / 4
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)

    @pytest.mark.parametrize("family", ["student_t", "gaussian"])
    @pytest.mark.parametrize("lam", [1e-3, 0.03])
    def test_within_tolerance_of_the_joint_polish(self, family, lam):
        # On each channel both families' pair fits converge, at a pooled KL
        # at most 1e-4 relative above the joint polish's, with every mean
        # within 0.01 steps of its. On the student_t channel at lam 0.03
        # the joint polish runs out of FIT_MAX_ITER; the pair fit does not,
        # and ends lower.
        hist = bin_cells(sample_page(acceptance_channel(family, lam), 1_000_000,
                                     seed=2))
        for fit_family in ("student_t", "gaussian"):
            got = fitting.fit_static(hist, fit_family)
            want = ref_fit_static(hist, fit_family, joint=True)
            assert got.converged, fit_family
            assert got.kl_error <= want.kl_error * (1 + 1e-4), fit_family
            assert max(abs(got.params[st].mu - want.params[st].mu)
                       for st in CellState) <= 0.01, fit_family
            if (family, lam, fit_family) == ("student_t", 0.03, "student_t"):
                assert not want.converged
                assert got.kl_error < want.kl_error
