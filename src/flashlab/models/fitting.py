"""Model fitting: static distributions via KL minimization, dynamic
parameter trajectories via power-law least squares.

The static fit works in a transformed space (log for scale/tail
parameters, logit for the misprogram probability) so the simplex never
wanders into invalid territory. It proceeds stage-wise: P3 and P2 first
(their parameters are reused by the misprogram components of ER and P1),
then ER and P1, then one polish per coupled pair, (ER, P3) and (P1, P2).
A state mixes in only its own misprogram target, so the pooled KL splits
into the two pairs' KLs and the pair optima are the joint optimum.
Staging changes only the optimization path, not the objective.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ..grid import BOUNDARIES, MISPROGRAM_TARGET, CellState
from .cdf import (KL_FLOOR, StateModel, bin_masses, component_cdf, mix,
                  model_density, pooled_kl)
from .simplex import nelder_mead

# Fit order: misprogram targets first so their parameters are available.
_STAGE_ORDER = (CellState.P3, CellState.P2, CellState.ER, CellState.P1)

_LAM_CAP = 0.5  # misprogram probability is a rare event by construction

FIT_MAX_ITER = 1000  # simplex iterations per fit_static stage
POLISH_STEP = 1e-3  # pair polishes start at the stage optima: a local simplex


@dataclass
class FitResult:
    params: dict
    kl_error: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class PowerLawParams:
    a: float
    b: float
    c: float

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return self.a * np.power(x, self.b) + self.c


def _logit(p):
    p = min(max(p / _LAM_CAP, 1e-12), 1 - 1e-12)
    return math.log(p / (1 - p))


def _expit(x):
    return _LAM_CAP / (1.0 + math.exp(-x))


def _state_param_names(family, state):
    if family == "gaussian":
        return ("mu", "sigma")
    names = ["mu", "sigma"]
    if state != CellState.P3:
        names.append("alpha")
    if state != CellState.ER:
        names.append("beta")
    if state in MISPROGRAM_TARGET:
        names.append("lam")
    return tuple(names)


def _pack_state(model, family, state):
    out = []
    for name in _state_param_names(family, state):
        val = getattr(model, name)
        if name == "mu":
            out.append(val)
        elif name == "lam":
            out.append(_logit(val))
        else:
            out.append(math.log(val))
    return out


def _state_model(family, state, kw):
    """One state's model from its free parameters (``_state_param_names``):
    the tied tail is copied in, ER's beta := alpha and P3's alpha := beta,
    and lam, free only for a misprogrammed state, stays 0 elsewhere."""
    if family != "gaussian":
        if state == CellState.ER:
            kw["beta"] = kw["alpha"]
        if state == CellState.P3:
            kw["alpha"] = kw["beta"]
    return StateModel(family, **kw)


def _unpack_state(vec, family, state):
    kw = {}
    for name, x in zip(_state_param_names(family, state), vec):
        if name == "mu":
            kw["mu"] = float(x)
        elif name == "lam":
            kw["lam"] = _expit(float(x))
        else:
            kw[name] = math.exp(min(float(x), 30.0))
    return _state_model(family, state, kw)


def empirical_moments(hist, state):
    """Mean/stddev of one state's binned population (bin-center weighted)."""
    b = BOUNDARIES
    centers = np.concatenate(([b[0] - 0.5], (b[:-1] + b[1:]) / 2.0, [b[-1] + 0.5]))
    w = hist.counts[state].astype(float)
    total = w.sum()
    if total == 0:
        raise ValueError(f"empty histogram for state {CellState(state).name}")
    mu = float(np.dot(w, centers) / total)
    var = float(np.dot(w, (centers - mu) ** 2) / total)
    return mu, math.sqrt(max(var, 1e-6))


def default_init(hist, family):
    """Empirical mean/stddev per state; tails at 5, so tied, and lambda at
    1e-4 on a misprogrammed state, 0 on the others."""
    models = {}
    for st in CellState:
        mu, sigma = empirical_moments(hist, st)
        lam = 1e-4 if st in MISPROGRAM_TARGET else 0.0
        if family == "gaussian":
            # The 8-parameter Gaussian model carries no misprogram mixture.
            models[st] = StateModel(family, mu, sigma)
        else:
            models[st] = StateModel(family, mu, sigma, alpha=5.0, beta=5.0, lam=lam)
    return models


def fit_static(hist, family):
    """Fit a 4-state model to a binned histogram by KL minimization.

    A stage objective evaluates only the fitted state's own component, mixed
    for ER and P1 with the target's, which stays fixed through the stage.
    Each pair polish then refits a misprogrammed state with its target from
    the stage optima, on the sum of the two states' KLs. Every float
    operation runs as in ``kl_divergence`` of ``model_density``, so each
    state's KL, and with it the fit, equals theirs bit for bit. The
    reported KL is the fitted model's pooled KL.
    """
    measured = hist.densities()
    models = default_init(hist, family)

    seen = measured > 0
    p_seen = [measured[s][seen[s]] for s in CellState]

    def state_kl(state, masses):
        q = np.maximum(masses[seen[state]], KL_FLOOR)
        return float(np.sum(p_seen[state] * np.log(p_seen[state] / q)))

    total_iters = 0
    converged = True

    # Stage 1: per-state fits, misprogram targets first.
    for st in _STAGE_ORDER:
        tgt = MISPROGRAM_TARGET.get(st)
        tgt_cdf = None if tgt is None else component_cdf(models[tgt], BOUNDARIES)

        def objective(vec, st=st, tgt_cdf=tgt_cdf):
            m = _unpack_state(vec, family, st)
            own = component_cdf(m, BOUNDARIES)
            return state_kl(st, bin_masses(own if tgt_cdf is None else mix(m, own, tgt_cdf)))

        x0 = np.array(_pack_state(models[st], family, st))
        x, _, iters, ok = nelder_mead(objective, x0, max_iter=FIT_MAX_ITER)
        models[st] = _unpack_state(x, family, st)
        total_iters += iters
        converged &= ok

    # Stage 2: polish each misprogrammed state jointly with its target. The
    # pairs share no state, so each minimizes its own part of the pooled KL.
    for st, tgt in MISPROGRAM_TARGET.items():
        n = len(_state_param_names(family, st))

        def joint_objective(vec, st=st, tgt=tgt, n=n):
            m = _unpack_state(vec[:n], family, st)
            t_own = component_cdf(_unpack_state(vec[n:], family, tgt), BOUNDARIES)
            own = component_cdf(m, BOUNDARIES)
            return (state_kl(st, bin_masses(mix(m, own, t_own)))
                    + state_kl(tgt, bin_masses(t_own)))

        x0 = np.array(_pack_state(models[st], family, st)
                      + _pack_state(models[tgt], family, tgt))
        x, _, iters, ok = nelder_mead(joint_objective, x0, max_iter=FIT_MAX_ITER,
                                      step=POLISH_STEP)
        models[st] = _unpack_state(x[:n], family, st)
        models[tgt] = _unpack_state(x[n:], family, tgt)
        total_iters += iters
        converged &= ok
    return FitResult(models, pooled_kl(measured, model_density(models)), total_iters,
                     converged)


def fit_power_law(points):
    """Least-squares fit of y = a*x^b + c; x=0 samples are dropped."""
    pts = [(float(x), float(y)) for x, y in points if float(x) > 0]
    if len(pts) < 3:
        raise ValueError("need at least 3 points with positive x")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])

    if np.ptp(y) < 1e-12 * max(1.0, np.max(np.abs(y))):
        return PowerLawParams(0.0, 1.0, float(np.mean(y)))

    def mse(params):
        a, b, c = params
        with np.errstate(over="ignore", invalid="ignore"):
            pred = a * np.power(x, b) + c
        if not np.all(np.isfinite(pred)):
            return 1e300
        return float(np.mean((pred - y) ** 2))

    # Seed by linearizing ln|y - c| vs ln x over candidate offsets.
    span = np.ptp(y)
    candidates = [y.min() - f * span for f in (1e-3, 0.05, 0.5, 1.0)]
    candidates += [y.max() + f * span for f in (1e-3, 0.05, 0.5, 1.0)]
    best = None
    for c0 in candidates:
        resid = y - c0
        if np.all(resid > 0):
            sign = 1.0
        elif np.all(resid < 0):
            sign = -1.0
        else:
            continue
        b0, loga = np.polyfit(np.log(x), np.log(sign * resid), 1)
        guess = np.array([sign * math.exp(loga), b0, c0])
        if best is None or mse(guess) < mse(best):
            best = guess
    if best is None:
        best = np.array([0.0, 1.0, float(np.mean(y))])

    xstar, _, _, _ = nelder_mead(mse, best, tol=1e-12, max_iter=4000)
    # One restart from the solution shakes off premature contraction.
    xstar, _, _, _ = nelder_mead(mse, xstar, tol=1e-12, max_iter=4000)
    return PowerLawParams(*(float(v) for v in xstar))


def fit_dynamic(static_fits, family):
    """Fit one power law per model parameter across (pec, FitResult) pairs."""
    dynamic = {}
    for st in CellState:
        for name in _state_param_names(family, st):
            traj = [(pec, getattr(fr.params[st], name)) for pec, fr in static_fits]
            dynamic[(st.name, name)] = fit_power_law(traj)
    return dynamic


def predict_static(dynamic, pec, family):
    """Evaluate the dynamic model at a P/E cycle count.

    Returns (models, clamped): sigma predictions that collapse to zero or
    below are clamped to a small positive floor and flagged.
    """
    clamped = False
    models = {}
    x = max(float(pec), 1e-12)
    for st in CellState:
        kw = {}
        for name in _state_param_names(family, st):
            val = float(dynamic[(st.name, name)].predict(x))
            if name == "sigma" and val <= 0:
                val, clamped = 1e-3, True
            if name in ("alpha", "beta") and val <= 0:
                val, clamped = 1e-3, True
            if name == "lam":
                val = float(np.clip(val, 0.0, 1.0))
            kw[name] = val
        models[st] = _state_model(family, st, kw)
    return models, clamped


def models_to_dict(models):
    out = {"family": models[CellState.ER].family, "states": {}}
    for st in CellState:
        m = models[st]
        out["states"][st.name] = {
            "mu": m.mu, "sigma": m.sigma,
            "alpha": m.alpha, "beta": m.beta, "lambda": m.lam,
        }
    return out


def dynamic_to_dict(dynamic):
    return {f"{st}.{name}": {"a": p.a, "b": p.b, "c": p.c}
            for (st, name), p in dynamic.items()}


def save_models_json(models, path):
    with open(path, "w") as fh:
        json.dump(models_to_dict(models), fh, indent=2, sort_keys=True)
