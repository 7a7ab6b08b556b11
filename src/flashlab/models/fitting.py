"""Model fitting: static distributions via KL minimization, dynamic
parameter trajectories via power-law least squares.

The static fit works in a transformed space (log for scale/tail
parameters, logit for the misprogram probability) so the simplex never
wanders into invalid territory. It proceeds stage-wise: P3 and P2 first
(their parameters are reused by the misprogram components of ER and P1),
then ER and P1, then one joint polish over the full 16-dimensional vector.
Staging changes only the optimization path, not the objective.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ..grid import MISPROGRAM_TARGET, CellState, VoltageGrid
from .cdf import (StateModel, bin_masses, component_cdf, enforce_constraints,
                  grid_boundaries, mix, model_density, pooled_kl)
from .simplex import nelder_mead
from .tables import default_tables

# Fit order: misprogram targets first so their parameters are available.
_STAGE_ORDER = (CellState.P3, CellState.P2, CellState.ER, CellState.P1)

_LAM_CAP = 0.5  # misprogram probability is a rare event by construction


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


def _unpack_state(vec, family, state):
    kw = {"family": family}
    for name, x in zip(_state_param_names(family, state), vec):
        if name == "mu":
            kw["mu"] = float(x)
        elif name == "lam":
            kw["lam"] = _expit(float(x))
        else:
            kw[name] = math.exp(min(float(x), 30.0))
    if family != "gaussian":
        if state == CellState.ER:
            kw["beta"] = kw["alpha"]
        if state == CellState.P3:
            kw["alpha"] = kw["beta"]
    return StateModel(**kw)


def _pack_all(models, family):
    vec = []
    for st in _STAGE_ORDER:
        vec.extend(_pack_state(models[st], family, st))
    return np.array(vec)


def _unpack_all(vec, family):
    models = {}
    i = 0
    for st in _STAGE_ORDER:
        n = len(_state_param_names(family, st))
        models[st] = _unpack_state(vec[i : i + n], family, st)
        i += n
    return models


def empirical_moments(hist, state):
    """Mean/stddev of one state's binned population (bin-center weighted)."""
    grid = hist.grid
    b = grid.boundaries()
    centers = np.concatenate(([b[0] - 0.5], (b[:-1] + b[1:]) / 2.0, [b[-1] + 0.5]))
    w = hist.counts[state].astype(float)
    total = w.sum()
    if total == 0:
        raise ValueError(f"empty histogram for state {CellState(state).name}")
    mu = float(np.dot(w, centers) / total)
    var = float(np.dot(w, (centers - mu) ** 2) / total)
    return mu, math.sqrt(max(var, 1e-6))


def default_init(hist, family):
    """Empirical mean/stddev per state; tails at 5, lambda at 1e-4."""
    models = {}
    for st in CellState:
        mu, sigma = empirical_moments(hist, st)
        lam = 1e-4 if st in MISPROGRAM_TARGET else 0.0
        if family == "gaussian":
            # The 8-parameter Gaussian model carries no misprogram mixture.
            models[st] = StateModel(family, mu, sigma)
        else:
            models[st] = StateModel(family, mu, sigma, alpha=5.0, beta=5.0, lam=lam)
    return enforce_constraints(models)


def fit_static(hist, family, init=None, tol=1e-8, max_iter=1000, tables=None):
    """Fit a 4-state model to a binned histogram by KL minimization.

    A stage objective evaluates only the fitted state's own component, mixed
    for ER and P1 with the target's, which stays fixed through the stage.
    Every float operation runs as in ``kl_divergence`` of ``model_density``,
    so the objective values, and the fit, equal theirs bit for bit.
    """
    tables = tables or default_tables()
    grid = hist.grid
    b = grid_boundaries(grid)
    measured = hist.densities()
    models = dict(init) if init is not None else default_init(hist, family)
    init_kl = pooled_kl(measured, model_density(models, grid, tables))

    seen = measured > 0
    p_seen = [measured[s][seen[s]] for s in CellState]

    def state_kl(state, masses):
        q = np.maximum(masses[seen[state]], 1e-12)
        return float(np.sum(p_seen[state] * np.log(p_seen[state] / q)))

    total_iters = 0
    converged = True

    # Stage 1: per-state fits, misprogram targets first.
    for st in _STAGE_ORDER:
        tgt = MISPROGRAM_TARGET.get(st)
        tgt_cdf = None if tgt is None else component_cdf(models[tgt], b, tables)

        def objective(vec, st=st, tgt_cdf=tgt_cdf):
            m = _unpack_state(vec, family, st)
            own = component_cdf(m, b, tables)
            return state_kl(st, bin_masses(own if tgt_cdf is None else mix(m, own, tgt_cdf)))

        x0 = np.array(_pack_state(models[st], family, st))
        x, _, iters, ok = nelder_mead(objective, x0, tol=tol, max_iter=max_iter)
        models[st] = _unpack_state(x, family, st)
        total_iters += iters
        converged &= ok

    # Stage 2: joint polish over the full parameter vector.
    def joint_objective(vec):
        dens = model_density(_unpack_all(vec, family), grid, tables)
        return float(np.mean([state_kl(s, dens[s]) for s in CellState]))

    x0 = _pack_all(models, family)
    x, kl, iters, ok = nelder_mead(joint_objective, x0, tol=tol, max_iter=max_iter)
    total_iters += iters
    polished = _unpack_all(x, family)
    if kl <= init_kl:
        models, final_kl = polished, kl
    else:
        final_kl = pooled_kl(measured, model_density(models, grid, tables))
    models = enforce_constraints(models)
    return FitResult(models, float(final_kl), total_iters, converged and ok)


def fit_power_law(points, tol=1e-12, max_iter=4000):
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

    xstar, _, _, _ = nelder_mead(mse, best, tol=tol, max_iter=max_iter)
    # One restart from the solution shakes off premature contraction.
    xstar, _, _, _ = nelder_mead(mse, xstar, tol=tol, max_iter=max_iter)
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
        kw = {"family": family}
        for name in _state_param_names(family, st):
            val = float(dynamic[(st.name, name)].predict(x))
            if name == "sigma" and val <= 0:
                val, clamped = 1e-3, True
            if name in ("alpha", "beta") and val <= 0:
                val, clamped = 1e-3, True
            if name == "lam":
                val = float(np.clip(val, 0.0, 1.0))
            kw[name] = val
        if family != "gaussian":
            if st == CellState.ER:
                kw["beta"] = kw["alpha"]
            if st == CellState.P3:
                kw["alpha"] = kw["beta"]
        models[st] = StateModel(**kw)
    return enforce_constraints(models), clamped


def models_to_dict(models):
    out = {"family": models[CellState.ER].family, "states": {}}
    for st in CellState:
        m = models[st]
        out["states"][st.name] = {
            "mu": m.mu, "sigma": m.sigma,
            "alpha": m.alpha, "beta": m.beta, "lambda": m.lam,
        }
    return out


def models_from_dict(d):
    family = d["family"]
    models = {}
    for st in CellState:
        s = d["states"][st.name]
        models[st] = StateModel(family, s["mu"], s["sigma"],
                                alpha=s.get("alpha"), beta=s.get("beta"),
                                lam=s.get("lambda", 0.0))
    return enforce_constraints(models)


def dynamic_to_dict(dynamic):
    return {f"{st}.{name}": {"a": p.a, "b": p.b, "c": p.c}
            for (st, name), p in dynamic.items()}


def dynamic_from_dict(d):
    out = {}
    for key, rec in d.items():
        st, name = key.split(".")
        out[(st, name)] = PowerLawParams(rec["a"], rec["b"], rec["c"])
    return out


def save_models_json(models, path):
    with open(path, "w") as fh:
        json.dump(models_to_dict(models), fh, indent=2, sort_keys=True)


def load_models_json(path):
    with open(path) as fh:
        return models_from_dict(json.load(fh))
