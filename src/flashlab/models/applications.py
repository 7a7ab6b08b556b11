"""Controller-facing applications of the fitted distribution models:
RBER estimation, optimal read reference prediction and lifetime
estimation.

Every result is on the fixed read-retry step axis of ``grid``: a
reference at step k reads at voltage k, and the Vopt searches cover steps
1..VC_SEARCH_MAX.

The models are a dict of StateModel, or a ``cdf.GaussianBatch`` of S
operating points; then every kernel here works on all of them at once
and returns one result per operating point. One implementation serves
both: a dict is a batch of one, and its results are those of one row,
read references as (3,) steps where a batch gets (S, 3).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..grid import LSB_OF_STATE, MSB_OF_STATE, CellState, ordered_refs
from .cdf import state_cdf
from .fitting import predict_static
from .simplex import bisect_failure

# Vopt search range for the top reference extends past the binning grid,
# matching the stock vc.
VC_SEARCH_MAX = 400
_DENSITY_H = 0.25  # half-width of _density's central difference
LIFETIME_PEC_MAX = 200000.0  # estimate_lifetime's search ceiling, P/E cycles
LIFETIME_HALVINGS = 11       # 200000 / 2**11 = 97.7 P/E resolution

# Voltages of reference steps 1..VC_SEARCH_MAX, and of the half-way points
# between neighboring steps; read-only.
_STEPS = np.arange(1, VC_SEARCH_MAX + 1, dtype=float)
_HALF_STEPS = (_STEPS[:-1] + _STEPS[1:]) / 2.0
_STEPS.flags.writeable = _HALF_STEPS.flags.writeable = False


@dataclass
class RBEREstimate:
    total: float          # (S,) arrays for a batch
    msb: float
    lsb: float


def region_masses(models, refs):
    """Probability mass of each intended state in each decode region.

    ``refs`` is (3,) steps, or an (S, 3) array of steps with a row per
    operating point of a GaussianBatch. Returns shape (4 states, 4
    regions), or (S, 4, 4) for a batch; rows sum to 1.
    """
    v = np.asarray(refs, float)
    c = np.stack([state_cdf(models, st, v) for st in CellState], axis=-2)
    out = np.empty(c.shape[:-1] + (4,))
    out[..., 0] = c[..., 0]
    out[..., 1:3] = c[..., 1:] - c[..., :-1]
    out[..., 3] = 1.0 - c[..., 2]
    return out


def estimate_rber(models, refs):
    """Analytic RBER at the given references, states weighted equally."""
    masses = region_masses(models, refs)
    msb = lsb = 0.0
    for st in range(4):
        for region in range(4):
            if MSB_OF_STATE[region] != MSB_OF_STATE[st]:
                msb += masses[..., st, region]
            if LSB_OF_STATE[region] != LSB_OF_STATE[st]:
                lsb += masses[..., st, region]
    msb /= 4.0
    lsb /= 4.0
    return RBEREstimate(total=(msb + lsb) / 2.0, msb=msb, lsb=lsb)


def _density(models, state, v):
    lo = state_cdf(models, state, np.asarray(v, dtype=float) - _DENSITY_H)
    hi = state_cdf(models, state, np.asarray(v, dtype=float) + _DENSITY_H)
    return (hi - lo) / (2.0 * _DENSITY_H)


def _round_to_step(voltage):
    """Nearest reference step to each voltage; a tie goes to the lower step."""
    v = np.asarray(voltage, dtype=float)
    j = np.searchsorted(_STEPS, v)
    last = len(_STEPS) - 1
    below, above = _STEPS[np.maximum(j - 1, 0)], _STEPS[np.minimum(j, last)]
    j = j - ((j > last) | ((j > 0) & (np.abs(below - v) <= np.abs(above - v))))
    return j + 1


def _gaussian_crossing(lo, hi):
    """Voltages between the means where two Gaussian PDFs cross.

    With y = v - mu_lo and d = mu_hi - mu_lo, equal log-densities give
    A y^2 + B y + C = 0 with A = s_hi^2 - s_lo^2, B = 2 d s_lo^2 and
    C = s_lo^2 (2 s_hi^2 ln(s_lo/s_hi) - d^2). The lower density exceeds
    the upper at mu_lo iff C < 0, and falls below it at mu_hi iff
    d^2 > 2 s_lo^2 ln(s_hi/s_lo); then exactly one root lies between the
    means, and it is C/q with q = -(B + sqrt(B^2 - 4AC))/2.

    Returns one crossing per operating point, NaN where there is none:
    (1,) for two StateModels, (S, 1) for the (S, 1) columns of a
    GaussianBatch. The logarithm is taken row by row with
    ``math.log``, whose last bit numpy's log does not always match.
    """
    mu_lo, mu_hi, s_lo, s_hi = np.atleast_1d(lo.mu, hi.mu, lo.sigma, hi.sigma)
    ratio = s_lo / s_hi
    log_ratio = np.reshape([math.log(r) for r in ratio.ravel().tolist()],
                           ratio.shape)
    d = mu_hi - mu_lo
    s1, s2 = s_lo * s_lo, s_hi * s_hi
    out = np.full(d.shape, np.nan)
    cross = ~((d * d <= 2.0 * s2 * log_ratio) | (d * d <= -2.0 * s1 * log_ratio))
    equal = cross & (s1 == s2)
    out[equal] = (mu_lo[equal] + mu_hi[equal]) / 2.0
    k = cross & ~equal
    d, s1, s2, log_ratio = d[k], s1[k], s2[k], log_ratio[k]
    a, b, c = s2 - s1, 2.0 * d * s1, s1 * (2.0 * s2 * log_ratio - d * d)
    q = -0.5 * (b + np.sqrt(b * b - 4.0 * a * c))
    out[k] = mu_lo[k] + c / q
    return out


def _scanned_step(models, lo, hi):
    """Rounded step of the density crossing between two means, or None.

    The density gap is evaluated once, at the means and at every half-way
    voltage between them. A crossing from the lower state's side to the
    upper's rounds to step k exactly when it lies past the half-way
    voltage below step k and not past the one above it. Where the gap
    changes sign that way more than once (a tail wiggle), the crossing
    whose step misreads the least mass wins.
    """
    a, b = models[lo].mu, models[hi].mu
    first = int(np.searchsorted(_HALF_STEPS, a, side="right"))
    last = int(np.searchsorted(_HALF_STEPS, b, side="left"))
    v = np.concatenate(([a], _HALF_STEPS[first:last], [b]))
    gap = _density(models, lo, v) - _density(models, hi, v)
    if gap[0] <= 0 or gap[-1] >= 0:
        return None
    ks = first + np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))
    k = ks[0]
    if len(ks) > 1:
        vs = _STEPS[ks]
        miss = (1.0 - state_cdf(models, lo, vs)) + state_cdf(models, hi, vs)
        k = ks[np.argmin(miss)]
    return int(k) + 1


def predict_vopt(models):
    """Predict optimal read references.

    Each reference sits where the two neighboring state densities cross:
    in closed form when both states are pure Gaussians, otherwise by one
    vectorized scan of the density gap between the means. Returns
    (steps, fell): (3,) steps and a (3,) bool mask of the boundaries that
    fell back to the mean midpoint because the densities never crossed,
    or (S, 3) of each for a GaussianBatch.
    """
    mus = np.concatenate(np.atleast_1d(*(models[st].mu for st in CellState)),
                         axis=-1)
    if not np.all(mus[..., :-1] < mus[..., 1:]):
        raise ValueError("state means must be ordered ER < P1 < P2 < P3")

    steps = []  # per boundary; 0 where the densities never cross
    for i in range(3):
        lo, hi = CellState(i), CellState(i + 1)
        if all(models[st].family == "gaussian" and models[st].lam == 0.0
               for st in (lo, hi)):
            v = _gaussian_crossing(models[lo], models[hi])
            steps.append(np.where(np.isnan(v), 0, _round_to_step(v)))
        else:
            steps.append(_scanned_step(models, lo, hi) or 0)
    steps = np.concatenate(np.atleast_1d(*steps), axis=-1)
    fell = steps == 0
    mid = _round_to_step((mus[..., :-1] + mus[..., 1:]) / 2.0)
    # Keep the ordering strict after rounding.
    return ordered_refs(*np.moveaxis(np.where(fell, mid, steps), -1, 0)), fell


def sweep_vopt(models):
    """Exhaustive per-boundary sweep minimizing misread mass.

    Total misread mass separates per boundary once the region order is
    fixed, so each reference is optimized independently. Serves as the
    oracle that predict_vopt is judged against. A GaussianBatch gives
    (S, 3) steps.
    """
    best, lo = [], state_cdf(models, CellState.ER, _STEPS)
    for st in (CellState.P1, CellState.P2, CellState.P3):
        hi = state_cdf(models, st, _STEPS)
        # Mass of the lower state above the boundary + upper state below.
        best.append(np.argmin((1.0 - lo) + hi, axis=-1) + 1)
        lo = hi
    return ordered_refs(*best)


def estimate_lifetime(dynamic, family, ecc_limit):
    """(pec, exceeded): the first P/E count, bisected to 97.7 P/E, at which
    the RBER at the predicted Vopt exceeds the ECC limit or the predicted
    state means cross; (LIFETIME_PEC_MAX, False) if neither ever does."""
    if ecc_limit <= 0:
        raise ValueError("ecc_limit must be positive")

    def fails(pec):
        models, _ = predict_static(dynamic, pec, family)
        if np.any(np.diff([models[st].mu for st in CellState]) <= 0):
            return True  # crossed means, which predict_vopt rejects
        refs, _ = predict_vopt(models)
        return estimate_rber(models, refs).total > ecc_limit

    lo, hi = bisect_failure(fails, LIFETIME_PEC_MAX, LIFETIME_HALVINGS)
    return (lo, False) if math.isinf(hi) else (hi, True)
