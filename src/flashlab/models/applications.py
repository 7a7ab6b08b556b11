"""Controller-facing applications of the distribution models: RBER
estimation and optimal read reference prediction.

Every result is on the fixed read-retry step axis of ``grid``: a
reference at step k reads at voltage k, the Vopt searches cover steps
1..VC_SEARCH_MAX, and a predicted voltage becomes a step through
``grid.round_to_step``.

The models are a dict of StateModel, or a ``cdf.GaussianBatch`` of S
operating points; then every kernel here works on all of them at once
and returns one result per operating point. One implementation serves
both: a dict is a batch of one, and its results are those of one row,
read references as (3,) steps where a batch gets (S, 3).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..grid import (LSB_OF_STATE, MSB_OF_STATE, STEPS, CellState,
                    ordered_refs, round_to_step)
from .cdf import state_cdf


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


def _gaussian_crossing(lo, hi):
    """Voltages between the means where two Gaussian PDFs cross.

    With y = v - mu_lo and d = mu_hi - mu_lo, equal log-densities give
    A y^2 + B y + C = 0 with A = s_hi^2 - s_lo^2, B = 2 d s_lo^2 and
    C = s_lo^2 (2 s_hi^2 ln(s_lo/s_hi) - d^2). The lower density exceeds
    the upper at mu_lo iff C < 0, and falls below it at mu_hi iff
    d^2 > 2 s_lo^2 ln(s_hi/s_lo); then exactly one root lies between the
    means, and it is C/q with q = -(B + sqrt(B^2 - 4AC))/2.

    Returns one crossing per operating point, NaN where there is none or
    the means are out of order: (1,) for two StateModels, (S, 1) for the
    (S, 1) columns of a GaussianBatch. The logarithm is taken row by row
    with ``math.log``, whose last bit numpy's log does not always match.
    """
    mu_lo, mu_hi, s_lo, s_hi = np.atleast_1d(lo.mu, hi.mu, lo.sigma, hi.sigma)
    ratio = s_lo / s_hi
    log_ratio = np.reshape([math.log(r) for r in ratio.ravel().tolist()],
                           ratio.shape)
    d = mu_hi - mu_lo
    s1, s2 = s_lo * s_lo, s_hi * s_hi
    out = np.full(d.shape, np.nan)
    cross = (d > 0) & ~((d * d <= 2.0 * s2 * log_ratio)
                        | (d * d <= -2.0 * s1 * log_ratio))
    equal = cross & (s1 == s2)
    out[equal] = (mu_lo[equal] + mu_hi[equal]) / 2.0
    k = cross & ~equal
    d, s1, s2, log_ratio = d[k], s1[k], s2[k], log_ratio[k]
    a, b, c = s2 - s1, 2.0 * d * s1, s1 * (2.0 * s2 * log_ratio - d * d)
    q = -0.5 * (b + np.sqrt(b * b - 4.0 * a * c))
    out[k] = mu_lo[k] + c / q
    return out


def predict_vopt(models):
    """Predict optimal read references of pure Gaussian models (no
    misprogram mass); any other model raises ValueError.

    Each reference sits where the two neighboring state densities cross,
    in closed form, or at the midpoint of their means where they never
    cross. A row whose means are not strictly increasing (extrapolation
    far past wear-out can cross them) reads at the midpoints of its sorted
    means at every boundary. Returns (3,) steps, or (S, 3) for a
    GaussianBatch.
    """
    if not all(models[st].family == "gaussian" and models[st].lam == 0.0
               for st in CellState):
        raise ValueError("predict_vopt takes pure Gaussian models")
    mus = np.concatenate(np.atleast_1d(*(models[st].mu for st in CellState)),
                         axis=-1)
    crossed = ~np.all(mus[..., :-1] < mus[..., 1:], axis=-1, keepdims=True)
    mus = np.sort(mus, axis=-1)
    v = np.concatenate([_gaussian_crossing(models[CellState(i)],
                                           models[CellState(i + 1)])
                        for i in range(3)], axis=-1)
    mid = (mus[..., :-1] + mus[..., 1:]) / 2.0
    steps = round_to_step(np.where(crossed | np.isnan(v), mid, v))
    # Keep the ordering strict after rounding.
    return ordered_refs(*np.moveaxis(steps, -1, 0))


def sweep_vopt(models):
    """Exhaustive per-boundary sweep minimizing misread mass.

    Total misread mass separates per boundary once the region order is
    fixed, so each reference is optimized independently. Serves as the
    oracle that predict_vopt is judged against. A GaussianBatch gives
    (S, 3) steps.
    """
    best, lo = [], state_cdf(models, CellState.ER, STEPS)
    for st in (CellState.P1, CellState.P2, CellState.P3):
        hi = state_cdf(models, st, STEPS)
        # Mass of the lower state above the boundary + upper state below.
        best.append(np.argmin((1.0 - lo) + hi, axis=-1) + 1)
        lo = hi
    return ordered_refs(*best)
