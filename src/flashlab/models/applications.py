"""Controller-facing applications of the fitted distribution models:
RBER estimation, optimal read reference prediction and lifetime
estimation.

Every result is on the fixed read-retry step axis of ``grid``: a
reference at step k reads at voltage k, and the Vopt searches cover steps
1..VC_SEARCH_MAX.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..grid import LSB_OF_STATE, MSB_OF_STATE, CellState, ReadRefs
from .cdf import state_cdf

# Vopt search range for the top reference extends past the binning grid,
# matching the stock vc.
VC_SEARCH_MAX = 400
_DENSITY_H = 0.25  # half-width of _density's central difference

# Voltages of reference steps 1..VC_SEARCH_MAX, and of the half-way points
# between neighboring steps; read-only.
_STEPS = np.arange(1, VC_SEARCH_MAX + 1, dtype=float)
_HALF_STEPS = (_STEPS[:-1] + _STEPS[1:]) / 2.0
_STEPS.flags.writeable = _HALF_STEPS.flags.writeable = False


@dataclass
class RBEREstimate:
    total: float
    msb: float
    lsb: float


def region_masses(models, refs):
    """Probability mass of each intended state in each decode region.

    Returns shape (4 states, 4 regions); rows sum to 1.
    """
    v = np.array([refs.va, refs.vb, refs.vc], dtype=float)
    out = np.empty((4, 4))
    for st in CellState:
        c = state_cdf(models, st, v)
        out[st] = (c[0], c[1] - c[0], c[2] - c[1], 1.0 - c[2])
    return out


def estimate_rber(models, refs):
    """Analytic RBER at the given references, states weighted equally."""
    masses = region_masses(models, refs)
    msb = lsb = 0.0
    for st in range(4):
        for region in range(4):
            if MSB_OF_STATE[region] != MSB_OF_STATE[st]:
                msb += masses[st, region]
            if LSB_OF_STATE[region] != LSB_OF_STATE[st]:
                lsb += masses[st, region]
    msb /= 4.0
    lsb /= 4.0
    return RBEREstimate(total=(msb + lsb) / 2.0, msb=msb, lsb=lsb)


def _density(models, state, v):
    lo = state_cdf(models, state, np.asarray(v, dtype=float) - _DENSITY_H)
    hi = state_cdf(models, state, np.asarray(v, dtype=float) + _DENSITY_H)
    return (hi - lo) / (2.0 * _DENSITY_H)


def _round_to_step(voltage):
    """Nearest reference step to a voltage; a tie goes to the lower step."""
    steps = _STEPS
    j = int(np.searchsorted(steps, voltage))
    if j == len(steps) or (j > 0 and abs(steps[j - 1] - voltage) <= abs(steps[j] - voltage)):
        j -= 1
    return j + 1


def _gaussian_crossing(lo, hi):
    """Voltage between the means where two Gaussian PDFs cross, or None.

    With y = v - mu_lo and d = mu_hi - mu_lo, equal log-densities give
    A y^2 + B y + C = 0 with A = s_hi^2 - s_lo^2, B = 2 d s_lo^2 and
    C = s_lo^2 (2 s_hi^2 ln(s_lo/s_hi) - d^2). The lower density exceeds
    the upper at mu_lo iff C < 0, and falls below it at mu_hi iff
    d^2 > 2 s_lo^2 ln(s_hi/s_lo); then exactly one root lies between the
    means, and it is C/q with q = -(B + sqrt(B^2 - 4AC))/2.
    """
    d = hi.mu - lo.mu
    s1, s2 = lo.sigma * lo.sigma, hi.sigma * hi.sigma
    log_ratio = math.log(lo.sigma / hi.sigma)
    if d * d <= 2.0 * s2 * log_ratio or d * d <= -2.0 * s1 * log_ratio:
        return None
    if s1 == s2:
        return (lo.mu + hi.mu) / 2.0
    a, b, c = s2 - s1, 2.0 * d * s1, s1 * (2.0 * s2 * log_ratio - d * d)
    q = -0.5 * (b + math.sqrt(b * b - 4.0 * a * c))
    return lo.mu + c / q


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
    (ReadRefs, flags); flags lists the boundaries that fell back to the
    mean midpoint because the densities never crossed.
    """
    mus = [models[st].mu for st in CellState]
    if not (mus[0] < mus[1] < mus[2] < mus[3]):
        raise ValueError("state means must be ordered ER < P1 < P2 < P3")

    flags = []
    steps = []
    for i, name in enumerate(("va", "vb", "vc")):
        lo, hi = CellState(i), CellState(i + 1)
        if all(models[st].family == "gaussian" and models[st].lam == 0.0
               for st in (lo, hi)):
            v = _gaussian_crossing(models[lo], models[hi])
            step = None if v is None else _round_to_step(v)
        else:
            step = _scanned_step(models, lo, hi)
        if step is None:
            step = _round_to_step((mus[i] + mus[i + 1]) / 2.0)
            flags.append(name)
        steps.append(step)

    # Keep the ordering strict after rounding.
    return ReadRefs.ordered(*steps), flags


def sweep_vopt(models):
    """Exhaustive per-boundary sweep minimizing misread mass.

    Total misread mass separates per boundary once the region order is
    fixed, so each reference is optimized independently. Serves as the
    oracle that predict_vopt is judged against.
    """
    best = []
    for i in range(3):
        lo, hi = CellState(i), CellState(i + 1)
        # Mass of the lower state above the boundary + upper state below.
        miss = (1.0 - state_cdf(models, lo, _STEPS)) + state_cdf(models, hi, _STEPS)
        best.append(int(np.argmin(miss)) + 1)
    return ReadRefs.ordered(*best)


def estimate_lifetime(dynamic, family, ecc_limit, pec_step=100, pec_max=200000):
    """Smallest PEC (scanned in pec_step increments) where the RBER at the
    predicted Vopt exceeds the ECC limit. Returns (pec, exceeded)."""
    from .fitting import predict_static

    if ecc_limit <= 0:
        raise ValueError("ecc_limit must be positive")
    pec = 0
    while pec <= pec_max:
        models, _ = predict_static(dynamic, pec, family)
        refs, _ = predict_vopt(models)
        if estimate_rber(models, refs).total > ecc_limit:
            return pec, True
        pec += pec_step
    return pec_max, False
