"""Parametric degradation models for 3D MLC NAND.

Covers retention loss (the 3D retention model, with the read references
it implies) and layer-to-layer variation (per-layer read-reference droop
and gamma-distributed RBER multipliers).
Retention drives the controller's read-reference policies and the
lifetime replay's RBER series.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import ReadRefs

# Retention-loss regression: Variable = (alpha*PEC + beta)*ln(t) +
# gamma*PEC + delta, t in seconds. The read-reference row for Va carries
# no time term (its drift is PEC-only).
RETENTION_TABLE = {
    "log_rber_msb": (5.49e-6, 0.16, 1.33e-4, -13.11),
    "log_rber_lsb": (7.92e-6, 0.25, 3.28e-5, -12.72),
    "mu_ER": (1.01e-4, 0.74, 1.52e-3, -27.27),
    "mu_P1": (-1.94e-5, -0.40, 3.51e-4, 114.47),
    "mu_P2": (-4.71e-5, -0.70, 3.23e-4, 189.58),
    "mu_P3": (-7.37e-5, -1.20, 5.75e-4, 264.85),
    "sigma_ER": (1.20e-5, -0.10, 1.63e-6, 17.01),
    "sigma_P1": (-1.34e-6, 9.83e-3, 7.55e-5, 10.20),
    "sigma_P2": (-2.12e-6, 9.85e-3, 6.69e-5, 10.65),
    "sigma_P3": (2.87e-6, 1.40e-2, 3.30e-5, 10.83),
    "va": (None, None, 1.20e-3, 60.52),
    "vb": (-3.72e-5, -0.57, 4.20e-4, 150.56),
    "vc": (-6.51e-5, -1.06, 4.81e-4, 227.24),
}


@dataclass(frozen=True)
class RetentionModel3D:
    coeffs: dict = field(default_factory=lambda: dict(RETENTION_TABLE))

    def eval(self, variable, pec, t_seconds):
        if t_seconds < 1:
            raise ValueError("retention model is defined for t >= 1 s")
        alpha, beta, gamma, delta = self.coeffs[variable]
        value = gamma * pec + delta
        if alpha is not None:
            value += (alpha * pec + beta) * math.log(t_seconds)
        return value


def retention_refs(model, pec, t_seconds):
    """Predicted optimal read references from the regression rows."""
    return ReadRefs.ordered(*(int(round(model.eval(row, pec, t_seconds)))
                              for row in ("va", "vb", "vc")))


@dataclass(frozen=True)
class GammaParams:
    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("gamma parameters must be positive")

    @property
    def mean(self):
        return self.shape * self.scale


@dataclass(frozen=True)
class OffsetShape:
    """Layer curve for read-reference offsets: flat bottom half, linear
    droop over the top half. vc never moves."""

    va_drop: float = 4.0
    vb_drop: float = 2.0


@dataclass
class LayerProfile:
    va_offset: np.ndarray  # (101,) voltage steps
    vb_offset: np.ndarray
    rber_multiplier: np.ndarray  # positive, mean ~1


def sample_layer_profile(gamma, offset_cfg=None, seed=0, n_layers=101):
    offset_cfg = offset_cfg or OffsetShape()
    rng = np.random.default_rng(seed)
    mult = rng.gamma(gamma.shape, gamma.scale, n_layers) / gamma.mean
    mult = np.maximum(mult, 1e-6)

    layers = np.arange(n_layers)
    half = n_layers // 2
    ramp = np.where(layers <= half, 0.0, (layers - half) / (n_layers - 1 - half))
    return LayerProfile(
        va_offset=-offset_cfg.va_drop * ramp,
        vb_offset=-offset_cfg.vb_drop * ramp,
        rber_multiplier=mult,
    )


def fit_gamma(samples):
    """Method-of-moments gamma fit for per-layer RBER variation."""
    x = np.asarray(samples, dtype=float)
    if x.size < 30:
        raise ValueError("need at least 30 samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    mean, var = float(np.mean(x)), float(np.var(x))
    if var <= 0:
        raise ValueError("zero-variance samples cannot be gamma-fit")
    return GammaParams(shape=mean**2 / var, scale=var / mean)
