"""Threshold-voltage distribution families and their bin densities.

Three CDF families over the normalized voltage axis:
  gaussian        Phi(Z), exact through scipy.special.ndtr
  normal_laplace  Gaussian convolved with an asymmetric Laplace; exact
                  through ndtr and Mills' ratio
  student_t       two-sided Student's t with separate tail weights; the only
                  family that reads a table (the interpolated t-tables)

Each wordline carries four state distributions (ER, P1, P2, P3); ER and P1
additionally mix in a misprogram component that reuses the target state's
own parameters (ER -> P3, P1 -> P2).
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import special

from ..grid import BOUNDARIES, N_BINS, CellState, MISPROGRAM_TARGET
from .tables import default_tables

FAMILIES = ("gaussian", "normal_laplace", "student_t")

KL_FLOOR = 1e-12  # floor on model bin masses in KL(P || Q): the cost stays finite


@dataclass(frozen=True)
class StateModel:
    """Distribution parameters for one cell state.

    alpha/beta are tail parameters: decay rates (1/voltage) for
    normal_laplace, degrees of freedom for student_t, unused for gaussian.
    lam is the misprogram probability (meaningful for ER and P1 only).
    """

    family: str
    mu: float
    sigma: float
    alpha: float | None = None
    beta: float | None = None
    lam: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lambda must lie in [0, 1]")
        if self.family != "gaussian":
            if self.alpha is None or self.beta is None:
                raise ValueError(f"{self.family} needs alpha and beta")
            if self.alpha <= 0 or self.beta <= 0:
                raise ValueError("tail parameters must be positive")


def gcdf(v, mu, sigma):
    """Gaussian CDF, exact through ``special.ndtr``."""
    return special.ndtr((np.asarray(v, dtype=float) - mu) / sigma)


def _phi_times_mills(z, x):
    """phi(z) * R(x) with R the Mills ratio (1-Phi(x))/phi(x), elementwise.

    For x >= 0, R(x) = sqrt(pi/2) * erfcx(x/sqrt(2)). erfcx overflows for
    large negative x, so there the exponentials fold instead:
    phi(z)/phi(x) = exp((x^2 - z^2)/2), where ncdf's arguments always have
    |z| > |x|, so the product is tiny but finite.
    """
    z, x = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(x, dtype=float))
    out = np.empty(z.shape)
    pos = x >= 0.0
    neg = ~pos
    zp, xp = z[pos], x[pos]
    out[pos] = 0.5 * np.exp(-0.5 * zp * zp) * special.erfcx(xp / math.sqrt(2.0))
    zn, xn = z[neg], x[neg]
    out[neg] = 0.5 * np.exp(0.5 * (xn - zn) * (xn + zn)) * special.erfc(xn / math.sqrt(2.0))
    return out


def ncdf(v, mu, sigma, alpha, beta):
    """Normal-Laplace CDF via Mills' ratio, evaluated exactly."""
    z = (np.asarray(v, dtype=float) - mu) / sigma
    t1 = beta * _phi_times_mills(z, alpha * sigma - z)
    t2 = alpha * _phi_times_mills(z, beta * sigma + z)
    return np.clip(special.ndtr(z) - (t1 - t2) / (alpha + beta), 0.0, 1.0)


def tcdf(v, mu, sigma, alpha, beta):
    """Two-sided Student's t CDF: left half uses nu=beta, right nu=alpha."""
    t_cdf = default_tables().t_cdf
    z = (np.asarray(v, dtype=float) - mu) / sigma
    if alpha == beta:
        return t_cdf(z, alpha)
    return np.where(z <= 0.0, t_cdf(z, beta), t_cdf(z, alpha))


def component_cdf(model, v):
    """CDF of one pure state component (no misprogram mixing)."""
    if model.family == "gaussian":
        return gcdf(v, model.mu, model.sigma)
    if model.family == "normal_laplace":
        return ncdf(v, model.mu, model.sigma, model.alpha, model.beta)
    return tcdf(v, model.mu, model.sigma, model.alpha, model.beta)


def enforce_constraints(models):
    """Apply the reduced-parameter constraints to a 4-state model dict.

    lambda is zeroed for P2/P3; ER's tails are tied (beta := alpha) and
    P3's likewise (alpha := beta).
    """
    out = dict(models)
    er, p3 = out[CellState.ER], out[CellState.P3]
    if er.family != "gaussian":
        out[CellState.ER] = replace(er, beta=er.alpha)
        out[CellState.P3] = replace(p3, alpha=p3.beta)
    out[CellState.P2] = replace(out[CellState.P2], lam=0.0)
    out[CellState.P3] = replace(out[CellState.P3], lam=0.0)
    return out


class GaussianColumn(NamedTuple):
    """One state's Gaussian parameters at S operating points, as (S, 1)
    columns that broadcast against a voltage axis; no misprogram mass."""

    mu: np.ndarray
    sigma: np.ndarray
    family = "gaussian"
    lam = 0.0


@dataclass(frozen=True, eq=False)
class GaussianBatch:
    """Pure Gaussian models of the four states at S operating points.

    ``mu`` and ``sigma`` are (S, 4): a row per operating point, a column
    per CellState. ``batch[state]`` is that state's GaussianColumn, so
    ``state_cdf`` and the applications built on it, which read a dict of
    StateModel, evaluate every row at once: row i against its own
    voltages, or all rows against shared ones.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __getitem__(self, state):
        return GaussianColumn(self.mu[:, state, None], self.sigma[:, state, None])

    def take(self, rows):
        """The batch of the operating points ``rows`` selects."""
        return GaussianBatch(self.mu[rows], self.sigma[rows])


def gaussian_states(row):
    """Gaussian models of the four states from a regression.

    ``row(name)`` evaluates one regression output, ``"mu_P1"`` or
    ``"sigma_P1"``; it is called for each state in order, mean first.
    Each sigma is floored at 1e-3. Rows of (S,) arrays give a
    GaussianBatch of S operating points; rows of numbers give a batch of
    one.
    """
    mu, sigma = [], []
    for st in CellState:
        mu.append(row(f"mu_{st.name}"))
        sigma.append(row(f"sigma_{st.name}"))
    return GaussianBatch(np.atleast_2d(np.stack(mu, axis=-1)),
                         np.maximum(np.atleast_2d(np.stack(sigma, axis=-1)), 1e-3))


def mix(model, own, target):
    """A state's mixture CDF from its own component CDF and its misprogram
    target's (``target``, at the same voltages; unread when lam is 0)."""
    if model.lam == 0.0:
        return own
    return (1.0 - model.lam) * own + model.lam * target


def state_cdf(models, state, v):
    """Mixture CDF for an intended state, including misprogram mass."""
    m = models[state]
    own = component_cdf(m, v)
    if m.lam == 0.0 or state not in MISPROGRAM_TARGET:
        return own
    return mix(m, own, component_cdf(models[MISPROGRAM_TARGET[state]], v))


def bin_masses(c):
    """Bin probability masses from mixture-CDF values at the grid
    boundaries (last axis). Mass beyond the grid accrues to bins 0 and
    303, so each row sums to exactly 1."""
    out = np.empty(c.shape[:-1] + (N_BINS,))
    out[..., 0] = c[..., 0]
    np.subtract(c[..., 1:], c[..., :-1], out=out[..., 1:-1])
    out[..., -1] = 1.0 - c[..., -1]
    return out


def model_density(models):
    """Per-state bin probability masses, shape (4, 304); see bin_masses.

    Each state's component CDF is evaluated once and shared with the state
    that misprograms into it, so row s equals the masses of
    ``state_cdf(models, s, ...)`` bit for bit.
    """
    own = [component_cdf(models[s], BOUNDARIES) for s in CellState]
    c = np.empty((4, BOUNDARIES.size))
    for s in CellState:
        tgt = MISPROGRAM_TARGET.get(s)
        c[s] = own[s] if tgt is None else mix(models[s], own[s], own[tgt])
    return bin_masses(c)


def kl_divergence(p, q):
    """KL(P || Q) in nats over matching bins; Q floored at KL_FLOOR."""
    p = np.asarray(p, dtype=float)
    q = np.maximum(np.asarray(q, dtype=float), KL_FLOOR)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def pooled_kl(measured, modeled):
    """Mean per-state KL across the four states (equal weights)."""
    return float(np.mean([kl_divergence(measured[s], modeled[s]) for s in range(4)]))
