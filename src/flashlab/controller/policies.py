"""Read-reference policies.

Policies turn what the controller knows (wear, data age, thermal history,
layer) into the three read references for a batch of reads at one wear
level: an (S, 3) array of steps, a row per read, or (3,) steps that
serve them all. A policy keeps no state between batches.
"""

from dataclasses import dataclass

import numpy as np

from ..grid import DEFAULT_READ_REFS, ordered_refs
from ..degradation import retention_refs
from ..models.applications import predict_vopt, sweep_vopt
from ..urt import state_models

REMAR_CADENCE = 100  # sampled reads between ReMAR re-fits


@dataclass
class ReadContext:
    """Everything a read-reference policy may consult about S reads.

    ``age_s`` and ``refit_age_s`` are (S,) arrays and ``eff_retention_s``
    a ``urt.RetentionAges``.
    """
    pec: float = 0.0
    age_s: np.ndarray = None           # wall-clock data age
    refit_age_s: np.ndarray = None     # age at ReMAR's last refit
    layer_va_offset: int = 0           # this wordline's layer deviation, steps
    layer_vb_offset: int = 0
    eff_retention_s: object = None     # room-equivalent age; heatwatch needs it


def remar_refit_ages(age_s):
    """The age ReMAR reads each of a run's reads at: it re-fits every
    REMAR_CADENCE sampled reads and serves the fitted references in
    between, so read i is read at the age of read
    REMAR_CADENCE * (i // REMAR_CADENCE)."""
    return age_s[np.arange(len(age_s)) // REMAR_CADENCE * REMAR_CADENCE]


def _retention_steps(retention_model, pec, age_s):
    """``retention_refs`` at each read's age, floored at 1 s, as (S, 3)
    steps; each distinct age is evaluated once."""
    ages, back = np.unique(np.maximum(age_s, 1.0), return_inverse=True)
    return retention_refs(retention_model, pec, ages.tolist())[back]


def heatwatch_refs(calibration, ctx):
    """Read references from thermally-corrected state predictions.

    The URT pack's state models (``urt.state_models``) at the
    room-equivalent dwell; each reference sits where the two neighboring
    predicted densities cross. When the scales match this is exactly the
    midpoint of the two means.
    """
    models = state_models(calibration, ctx.pec, ctx.eff_retention_s)
    crossed = ~np.all(models.mu[:, :-1] < models.mu[:, 1:], axis=1)
    steps = np.empty((len(crossed), 3), dtype=int)
    if not crossed.all():
        steps[~crossed] = predict_vopt(models.take(~crossed))[0]
    if crossed.any():
        # extreme-wear extrapolation can cross the predicted means;
        # degrade to ordered midpoints rather than refuse to read
        mus = np.sort(models.mu[crossed], axis=1)
        va, vb, vc = np.rint((mus[:, :-1] + mus[:, 1:]) / 2).astype(int).T
        steps[crossed] = ordered_refs(np.maximum(va, 1), vb, vc)
    return steps


def policy_refs(policy, ctx, retention_model=None, calibration=None,
                true_models=None):
    """Dispatch a read-reference policy for a batch of reads."""
    if policy == "fixed":
        return DEFAULT_READ_REFS
    if policy == "retention_only":
        return _retention_steps(retention_model, ctx.pec, ctx.age_s)
    if policy == "lavar":
        va, vb, vc = _retention_steps(retention_model, ctx.pec, ctx.age_s).T
        return ordered_refs(va + ctx.layer_va_offset,
                            vb + ctx.layer_vb_offset, vc)
    if policy == "remar":
        return _retention_steps(retention_model, ctx.pec, ctx.refit_age_s)
    if policy == "heatwatch":
        return heatwatch_refs(calibration, ctx)
    if policy == "oracle":
        return sweep_vopt(true_models)
    raise ValueError(f"unknown policy {policy!r}")
