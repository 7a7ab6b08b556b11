"""Read-reference policies.

Policies turn what the controller knows (wear, data age, thermal history)
into the three read references for a batch of reads at one wear level:
an (S, 3) array of steps, a row per read, or (3,) steps that serve them
all. A computed voltage becomes a step by ``grid.round_to_step``. A policy
keeps no state between batches, and none reads a wordline's layer (LaVAR
waits on ROADMAP Direction 10).
"""

from dataclasses import dataclass

import numpy as np

from ..degradation import retention_refs
from ..models.applications import predict_vopt, sweep_vopt
from ..urt import state_models


@dataclass
class ReadContext:
    """Everything a read-reference policy may consult about S reads.

    ``age_s`` is an (S,) array and ``eff_retention_s`` a
    ``urt.RetentionAges``.
    """
    pec: float = 0.0
    age_s: np.ndarray = None           # wall-clock data age
    eff_retention_s: object = None     # room-equivalent age; heatwatch needs it


def _retention_steps(retention_model, pec, age_s):
    """``retention_refs`` at each read's age, floored at 1 s, as (S, 3)
    steps; each distinct age is evaluated once."""
    ages, back = np.unique(np.maximum(age_s, 1.0), return_inverse=True)
    return retention_refs(retention_model, pec, ages.tolist())[back]


def heatwatch_refs(calibration, ctx):
    """Read references from thermally-corrected state predictions: the
    ``predict_vopt`` of the URT pack's state models (``urt.state_models``)
    at the room-equivalent dwell. When the scales match, a reference is
    the midpoint of the two means."""
    return predict_vopt(state_models(calibration, ctx.pec, ctx.eff_retention_s))


def policy_refs(policy, ctx, retention_model=None, calibration=None,
                true_models=None, fixed_refs=None):
    """Dispatch a read-reference policy for a batch of reads. ``fixed``
    reads at the ``fixed_refs`` it is given; ReMAR reads each read at the
    retention model's references for its own age, as ``retention_only``
    does."""
    if policy == "fixed":
        return fixed_refs
    if policy in ("retention_only", "remar"):
        return _retention_steps(retention_model, ctx.pec, ctx.age_s)
    if policy == "heatwatch":
        return heatwatch_refs(calibration, ctx)
    if policy == "oracle":
        return sweep_vopt(true_models)
    raise ValueError(f"unknown policy {policy!r}")
