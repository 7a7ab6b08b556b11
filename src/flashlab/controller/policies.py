"""Read-reference policies.

Policies turn what the controller knows (wear, data age, thermal history,
layer) into the three read references: for one read a ReadRefs, and for
a batch of reads at one wear level an (S, 3) array of steps, a row per
read, or one ReadRefs that serves them all.
"""

from dataclasses import dataclass

import numpy as np

from ..grid import DEFAULT_READ_REFS, ReadRefs, ordered_refs, ref_steps
from ..degradation import retention_refs
from ..models.applications import predict_vopt, sweep_vopt
from ..urt import RetentionAges, state_models

REMAR_CADENCE = 100  # sampled reads between ReMAR re-fits


@dataclass
class ReadContext:
    """Everything a read-reference policy may consult.

    For a batch of reads, ``age_s`` is an (S,) array and
    ``eff_retention_s`` a ``urt.RetentionAges``.
    """
    pec: float = 0.0
    age_s: float = 0.0                 # wall-clock data age
    layer_va_offset: int = 0           # this wordline's layer deviation, steps
    layer_vb_offset: int = 0
    eff_retention_s: float = None      # room-equivalent age; heatwatch needs it


def _per_read(ctx, refs_at):
    """``refs_at(age)`` at each read's wall-clock age, floored at 1 s, in
    read order: a ReadRefs for one read, (S, 3) steps for a batch."""
    if np.ndim(ctx.age_s) == 0:
        return refs_at(max(ctx.age_s, 1.0))
    return ref_steps([refs_at(max(age, 1.0)) for age in ctx.age_s.tolist()])


class ReMARState:
    """Retention-model tracker that re-fits on a fixed sampling cadence.

    Reads are sampled; every `REMAR_CADENCE` samples the tracked (pec, age)
    operating point is re-anchored and the predicted references cached.
    Between re-fits the cached references are served, so the policy trades
    staleness for sampling cost: read i of a run gets the references
    fitted at read REMAR_CADENCE * (i // REMAR_CADENCE), however its reads
    are batched.
    """

    def __init__(self, retention_model):
        self.model = retention_model
        self.samples = 0
        self._cached = None

    def refs(self, ctx):
        return _per_read(ctx, lambda age_s: self._next(ctx.pec, age_s))

    def _next(self, pec, age_s):
        if self._cached is None or self.samples % REMAR_CADENCE == 0:
            self._cached = retention_refs(self.model, pec, age_s)
        self.samples += 1
        return self._cached


def heatwatch_refs(calibration, ctx):
    """Read references from thermally-corrected state predictions.

    The URT pack's state models (``urt.state_models``) at the
    room-equivalent dwell; each reference sits where the two neighboring
    predicted densities cross. When the scales match this is exactly the
    midpoint of the two means. One read is scored as a batch of one.
    """
    ages = ctx.eff_retention_s
    one = not isinstance(ages, RetentionAges)
    if one:
        ages = RetentionAges(calibration, [ages])
    models = state_models(calibration, ctx.pec, ages)
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
    return ReadRefs(*steps[0].tolist()) if one else steps


def policy_refs(policy, ctx, retention_model=None, calibration=None,
                remar_state=None, true_models=None):
    """Dispatch a read-reference policy for one read, or for a batch of
    reads (every policy but lavar, which reads one wordline's layer)."""
    if policy == "fixed":
        return DEFAULT_READ_REFS
    if policy == "retention_only":
        return _per_read(ctx, lambda age_s: retention_refs(
            retention_model, ctx.pec, age_s))
    if policy == "lavar":
        base = retention_refs(retention_model, ctx.pec, max(ctx.age_s, 1.0))
        return ReadRefs.ordered(base.va + ctx.layer_va_offset,
                                base.vb + ctx.layer_vb_offset, base.vc)
    if policy == "remar":
        return remar_state.refs(ctx)
    if policy == "heatwatch":
        return heatwatch_refs(calibration, ctx)
    if policy == "oracle":
        return sweep_vopt(true_models)
    raise ValueError(f"unknown policy {policy!r}")
