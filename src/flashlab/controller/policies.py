"""Read-reference policies.

Policies turn what the controller knows (wear, data age, thermal history,
layer) into the three read references.
"""

from dataclasses import dataclass

from ..grid import DEFAULT_READ_REFS, ReadRefs, CellState
from ..degradation import retention_refs
from ..models.applications import predict_vopt, sweep_vopt
from ..urt import state_models


@dataclass
class ReadContext:
    """Everything a read-reference policy may consult."""
    pec: float = 0.0
    age_s: float = 0.0                 # wall-clock data age
    layer_va_offset: int = 0           # this wordline's layer deviation, steps
    layer_vb_offset: int = 0
    eff_retention_s: float = None      # room-equivalent age; heatwatch needs it


class ReMARState:
    """Retention-model tracker that re-fits on a fixed sampling cadence.

    Reads are sampled; every `cadence` samples the tracked (pec, age)
    operating point is re-anchored and the predicted references cached.
    Between re-fits the cached references are served, so the policy trades
    staleness for sampling cost.
    """

    def __init__(self, retention_model, cadence=100):
        self.model = retention_model
        self.cadence = cadence
        self.samples = 0
        self._cached = None

    def refs(self, ctx):
        if self._cached is None or self.samples % self.cadence == 0:
            self._cached = retention_refs(self.model, ctx.pec, max(ctx.age_s, 1.0))
        self.samples += 1
        return self._cached


def heatwatch_refs(calibration, ctx):
    """Read references from thermally-corrected state predictions.

    The URT pack's state models (``urt.state_models``) at the
    room-equivalent dwell; each reference sits where the two neighboring
    predicted densities cross. When the scales match this is exactly the
    midpoint of the two means.
    """
    models = state_models(calibration, ctx.pec, ctx.eff_retention_s)
    try:
        refs, _ = predict_vopt(models)
        return refs
    except ValueError:
        # extreme-wear extrapolation can cross the predicted means;
        # degrade to ordered midpoints rather than refuse to read
        mus = sorted(models[st].mu for st in CellState)
        va, vb, vc = (int(round((lo + hi) / 2))
                      for lo, hi in zip(mus, mus[1:]))
        return ReadRefs.ordered(max(va, 1), vb, vc)


def policy_refs(policy, ctx, retention_model=None, calibration=None,
                remar_state=None, true_models=None):
    """Dispatch a read-reference policy for one read."""
    if policy == "fixed":
        return DEFAULT_READ_REFS
    if policy == "retention_only":
        return retention_refs(retention_model, ctx.pec, max(ctx.age_s, 1.0))
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

