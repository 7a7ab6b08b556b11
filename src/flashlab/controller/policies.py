"""Read-reference policies and the staged read-recovery ladder.

Policies turn what the controller knows (wear, data age, thermal history,
layer) into the three read references. The recovery ladder escalates from
the policy's guess through a retry sweep, neighbor-conditioned re-reads,
and finally superpage parity.
"""

from dataclasses import dataclass

import numpy as np

from ..grid import DEFAULT_READ_REFS, ReadRefs, CellState
from ..channel import measure_rber, decode_states, MSB_OF_STATE, LSB_OF_STATE
from ..degradation import retention_refs
from ..models.applications import predict_vopt, sweep_vopt
from ..models.cdf import gaussian_states
from .. import urt as urt_mod

POLICIES = ("fixed", "retention_only", "lavar", "remar", "heatwatch", "oracle")


@dataclass
class ReadContext:
    """Everything a read-reference policy may consult."""
    pec: float = 0.0
    age_s: float = 0.0                 # wall-clock data age
    layer_va_offset: int = 0           # this wordline's layer deviation, steps
    layer_vb_offset: int = 0
    eff_retention_s: float = None      # room-equivalent dwell (thermal history)
    eff_read_s: float = 0.0            # room-equivalent read-disturb exposure
    temp_program_c: float = 25.0


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


def heatwatch_refs(calibration, ctx, grid=None):
    """Read references from thermally-corrected state predictions.

    The URT calculator predicts each state's location and scale at the
    room-equivalent dwell and read-disturb times; each reference sits
    where the two neighboring predicted densities cross. When the scales
    match this is exactly the midpoint of the two means.
    """
    eff_ret = max(ctx.eff_retention_s if ctx.eff_retention_s is not None
                  else ctx.age_s, 1.0)
    tp = urt_mod.celsius_to_kelvin(ctx.temp_program_c)
    models = gaussian_states(
        lambda row: urt_mod.urt_predict(calibration, row, ctx.pec, tp,
                                        eff_ret, ctx.eff_read_s))
    try:
        refs, _ = predict_vopt(models, grid=grid)
        return refs
    except ValueError:
        # extreme-wear extrapolation can cross the predicted means;
        # degrade to ordered midpoints rather than refuse to read
        mus = sorted(models[st].mu for st in CellState)
        va, vb, vc = (int(round((lo + hi) / 2))
                      for lo, hi in zip(mus, mus[1:]))
        return ReadRefs.ordered(max(va, 1), vb, vc)


def policy_refs(policy, ctx, retention_model=None, calibration=None,
                remar_state=None, true_models=None, grid=None):
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
        return heatwatch_refs(calibration, ctx, grid=grid)
    if policy == "oracle":
        return sweep_vopt(true_models, grid)
    raise ValueError(f"unknown policy {policy!r}")


# --- read recovery ladder ------------------------------------------------

RETRY_OFFSETS = ((-1, -1, -1), (1, 1, 1), (-2, -2, -2), (2, 2, 2),
                 (0, -1, 0), (0, 1, 0), (0, -2, 0), (0, 2, 0),
                 (-2, 0, 2), (2, 0, -2))  # 10 attempts, widening


@dataclass
class DecodeOutcome:
    stage: str            # policy | retry | nac | parity | fail
    refs: ReadRefs
    errors: int
    reads: int            # comparator passes spent


def _shift_refs(refs, d):
    return ReadRefs.ordered(refs.va + d[0], refs.vb + d[1], refs.vc + d[2])


def _bit_errors(state, refs):
    rep = measure_rber(state, refs)
    return int(round(rep.total * 2 * state.n_cells))


def read_flow(state, refs, ecc_budget_bits, neighbor_window=3,
              siblings_decode=None):
    """Escalating decode of one sampled page population.

    1. decode at the policy's references;
    2. retry sweep: up to 10 re-reads within +/-2 steps;
    3. neighbor-conditioned re-read: each neighbor-state group gets its
       own small reference offset (requires the population to carry
       wordline-neighbor states);
    4. superpage parity: succeeds only if every sibling page decoded.
    """
    reads = 1
    errs = _bit_errors(state, refs)
    if errs <= ecc_budget_bits:
        return DecodeOutcome("policy", refs, errs, reads)

    best_refs, best = refs, errs
    for d in RETRY_OFFSETS:
        cand = _shift_refs(refs, d)
        reads += 1
        e = _bit_errors(state, cand)
        if e < best:
            best_refs, best = cand, e
        if best <= ecc_budget_bits:
            return DecodeOutcome("retry", best_refs, best, reads)

    if state.wl_neighbor_state is not None and np.any(state.wl_neighbor_state >= 0):
        errs_nac, reads_nac = _nac_decode(state, best_refs, neighbor_window)
        reads += reads_nac
        if errs_nac <= ecc_budget_bits:
            return DecodeOutcome("nac", best_refs, errs_nac, reads)
        best = min(best, errs_nac)

    if siblings_decode is not None and all(siblings_decode):
        return DecodeOutcome("parity", best_refs, best, reads)
    return DecodeOutcome("fail", best_refs, best, reads)


def _nac_decode(state, refs, window):
    """Re-read each neighbor-state group at its own best offset."""
    total_errs = 0
    reads = 0
    for s in np.unique(state.wl_neighbor_state):
        mask = state.wl_neighbor_state == s
        sub_true = state.true_state[mask]
        best = None
        for d in range(-window, window + 1):
            cand = _shift_refs(refs, (d, d, d))
            decoded = decode_states(_subset(state, mask), cand)
            reads += 1
            e = int(np.sum(MSB_OF_STATE[decoded] != MSB_OF_STATE[sub_true])
                    + np.sum(LSB_OF_STATE[decoded] != LSB_OF_STATE[sub_true]))
            best = e if best is None else min(best, e)
        total_errs += best
    return total_errs, reads


def _subset(state, mask):
    import dataclasses
    return dataclasses.replace(
        state,
        true_state=state.true_state[mask],
        shape_state=state.shape_state[mask],
        vth=state.vth[mask],
        layer=state.layer[mask] if state.layer is not None else None,
        wl_neighbor_state=(state.wl_neighbor_state[mask]
                           if state.wl_neighbor_state is not None else None),
    )
