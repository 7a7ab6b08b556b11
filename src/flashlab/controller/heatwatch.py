"""Thermal-aware read-policy experiment.

Replays a trace under a temperature profile, collecting for a spread of
its reads the wall-clock data age, the exact room-equivalent
(temperature-integrated) age, and the controller's logarithmic-history
estimate of it.
Each read policy is then scored analytically: the ground truth is the
URT pack's Gaussian state models (``urt.state_models``) at the exact
effective age, the policy picks references from what it is allowed to
know, and the resulting RBER decides how many P/E cycles the drive
survives before the worst read exceeds the ECC limit. HeatWatch reads at
the predicted Vopt of the same models at its estimated effective age;
ReMAR, like the retention-only policy, at the retention model's
references for each read's own wall-clock age; the fixed policy at
references swept once for a fresh chip (``fixed_refs``).

Scoring is batched. The lifetime search asks, at each P/E count it
tries, for the worst RBER over every sample; the samples are scored as
arrays, SCORE_CHUNK at a time: one GaussianBatch of truth models, one
set of per-read references, one ``estimate_rber``. A chunk's ages enter
the state models through ``urt.RetentionAges``, which takes their SRRM
log factors once, with ``math.log``, for every P/E count; numpy's log
can differ from it in the last bit, enough to move a rounded reference.
Every result is the one scoring the samples one at a time gives.
"""

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from ..models.applications import estimate_rber, sweep_vopt
from ..models.simplex import bisect_failure
from .. import urt as urt_mod
from ..trace import PAGE_SIZE, PAGE_WINDOW, page_windows
from ..urt import RetentionAges, state_models as truth_models
from .policies import ReadContext, policy_refs

HEATWATCH_POLICIES = ("fixed", "retention_only", "remar", "heatwatch", "oracle")

TICK_S = 60.0           # temperature sampling period
MIN_AGE_S = 600.0       # youngest data a sampled read may return
PEC_HI = 60000          # lifetime search ceiling, P/E cycles
PEC_HALVINGS = 11       # lifetime search: 60000 / 2**11 = 29.3 P/E resolution
SCORE_CHUNK = 256       # samples scored as one batch; bounds scoring memory
FIXED_REFS_AGE_S = 3600.0  # data age the fixed policy's references suit


@dataclass(frozen=True)
class ReadSample:
    age_s: float          # wall-clock time since the page was written
    eff_exact_s: float    # integral of af(T) over that interval
    eff_est_s: float      # controller's logarithmic-history estimate


@dataclass
class HeatwatchConfig:
    temp: urt_mod.TempTrace = field(default_factory=urt_mod.TempTrace)
    max_samples: int = 300


def eligible_reads(trace):
    """(now, age, written) float arrays of every eligible page read, in
    read order: each page of a read's span (``Trace.page_spans``) is one
    candidate, eligible if the page was written before, ``written``
    seconds into the trace, and its data is at least MIN_AGE_S old at
    ``now``; a write stamps every page of its span.

    The pages are walked in ``page_windows`` of PAGE_WINDOW pages. In a
    window, a stable sort by page lines up each page's accesses in order,
    and a running maximum of write positions finds the last write before
    each read. A read whose page the window has not yet written looks its
    page up in a dict of last write times, which takes each window's last
    writes in bulk once the window is done.
    """
    now_s = trace.timestamp_us / 1e6
    first, count = trace.page_spans(PAGE_SIZE)
    last_write = {}
    found = [np.zeros((3, 0))]
    for spans, pages in page_windows(first, count, PAGE_WINDOW):
        now, is_write = now_s[spans], trace.is_write[spans]
        order = np.argsort(pages, kind="stable")
        page, write = pages[order], is_write[order]
        k = np.arange(page.size)
        new = np.ones(page.size, dtype=bool)
        new[1:] = page[1:] != page[:-1]
        start = np.maximum.accumulate(np.where(new, k, 0))
        last = np.maximum.accumulate(np.where(write, k, -1))
        hit = last >= start  # the page was written earlier in the window
        written = np.where(hit, now[order[last]], np.nan)
        miss = np.flatnonzero(~hit & ~write)
        if miss.size and last_write:
            written[miss] = np.fromiter(
                map(last_write.get, page[miss].tolist(), repeat(np.nan)),
                float, miss.size)
        end = np.flatnonzero(np.append(new[1:], True))
        end = end[last[end] >= start[end]]
        last_write.update(zip(page[end].tolist(),
                              now[order[last[end]]].tolist()))
        reads = np.flatnonzero(~is_write)
        at = np.empty_like(written)
        at[order] = written
        row = np.array([now[reads], now[reads] - at[reads], at[reads]])
        found.append(row[:, row[1] >= MIN_AGE_S])
    return tuple(np.concatenate(found, axis=1))


def collect_samples(trace, cfg, params):
    """Per-read thermal bookkeeping for at most cfg.max_samples reads.

    Two passes. The first lists the ``eligible_reads``; eligibility never
    depends on the thermal estimate. When there are more than max_samples
    of them, an evenly spaced subset is kept. The second pass feeds an
    AccelLog the temperature ticks up to each kept read in turn and makes
    the estimate only there, querying the read's own window. The exact
    effective age integrates the acceleration factor over the temperature
    profile (trapezoidal, one point per tick), whose values
    ``urt.temp_generate`` gives for every tick in one call.
    """
    end_s = int(trace.timestamp_us[-1]) / 1e6 if len(trace) else 0.0
    n_ticks = int(end_s / TICK_S) + 2
    temps = urt_mod.temp_generate(cfg.temp, np.arange(n_ticks) * TICK_S)
    afs = urt_mod.af(urt_mod.celsius_to_kelvin(temps), params)
    # cumulative exact effective time at each tick boundary
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (afs[1:] + afs[:-1]) * TICK_S)])

    reads = eligible_reads(trace)
    if reads[0].size > cfg.max_samples:
        idx = np.linspace(0, reads[0].size - 1, cfg.max_samples).astype(int)
        reads = [column[idx] for column in reads]

    log = urt_mod.AccelLog()
    afs = afs.tolist()
    ticked = 0
    samples = []
    for now, age, written in zip(*(column.tolist() for column in reads)):
        while (ticked + 1) * TICK_S <= now:
            log.update(afs[ticked], TICK_S)
            ticked += 1
        eff_exact = float(cum[int(now / TICK_S)] - cum[int(written / TICK_S)])
        eff_est = log.effective_time(min(age, log.elapsed))
        samples.append(ReadSample(age, eff_exact, eff_est))
    return samples


@dataclass(frozen=True)
class SampleBatch:
    """Consecutive read samples as arrays, ready to score at any wear."""
    age_s: np.ndarray        # (S,) wall-clock ages
    exact: RetentionAges     # exact effective ages: the truth
    est: RetentionAges       # estimated effective ages: what HeatWatch knows


def sample_batches(samples, pack):
    """The samples in read order, SCORE_CHUNK to a batch."""
    batches = []
    for i in range(0, len(samples), SCORE_CHUNK):
        chunk = samples[i:i + SCORE_CHUNK]
        batches.append(SampleBatch(
            np.array([s.age_s for s in chunk]),
            RetentionAges(pack, [s.eff_exact_s for s in chunk]),
            RetentionAges(pack, [s.eff_est_s for s in chunk])))
    return batches


def fixed_refs(pack):
    """The fixed policy's (3,) references: the ``sweep_vopt`` optimum of
    the pack's state models at P/E 0 and FIXED_REFS_AGE_S, as a controller
    tuned once for a fresh chip would set them."""
    fresh = urt_mod.state_models(pack, 0.0,
                                 RetentionAges(pack, [FIXED_REFS_AGE_S]))
    return sweep_vopt(fresh)[0]


def policy_worst_rber(policy, batches, pack, retention_model, pec, fixed):
    """Worst per-sample RBER a policy suffers at a given wear level, over
    the ``sample_batches`` of the samples. ``fixed`` is the fixed policy's
    ``fixed_refs(pack)`` (None for another policy)."""
    worst = 0.0
    for batch in batches:
        truth = truth_models(pack, pec, batch.exact)
        ctx = ReadContext(pec=pec, age_s=batch.age_s,
                          eff_retention_s=batch.est)
        refs = policy_refs(policy, ctx, retention_model=retention_model,
                           calibration=pack, true_models=truth,
                           fixed_refs=fixed)
        worst = max(worst, float(np.max(estimate_rber(truth, refs).total)))
    return worst


def policy_lifetime_pec(policy, samples, pack, retention_model, ecc_limit):
    """Largest P/E count at which every sampled read still decodes."""
    batches = sample_batches(samples, pack)
    # the fixed policy's references do not depend on the wear probed
    fixed = fixed_refs(pack) if policy == "fixed" else None

    def fails(pec):
        return policy_worst_rber(policy, batches, pack, retention_model,
                                 pec, fixed) > ecc_limit

    return bisect_failure(fails, float(PEC_HI), PEC_HALVINGS)[0]


def run_experiment(trace, pack, retention_model, ecc_limit, cfg):
    samples = collect_samples(trace, cfg, pack)
    if not samples:
        raise ValueError("trace produced no read samples")
    return {p: policy_lifetime_pec(p, samples, pack, retention_model,
                                   ecc_limit)
            for p in HEATWATCH_POLICIES}
