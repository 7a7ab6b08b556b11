"""Code only tests run: references the library is checked against, and
library code parked until a workflow runs it. No CLI workflow runs any of
it.

- A Monte Carlo channel: ground-truth cells (intended state and a
  continuous threshold voltage) sampled from a 4-state model, decoded at
  arbitrary read references, scored against ground truth and binned into
  the 304-bin histograms ``fit`` reads. The analytic RBER and the fits are
  checked against it. Continuous vth is kept although hardware observes
  only bins, so a layer profile can act in voltage space before
  quantization; ER-state vth may be negative (such cells land in bin 0).
  Its stock read references are the baseline that predicted references
  are checked to beat.
- A seeded, skewed synthetic trace, the input of the replay, HeatWatch
  and CLI tests, and the Trace of a list of rows.
- The per-page trace replay, in which a read event writes nothing, which
  ``replay``'s windows of host writes are checked against.
- The heatwatch experiment's temperature noise, drawn one tick at a time
  from one ``default_rng(seed)``, and its per-page walk for eligible reads
  over a dict of write times, which ``urt.temp_generate`` and
  ``heatwatch.eligible_reads`` are checked against.
- The closed-form write amplification of a FIFO cleaner under uniform
  random writes, which brackets what greedy GC measures.
- The per-page host path through numpy scalar indexing: ``host_write``
  (one routed program step, then WARM's tune and rotation checks) and
  ``host_read`` as they were before the windowed loop and the scalar
  memoryviews, and ``WarmManager.route`` before the views. The windowed
  ``Drive.host_writes``, the batched migration and the view-based path
  are checked against it.
- The reduced-parameter constraints of a 4-state model (tied ER and P3
  tails, no misprogram mass on P2 and P3), which the static fit's
  parametrization holds by construction; tests build models with them.
- Readers of ``fit``'s model.json and dynamic.json, which pin their
  format.
- The builder of a multi-rate ECC ladder for ``multirate_lifetime``.
- The packing of every free parameter of a 4-state model into one vector,
  which the static fit's former single joint polish ran its simplex over;
  the pair polishes are checked against that polish.
- Parked library code, not a reference the library is checked against,
  tested here until a workflow runs it: the URT fits and online refit
  (ROADMAP Direction 9), layer variation and LI-RAID worst-group scoring
  (Direction 10), and any-family Vopt and lifetime (Direction 15).
"""

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import lambertw

from flashlab.grid import (BOUNDARIES, LSB_OF_STATE, MISPROGRAM_TARGET,
                           MSB_OF_STATE, N_BINS, STEPS, CellState,
                           ordered_refs, round_to_step)
from flashlab.channel import BinHistogram
from flashlab.controller.ftl import Drive
from flashlab.controller.geometry import SECONDS_PER_DAY
from flashlab.controller.heatwatch import MIN_AGE_S, PAGE_SIZE
from flashlab.controller.lifetime import REFRESH_CHECK_S, series_rber
from flashlab.controller.refresh import run_refresh
from flashlab.controller import warm as warm_mod
from flashlab.controller.warm import COLD, HOT, WarmManager
from flashlab.models.applications import estimate_rber
from flashlab.models.cdf import StateModel, state_cdf
from flashlab.models import fitting
from flashlab.models.fitting import PowerLawParams
from flashlab.models.simplex import bisect_failure, nelder_mead
from flashlab.models.tables import default_tables
from flashlab.raid_ecc import BLANK, ecc_failure_rate, lb_fail, parity_fail
from flashlab.trace import SECTOR_BYTES, Trace
from flashlab.urt import KB_EV_PER_K, urt_predict


# --- Monte Carlo channel ------------------------------------------------


def bin_of(vth):
    """Bin index 0..303 for a threshold voltage: bin k iff V_k <= vth < V_{k+1}."""
    return np.searchsorted(BOUNDARIES, np.asarray(vth, dtype=float), side="right")


# Stock read references of the modeled chip, as steps; vc lies past the
# last binning step. Read-only.
DEFAULT_READ_REFS = np.array([50, 190, 330])
DEFAULT_READ_REFS.flags.writeable = False


def classify_regions(vth, refs):
    """Region decode: 0=ER,1=P1,2=P2,3=P3 given vth < vref reads 1."""
    vth = np.asarray(vth, dtype=float)
    va, vb, vc = refs
    return (vth >= va).astype(np.int8) + (vth >= vb) + (vth >= vc)


def t_quantile(u, nu):
    """Inverse of the tables' Student's t CDF at ``nu`` degrees of freedom."""
    tables = default_tables()
    return np.interp(u, tables._t_table(nu), tables.t_z_grid)


def vth_offset(profile, layers, states):
    """Per-cell voltage offset realizing a LayerProfile's per-layer Va/Vb
    droop.

    State offsets solve (ER+P1)/2 = va_off, (P1+P2)/2 = vb_off,
    (P2+P3)/2 = 0 with P3 pinned at 0, so the optimal Va/Vb track the
    profile while the optimal Vc stays put.
    """
    va = profile.va_offset[layers]
    vb = profile.vb_offset[layers]
    per_state = np.stack([2.0 * (va - vb), 2.0 * vb,
                          np.zeros_like(va), np.zeros_like(va)])
    return per_state[states, np.arange(len(states))]


@dataclass
class ChannelState:
    """Ground truth for a population of cells.

    true_state is the intended state; shape_state is the state whose
    distribution the cell's vth was actually drawn from (differs from
    true_state only for misprogrammed cells). layer is each cell's layer
    index.
    """

    true_state: np.ndarray
    shape_state: np.ndarray
    vth: np.ndarray
    layer: np.ndarray
    seed: int = 0

    @property
    def n_cells(self):
        return self.vth.size


@dataclass
class RBERReport:
    total: float
    msb: float
    lsb: float
    n_cells: int = 0


def _sample_component(model, n, rng):
    """Draw n threshold voltages from one pure state distribution."""
    if model.family == "gaussian":
        return rng.normal(model.mu, model.sigma, n)
    if model.family == "student_t":
        u = rng.random(n)
        z = np.where(u <= 0.5, t_quantile(u, model.beta), t_quantile(u, model.alpha))
        return model.mu + model.sigma * z
    # normal_laplace: Gaussian core plus an asymmetric Laplace component.
    base = rng.normal(model.mu, model.sigma, n)
    right = rng.random(n) < model.beta / (model.alpha + model.beta)
    w = np.where(
        right,
        rng.exponential(1.0 / model.alpha, n),
        -rng.exponential(1.0 / model.beta, n),
    )
    return base + w


def sample_page(models, n_cells, layer_profile=None, seed=0):
    """Sample a cell population from a 4-state model.

    Intended states are assigned in equal quarters. Each ER/P1 cell is
    misprogrammed into its target state (ER->P3, P1->P2) with probability
    lambda, in which case its vth comes from the target's distribution.
    """
    if n_cells <= 0:
        raise ValueError("n_cells must be positive")
    rng = np.random.default_rng(seed)

    true_state = (np.arange(n_cells) % 4).astype(np.int8)
    shape_state = true_state.copy()
    for st, tgt in MISPROGRAM_TARGET.items():
        lam = models[st].lam
        if lam > 0.0:
            idx = np.flatnonzero(true_state == st)
            flip = rng.random(idx.size) < lam
            shape_state[idx[flip]] = tgt

    vth = np.empty(n_cells)
    for st in CellState:
        idx = np.flatnonzero(shape_state == st)
        if idx.size:
            vth[idx] = _sample_component(models[st], idx.size, rng)

    layer = rng.integers(0, 101, n_cells).astype(np.int16)
    if layer_profile is not None:
        vth += vth_offset(layer_profile, layer, shape_state)

    return ChannelState(true_state, shape_state, vth, layer, seed)


def measure_rber(state, refs):
    """Compare the states decoded at refs against ground truth."""
    decoded = classify_regions(state.vth, refs)
    true = state.true_state
    n = state.n_cells
    msb_err = int(np.sum(MSB_OF_STATE[decoded] != MSB_OF_STATE[true]))
    lsb_err = int(np.sum(LSB_OF_STATE[decoded] != LSB_OF_STATE[true]))
    return RBERReport(
        total=(msb_err + lsb_err) / (2 * n),
        msb=msb_err / n,
        lsb=lsb_err / n,
        n_cells=n,
    )


def bin_cells(state):
    """Histogram the population into the 304 voltage bins, per state."""
    bins = bin_of(state.vth)
    counts = np.zeros((4, N_BINS), dtype=np.int64)
    for st in range(4):
        sel = state.true_state == st
        if sel.any():
            counts[st] = np.bincount(bins[sel], minlength=N_BINS)
    return BinHistogram(counts=counts)


def export_histogram_csv(hist, path):
    """Write a histogram in the CSV format ``load_histogram_csv`` reads."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state", "bin", "count"])
        for st in range(4):
            for b in range(N_BINS):
                w.writerow([CellState(st).name, b, int(hist.counts[st, b])])


# --- traces ---------------------------------------------------------------


def trace_of(rows):
    """The Trace of (timestamp_us, is_write, lba, size_bytes) rows."""
    return Trace(*([row[i] for row in rows] for i in range(4)))


def synth_hot(duration_s, rate_per_s, hot_fraction, hot_share,
              footprint_bytes, seed, page_size=8192, read_fraction=0.0,
              dist="twolevel"):
    """Synthesize a skewed write trace.

    "twolevel": a hot_fraction slice of the page footprint receives a
    hot_share fraction of all writes, uniform within each slice. "zipf":
    page popularity follows a Zipf(1.2) law over a seeded permutation.
    Timestamps are evenly spaced; all accesses are one page.
    """
    if not (0.0 < hot_fraction < 1.0 and 0.0 <= hot_share <= 1.0):
        raise ValueError("hot_fraction in (0,1), hot_share in [0,1]")
    n_events = int(duration_s * rate_per_s)
    n_pages = max(footprint_bytes // page_size, 1)
    rng = np.random.default_rng(seed)
    spacing_us = 1e6 / rate_per_s
    times = (np.arange(n_events) * spacing_us).astype(np.int64)

    if dist == "twolevel":
        n_hot = max(int(n_pages * hot_fraction), 1)
        is_hot = rng.random(n_events) < hot_share
        pages = np.where(
            is_hot,
            rng.integers(0, n_hot, n_events),
            n_hot + rng.integers(0, max(n_pages - n_hot, 1), n_events),
        )
    elif dist == "zipf":
        ranks = np.minimum(rng.zipf(1.2, n_events) - 1, n_pages - 1)
        pages = rng.permutation(n_pages)[ranks]
    else:
        raise ValueError(f"unknown dist {dist!r}")

    is_read = rng.random(n_events) < read_fraction
    sectors_per_page = page_size // SECTOR_BYTES
    return Trace(times, ~is_read, pages * sectors_per_page,
                 np.full(n_events, page_size))


def reference_temp_generate(cfg, t_seconds):
    """A TempTrace's temperature at each of a run's tick times (a 1-D
    array), its noise drawn one normal at a time, tick by tick, from one
    ``default_rng(seed)``. The sine is numpy's, taken on the whole array
    as ``urt.temp_generate`` takes it: ``math.sin`` can differ from it in
    the last bit."""
    t = np.asarray(t_seconds, dtype=float)
    temps = cfg.mean_c + cfg.amplitude_c * np.sin(2.0 * np.pi * t / cfg.period_s)
    if cfg.noise_sigma_c > 0:
        rng = np.random.default_rng(cfg.seed)
        temps = temps + cfg.noise_sigma_c * np.array(
            [rng.standard_normal() for _ in range(t.size)])
    return temps


def reference_eligible_reads(trace):
    """(now, age, written) of every eligible page read, page by page over
    a dict of each page's last write time."""
    write_time = {}
    reads = []
    first, count = trace.page_spans(PAGE_SIZE)
    for ts, is_write, page, n in zip(trace.timestamp_us.tolist(),
                                     trace.is_write.tolist(),
                                     first.tolist(), count.tolist()):
        now = ts / 1e6
        for p in range(page, page + n):
            if is_write:
                write_time[p] = now
            elif p in write_time:
                age = now - write_time[p]
                if age >= MIN_AGE_S:
                    reads.append((now, age, write_time[p]))
    return reads


def reference_replay(trace, drive, cfg):
    """The replay that preceded windows of ``Drive.host_writes``: before
    each event every due refresh check, then every due day close, then,
    for a write, one host_write per page of its span, on a
    NumpyScalarDrive (the per-page path). A read event writes nothing."""
    assert isinstance(drive, NumpyScalarDrive)
    first, count = trace.page_spans(PAGE_SIZE)
    n_logical = cfg.geometry.logical_pages
    series = []
    last = dict.fromkeys(("host", "gc", "refresh"), 0)

    def close_day():
        avg, worst = series_rber(drive, cfg.refresh.retention_s)
        series.append((len(series), avg, worst,
                       *(drive.writes[k] - last[k] for k in last),
                       float(drive.pec.mean())))
        last.update((k, drive.writes[k]) for k in last)

    next_refresh = REFRESH_CHECK_S
    next_day = SECONDS_PER_DAY
    for ts, is_write, page, n in zip(*(col.tolist() for col in (
            trace.timestamp_us, trace.is_write, first, count))):
        now = ts / 1e6
        while now >= next_refresh:
            run_refresh(drive, next_refresh, cfg.refresh)
            next_refresh += REFRESH_CHECK_S
        while now >= next_day:
            close_day()
            next_day += SECONDS_PER_DAY
        if is_write:
            for p in range(page, page + n):
                drive.host_write(p % n_logical, now)
    close_day()
    return series


def fifo_wa(alpha):
    """Write amplification 1/(1 - u) of a FIFO cleaner under uniform random
    writes, with alpha physical pages per logical page (alpha > 1): u, the
    live fraction of a cleaned block, solves u = exp(-alpha (1 - u))
    (Hu et al., SYSTOR 2009; Desnoyers, SYSTOR 2012). Its root below 1 is
    -W0(-alpha exp(-alpha)) / alpha."""
    u = -lambertw(-alpha * math.exp(-alpha)).real / alpha
    return 1.0 / (1.0 - u)


class NumpyScalarDrive(Drive):
    """A Drive that writes and reads one page per call, indexing its numpy
    arrays one scalar at a time, as it did before the windowed loop and
    the scalar memoryviews."""

    def host_write(self, lba_page, now):
        self.now = now
        warm = self.warm
        if warm is None:
            self._program(lba_page, COLD, "host")
            return
        self._program(lba_page, warm.route(self, lba_page), "host")
        self.after_host_write(now)
        if self.rotation_due():
            self.rotate_hot_pool()

    def after_host_write(self, now):
        """Count the write into WARM's epoch; tune after a full
        logical-drive write."""
        warm = self.warm
        warm.epoch_host_pages += 1
        if warm.epoch_host_pages >= warm.geom.logical_pages:
            warm.tune(self, now)

    def rotation_due(self):
        warm = self.warm
        return (warm.hot_erases_since_rotation
                >= warm_mod.ROTATION_PEC * warm.hot_budget_blocks)

    def host_read(self, lba_page, now):
        self.now = now
        ppn = self.map.item(lba_page)
        if ppn < 0:
            return None
        blk = ppn // self.pages_per_block
        self.reads += 1
        return ppn, float(now - self.program_epoch[blk])

    def _program(self, lba_page, pool, kind):
        """Write one page at the pool's next free page."""
        ppb = self.pages_per_block
        blk = self.open_block[pool]
        if blk is None:
            blk = self._allocate(pool, kind)
        ptr = self.write_ptr.item(blk)
        ppn = blk * ppb + ptr
        self.write_ptr[blk] = ptr + 1
        if ptr + 1 == ppb:
            self._close(blk, pool)
        old = self.map.item(lba_page)
        if old >= 0:
            self.valid_count[old // ppb] -= 1
            self.rmap[old] = -1
        self.map[lba_page] = ppn
        self.rmap[ppn] = lba_page
        self.valid_count[blk] += 1
        self.writes[kind] += 1
        self.pool_writes[pool] += 1
        if kind == "refresh":
            self.refresh_writes_by_pool[pool] += 1


class NumpyScalarWarm(WarmManager):
    """A WarmManager whose routing reads the drive's numpy arrays, as it
    did before the scalar memoryviews."""

    def route(self, drive, lba):
        ppn = drive.map.item(lba)
        if ppn >= 0:
            blk = ppn // drive.pages_per_block
            if drive.pool.item(blk) == HOT:
                self.hot_hits += 1
                self.hot_writes += 1
                return HOT
            if blk in self._cooldown:
                self.promotions += 1
                self.hot_writes += 1
                return HOT
        self.cold_writes += 1
        return COLD


# --- 4-state models -----------------------------------------------------------


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


# --- fit's JSON artifacts ---------------------------------------------------


def models_from_dict(d):
    """The state models of a ``models_to_dict`` document."""
    family = d["family"]
    models = {}
    for st in CellState:
        s = d["states"][st.name]
        models[st] = StateModel(family, s["mu"], s["sigma"],
                                alpha=s.get("alpha"), beta=s.get("beta"),
                                lam=s.get("lambda", 0.0))
    return enforce_constraints(models)


def dynamic_from_dict(d):
    """The power-law parameters of a ``dynamic_to_dict`` document."""
    out = {}
    for key, rec in d.items():
        st, name = key.split(".")
        out[(st, name)] = PowerLawParams(rec["a"], rec["b"], rec["c"])
    return out


def load_models_json(path):
    with open(path) as fh:
        return models_from_dict(json.load(fh))


# --- multi-rate ECC -----------------------------------------------------------


def multirate_schedule(engines, rber_of_pec, target_uber, pec_step=100,
                       pec_max=200000):
    """Switching thresholds for a ladder of ECC engines.

    Engine i hands over when its codeword failure rate at the drive's
    RBER(pec) exceeds target_uber. engines: (EccConfig, op, wa) tuples
    ordered weakest code first. Returns (pec_increment, op, wa, rate)
    entries suitable for multirate_lifetime.
    """
    schedule = []
    start = 0
    for ecc, op, wa in engines:
        pec = start
        while pec <= pec_max and ecc_failure_rate(ecc, rber_of_pec(pec)) <= target_uber:
            pec += pec_step
        if pec > start:
            schedule.append((pec - start, op, wa, ecc.coding_rate))
            start = pec
        if pec > pec_max:
            break
    return schedule


def pack_all(models, family):
    """Every free parameter of a 4-state model, states in fit order."""
    vec = []
    for st in fitting._STAGE_ORDER:
        vec.extend(fitting._pack_state(models[st], family, st))
    return np.array(vec)


def unpack_all(vec, family):
    """The 4-state model ``pack_all`` packed into ``vec``."""
    models = {}
    i = 0
    for st in fitting._STAGE_ORDER:
        n = len(fitting._state_param_names(family, st))
        models[st] = fitting._unpack_state(vec[i : i + n], family, st)
        i += n
    return models


# --- parked library code ------------------------------------------------------

# URT calibration from characterization and its online refit (Direction 9)


def fit_ea(samples, t_ref, temp_ref):
    """Activation energy from equivalent-time observations.

    samples: (t1, T1) pairs, each equivalent to t_ref seconds at temp_ref.
    Least squares through the origin of ln(t1/t_ref) vs (1/T1 - 1/t_ref's
    temperature); a single pair reduces to the closed-form inversion.
    """
    xs, ys = [], []
    for t1, temp1 in samples:
        if abs(temp1 - temp_ref) < 1e-9:
            continue
        xs.append(1.0 / temp1 - 1.0 / temp_ref)
        ys.append(math.log(t1 / t_ref))
    if not xs:
        raise ValueError("need at least one sample at a distinct temperature")
    xs, ys = np.asarray(xs), np.asarray(ys)
    return KB_EV_PER_K * float(np.dot(xs, ys) / np.dot(xs, xs))


def fit_pvm(rows):
    """Least-squares (A,B,C,D) from (t_p, pec, y) rows."""
    rows = np.asarray(rows, dtype=float)
    tp, pec, y = rows[:, 0], rows[:, 1], rows[:, 2]
    design = np.column_stack([tp * pec, tp, pec, np.ones_like(tp)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return tuple(float(v) for v in coef)


def fit_srrm(rows, init=(0.1, 1e-3, 100.0, 1.0)):
    """Fit (a, b, c, t0) to (t_er, t_ed, pec, y) rows by MSE."""
    rows = np.asarray(rows, dtype=float)
    t_er, t_ed, pec, y = rows.T

    def unpack(v):
        return math.exp(v[0]), v[1], v[2], math.exp(v[3])

    def mse(v):
        a, b, c, t0 = unpack(v)
        pred = b * (pec + c) * np.log(1.0 + t_er / (t0 + a * t_ed))
        return float(np.mean((pred - y) ** 2))

    x0 = np.array([math.log(init[0]), init[1], init[2], math.log(init[3])])
    x, _, _, _ = nelder_mead(mse, x0, tol=1e-12, max_iter=4000)
    x, _, _, _ = nelder_mead(mse, x, tol=1e-12, max_iter=4000)
    return unpack(x)


def fine_tune(params, observations):
    """Online recalibration from sampled wordline observations.

    observations: rows (output, pec, t_p, t_r_eff, t_d_eff, y_true).
    Refits each output's PVM intercept D by least squares on the
    residuals (the cheap, always-well-posed correction).
    """
    residuals = {}
    for out, pec, t_p, t_r, t_d, y in observations:
        residuals.setdefault(out, []).append(
            y - urt_predict(params, out, pec, t_p, t_r, t_d))
    pvm = dict(params.pvm)
    for out, res in residuals.items():
        a, b, c, d = pvm[out]
        pvm[out] = (a, b, c, d + float(np.mean(res)))
    return replace(params, pvm=pvm)


# 3D-NAND layer variation and LI-RAID worst-group scoring (Direction 10)


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


def group_pages(layout):
    """{group id: its (chip, wordline, page) keys} of a RaidLayout."""
    groups = {}
    for key, g in layout.assignment.items():
        if g != BLANK:
            groups.setdefault(g, []).append(key)
    return groups


def layout_worst_group(layout, rber, parity=None, ecc=None):
    """Weakest parity group of a layout.

    rber: array (chips, wordlines, 2) of per-page RBER. Returns
    (group_id, mean_rber, p_parity) with p_parity None unless both parity
    and ecc configs are supplied.
    """
    rber = np.asarray(rber, dtype=float)
    worst_gid, worst_mean = None, -1.0
    for gid, pages in sorted(group_pages(layout).items()):
        mean = float(np.mean([rber[key] for key in pages]))
        if mean > worst_mean:
            worst_gid, worst_mean = gid, mean
    p_parity = None
    if parity is not None and ecc is not None:
        p_parity = parity_fail(parity, lb_fail(parity, ecc_failure_rate(ecc, worst_mean)))
    return worst_gid, worst_mean, p_parity


# Vopt of any model family and a dynamic model's lifetime (Direction 15)

_DENSITY_H = 0.25  # half-width of _density's central difference
LIFETIME_PEC_MAX = 200000.0  # estimate_lifetime's search ceiling, P/E cycles
LIFETIME_HALVINGS = 11       # 200000 / 2**11 = 97.7 P/E resolution
_HALF_STEPS = (STEPS[:-1] + STEPS[1:]) / 2.0  # between neighboring steps


def _density(models, state, v):
    lo = state_cdf(models, state, np.asarray(v, dtype=float) - _DENSITY_H)
    hi = state_cdf(models, state, np.asarray(v, dtype=float) + _DENSITY_H)
    return (hi - lo) / (2.0 * _DENSITY_H)


def scanned_vopt(models):
    """(3,) read references of a dict of StateModel of any family, with
    ordered means: each at the rounded step where the two neighboring
    densities cross, or at the mean midpoint where they never do.

    The density gap is evaluated once, at the means and at every half-way
    voltage between them. A crossing from the lower state's side to the
    upper's rounds to step k exactly when it lies past the half-way
    voltage below step k and not past the one above it. Where the gap
    changes sign that way more than once (a tail wiggle), the crossing
    whose step misreads the least mass wins.
    """
    steps = []
    for i in range(3):
        lo, hi = CellState(i), CellState(i + 1)
        a, b = models[lo].mu, models[hi].mu
        first = int(np.searchsorted(_HALF_STEPS, a, side="right"))
        last = int(np.searchsorted(_HALF_STEPS, b, side="left"))
        v = np.concatenate(([a], _HALF_STEPS[first:last], [b]))
        gap = _density(models, lo, v) - _density(models, hi, v)
        if gap[0] <= 0 or gap[-1] >= 0:
            steps.append(int(round_to_step((a + b) / 2.0)))
            continue
        ks = first + np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))
        vs = STEPS[ks]
        miss = (1.0 - state_cdf(models, lo, vs)) + state_cdf(models, hi, vs)
        steps.append(int(ks[np.argmin(miss)]) + 1)
    return ordered_refs(*steps)


def estimate_lifetime(dynamic, family, ecc_limit):
    """(pec, exceeded): the first P/E count, bisected to 97.7 P/E, at which
    the RBER at the scanned Vopt exceeds the ECC limit or the predicted
    state means cross; (LIFETIME_PEC_MAX, False) if neither ever does."""
    if ecc_limit <= 0:
        raise ValueError("ecc_limit must be positive")

    def fails(pec):
        models, _ = fitting.predict_static(dynamic, pec, family)
        if np.any(np.diff([models[st].mu for st in CellState]) <= 0):
            return True  # crossed means, which order no read references
        return estimate_rber(models, scanned_vopt(models)).total > ecc_limit

    lo, hi = bisect_failure(fails, LIFETIME_PEC_MAX, LIFETIME_HALVINGS)
    return (lo, False) if math.isinf(hi) else (hi, True)
