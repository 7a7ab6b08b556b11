"""Reference code the tests check the library against; no CLI workflow
runs any of it.

- A Monte Carlo channel: ground-truth cells (intended state and a
  continuous threshold voltage) sampled from a 4-state model, decoded at
  arbitrary read references, scored against ground truth and binned into
  the 304-bin histograms ``fit`` reads. The analytic RBER and the fits are
  checked against it. Continuous vth is kept although hardware observes
  only bins, so a layer profile can act in voltage space before
  quantization; ER-state vth may be negative (such cells land in bin 0).
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
"""

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import lambertw

from flashlab.grid import (BOUNDARIES, LSB_OF_STATE, MISPROGRAM_TARGET,
                           MSB_OF_STATE, N_BINS, CellState)
from flashlab.channel import BinHistogram
from flashlab.controller.ftl import Drive
from flashlab.controller.geometry import SECONDS_PER_DAY
from flashlab.controller.heatwatch import MIN_AGE_S, PAGE_SIZE
from flashlab.controller.lifetime import REFRESH_CHECK_S, series_rber
from flashlab.controller.refresh import run_refresh
from flashlab.controller import warm as warm_mod
from flashlab.controller.warm import COLD, HOT, WarmManager
from flashlab.models.cdf import StateModel
from flashlab.models import fitting
from flashlab.models.fitting import PowerLawParams
from flashlab.models.tables import default_tables
from flashlab.raid_ecc import ecc_failure_rate
from flashlab.trace import SECTOR_BYTES, Trace


# --- Monte Carlo channel ------------------------------------------------


def bin_of(vth):
    """Bin index 0..303 for a threshold voltage: bin k iff V_k <= vth < V_{k+1}."""
    return np.searchsorted(BOUNDARIES, np.asarray(vth, dtype=float), side="right")


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
    first, count = trace.page_spans(cfg.geometry.page_size)
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
        warm.epoch_host_bytes += self.page_size
        if warm.epoch_host_bytes >= warm.geom.logical_bytes:
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
