"""Synthetic voltage-domain flash channel.

Holds ground-truth cells (intended state + continuous threshold voltage),
decodes them at arbitrary reference voltages, measures raw bit error rates
against ground truth, and bins cells into 304-bin histograms. It is the
Monte Carlo reference the analytic RBER is checked against, and it owns
the histogram CSV format that ``fit`` reads.

Continuous vth is kept even though hardware observes only 304 bins;
binning is a view, so degradation models can act in voltage space before
quantization. Decoding and binning read the fixed step axis of ``grid``
(step k at voltage k). ER-state vth may be negative; decoding and binning
still handle it (such cells land in bin 0).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .grid import (
    LSB_OF_STATE,
    MISPROGRAM_TARGET,
    MSB_OF_STATE,
    N_BINS,
    CellState,
    bin_of,
    classify_regions,
)
from .models.tables import default_tables


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
class BinHistogram:
    counts: np.ndarray  # (4, 304) int64

    def densities(self):
        totals = self.counts.sum(axis=1, keepdims=True).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            d = self.counts / totals
        return np.where(totals > 0, d, 0.0)


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
        t_quantile = default_tables().t_quantile
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
        vth += layer_profile.vth_offset(layer, shape_state)

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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state", "bin", "count"])
        for st in range(4):
            for b in range(N_BINS):
                w.writerow([CellState(st).name, b, int(hist.counts[st, b])])


def load_histogram_csv(path):
    """Read a histogram in the format of export_histogram_csv.

    Counts of a repeated (state, bin) row add up. A row without three
    fields, or with an unknown state, a bin outside [0, N_BINS) or a
    negative count, is a ValueError; so is a file whose counts add up past
    int64, which would wrap a bin or a state total.
    """
    counts = np.zeros((4, N_BINS), dtype=np.int64)
    names = {st.name: st.value for st in CellState}
    total = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["state", "bin", "count"]:
            raise ValueError(f"{path}: expected header state,bin,count")
        for row in reader:
            if (len(row) != 3 or row[0] not in names
                    or not 0 <= int(row[1]) < N_BINS or int(row[2]) < 0):
                raise ValueError(f"{path}:{reader.line_num}: bad row {row!r}")
            total += int(row[2])
            if total > np.iinfo(np.int64).max:
                raise ValueError(f"{path}:{reader.line_num}: counts add up "
                                 "past int64")
            counts[names[row[0]], int(row[1])] += int(row[2])
    return BinHistogram(counts=counts)
