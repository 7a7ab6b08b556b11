"""Per-state threshold-voltage histograms, the input ``fit`` reads.

A histogram counts cells of each of the four states in the 304 voltage
bins of ``grid`` (bin k holds V_k <= vth < V_{k+1}, step k at voltage
k). The CSV format has a ``state,bin,count`` header, then rows of a
state name (ER, P1, P2, P3), a bin index and a cell count.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .grid import N_BINS, CellState


@dataclass
class BinHistogram:
    counts: np.ndarray  # (4, 304) int64

    def densities(self):
        totals = self.counts.sum(axis=1, keepdims=True).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            d = self.counts / totals
        return np.where(totals > 0, d, 0.0)


def load_histogram_csv(path):
    """Read a histogram CSV of ``state,bin,count`` rows.

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
