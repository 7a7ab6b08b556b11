"""Voltage grid and cell-state definitions for the MLC flash channel.

The channel works in a normalized voltage domain: 303 read-retry steps
partition the axis into 304 bins. Step values equal their index, except
that configurable gaps may widen the axis after steps 101 and 202.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

N_STEPS = 303
N_BINS = 304


class CellState(IntEnum):
    ER = 0
    P1 = 1
    P2 = 2
    P3 = 3


# Gray mapping: state -> (msb, lsb). Adjacent states differ in one bit.
STATE_BITS = {
    CellState.ER: (1, 1),
    CellState.P1: (0, 1),
    CellState.P2: (0, 0),
    CellState.P3: (1, 0),
}

# Misprogramming lands a cell in a specific higher state.
MISPROGRAM_TARGET = {CellState.ER: CellState.P3, CellState.P1: CellState.P2}

# MSB as a function of state index, and LSB likewise (for vector decode).
MSB_OF_STATE = np.array([STATE_BITS[CellState(s)][0] for s in range(4)])
LSB_OF_STATE = np.array([STATE_BITS[CellState(s)][1] for s in range(4)])


@dataclass(frozen=True)
class VoltageGrid:
    """Read-retry step grid. value(k) = k for k <= 101; gaps widen after."""

    step_count: int = N_STEPS
    gap_after_101: float = 0.0
    gap_after_202: float = 0.0

    def __post_init__(self):
        if self.step_count != N_STEPS:
            raise ValueError("grid is fixed at 303 read-retry steps")
        if self.gap_after_101 < 0 or self.gap_after_202 < 0:
            raise ValueError("grid gaps cannot be negative")

    def value(self, k):
        """Voltage of read step k (vectorized).

        The binning grid covers steps 1..303, but reference voltages may
        sit beyond it (the stock vc does); the linear rule extrapolates.
        """
        k = np.asarray(k, dtype=float)
        return k + self.gap_after_101 * (k > 101) + self.gap_after_202 * (k > 202)

    def boundaries(self):
        """Voltages of all 303 steps, V_1..V_303, strictly increasing."""
        return self.value(np.arange(1, self.step_count + 1))

    def bin_of(self, vth):
        """Bin index 0..303 for a threshold voltage: bin k iff V_k <= vth < V_{k+1}."""
        return np.searchsorted(self.boundaries(), np.asarray(vth, dtype=float), side="right")


@dataclass(frozen=True)
class ReadRefs:
    """The three read reference voltages, as grid step indices."""

    va: int
    vb: int
    vc: int

    def __post_init__(self):
        if not (self.va < self.vb < self.vc):
            raise ValueError("read references must satisfy va < vb < vc")

    @classmethod
    def ordered(cls, va, vb, vc):
        """References with vb, then vc, raised just enough to keep
        va < vb < vc."""
        vb = max(vb, va + 1)
        return cls(va, vb, max(vc, vb + 1))

    def voltages(self, grid):
        return (grid.value(self.va), grid.value(self.vb), grid.value(self.vc))


# Stock read references of the modeled chip. vc lies past the last
# binning step; grid.value() extrapolates for comparisons there.
DEFAULT_READ_REFS = ReadRefs(va=50, vb=190, vc=330)


def classify_regions(vth, grid, refs):
    """Region decode: 0=ER,1=P1,2=P2,3=P3 given vth < vref reads 1."""
    va, vb, vc = refs.voltages(grid)
    vth = np.asarray(vth, dtype=float)
    return (vth >= va).astype(np.int8) + (vth >= vb) + (vth >= vc)
