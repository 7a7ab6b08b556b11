"""Read-retry step axis and cell-state definitions for the MLC flash channel.

The channel works in a normalized voltage domain: 303 read-retry steps
partition the axis into 304 bins, and step k sits at voltage k. A read
reference is a step, so its step index is its voltage, also past the
last binning step (the stock vc is 330).
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


# Voltages of steps 1..303, the bin boundaries; read-only.
BOUNDARIES = np.arange(1, N_STEPS + 1, dtype=float)
BOUNDARIES.flags.writeable = False


@dataclass(frozen=True)
class ReadRefs:
    """The three read references, as step indices (= voltages)."""

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
        return cls(*_raise_to_order(va, vb, vc, max))


def _raise_to_order(va, vb, vc, larger):
    vb = larger(vb, va + 1)
    return va, vb, larger(vc, vb + 1)


def ordered_refs(va, vb, vc):
    """``ReadRefs.ordered`` of one read's steps; for (S,) arrays of steps,
    one per read, the same rule row by row, as an (S, 3) array."""
    if isinstance(va, np.ndarray):
        return np.stack(_raise_to_order(va, vb, vc, np.maximum), axis=-1)
    return ReadRefs.ordered(int(va), int(vb), int(vc))


def ref_steps(refs):
    """Read references as an integer array of steps: (3,) for a ReadRefs,
    (S, 3) for a list of S of them; an array of steps passes through."""
    if isinstance(refs, ReadRefs):
        return np.array([refs.va, refs.vb, refs.vc])
    if isinstance(refs, list):
        return np.array([(r.va, r.vb, r.vc) for r in refs], dtype=int).reshape(-1, 3)
    return np.asarray(refs)


# Stock read references of the modeled chip; vc lies past the last step.
DEFAULT_READ_REFS = ReadRefs(va=50, vb=190, vc=330)

