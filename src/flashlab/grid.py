"""Read-retry step axis and cell-state definitions for the MLC flash channel.

The channel works in a normalized voltage domain: 303 read-retry steps
partition the axis into 304 bins, and step k sits at voltage k. A read
reference is a step, so its step index is its voltage, also past the
last binning step: references range over steps 1..VC_SEARCH_MAX. The
three references of a read are an int array of steps (va, vb, vc): (3,)
for one read, (S, 3) with a row per read for a batch. A voltage becomes
a step only through ``round_to_step``, whichever policy computed it.
"""

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


def ordered_refs(va, vb, vc):
    """Read references from raw steps, with vb, then vc, raised just
    enough to keep va < vb < vc: (3,) steps from one read's numbers, or
    (S, 3) steps, a row per read, from (S,) arrays of them."""
    vb = np.maximum(vb, va + 1)
    return np.stack((va, vb, np.maximum(vc, vb + 1)), axis=-1)


# Voltages of reference steps 1..VC_SEARCH_MAX, read-only: the top
# reference may lie past the binning grid, as the stock vc (330) does.
VC_SEARCH_MAX = 400
STEPS = np.arange(1, VC_SEARCH_MAX + 1, dtype=float)
STEPS.flags.writeable = False


def round_to_step(voltage):
    """Nearest reference step to each voltage, clamped to 1..VC_SEARCH_MAX;
    a tie goes to the lower step. Subtracting 1/2 is exact wherever the
    clamp does not decide the step."""
    v = np.ceil(np.asarray(voltage, dtype=float) - 0.5)
    return np.clip(v, 1, VC_SEARCH_MAX).astype(int)
