"""Drive geometry and the retention/endurance trade-off curve.

Every drive has ``trace.PAGE_SIZE`` pages in BLOCK_SIZE blocks. Geometry's
counts read BLOCK_SIZE when called, so a test patches it for small blocks.
"""

import math
from dataclasses import dataclass

from ..trace import PAGE_SIZE

BLOCK_SIZE = 1 << 20    # bytes per erase block, a multiple of PAGE_SIZE
SECONDS_PER_DAY = 86400.0
THREE_YEARS_S = 3 * 365 * SECONDS_PER_DAY
THREE_DAYS_S = 3 * SECONDS_PER_DAY
PEC_AT_THREE_DAYS = 150000.0        # endurance_at's anchors
PEC_AT_THREE_YEARS = 3000.0


@dataclass(frozen=True)
class Geometry:
    capacity_bytes: int
    op_fraction: float = 0.15

    def __post_init__(self):
        if self.capacity_bytes < 2 * BLOCK_SIZE:
            raise ValueError("drive needs at least two blocks")
        if not (0.0 < self.op_fraction < 1.0):
            raise ValueError("op_fraction must lie in (0, 1)")

    @property
    def pages_per_block(self):
        return BLOCK_SIZE // PAGE_SIZE

    @property
    def total_blocks(self):
        return self.capacity_bytes // BLOCK_SIZE

    @property
    def total_pages(self):
        return self.total_blocks * self.pages_per_block

    @property
    def logical_pages(self):
        """Host-visible pages after carving out over-provisioning."""
        return int(self.total_pages / (1.0 + self.op_fraction))


def endurance_at(retention_s):
    """P/E-cycle budget as a function of the retention the drive must hold.

    Shorter guaranteed retention permits more cycles. The budget is linear
    in log(PEC) vs log(retention) through two planar-MLC anchors (Cai et
    al., ICCD 2012), 150,000 P/E at three days and 3000 at three years,
    and extrapolates past them along the same line.
    """
    if retention_s <= 0:
        raise ValueError("retention must be positive")
    x0, y0 = math.log(THREE_DAYS_S), math.log(PEC_AT_THREE_DAYS)
    x1, y1 = math.log(THREE_YEARS_S), math.log(PEC_AT_THREE_YEARS)
    x = math.log(retention_s)
    return math.exp(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
