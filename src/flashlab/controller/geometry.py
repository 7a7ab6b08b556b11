"""Drive geometry and the retention/endurance trade-off curve."""

import math
from dataclasses import dataclass

from ..trace import check_page_size

SECONDS_PER_DAY = 86400.0
THREE_YEARS_S = 3 * 365 * SECONDS_PER_DAY
THREE_DAYS_S = 3 * SECONDS_PER_DAY


@dataclass(frozen=True)
class Geometry:
    capacity_bytes: int
    page_size: int = 8192
    block_size: int = 1 << 20
    op_fraction: float = 0.15

    def __post_init__(self):
        check_page_size(self.page_size)
        if self.block_size % self.page_size:
            raise ValueError("block size must be a multiple of page size")
        if self.capacity_bytes < 2 * self.block_size:
            raise ValueError("drive needs at least two blocks")
        if not (0.0 < self.op_fraction < 1.0):
            raise ValueError("op_fraction must lie in (0, 1)")

    @property
    def pages_per_block(self):
        return self.block_size // self.page_size

    @property
    def total_blocks(self):
        return self.capacity_bytes // self.block_size

    @property
    def total_pages(self):
        return self.total_blocks * self.pages_per_block

    @property
    def logical_pages(self):
        """Host-visible pages after carving out over-provisioning."""
        return int(self.total_pages / (1.0 + self.op_fraction))

    @property
    def logical_bytes(self):
        return self.logical_pages * self.page_size


@dataclass(frozen=True)
class EnduranceMap:
    """P/E-cycle budget as a function of the retention the drive must hold.

    Shorter guaranteed retention permits more cycles; interpolation is
    linear in log(PEC) vs log(retention) between anchor points and
    extrapolates from the nearest segment.
    """
    anchors: tuple = ((THREE_YEARS_S, 3000.0), (THREE_DAYS_S, 150000.0))

    def __post_init__(self):
        pts = sorted(self.anchors)
        if len(pts) < 2:
            raise ValueError("need at least two anchors")
        for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
            if t0 <= 0 or p0 <= 0 or p1 <= 0:
                raise ValueError("anchors must be positive")
            if p0 <= p1:
                raise ValueError("endurance must fall as retention grows")
        object.__setattr__(self, "anchors", tuple(pts))

    def endurance_at(self, retention_s):
        if retention_s <= 0:
            raise ValueError("retention must be positive")
        pts = self.anchors
        x = math.log(retention_s)
        # pick the segment containing x, clamping to end segments for
        # extrapolation
        lo = 0
        for i in range(len(pts) - 1):
            if x >= math.log(pts[i][0]):
                lo = i
        x0, y0 = math.log(pts[lo][0]), math.log(pts[lo][1])
        x1, y1 = math.log(pts[lo + 1][0]), math.log(pts[lo + 1][1])
        return math.exp(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
