"""Write-hotness separation: hot/cold routing, cooldown window, tuning.

Hot data is identified by rewrite recency alone, at block granularity: a
page rewritten while its current block sits in the cooldown window (the
most recently closed cold blocks) is promoted to the hot pool; pages
already resident in the hot pool stay there. The hot pool is a bounded
slice of over-provisioning; when it overflows, the oldest hot block is
demoted in write order. Pool size and window length are re-tuned after
every full logical-drive write.
"""

from collections import deque
from itertools import islice

from ..trace import PAGE_SIZE

COLD, HOT = 0, 1

_W_MIN, _W_MAX = 1, 128
_H_STEP = 0.02
_H_MIN = 0.02

# Design constants (Luo et al., MSST 2015): the tuner's starting point, and
# the hot pool's retention guarantee and rotation wear.
INITIAL_HOT_FRACTION = 0.04
INITIAL_WINDOW = 8               # a power of two in [_W_MIN, _W_MAX]
HOT_RETENTION_S = 3 * 86400.0
ROTATION_PEC = 1000


class WarmManager:
    def __init__(self, geom):
        self.geom = geom
        self.window = INITIAL_WINDOW
        self.h = min(INITIAL_HOT_FRACTION, geom.op_fraction)
        self.cold_closed = deque()   # newest on the right
        self.hot_closed = deque()    # oldest on the left (demotion order)
        self._cooldown = set()
        # epoch counters, reset at each tune; the Drive counts its host
        # writes in epoch_host_pages and tunes at a full logical-drive write
        self.hot_hits = self.promotions = self.demotions = 0
        self.cold_writes = self.hot_writes = self.epoch_host_pages = 0
        self._epoch_start = 0.0
        self._last_metric = self._last_utility = None
        self._h_dir = self._w_dir = 1
        self.hot_erases_since_rotation = 0
        self.tune_count = 0

    @property
    def h(self):
        """Hot-pool size as a fraction of all blocks."""
        return self._h

    @h.setter
    def h(self, value):
        # the budget and the rotation threshold follow h; derive them here,
        # once per change, not on every write
        self._h = value
        self.hot_budget_blocks = max(1, int(value * self.geom.total_blocks))
        self.rotation_threshold = ROTATION_PEC * self.hot_budget_blocks

    # --- routing --------------------------------------------------------

    def route(self, drive, lba):
        ppn = drive.map_view[lba]
        if ppn >= 0:
            blk = ppn // drive.pages_per_block
            if drive.pool_view[blk] == HOT:
                self.hot_hits += 1
                self.hot_writes += 1
                return HOT
            if blk in self._cooldown:
                self.promotions += 1
                self.hot_writes += 1
                return HOT
        self.cold_writes += 1
        return COLD

    # --- queue maintenance (called by the Drive) --------------------------

    def on_block_closed(self, blk, pool):
        if pool == HOT:
            self.hot_closed.append(blk)
        else:
            self.cold_closed.append(blk)
            self._refresh_cooldown()

    def on_block_erased(self, blk, pool):
        # only closed blocks are migrated and erased, and closing a block
        # queued it in its pool's deque
        (self.hot_closed if pool == HOT else self.cold_closed).remove(blk)
        if pool == HOT:
            self.hot_erases_since_rotation += 1
        else:
            self._refresh_cooldown()

    def _refresh_cooldown(self):
        self._cooldown = set(islice(reversed(self.cold_closed), self.window))

    # --- tuning -----------------------------------------------------------

    def tune(self, drive, now):
        """Adjust hot-pool size and cooldown window from epoch statistics."""
        self.tune_count += 1
        elapsed = max(now - self._epoch_start, 1e-9)
        hot_rate = self.hot_writes * PAGE_SIZE / elapsed

        # The hot pool must fill no faster than its retention guarantee:
        # a block written now is only guaranteed readable for
        # HOT_RETENTION_S, so the pool must turn over within that time.
        if hot_rate <= 0:
            h_cap = _H_MIN
        else:
            h_cap = (hot_rate * HOT_RETENTION_S
                     / (self.geom.total_pages * PAGE_SIZE))

        metric = ((drive.pool_blocks[COLD] + len(drive.free))
                  / max(self.cold_writes, 1))
        if self._last_metric is not None and metric < self._last_metric:
            self._h_dir = -self._h_dir
        self._last_metric = metric
        h = self.h + self._h_dir * _H_STEP
        h = min(h, self.geom.op_fraction, max(h_cap, _H_MIN))
        self.h = max(h, _H_MIN)

        utility = self.hot_hits - self.demotions
        if self._last_utility is not None and utility < self._last_utility:
            self._w_dir = -self._w_dir
        self._last_utility = utility
        self.window = (min(self.window * 2, _W_MAX) if self._w_dir > 0
                       else max(self.window // 2, _W_MIN))
        self._refresh_cooldown()

        self.hot_hits = self.promotions = self.demotions = 0
        self.cold_writes = self.hot_writes = self.epoch_host_pages = 0
        self._epoch_start = now
