"""Data refresh engines.

Both engines are gated by wear (Cai et al., ICCD 2012): a block skips
refresh until its P/E count exceeds what the endurance curve allows at
native retention. Past that point, fixed-cadence refresh (FCR) rewrites
every block whose data age exceeds a set period, and adaptive refresh
picks, per block, the longest period from a tier ladder that the block's
wear still supports, stepping down through the tiers as it wears.
Hot-pool blocks are exempt by default: their data turns over faster than
any refresh period.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import SECONDS_PER_DAY, THREE_YEARS_S, endurance_at

ADAPTIVE_TIERS_S = (90 * SECONDS_PER_DAY, 21 * SECONDS_PER_DAY, 3 * SECONDS_PER_DAY)


@dataclass(frozen=True)
class RefreshConfig:
    mode: str = "none"            # "none" | "fcr" | "adaptive"
    period_s: float = 3 * SECONDS_PER_DAY
    include_hot: bool = False

    def __post_init__(self):
        if self.mode not in ("none", "fcr", "adaptive"):
            raise ValueError(f"unknown refresh mode {self.mode!r}")

    @property
    def retention_s(self):
        """Retention the mode guarantees, which sets the endurance it
        buys and the data age its RBER is judged at: the FCR period, the
        shortest adaptive tier, or native retention (three years) when
        nothing refreshes."""
        if self.mode == "fcr":
            return self.period_s
        if self.mode == "adaptive":
            return min(ADAPTIVE_TIERS_S)
        return THREE_YEARS_S


def in_refresh_phase(pec):
    """True once wear exceeds what native retention (3 years) can absorb.

    Below this point the cell holds data for the full native retention
    without help and refresh only burns cycles. pec may be a scalar or an
    array of per-block P/E counts.
    """
    return pec >= endurance_at(THREE_YEARS_S)


def adaptive_period(pec):
    """Longest refresh period (seconds) each wear level in pec supports,
    as an array of pec's shape.

    Gives the shortest tier when no tier can hold; whether refresh is
    needed at all is in_refresh_phase's decision.
    """
    pec = np.asarray(pec, dtype=np.float64)
    period = np.full(pec.shape, float(min(ADAPTIVE_TIERS_S)))
    for tier in sorted(ADAPTIVE_TIERS_S):  # longer tiers the wear supports win
        period[pec < endurance_at(tier)] = tier
    return period


def run_refresh(drive, now, cfg):
    """One refresh pass over the drive; returns blocks refreshed.

    Blocks whose wear native retention still covers are skipped, in
    either mode.
    """
    if cfg.mode == "none":
        return 0
    period = (cfg.period_s if cfg.mode == "fcr"
              else adaptive_period(drive.pec))
    period = np.where(in_refresh_phase(drive.pec), period, np.inf)
    return drive.refresh_sweep(now, period, cfg.include_hot)
