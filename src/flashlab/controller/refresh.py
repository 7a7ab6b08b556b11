"""Data refresh engines.

Fixed-cadence refresh (FCR) rewrites every block whose data age exceeds a
set period. Adaptive refresh picks, per block, the longest period from a
tier ladder that the block's wear still supports: a block may skip
refresh entirely until its P/E count exceeds what the endurance curve
allows at native retention, then steps down through the tiers as it
wears. Hot-pool blocks are exempt by default — their data turns over
faster than any refresh period.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import SECONDS_PER_DAY, THREE_YEARS_S

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


def in_refresh_phase(pec, endurance_map):
    """True once wear exceeds what native retention (3 years) can absorb.

    Below this point the cell holds data for the full native retention
    without help and refresh only burns cycles. pec may be a scalar or an
    array of per-block P/E counts.
    """
    return pec >= endurance_map.endurance_at(THREE_YEARS_S)


def adaptive_period(pec, endurance_map):
    """Longest refresh period (seconds) this wear level supports.

    Gives the shortest tier when no tier can hold; whether refresh is
    needed at all is in_refresh_phase's decision. pec may be a scalar
    (returns a float) or an array (returns one period per entry).
    """
    pec = np.asarray(pec, dtype=np.float64)
    period = np.full(pec.shape, float(min(ADAPTIVE_TIERS_S)))
    for tier in sorted(ADAPTIVE_TIERS_S):  # longer tiers the wear supports win
        period[pec < endurance_map.endurance_at(tier)] = tier
    return period if period.ndim else float(period)


def run_refresh(drive, now, cfg, endurance_map=None):
    """One refresh pass over the drive; returns blocks refreshed.

    With an endurance map, blocks whose wear native retention still
    covers are skipped.
    """
    if cfg.mode == "none":
        return 0
    if cfg.mode == "adaptive" and endurance_map is None:
        raise ValueError("adaptive refresh needs an endurance map")
    period = (cfg.period_s if cfg.mode == "fcr"
              else adaptive_period(drive.pec, endurance_map))
    if endurance_map is not None:
        period = np.where(in_refresh_phase(drive.pec, endurance_map),
                          period, np.inf)
    return drive.refresh_sweep(now, period, cfg.include_hot)
