"""Trace replay and drive-lifetime estimation.

Two estimation modes share one replay. "analytic" extrapolates the P/E
budget from measured per-pool write rates and the endurance curve
``endurance_at``; "direct" bisects for the day the worst-case block RBER
of the retention model ``RETENTION`` crosses the ECC limit. Either way
the daily series reports that model's block RBERs.
"""

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..degradation import RetentionModel3D
from ..models.simplex import bisect_failure
from ..trace import PAGE_SIZE, PAGE_WINDOW, page_windows
from .geometry import Geometry, SECONDS_PER_DAY, endurance_at
from .ftl import Drive, CLOSED
from .refresh import RefreshConfig, run_refresh
from .warm import HOT_RETENTION_S, WarmManager, COLD, HOT

REFRESH_CHECK_S = 3600.0            # replay runs a refresh pass this often
RETENTION = RetentionModel3D()


@dataclass
class LifetimeConfig:
    geometry: Geometry
    warm: bool = False
    refresh: RefreshConfig = field(default_factory=RefreshConfig)
    initial_pec: int = 0
    mode: str = "analytic"          # "analytic" | "direct"
    ecc_limit: float = None         # RBER the ECC can absorb (direct mode)

    def __post_init__(self):
        if self.mode not in ("analytic", "direct"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.mode == "direct") != (self.ecc_limit is not None):
            raise ValueError("direct mode needs ecc_limit, and only direct"
                             " mode reads it")


@dataclass
class LifetimeReport:
    mode: str
    duration_days: float
    lifetime_days: float            # math.inf when nothing wears
    writes: dict
    pool_writes: dict
    refresh_hot_writes: int
    write_amplification: float
    pec_mean: float
    pec_max: int
    series: list

    def to_json(self):
        doc = {
            "mode": self.mode,
            "duration_days": self.duration_days,
            "lifetime_days": ("inf" if math.isinf(self.lifetime_days)
                              else self.lifetime_days),
            "writes": self.writes,
            "pool_writes": {("hot" if k == HOT else "cold"): v
                            for k, v in self.pool_writes.items()},
            "refresh_hot_writes": self.refresh_hot_writes,
            "write_amplification": self.write_amplification,
            "pec_mean": self.pec_mean,
            "pec_max": self.pec_max,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def series_csv(self):
        out = io.StringIO()
        out.write("day,rber_avg,rber_worst,writes_host,writes_gc,"
                  "writes_refresh,pec_mean\n")
        for row in self.series:
            out.write("%d,%.6e,%.6e,%d,%d,%d,%.2f\n" % row)
        return out.getvalue()


def _page_log_rbers(pec, age_s):
    """Log RBERs of a wordline's MSB and LSB pages."""
    return (RETENTION.eval("log_rber_msb", pec, age_s),
            RETENTION.eval("log_rber_lsb", pec, age_s))


def _page_rber(logs):
    """RBER of a wordline's page pair: the mean of its MSB and LSB RBERs.

    A page's RBER is capped at 1, since a bit error rate cannot exceed it;
    the cap also keeps ``math.exp`` from overflowing far past the model's
    range."""
    return 0.5 * (math.exp(min(logs[0], 0.0)) + math.exp(min(logs[1], 0.0)))


def series_rber(drive, age_s):
    """Mean and worst block-level RBER at the assumed data age, over the
    closed blocks that hold data. The model runs once per distinct P/E
    count among them; each block then takes its count's value."""
    mask = (drive.state == CLOSED) & (drive.valid_count > 0)
    pecs, block_pec = np.unique(drive.pec[mask], return_inverse=True)
    if pecs.size == 0:
        return 0.0, 0.0
    rbers = np.array([_page_rber(_page_log_rbers(pec, age_s))
                      for pec in pecs.tolist()])[block_pec]
    return float(np.mean(rbers)), float(np.max(rbers))


def replay(trace, drive, cfg):
    """Drive the FTL through a trace; returns the daily series.

    Each write event writes every page of its span (``Trace.page_spans``),
    folded into the drive's logical pages. The drive models no read
    effect, so a read event lists no pages and only moves the clock: it
    can place the cuts below. The timestamps must not decrease; the CLI
    rejects a trace in which they do.

    Cut order: before the first event at or past a pending refresh check
    or day close, every due refresh check runs, oldest first, and then
    every due day close. So a gap of over a day runs all of its hourly
    refresh passes before it closes any of its days. The pages between
    two cuts go to ``Drive.host_writes`` in windows of at most PAGE_WINDOW
    pages, one call per window, so memory does not grow with the trace or
    its largest span.
    """
    now = trace.timestamp_us / 1e6
    first, count = trace.page_spans(PAGE_SIZE)
    count = np.where(trace.is_write, count, 0)
    series = []
    last = dict.fromkeys(("host", "gc", "refresh"), 0)

    def close_day():
        avg, worst = series_rber(drive, cfg.refresh.retention_s)
        series.append((len(series), avg, worst,
                       *(drive.writes[k] - last[k] for k in last),
                       float(drive.pec.mean())))
        last.update((k, drive.writes[k]) for k in last)

    next_refresh = REFRESH_CHECK_S
    next_day = SECONDS_PER_DAY
    done = 0
    while True:
        cut = int(np.searchsorted(now, min(next_refresh, next_day)))
        for events, pages in page_windows(first[done:cut], count[done:cut],
                                          PAGE_WINDOW):
            drive.host_writes(pages % cfg.geometry.logical_pages,
                              now[events + done])
        if cut == len(trace):
            break
        while now[cut] >= next_refresh:
            run_refresh(drive, next_refresh, cfg.refresh)
            next_refresh += REFRESH_CHECK_S
        while now[cut] >= next_day:
            close_day()
            next_day += SECONDS_PER_DAY
        done = cut
    close_day()
    return series


def run_lifetime(trace, cfg):
    warm = WarmManager(cfg.geometry) if cfg.warm else None
    drive = Drive(cfg.geometry, warm=warm, initial_pec=cfg.initial_pec)
    series = replay(trace, drive, cfg)

    ts = trace.timestamp_us
    duration_s = max((int(ts[-1]) - int(ts[0])) / 1e6, 1e-9) if len(trace) else 1e-9
    duration_days = duration_s / SECONDS_PER_DAY

    if cfg.mode == "analytic":
        lifetime_days = _analytic_lifetime(drive, warm, cfg, duration_days)
    else:
        lifetime_days = _direct_lifetime(drive, cfg, duration_days)

    return LifetimeReport(
        mode=cfg.mode,
        duration_days=duration_days,
        lifetime_days=lifetime_days,
        writes=dict(drive.writes),
        pool_writes=dict(drive.pool_writes),
        refresh_hot_writes=drive.refresh_writes_by_pool[HOT],
        write_amplification=drive.write_amplification,
        pec_mean=float(drive.pec.mean() - cfg.initial_pec),
        pec_max=int(drive.pec.max() - cfg.initial_pec),
        series=series,
    )


def _pool_endurance(cfg, warm, pool):
    if pool == HOT and warm is not None:
        return endurance_at(HOT_RETENTION_S)
    return endurance_at(cfg.refresh.retention_s)


def _analytic_lifetime(drive, warm, cfg, duration_days):
    """Days until some pool exhausts its P/E budget at measured rates.

    Each block of a pool has the pool's endurance less the drive's
    ``initial_pec`` left; a pool that is written with none left is
    exhausted now (0 days)."""
    geom = cfg.geometry
    nb, ppb = geom.total_blocks, geom.pages_per_block
    hot_blocks = warm.hot_budget_blocks if warm is not None else 0
    blocks = {HOT: hot_blocks, COLD: nb - hot_blocks}
    worst = math.inf
    for pool in (COLD, HOT):
        rate = drive.pool_writes[pool] / duration_days  # pages/day
        if rate <= 0 or blocks[pool] == 0:
            continue
        budget = _pool_endurance(cfg, warm, pool) - cfg.initial_pec
        capacity = blocks[pool] * ppb * budget
        worst = min(worst, max(capacity, 0.0) / rate)
    return worst


def _direct_lifetime(drive, cfg, duration_days):
    """First day the worst-case block RBER exceeds the ECC limit: day 0
    for a drive already past it, whatever the trace wore."""
    age_s = cfg.refresh.retention_s
    pec_rate = (drive.pec.max() - cfg.initial_pec) / duration_days
    log_cap = math.log(2.0 * cfg.ecc_limit)

    def over_limit(day):
        logs = _page_log_rbers(cfg.initial_pec + pec_rate * day, age_s)
        # above log_cap one page's half alone passes the limit; below it,
        # for an ecc_limit under 0.5 (the CLI takes no other), both logs
        # are under _page_rber's cap
        return max(logs) > log_cap or _page_rber(logs) > cfg.ecc_limit

    return bisect_failure(over_limit, 365.0 * 200, 60)[1]
