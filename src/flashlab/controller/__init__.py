from .geometry import Geometry, SECONDS_PER_DAY, THREE_YEARS_S, endurance_at
from .ftl import Drive
from .warm import WarmManager, COLD, HOT
from .refresh import RefreshConfig, run_refresh, adaptive_period, in_refresh_phase, ADAPTIVE_TIERS_S
from .lifetime import LifetimeConfig, run_lifetime, replay
