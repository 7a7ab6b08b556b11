from .geometry import Geometry, EnduranceMap, SECONDS_PER_DAY, THREE_YEARS_S, THREE_DAYS_S
from .ftl import Drive, FREE, OPEN, CLOSED
from .warm import WarmManager, WarmConfig, COLD, HOT
from .refresh import RefreshConfig, run_refresh, adaptive_period, in_refresh_phase, ADAPTIVE_TIERS_S
from .policies import ReadContext, ReMARState, policy_refs, heatwatch_refs
from .lifetime import LifetimeConfig, LifetimeReport, run_lifetime, replay
from .heatwatch import (HEATWATCH_POLICIES, HeatwatchConfig, ReadSample,
                        collect_samples, truth_models, policy_worst_rber,
                        policy_lifetime_pec, run_experiment)
