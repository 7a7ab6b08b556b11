import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as hst

from flashlab.controller import (ADAPTIVE_TIERS_S, COLD, HOT, THREE_YEARS_S,
                                 Drive, Geometry, LifetimeConfig,
                                 RefreshConfig, WarmManager, adaptive_period,
                                 endurance_at, in_refresh_phase, replay,
                                 run_lifetime, run_refresh)
from flashlab.controller import (geometry as geometry_mod,
                                 heatwatch as heatwatch_mod,
                                 lifetime as lifetime_mod, warm as warm_mod)
from flashlab.controller.ftl import CLOSED
from flashlab.controller.heatwatch import (FIXED_REFS_AGE_S,
                                           HEATWATCH_POLICIES, MIN_AGE_S,
                                           PAGE_SIZE, SCORE_CHUNK, TICK_S,
                                           HeatwatchConfig, ReadSample,
                                           collect_samples, eligible_reads,
                                           fixed_refs, policy_worst_rber,
                                           sample_batches, truth_models)
from flashlab.controller.policies import (ReadContext, heatwatch_refs,
                                          policy_refs)
from flashlab.controller.warm import (_H_MIN, _W_MAX, _W_MIN,
                                      INITIAL_HOT_FRACTION, INITIAL_WINDOW)
from flashlab.degradation import RetentionModel3D, retention_refs
from flashlab.grid import LSB_OF_STATE, MSB_OF_STATE, STEPS, CellState
from flashlab.models.applications import (estimate_rber, predict_vopt,
                                          sweep_vopt)
from flashlab.models.cdf import StateModel, state_cdf
from flashlab.trace import SECTOR_BYTES, Trace
from flashlab.urt import (T_PROGRAM_K, AccelLog, RetentionAges, TempTrace, af,
                          calibration_pack_from_retention, celsius_to_kelvin,
                          state_models, urt_predict)
from reference import (DEFAULT_READ_REFS, NumpyScalarDrive, NumpyScalarWarm,
                       fifo_wa, reference_eligible_reads, reference_replay,
                       reference_temp_generate, synth_hot)

DAY = 86400.0


def small_geom(mb=16, op=0.25):
    return Geometry(capacity_bytes=mb << 20, op_fraction=op)


def fill_drive(drive, passes=1.0, start=0.0, dt=1.0):
    """Write every logical page `passes` times, `dt` apart, in one
    host_writes call; returns the final clock."""
    n = drive.geom.logical_pages
    i = np.arange(int(n * passes))
    drive.host_writes(i % n, start + dt * i)
    return start + dt * i.size


class TestGeometry:
    def test_derived_counts(self):
        g = small_geom(mb=16, op=0.25)
        assert g.total_blocks == 16
        assert g.pages_per_block == 128
        assert g.total_pages == 2048
        assert g.logical_pages == int(2048 / 1.25)
        # the counts read BLOCK_SIZE when called, so a patch reshapes g
        with patch.object(geometry_mod, "BLOCK_SIZE", 1 << 16):
            assert g.pages_per_block == 8
            assert g.total_blocks == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            Geometry(capacity_bytes=1 << 20)  # one block
        with pytest.raises(ValueError):
            Geometry(capacity_bytes=1 << 26, op_fraction=0.0)


class TestEnduranceMap:
    def test_anchor_values_exact(self):
        assert endurance_at(3 * 365 * DAY) == pytest.approx(3000.0, rel=1e-9)
        assert endurance_at(3 * DAY) == pytest.approx(150000.0, rel=1e-9)

    def test_log_log_interpolation(self):
        t0, p0 = 3 * DAY, 150000.0
        t1, p1 = 3 * 365 * DAY, 3000.0
        t_mid = math.sqrt(t0 * t1)
        assert endurance_at(t_mid) == pytest.approx(math.sqrt(p0 * p1), rel=1e-9)

    def test_monotone_decreasing(self):
        ts = [DAY, 3 * DAY, 30 * DAY, 365 * DAY, 3 * 365 * DAY, 10 * 365 * DAY]
        vals = [endurance_at(t) for t in ts]
        assert vals == sorted(vals, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            endurance_at(0.0)


class TestDrive:
    def test_write_read_round_trip(self):
        d = Drive(small_geom())
        d.host_write(17, now=5.0)
        ppn, age = d.host_read(17, now=11.0)
        assert d.rmap[ppn] == 17
        assert age == pytest.approx(6.0)
        assert d.host_read(999, now=11.0) is None

    def test_rewrite_invalidates_old_page(self):
        d = Drive(small_geom())
        d.host_write(3, 0.0)
        old = d.map[3]
        d.host_write(3, 1.0)
        assert not d.valid[old]
        assert d.valid[d.map[3]]
        assert int(d.valid.sum()) == 1

    def test_write_amplification_is_unity_before_gc(self):
        d = Drive(small_geom())
        for i in range(200):
            d.host_write(i, float(i))
        assert d.write_amplification == 1.0
        assert d.writes["gc"] == 0

    def test_gc_keeps_free_blocks_above_threshold(self):
        d = Drive(small_geom())
        rng = np.random.default_rng(1)
        n = d.geom.logical_pages
        for i in range(3 * n):  # random overwrites leave victims partly live
            d.host_write(int(rng.integers(0, n)), float(i))
        assert len(d.free) >= d.gc_threshold - 1
        assert d.writes["gc"] > 0
        assert d.write_amplification > 1.0
        assert d.audit()

    def test_gc_victim_minimizes_valid_pages(self):
        d = Drive(small_geom())
        fill_drive(d, passes=1.0)
        victim = d._pick_cold_victim()
        closets = np.flatnonzero((d.state == CLOSED) & (d.pool == COLD))
        assert d.valid_count[victim] == d.valid_count[closets].min()

    def test_erase_advances_pec(self):
        d = Drive(small_geom())
        fill_drive(d, passes=3.0)
        assert d.erases > 0
        assert int(d.pec.max()) >= 1
        assert d.erases == int(d.pec.sum())

    def test_initial_pec_applies_everywhere(self):
        d = Drive(small_geom(), initial_pec=500)
        assert int(d.pec.min()) == 500

    def test_refresh_sweep_rewrites_only_old_blocks(self):
        d = Drive(small_geom())
        end = fill_drive(d, passes=1.0)
        refreshed = d.refresh_sweep(now=end + 10 * DAY, period_s=3 * DAY)
        assert refreshed > 0
        assert d.writes["refresh"] > 0
        # a second pass may catch the block that was still open during the
        # first; after that everything is freshly written and sweeps idle
        assert d.refresh_sweep(now=end + 10 * DAY, period_s=3 * DAY) <= 1
        assert d.refresh_sweep(now=end + 10 * DAY, period_s=3 * DAY) == 0
        assert d.audit()


class TestBulkPaths:
    """A WARM-free host write window and a refresh pass each take one
    bulk call where they can; the property tests below hold those calls
    to the per-page references."""

    def test_window_that_fits_above_the_gc_reserve_is_one_run(self):
        d = Drive(small_geom())
        ppb = d.pages_per_block
        # every block but the gc_threshold reserve; more pages than the
        # logical space, so the run rewrites some of its own pages
        n = (len(d.free) - d.gc_threshold) * ppb
        assert n > d.geom.logical_pages
        with patch.object(d, "_write_run", wraps=d._write_run) as run:
            d.host_writes(np.arange(n) % d.geom.logical_pages,
                          np.arange(n, dtype=np.float64))
        assert run.call_count == 1
        assert d.pool_blocks[COLD] == n // ppb
        assert len(d.free) == d.gc_threshold and d.writes["gc"] == 0
        assert d.audit()

    def test_refresh_pass_is_one_relocation(self):
        d = Drive(small_geom())
        end = fill_drive(d)
        free = len(d.free)
        with patch.object(d, "_relocate", wraps=d._relocate) as relocate:
            refreshed = d.refresh_sweep(end + 10 * DAY, 3 * DAY)
        assert relocate.call_count == 1
        blocks = relocate.call_args.args[0]
        assert len(blocks) == refreshed
        # more due blocks than free ones: later blocks land on erased ones
        assert refreshed > free > 0
        assert d.valid_count[blocks].any()
        assert d.audit()


class TestWarm:
    @staticmethod
    def warm_drive(mb=16):
        geom = small_geom(mb=mb)
        warm = WarmManager(geom)
        return Drive(geom, warm=warm), warm

    def test_first_write_routes_cold(self):
        d, w = self.warm_drive()
        assert w.route(d, 0) == COLD

    def test_rewrite_in_cooldown_promotes(self):
        d, w = self.warm_drive()
        n = d.geom.pages_per_block
        for i in range(n):  # fill exactly one block so it closes into cooldown
            d.host_write(i, float(i))
        assert len(w.cold_closed) == 1
        assert w.route(d, 0) == HOT
        assert w.promotions >= 1

    def test_hot_resident_stays_hot(self):
        d, w = self.warm_drive()
        n = d.geom.pages_per_block
        for i in range(n):
            d.host_write(i, float(i))
        d.host_write(0, float(n))          # promoted
        assert w.route(d, 0) == HOT        # still resident in hot pool
        assert w.hot_hits >= 1

    def test_hot_pool_bounded_by_budget(self):
        d, w = self.warm_drive()
        rng = np.random.default_rng(0)
        hot_pages = 64
        t = fill_drive(d, passes=1.0)
        for i in range(20000):
            d.host_write(int(rng.integers(0, hot_pages)), t + i)
        assert d.pool_blocks[HOT] <= w.hot_budget_blocks + 1
        assert d.audit()

    def test_skewed_trace_cuts_write_amplification(self):
        base = Drive(small_geom(mb=32))
        d, w = self.warm_drive(mb=32)
        events = synth_hot(2000, 300, 0.01, 0.95,
                           footprint_bytes=int(0.9 * base.geom.logical_pages
                                               * PAGE_SIZE), seed=1)
        spp = 8192 // 512
        for drv in (base, d):
            drv.host_writes((events.lba // spp) % drv.geom.logical_pages,
                            events.timestamp_us / 1e6)
        assert d.write_amplification <= base.write_amplification
        assert w.tune_count > 0
        assert base.audit() and d.audit()

    def test_tuner_respects_bounds(self):
        d, w = self.warm_drive()
        for _ in range(30):
            w.tune(d, now=w._epoch_start + 100.0)
            assert 0.02 <= w.h <= d.geom.op_fraction + 1e-12
            assert 1 <= w.window <= 128
            assert w.window & (w.window - 1) == 0

    def test_initial_settings_lie_in_the_tuner_bounds(self):
        w = INITIAL_WINDOW
        assert _W_MIN <= w <= _W_MAX and w & (w - 1) == 0
        assert _H_MIN <= INITIAL_HOT_FRACTION


class TestRefresh:
    @staticmethod
    def aged_drive(initial_pec=0):
        d = Drive(small_geom(), initial_pec=initial_pec)
        end = fill_drive(d, passes=1.0)
        return d, end

    def test_mode_none_is_noop(self):
        d, end = self.aged_drive()
        assert run_refresh(d, end + 100 * DAY, RefreshConfig(mode="none")) == 0

    def test_fcr_refreshes_expired_blocks(self):
        d, end = self.aged_drive(initial_pec=5000)
        cfg = RefreshConfig(mode="fcr", period_s=3 * DAY)
        assert run_refresh(d, end + 1 * DAY, cfg) == 0
        n = run_refresh(d, end + 4 * DAY, cfg)
        assert n > 0 and d.writes["refresh"] > 0

    def test_refresh_phase_gate(self):
        threshold = endurance_at(3 * 365 * DAY)
        assert not in_refresh_phase(threshold - 1)
        assert in_refresh_phase(threshold)
        # low-wear drive: nothing to refresh yet
        d, end = self.aged_drive(initial_pec=0)
        cfg = RefreshConfig(mode="fcr", period_s=3 * DAY)
        assert run_refresh(d, end + 30 * DAY, cfg) == 0
        d2, end2 = self.aged_drive(initial_pec=5000)
        assert run_refresh(d2, end2 + 30 * DAY, cfg) > 0

    def test_adaptive_period_tiers(self):
        # Wear levels straddling each tier's endurance budget.
        p90 = adaptive_period(endurance_at(90 * DAY) - 1)
        p21 = adaptive_period(endurance_at(21 * DAY) - 1)
        p3 = adaptive_period(endurance_at(3 * DAY) - 1)
        worn = adaptive_period(endurance_at(3 * DAY) + 1)
        assert p90 == 90 * DAY
        assert p21 == 21 * DAY
        assert p3 == 3 * DAY
        assert worn == min(ADAPTIVE_TIERS_S)
        assert p90 > p21 > p3

    def test_hot_pool_exempt_by_default(self):
        geom = small_geom()
        warm = WarmManager(geom)
        d = Drive(geom, warm=warm, initial_pec=10000)
        n = geom.pages_per_block
        for i in range(n):
            d.host_write(i, float(i))
        for i in range(2 * n):  # rewrite promotes into the hot pool
            d.host_write(i % n, float(n + i))
        end = float(3 * n)
        cfg = RefreshConfig(mode="fcr", period_s=3 * DAY)
        run_refresh(d, end + 30 * DAY, cfg)
        assert d.refresh_writes_by_pool[HOT] == 0
        cfg_hot = RefreshConfig(mode="fcr", period_s=3 * DAY, include_hot=True)
        run_refresh(d, end + 90 * DAY, cfg_hot)
        # with the exemption lifted, resident hot blocks do refresh
        if d.pool_blocks[HOT] > 0 and any(
                d.state[b] == CLOSED for b in np.flatnonzero(d.pool == HOT)):
            assert d.refresh_writes_by_pool[HOT] > 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RefreshConfig(mode="eager")


def reference_refresh(drive, now, cfg):
    """Per-block refresh pass: the scalar rule of the pass that preceded
    Drive.refresh_sweep's per-block periods. Each block that is due gets a
    sweep of its own, with its period and inf for every other block."""
    drive.now = now
    mask = (drive.state == CLOSED) & (drive.valid_count > 0)
    if not cfg.include_hot:
        mask &= drive.pool == COLD
    refreshed = 0
    for blk in np.flatnonzero(mask):
        if drive.state[blk] != CLOSED:
            continue
        pec = float(drive.pec[blk])
        if pec < endurance_at(THREE_YEARS_S):
            continue
        if cfg.mode == "fcr":
            period = cfg.period_s
        else:
            period = next((t for t in sorted(ADAPTIVE_TIERS_S, reverse=True)
                           if pec < endurance_at(t)),
                          min(ADAPTIVE_TIERS_S))
        if now - drive.program_epoch[blk] >= period:
            only = np.full(drive.geom.total_blocks, np.inf)
            only[blk] = period
            n = drive.refresh_sweep(now, only, cfg.include_hot)
            assert n == 1, f"block {blk} was due but not refreshed"
            refreshed += n
    return refreshed


def drive_state(d):
    arrays = {k: getattr(d, k).copy() for k in (
        "map", "rmap", "valid", "valid_count", "pec", "program_epoch",
        "pool", "state", "write_ptr")}
    # d.now is left out: it is scratch that every caller of _allocate sets
    # first, and a run of host writes holds its first write's time
    scalars = (list(d.free), dict(d.open_block), dict(d.writes),
               dict(d.pool_writes), dict(d.refresh_writes_by_pool),
               d.erases, d.reads)
    if d.warm is not None:
        w = d.warm
        scalars += (list(w.hot_closed), list(w.cold_closed), w.h, w.window,
                    w.demotions, w.promotions, w.hot_erases_since_rotation,
                    w.hot_hits, w.hot_writes, w.cold_writes, w.tune_count,
                    w.epoch_host_pages, w._epoch_start, sorted(w._cooldown),
                    w._last_metric, w._last_utility, w._h_dir, w._w_dir)
    return arrays, scalars


# wear levels at and around every tier edge, where per-block periods part
_EDGES = [3 * 365 * DAY, *ADAPTIVE_TIERS_S]
_PEC = hst.one_of(
    hst.integers(0, 160_000),
    hst.builds(lambda t, k: max(0, int(endurance_at(t)) + k),
               hst.sampled_from(_EDGES), hst.integers(-12, 3)))
_STEP = hst.one_of(
    hst.tuples(hst.just("write"), hst.integers(0, 1 << 20), hst.integers(1, 40)),
    hst.tuples(hst.just("read"), hst.integers(0, 1 << 20), hst.just(1)),
    hst.tuples(hst.just("pass"),
               hst.sampled_from([0.0, 0.25, 1.0, 3.0, 4.0, 22.0, 91.0, 400.0]),
               hst.just(0)))


class TestRefreshPassProperty:
    """run_refresh (per-block periods, one sweep) on a Drive against
    reference_refresh (one sweep per due block) on a PerPageMigrationDrive,
    fed identical steps."""

    @patch.object(geometry_mod, "BLOCK_SIZE", 1 << 16)
    @settings(max_examples=200)
    @given(n_blocks=hst.integers(4, 24),
           op=hst.sampled_from([0.1, 0.25, 0.5, 0.9]),
           footprint=hst.floats(0.05, 1.0),
           warm=hst.booleans(),
           mode=hst.sampled_from(["fcr", "adaptive"]),
           period_days=hst.sampled_from([0.5, 3.0, 10.0]),
           include_hot=hst.booleans(),
           initial_pec=_PEC,
           steps=hst.lists(_STEP, min_size=1, max_size=80))
    def test_one_sweep_matches_per_block_reference(
            self, n_blocks, op, footprint, warm, mode, period_days,
            include_hot, initial_pec, steps):
        geom = Geometry(capacity_bytes=n_blocks << 16, op_fraction=op)
        cfg = RefreshConfig(mode=mode, period_s=period_days * DAY,
                            include_hot=include_hot)
        drives = [cls(geom, warm=WarmManager(geom) if warm else None,
                      initial_pec=initial_pec)
                  for cls in (Drive, PerPageMigrationDrive)]
        passes = [lambda d, now: run_refresh(d, now, cfg),
                  lambda d, now: reference_refresh(d, now, cfg)]
        span = max(1, int(footprint * geom.logical_pages))
        now = 0.0
        for kind, x, count in steps:
            if kind == "pass":
                now += x * DAY
            outcomes = []
            for d, refresh in zip(drives, passes):
                try:
                    if kind == "write":
                        for i in range(count):
                            d.host_write((x + i) % span, now + i)
                        outcomes.append(None)
                    elif kind == "read":
                        outcomes.append(d.host_read(x % span, now))
                    else:
                        outcomes.append(refresh(d, now))
                except ValueError as exc:
                    # the documented over-commit: too little spare space
                    assert "over-committed" in str(exc)
                    outcomes.append("over-committed")
            if kind == "write":
                now += count
            assert outcomes[0] == outcomes[1]
            states = [drive_state(d) for d in drives]
            assert states[0][1] == states[1][1]
            for k, a in states[0][0].items():
                assert np.array_equal(a, states[1][0][k]), k
            if outcomes[0] == "over-committed":
                event("over-committed")
                return
            if kind == "pass":
                event(f"pass refreshed {min(outcomes[0], 2)}")
            d = drives[0]
            if kind == "pass":
                assert d.audit()
            assert d.erases == int((d.pec - initial_pec).sum())
        assert drives[0].audit()


class PerPageMigrationDrive(NumpyScalarDrive):
    """The relocation that preceded the batched _relocate: block by
    block, one _program call per live page, in ascending offset order,
    then the erase; host writes one page per call (NumpyScalarDrive)."""

    def _relocate(self, blocks, pools, kind):
        ppb = self.geom.pages_per_block
        for blk, pool in zip(blocks, pools):
            base = blk * ppb
            for off in np.flatnonzero(self.valid[base:base + ppb]):
                self._program(int(self.rmap[base + off]), pool, kind)
            self._erase(blk)


_MIGRATION_STEP = hst.one_of(
    hst.tuples(hst.just("write"), hst.integers(0, 1 << 20), hst.integers(1, 60)),
    # rewrites of a few low pages: they get promoted and fill hot blocks
    hst.tuples(hst.just("write"), hst.integers(0, 7), hst.integers(8, 60)),
    hst.tuples(hst.just("sweep"), hst.sampled_from([0.0, 0.5, 2.0, 10.0]),
               hst.sampled_from([0.0, 1.0, 3.0])),
    hst.tuples(hst.just("rotate"), hst.just(0), hst.just(0)))


class TestBatchedMigrationProperty:
    """Drive (batched _relocate, runs of host writes) against
    PerPageMigrationDrive on identical drives fed identical host writes,
    refresh sweeps and hot-pool rotations."""

    @patch.object(geometry_mod, "BLOCK_SIZE", 1 << 16)
    @settings(max_examples=200)
    # a sweep of three due blocks that over-commits part-way: no block is
    # free, and the first block's pages overflow the open block
    @example(n_blocks=4, op=0.1, footprint=1.0, warm=False,
             rotation_pec=1000, include_hot=False,
             steps=[("write", 0, 25), ("sweep", 0.0, 0.0)])
    @given(n_blocks=hst.integers(4, 24),
           op=hst.sampled_from([0.1, 0.25, 0.5, 0.9]),
           footprint=hst.floats(0.05, 1.0),
           warm=hst.booleans(),
           rotation_pec=hst.sampled_from([1, 2, 1000]),
           include_hot=hst.booleans(),
           steps=hst.lists(_MIGRATION_STEP, min_size=1, max_size=60))
    def test_batched_matches_per_page(self, n_blocks, op, footprint, warm,
                                      rotation_pec, include_hot, steps):
        # the hot pool's rotation wear, drawn down to 1 so rotations happen
        with patch.object(warm_mod, "ROTATION_PEC", rotation_pec):
            geom = Geometry(capacity_bytes=n_blocks << 16, op_fraction=op)
            drives = [cls(geom, warm=WarmManager(geom) if warm else None)
                      for cls in (Drive, PerPageMigrationDrive)]
            assert all(d.warm is None or d.warm.rotation_threshold
                       == rotation_pec * d.warm.hot_budget_blocks
                       for d in drives)
            span = max(1, int(footprint * geom.logical_pages))
            now = 0.0
            hot_erases = 0
            for kind, a, b in steps:
                if kind == "sweep":
                    now += a * DAY
                outcomes = []
                for d in drives:
                    try:
                        if kind == "write":
                            for i in range(b):
                                d.host_write((a + i) % span, now + i)
                            outcomes.append(None)
                        elif kind == "sweep":
                            outcomes.append(d.refresh_sweep(now, b * DAY,
                                                            include_hot))
                        else:
                            outcomes.append(len(d.warm.hot_closed)
                                            if d.warm else 0)
                            if d.warm:
                                d.rotate_hot_pool()
                    except ValueError as exc:
                        # the documented over-commit: too little spare space
                        assert "over-committed" in str(exc)
                        outcomes.append("over-committed")
                if kind == "write":
                    now += b
                assert outcomes[0] == outcomes[1]
                states = [drive_state(d) for d in drives]
                assert states[0][1] == states[1][1]
                for k, arr in states[0][0].items():
                    assert np.array_equal(arr, states[1][0][k]), k
                if outcomes[0] == "over-committed":
                    event("over-committed")
                    return
                if kind == "rotate" and outcomes[0]:
                    event("rotate step moved hot blocks")
                if kind == "sweep" and outcomes[0]:
                    event("sweep refreshed blocks")
                if warm:
                    # the count only falls when a rotation resets it
                    if drives[0].warm.hot_erases_since_rotation < hot_erases:
                        event("host write ran a rotation")
                    hot_erases = drives[0].warm.hot_erases_since_rotation
                assert drives[0].audit() and drives[1].audit()


# a window of the logical pages of host writes
_WINDOW_STEP = hst.one_of(
    hst.tuples(hst.just("window"),
               hst.lists(hst.integers(0, 1 << 20), min_size=1, max_size=45)),
    # rewrites of a few low pages: they get promoted and fill hot blocks
    hst.tuples(hst.just("window"),
               hst.lists(hst.integers(0, 7), min_size=6, max_size=40)),
    # a long sequential window: it completes tuning epochs and, over the
    # whole logical space of a small drive, over-commits it part-way
    hst.tuples(hst.just("window"),
               hst.builds(lambda start, n: list(range(start, start + n)),
                          hst.integers(0, 1 << 20), hst.integers(6, 300))),
    hst.tuples(hst.just("sweep"),
               hst.tuples(hst.sampled_from([0.0, 0.5, 2.0, 10.0]),
                          hst.sampled_from([0.0, 1.0, 3.0]))))


class TestHostRequestsProperty:
    """Drive.host_writes (one loop per window) against NumpyScalarDrive
    and NumpyScalarWarm (one host_write per page) on WARM drives fed
    identical windows of host writes, with refresh sweeps between windows
    and the rotation wear drawn down to 1 or 2 P/E, so that tunes and
    hot-pool rotations fire inside windows."""

    @patch.object(geometry_mod, "BLOCK_SIZE", 1 << 16)
    @settings(max_examples=120)
    # three cases random windows seldom reach: a rotation made due between
    # windows (a sweep of hot blocks) fires after the next window's first
    # write, one made due by a tune that shrinks the hot pool fires after
    # that tune's write, and a window that over-commits the drive part-way
    @example(n_blocks=5, op=0.5, footprint=0.25, rotation_pec=1,
             include_hot=True,
             steps=[("window", [0]),
                    ("window", [i for i in range(134) if i % 4]),
                    ("window", [0]),
                    ("sweep", (0.0, 0.0)),
                    ("window", [0])])
    @example(n_blocks=13, op=0.5, footprint=0.5625, rotation_pec=1,
             include_hot=False,
             steps=[("window", [0] * 6),
                    ("window", [i for i in range(244) if i % 4]),
                    ("window", [i for i in range(392) if i % 4])])
    @example(n_blocks=4, op=0.1, footprint=1.0, rotation_pec=1,
             include_hot=False,
             steps=[("window", list(range(150)))])
    @given(n_blocks=hst.integers(4, 24),
           op=hst.sampled_from([0.1, 0.25, 0.5, 0.9]),
           # the whole logical space over-commits the smallest drives
           footprint=hst.one_of(hst.floats(0.05, 1.0), hst.just(1.0)),
           rotation_pec=hst.sampled_from([1, 2]),
           include_hot=hst.booleans(),
           steps=hst.lists(_WINDOW_STEP, min_size=1, max_size=16))
    def test_windows_match_per_page_reference(self, n_blocks, op, footprint,
                                              rotation_pec, include_hot,
                                              steps):
        with patch.object(warm_mod, "ROTATION_PEC", rotation_pec):
            geom = Geometry(capacity_bytes=n_blocks << 16, op_fraction=op)
            drive = Drive(geom, warm=WarmManager(geom))
            ref = NumpyScalarDrive(geom, warm=NumpyScalarWarm(geom))
            # whether each of the reference's tunes lowered the rotation
            # threshold to the hot erases already counted
            made_due = []

            def tune(d, now, tune=ref.warm.tune):
                w = ref.warm
                due = w.hot_erases_since_rotation >= w.rotation_threshold
                tune(d, now)
                made_due.append(not due and w.hot_erases_since_rotation
                                >= w.rotation_threshold)
            ref.warm.tune = tune
            span = max(1, int(footprint * geom.logical_pages))
            now = 0.0
            for kind, arg in steps:
                tunes = drive.warm.tune_count
                hot_erases = drive.warm.hot_erases_since_rotation
                due = hot_erases >= drive.warm.rotation_threshold
                writes = ref.writes["host"]
                outcomes = []
                if kind == "sweep":
                    now += arg[0] * DAY
                    runs = [lambda d: d.refresh_sweep(now, arg[1] * DAY,
                                                      include_hot)] * 2
                else:
                    pages = np.array(arg, dtype=np.int64) % span
                    times = now + np.arange(len(arg), dtype=np.float64)
                    now += len(arg)

                    def per_page(d):
                        for page, t in zip(pages.tolist(), times.tolist()):
                            d.host_write(page, t)
                    runs = [lambda d: d.host_writes(pages, times), per_page]
                for d, run in zip((drive, ref), runs):
                    try:
                        outcomes.append(run(d))
                    except ValueError as exc:
                        # the documented over-commit: too little spare space
                        assert "over-committed" in str(exc)
                        outcomes.append("over-committed")
                assert outcomes[0] == outcomes[1]
                states = [drive_state(d) for d in (drive, ref)]
                assert states[0][1] == states[1][1]
                for k, arr in states[0][0].items():
                    assert np.array_equal(arr, states[1][0][k]), k
                if outcomes[0] == "over-committed":
                    event(f"over-committed in a {kind}")
                    if kind == "window" and ref.writes["host"] > writes:
                        event("over-committed mid-window")
                    return
                if kind == "window":
                    event(f"window tuned: {drive.warm.tune_count > tunes}")
                    if due:
                        event("rotation due as the window began")
                    if drive.warm.hot_erases_since_rotation < hot_erases:
                        event("window rotated the hot pool")
                    if any(made_due):
                        event("a tune made a rotation due")
                made_due.clear()
                assert drive.audit()


_SCALAR_STEP = hst.one_of(
    hst.tuples(hst.just("write"), hst.integers(0, 1 << 20), hst.integers(1, 60)),
    # rewrites of a few low pages: they get promoted and fill hot blocks
    hst.tuples(hst.just("write"), hst.integers(0, 7), hst.integers(8, 60)),
    hst.tuples(hst.just("read"), hst.integers(0, 1 << 20), hst.integers(1, 8)),
    hst.tuples(hst.just("sweep"), hst.sampled_from([0.0, 0.5, 2.0, 10.0]),
               hst.sampled_from([0.0, 1.0, 3.0])))

_VIEWED = ("map", "rmap", "valid_count", "write_ptr", "pool")


class TestScalarViewProperty:
    """Drive and WarmManager (per-page path through scalar memoryviews)
    against NumpyScalarDrive and NumpyScalarWarm (numpy scalar indexing)
    on identical drives fed identical host writes, host reads and refresh
    sweeps."""

    def test_reference_replaces_the_per_page_path(self):
        assert NumpyScalarDrive.host_write is not Drive.host_write
        assert NumpyScalarDrive.host_read is not Drive.host_read
        assert NumpyScalarWarm.route is not WarmManager.route

    def test_migration_reference_replaces_the_batched_relocation(self):
        # every relocation of a Drive runs _relocate; the reference
        # overrides it and programs one page per _program call
        assert not hasattr(Drive, "_migrate_block")
        assert "_relocate" in vars(PerPageMigrationDrive)
        d = PerPageMigrationDrive(small_geom())
        end = fill_drive(d)
        with patch.object(d, "_program", wraps=d._program) as program:
            assert d.refresh_sweep(end + 10 * DAY, 3 * DAY) > 1
        assert program.call_count == d.writes["refresh"] > 0

    def test_views_share_their_arrays(self):
        d = Drive(small_geom(), warm=WarmManager(small_geom()))
        fill_drive(d, passes=2.0)
        for name in _VIEWED:
            arr, view = getattr(d, name), getattr(d, f"{name}_view")
            assert np.shares_memory(np.asarray(view), arr), name
            assert view.tolist() == arr.tolist(), name

    @patch.object(geometry_mod, "BLOCK_SIZE", 1 << 16)
    @settings(max_examples=200)
    @given(n_blocks=hst.integers(4, 24),
           op=hst.sampled_from([0.1, 0.25, 0.5, 0.9]),
           footprint=hst.floats(0.05, 1.0),
           warm=hst.booleans(),
           rotation_pec=hst.sampled_from([1, 2, 1000]),
           steps=hst.lists(_SCALAR_STEP, min_size=1, max_size=60))
    def test_views_match_numpy_scalar_reference(self, n_blocks, op, footprint,
                                                warm, rotation_pec, steps):
        # the hot pool's rotation wear, drawn down to 1 so rotations happen
        with patch.object(warm_mod, "ROTATION_PEC", rotation_pec):
            geom = Geometry(capacity_bytes=n_blocks << 16, op_fraction=op)
            drives = [drive_cls(geom, warm=warm_cls(geom) if warm else None)
                      for drive_cls, warm_cls in (
                          (Drive, WarmManager),
                          (NumpyScalarDrive, NumpyScalarWarm))]
            span = max(1, int(footprint * geom.logical_pages))
            now = 0.0
            for kind, a, b in steps:
                if kind == "sweep":
                    now += a * DAY
                outcomes = []
                for d in drives:
                    try:
                        if kind == "write":
                            for i in range(b):
                                d.host_write((a + i) % span, now + i)
                            outcomes.append(None)
                        elif kind == "read":
                            outcomes.append([d.host_read((a + i) % span, now)
                                             for i in range(b)])
                        else:
                            outcomes.append(d.refresh_sweep(now, b * DAY))
                    except ValueError as exc:
                        # the documented over-commit: too little spare space
                        assert "over-committed" in str(exc)
                        outcomes.append("over-committed")
                if kind == "write":
                    now += b
                assert outcomes[0] == outcomes[1]
                states = [drive_state(d) for d in drives]
                assert states[0][1] == states[1][1]
                for k, arr in states[0][0].items():
                    assert np.array_equal(arr, states[1][0][k]), k
                if outcomes[0] == "over-committed":
                    event("over-committed")
                    return
                if kind == "read":
                    event(f"read hit a written page: "
                          f"{any(o is not None for o in outcomes[0])}")
                assert drives[0].audit()
            if warm:
                event(f"hot pool written: {drives[0].pool_writes[HOT] > 0}")


# gaps between events, in seconds: bursts, hours and more than a day
_GAP_S = hst.sampled_from([0, 0, 1, 45, 1200, 3600, 5000, 0.6 * DAY,
                           1.5 * DAY, 3.2 * DAY])
_EVENT = hst.tuples(_GAP_S, hst.sampled_from("RWWW"),
                    # sectors: past the end of the drive the span wraps
                    hst.one_of(hst.integers(0, 1 << 12),
                               hst.integers(0, 1 << 20)),
                    hst.one_of(hst.just(8192), hst.integers(1, 64 * 8192),
                               hst.integers(1, 64).map(lambda n: n * 8192)))


class TestBatchedHostWriteProperty:
    """replay (windows of Drive.host_writes, which writes them in runs)
    against reference_replay (one host_write per written page of a
    NumpyScalarDrive) on WARM-free drives fed identical traces."""

    @patch.object(geometry_mod, "BLOCK_SIZE", 1 << 16)
    @settings(max_examples=200)
    @given(n_blocks=hst.integers(4, 16),
           op=hst.sampled_from([0.1, 0.25, 0.5, 0.9]),
           mode=hst.sampled_from(["none", "fcr", "adaptive"]),
           period_days=hst.sampled_from([0.5, 1.0, 3.0]),
           # below, at and past the 3-year gate, and past every tier
           initial_pec=hst.sampled_from([0, 3000, 3200, 160_000]),
           # passes over the logical pages before the replay starts
           prefill=hst.sampled_from([0.0, 0.5, 1.0, 2.5]),
           events=hst.lists(_EVENT, max_size=80))
    def test_runs_match_per_page_reference(self, n_blocks, op, mode,
                                           period_days, initial_pec, prefill,
                                           events):
        geom = Geometry(capacity_bytes=n_blocks << 16, op_fraction=op)
        cfg = LifetimeConfig(geometry=geom, initial_pec=initial_pec,
                             refresh=RefreshConfig(mode=mode,
                                                   period_s=period_days * DAY))
        drives = [cls(geom, initial_pec=initial_pec)
                  for cls in (Drive, NumpyScalarDrive)]
        try:
            start = [fill_drive(d, passes=prefill) for d in drives][0]
        except ValueError:
            event("over-committed before the replay")
            return
        ts = int(start * 1e6) + np.cumsum(
            [int(gap * 1e6) for gap, _, _, _ in events], dtype=np.int64)
        trace = Trace(ts, [op == "W" for _, op, _, _ in events],
                      [lba for _, _, lba, _ in events],
                      [size for _, _, _, size in events])
        outcomes = []
        for d, run in zip(drives, (replay, reference_replay)):
            try:
                outcomes.append(run(trace, d, cfg))
            except ValueError as exc:
                # the documented over-commit: too little spare space
                assert "over-committed" in str(exc)
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        states = [drive_state(d) for d in drives]
        assert states[0][1] == states[1][1]
        for k, arr in states[0][0].items():
            assert np.array_equal(arr, states[1][0][k]), k
        d = drives[0]
        if isinstance(outcomes[0], str):
            event("over-committed")
        else:
            event(f"days closed: {min(len(outcomes[0]), 3)}")
        event(f"gc ran: {d.writes['gc'] > 0}")
        event(f"refresh ran: {d.writes['refresh'] > 0}")
        assert d.audit()


# a write and, at once, a read of its pages, which lists none: a clock
# tick at the write's own time
_WRITE_THEN_READ = hst.tuples(hst.integers(0, 1 << 12),
                              hst.integers(1, 4).map(lambda n: n * 8192)).map(
    lambda span: [(0, "W", *span), (0, "R", *span)])


class TestUniformWriteAmplification:
    """Greedy GC under uniform random writes lies between the FIFO
    cleaner's closed form at the raw spare (every spare block) and at the
    effective spare (less the gc_threshold + 1 blocks that never hold
    data: the free reserve and the open block)."""

    @pytest.mark.parametrize("n_blocks", [64, 256])
    @pytest.mark.parametrize("op", [0.07, 0.15, 0.28])
    def test_greedy_wa_lies_between_fifo_at_raw_and_effective_spare(
            self, op, n_blocks):
        geom = Geometry(capacity_bytes=n_blocks << 20, op_fraction=op)
        drive = Drive(geom)
        n = geom.logical_pages
        rng = np.random.default_rng(n_blocks)

        def write(drive_writes):
            drive.host_writes(rng.integers(0, n, drive_writes * n),
                              np.zeros(drive_writes * n))

        write(4)
        before = dict(drive.writes)
        write(8)
        host = drive.writes["host"] - before["host"]
        wa = sum(drive.writes[k] - before[k] for k in before) / host
        reserved = (drive.gc_threshold + 1) * geom.pages_per_block
        raw = fifo_wa(geom.total_pages / n)
        effective = fifo_wa((geom.total_pages - reserved) / n)
        assert raw < wa < effective


class TestReplayWindowProperty:
    """replay listing pages in windows of 1, 3 and 7 pages, with WARM on
    and off, against reference_replay on a NumpyScalarDrive fed the same
    trace: windows then end inside spans and inside runs of host
    writes."""

    @patch.object(geometry_mod, "BLOCK_SIZE", 1 << 16)
    @settings(max_examples=200)
    @given(window=hst.sampled_from([1, 3, 7]),
           warm=hst.booleans(),
           n_blocks=hst.integers(4, 16),
           op=hst.sampled_from([0.1, 0.25, 0.5, 0.9]),
           mode=hst.sampled_from(["none", "fcr", "adaptive"]),
           period_days=hst.sampled_from([0.5, 1.0, 3.0]),
           initial_pec=hst.sampled_from([0, 3200, 160_000]),
           prefill=hst.sampled_from([0.0, 0.5, 1.0, 2.5]),
           events=hst.lists(hst.one_of(_EVENT.map(lambda e: [e]),
                                       _WRITE_THEN_READ),
                            max_size=40).map(lambda groups: sum(groups, [])))
    def test_windows_match_per_page_reference(self, window, warm, n_blocks,
                                              op, mode, period_days,
                                              initial_pec, prefill, events):
        geom = Geometry(capacity_bytes=n_blocks << 16, op_fraction=op)
        cfg = LifetimeConfig(geometry=geom, warm=warm, initial_pec=initial_pec,
                             refresh=RefreshConfig(mode=mode,
                                                   period_s=period_days * DAY))
        drives = [drive_cls(geom, warm=warm_cls(geom) if warm else None,
                            initial_pec=initial_pec)
                  for drive_cls, warm_cls in ((Drive, WarmManager),
                                              (NumpyScalarDrive,
                                               NumpyScalarWarm))]
        try:
            start = [fill_drive(d, passes=prefill) for d in drives][0]
        except ValueError:
            event("over-committed before the replay")
            return
        ts = int(start * 1e6) + np.cumsum(
            [int(gap * 1e6) for gap, _, _, _ in events], dtype=np.int64)
        trace = Trace(ts, [op == "W" for _, op, _, _ in events],
                      [lba for _, _, lba, _ in events],
                      [size for _, _, _, size in events])
        outcomes = []
        with patch.object(lifetime_mod, "PAGE_WINDOW", window):
            for d, run in zip(drives, (replay, reference_replay)):
                try:
                    outcomes.append(run(trace, d, cfg))
                except ValueError as exc:
                    assert "over-committed" in str(exc)
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        states = [drive_state(d) for d in drives]
        assert states[0][1] == states[1][1]
        for k, arr in states[0][0].items():
            assert np.array_equal(arr, states[1][0][k]), k
        event("over-committed" if isinstance(outcomes[0], str)
              else f"trace has reads: {not trace.is_write.all()}")
        assert drives[0].audit()


RET = RetentionModel3D()


class TestPolicies:
    def ctx(self, **kw):
        return ReadContext(**kw)

    def test_fixed_refs_decode_a_fresh_page(self):
        # swept on the pack's state models at P/E 0 and FIXED_REFS_AGE_S;
        # DEFAULT_READ_REFS misreads the same fresh page past any ECC
        pack = calibration_pack_from_retention()
        refs = fixed_refs(pack)
        assert refs.tolist() == reference_sweep(
            reference_truth_models(pack, 0.0, FIXED_REFS_AGE_S)).tolist()
        fresh = truth_models(pack, 0.0, RetentionAges(pack, [FIXED_REFS_AGE_S]))
        ecc_limit = 2e-3  # the heatwatch experiment's default
        assert estimate_rber(fresh, refs).total[0] < ecc_limit
        assert estimate_rber(fresh, DEFAULT_READ_REFS).total[0] > ecc_limit
        got = policy_refs("fixed", self.ctx(), fixed_refs=refs)
        assert got.tolist() == refs.tolist()

    def test_retention_only_matches_model(self):
        ctx = self.ctx(pec=4000, age_s=np.array([7 * DAY]))
        got = policy_refs("retention_only", ctx, retention_model=RET)
        want = retention_refs(RET, 4000, [7 * DAY])
        assert got.tolist() == want.tolist()

    def test_oracle_is_exhaustive_sweep(self):
        models = {st: StateModel("gaussian", [25, 105, 185, 255][i], 11.0)
                  for i, st in enumerate(CellState)}
        got = policy_refs("oracle", self.ctx(), true_models=models)
        assert got.tolist() == sweep_vopt(models).tolist() == [65, 145, 220]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            policy_refs("psychic", self.ctx())

    def test_heatwatch_tracks_thermal_aging(self):
        pack = calibration_pack_from_retention()

        def refs(eff):
            ctx = self.ctx(pec=5000, age_s=np.array([30 * DAY]),
                           eff_retention_s=RetentionAges(pack, [eff]))
            return heatwatch_refs(pack, ctx)[0]

        cool, hot = refs(1 * DAY), refs(300 * DAY)
        assert cool[0] < cool[1] < cool[2]
        assert hot[2] < cool[2]  # more effective retention, lower window

    def test_heatwatch_reads_at_predicted_vopt_of_truth_models(self):
        # without read-disturb exposure, the policy's state models are the
        # experiment's ground truth at the same effective age
        pack = calibration_pack_from_retention()
        for pec, eff in ((0, 1.0), (3000, 7 * DAY), (9000, 90 * DAY),
                         (15000, 400 * DAY)):
            ages = RetentionAges(pack, [eff])
            ctx = self.ctx(pec=pec, eff_retention_s=ages)
            want = predict_vopt(truth_models(pack, pec, ages))
            assert heatwatch_refs(pack, ctx).tolist() == want.tolist()

    def test_heatwatch_survives_extrapolated_mean_crossings(self):
        pack = calibration_pack_from_retention()
        [(va, vb, vc)] = heatwatch_refs(pack, self.ctx(
            pec=60000, age_s=np.array([365 * DAY]),
            eff_retention_s=RetentionAges(pack, [3650 * DAY]))).tolist()
        assert 1 <= va < vb < vc


def single_pass_collect_samples(events, cfg, params):
    """Reference: estimates every eligible read, then keeps a spread."""
    end_s = int(events.timestamp_us[-1]) / 1e6 if len(events) else 0.0
    n_ticks = int(end_s / TICK_S) + 2
    temps = reference_temp_generate(cfg.temp, np.arange(n_ticks) * TICK_S)
    afs = af(celsius_to_kelvin(temps), params)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (afs[1:] + afs[:-1]) * TICK_S)])
    log = AccelLog()
    ticked = 0
    write_time = {}
    samples = []
    spp = PAGE_SIZE // SECTOR_BYTES
    for ts, is_write, lba, _ in zip(*events.columns()):
        now = ts / 1e6
        while (ticked + 1) * TICK_S <= now:
            log.update(float(afs[ticked]), TICK_S)
            ticked += 1
        page = lba // spp
        if is_write:
            write_time[page] = now
        elif page in write_time:
            age = now - write_time[page]
            if age < MIN_AGE_S:
                continue
            i0 = int(write_time[page] / TICK_S)
            i1 = int(now / TICK_S)
            eff_exact = float(cum[i1] - cum[i0])
            eff_est = log.effective_time(min(age, log.elapsed))
            samples.append(ReadSample(age, eff_exact, eff_est))
    if len(samples) > cfg.max_samples:
        idx = np.linspace(0, len(samples) - 1, cfg.max_samples).astype(int)
        samples = [samples[i] for i in idx]
    return samples


class TestCollectSamples:
    EVENTS = synth_hot(DAY / 2, 0.1, 0.02, 0.9, footprint_bytes=1 << 26,
                       seed=4, read_fraction=0.5)
    PACK = calibration_pack_from_retention()

    # The trace has about 1500 eligible reads: 25 keeps a spread of them,
    # 100k keeps them all.
    @pytest.mark.parametrize("max_samples", [25, 100_000])
    def test_matches_single_pass(self, max_samples):
        cfg = HeatwatchConfig(temp=TempTrace(noise_sigma_c=3.0, seed=2),
                              max_samples=max_samples)
        want = single_pass_collect_samples(self.EVENTS, cfg, self.PACK)
        got = collect_samples(self.EVENTS, cfg, self.PACK)
        if max_samples == 25:
            assert len(want) == 25
        else:
            assert 25 < len(want) < max_samples
        assert got == want

    def test_read_of_a_later_page_of_a_multi_page_write_is_sampled(self):
        # a 24 KiB write stamps pages 0-2; an hour later an 8 KiB read
        # of page 1 finds data an hour old
        events = Trace([0, 3600 * 10**6], [True, False], [0, 16], [24576, 8192])
        samples = collect_samples(events, HeatwatchConfig(), self.PACK)
        assert [s.age_s for s in samples] == [3600.0]

    def test_each_page_of_a_read_is_one_candidate(self):
        # the read spans pages 1-3 unaligned; page 3 was never written
        events = Trace([0, 3600 * 10**6], [True, False], [0, 20],
                       [24576, 16384])
        samples = collect_samples(events, HeatwatchConfig(), self.PACK)
        assert [s.age_s for s in samples] == [3600.0, 3600.0]


class TestEligibleReadsProperty:
    @settings(max_examples=200, deadline=None)
    @given(window=hst.sampled_from([1, 3, 7]),
           events=hst.lists(hst.tuples(
               # gaps in µs: repeated timestamps, and ages under, at and
               # over MIN_AGE_S
               hst.sampled_from([0, 0, 299_999_999, 600_000_000,
                                 700_000_001]),
               hst.booleans(), hst.integers(0, 12), hst.integers(0, 5)),
               max_size=40))
    def test_windows_match_per_page_reference(self, window, events):
        # spans of 0-5 pages over 13, walked in windows that split them;
        # reads of pages never written before yield nothing
        trace = Trace(np.cumsum([gap for gap, _, _, _ in events],
                                dtype=np.int64),
                      [write for _, write, _, _ in events],
                      [page * (PAGE_SIZE // SECTOR_BYTES)
                       for _, _, page, _ in events],
                      [n * PAGE_SIZE for _, _, _, n in events])
        with patch.object(heatwatch_mod, "PAGE_WINDOW", window):
            got = eligible_reads(trace)
        want = reference_eligible_reads(trace)
        event(f"eligible reads: {min(len(want), 3)}")
        assert all(column.dtype == float for column in got)
        assert list(zip(*(column.tolist() for column in got))) == want


# The per-read scoring of policy_worst_rber, one sample at a time, with
# the scalar kernels it ran: the reference the batched scoring must match
# bit for bit.

def reference_truth_models(pack, pec, eff_s):
    t_r = max(eff_s, 1.0)

    def row(name):
        return urt_predict(pack, name, pec, T_PROGRAM_K, t_r, 0.0)

    return {st: StateModel("gaussian", row(f"mu_{st.name}"),
                           max(row(f"sigma_{st.name}"), 1e-3))
            for st in CellState}


def reference_ordered(va, vb, vc):
    vb = max(vb, va + 1)
    return np.array([va, vb, max(vc, vb + 1)])


def reference_round_to_step(v):
    j = int(np.searchsorted(STEPS, v))
    if j == len(STEPS) or (j > 0 and abs(STEPS[j - 1] - v) <= abs(STEPS[j] - v)):
        j -= 1
    return j + 1


def reference_crossing(lo, hi):
    d = hi.mu - lo.mu
    s1, s2 = lo.sigma * lo.sigma, hi.sigma * hi.sigma
    log_ratio = math.log(lo.sigma / hi.sigma)
    if d * d <= 2.0 * s2 * log_ratio or d * d <= -2.0 * s1 * log_ratio:
        return None
    if s1 == s2:
        return (lo.mu + hi.mu) / 2.0
    a, b, c = s2 - s1, 2.0 * d * s1, s1 * (2.0 * s2 * log_ratio - d * d)
    q = -0.5 * (b + math.sqrt(b * b - 4.0 * a * c))
    return lo.mu + c / q


def reference_heatwatch_refs(models):
    mus = [models[st].mu for st in CellState]
    if not (mus[0] < mus[1] < mus[2] < mus[3]):
        mus = sorted(mus)
        return reference_ordered(*(reference_round_to_step((lo + hi) / 2.0)
                                   for lo, hi in zip(mus, mus[1:])))
    steps = []
    for i in range(3):
        v = reference_crossing(models[CellState(i)], models[CellState(i + 1)])
        steps.append(reference_round_to_step(
            (mus[i] + mus[i + 1]) / 2.0 if v is None else v))
    return reference_ordered(*steps)


def reference_sweep(models):
    best = []
    for i in range(3):
        miss = ((1.0 - state_cdf(models, CellState(i), STEPS))
                + state_cdf(models, CellState(i + 1), STEPS))
        best.append(int(np.argmin(miss)) + 1)
    return reference_ordered(*best)


def reference_rber(models, refs):
    v = np.asarray(refs, dtype=float)
    msb = lsb = 0.0
    for st in CellState:
        c = state_cdf(models, st, v)
        masses = (c[0], c[1] - c[0], c[2] - c[1], 1.0 - c[2])
        for region in range(4):
            if MSB_OF_STATE[region] != MSB_OF_STATE[st]:
                msb += masses[region]
            if LSB_OF_STATE[region] != LSB_OF_STATE[st]:
                lsb += masses[region]
    return (msb / 4.0 + lsb / 4.0) / 2.0


def reference_worst_rber(policy, samples, pack, pec):
    worst = 0.0
    for s in samples:
        truth = reference_truth_models(pack, pec, s.eff_exact_s)
        if policy == "fixed":
            refs = reference_sweep(
                reference_truth_models(pack, 0.0, FIXED_REFS_AGE_S))
        elif policy in ("retention_only", "remar"):
            refs = retention_refs(RET, pec, [max(s.age_s, 1.0)])[0]
        elif policy == "heatwatch":
            refs = reference_heatwatch_refs(
                reference_truth_models(pack, pec, s.eff_est_s))
        else:
            refs = reference_sweep(truth)
        worst = max(worst, reference_rber(truth, refs))
    return worst


# log-uniform from 1 s to 10 years
AGE_S = hst.floats(0.0, math.log10(10 * 365 * DAY)).map(lambda e: 10.0 ** e)


class TestBatchedScoringProperty:
    PACK = calibration_pack_from_retention()
    FIXED = fixed_refs(PACK)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(n=hst.integers(1, 300), pec=hst.floats(0.0, 60000.0),
           data=hst.data())
    def test_every_policy_matches_the_per_sample_reference(self, n, pec, data):
        samples = data.draw(hst.lists(hst.builds(ReadSample, AGE_S, AGE_S, AGE_S),
                                      min_size=n, max_size=n))
        batches = sample_batches(samples, self.PACK)
        event(f"more than one batch: {len(batches) > 1}")
        mu = state_models(self.PACK, pec, RetentionAges(
            self.PACK, [s.eff_est_s for s in samples])).mu
        crossed = int(np.sum(~np.all(mu[:, :-1] < mu[:, 1:], axis=1)))
        event(f"reads with crossed predicted means: "
              f"{'some' if 0 < crossed < n else 'all' if crossed else 'none'}")
        for policy in HEATWATCH_POLICIES:
            got = policy_worst_rber(policy, batches, self.PACK, RET, pec,
                                    self.FIXED)
            assert got == reference_worst_rber(policy, samples, self.PACK, pec), policy

    def test_remar_reads_each_read_at_its_own_age(self):
        # young and old reads in read order across two batches: ReMAR
        # serves every read the references of its own age, on every batch
        rng = np.random.default_rng(11)
        samples = [ReadSample(*row) for row in
                   (10.0 ** rng.uniform(0, 8.5, (SCORE_CHUNK + 44, 3))).tolist()]
        batches = sample_batches(samples, self.PACK)
        assert len(batches) == 2
        for batch in batches:
            for pec in (0.0, 5000.0, 30000.0):
                assert (policy_worst_rber("remar", [batch], self.PACK, RET,
                                          pec, self.FIXED)
                        == policy_worst_rber("retention_only", [batch],
                                             self.PACK, RET, pec, self.FIXED))

    def test_state_models_take_each_log_with_math_log(self):
        # at 1 + t for these ages, numpy 2.4's vectorized log (AVX-512)
        # differs from math.log in the last bit, and so does the RBER
        samples = [ReadSample(t, t, t)
                   for t in (113.66969242639748, 54.805012589350255)]
        batches = sample_batches(samples, self.PACK)
        for policy in HEATWATCH_POLICIES:
            got = policy_worst_rber(policy, batches, self.PACK, RET, 3000.0,
                                    self.FIXED)
            assert got == reference_worst_rber(policy, samples, self.PACK, 3000.0)

    def test_scoring_memory_does_not_grow_with_the_sample_count(self):
        # one batch's (SCORE_CHUNK, 400) sweep arrays take a few MB; the
        # 5000 samples scored as one batch would take over 70 MB
        assert SCORE_CHUNK < 5000
        rng = np.random.default_rng(7)
        samples = [ReadSample(*row)
                   for row in (10.0 ** rng.uniform(0, 8.5, (5000, 3))).tolist()]
        batches = sample_batches(samples, self.PACK)
        tracemalloc.start()
        try:
            for policy in HEATWATCH_POLICIES:
                policy_worst_rber(policy, batches, self.PACK, RET, 45000.0,
                                  self.FIXED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestLifetimeReplay:
    @staticmethod
    def run_once():
        geom = small_geom(mb=32)
        events = synth_hot(1000, 200, 0.02, 0.9,
                           footprint_bytes=geom.logical_pages * PAGE_SIZE,
                           seed=3)
        cfg = LifetimeConfig(geometry=geom, warm=True, mode="analytic",
                             refresh=RefreshConfig(mode="fcr", period_s=3 * DAY))
        return run_lifetime(events, cfg)

    def test_replay_is_deterministic(self):
        a = self.run_once()
        b = self.run_once()
        assert a.to_json() == b.to_json()
        assert a.series_csv() == b.series_csv()

    def test_report_accounting(self):
        rep = self.run_once()
        assert rep.writes["host"] == 1000 * 200
        assert rep.write_amplification >= 1.0
        assert rep.lifetime_days > 0
        csv = rep.series_csv().splitlines()
        assert csv[0].startswith("day,rber_avg,rber_worst")

    @pytest.mark.parametrize("warm", [False, True])
    def test_reads_only_move_the_clock(self, warm):
        # the drive models no read effect: redrawing every read's span
        # leaves the series and the drive as they were, and no read reaches
        # the FTL; 2.5 days of events 20 s apart, 30% reads, with hourly
        # refresh passes at a wear past the 3-year gate
        geom = small_geom(mb=16)
        trace = synth_hot(2.5 * DAY, 0.05, 0.05, 0.9,
                          footprint_bytes=geom.logical_pages * PAGE_SIZE,
                          seed=5, read_fraction=0.3)
        reads = ~trace.is_write
        rng = np.random.default_rng(6)
        redrawn = Trace(trace.timestamp_us, trace.is_write,
                        np.where(reads, rng.integers(0, 1 << 16, len(trace)),
                                 trace.lba),
                        np.where(reads, rng.integers(1, 1 << 17, len(trace)),
                                 trace.size_bytes))
        cfg = LifetimeConfig(geometry=geom, warm=warm, initial_pec=3200,
                             refresh=RefreshConfig(mode="fcr",
                                                   period_s=0.5 * DAY))
        runs = []
        for tr in (trace, redrawn):
            drive = Drive(geom, warm=WarmManager(geom) if warm else None,
                          initial_pec=3200)
            runs.append((replay(tr, drive, cfg), drive_state(drive)))
            assert drive.reads == 0
        (series, (arrays, scalars)), (series_b, (arrays_b, scalars_b)) = runs
        assert series == series_b and len(series) == 3
        assert scalars == scalars_b
        for k, arr in arrays.items():
            assert np.array_equal(arr, arrays_b[k]), k
        assert reads.any() and drive.writes["refresh"] > 0

    def test_direct_mode_requires_inputs(self):
        with pytest.raises(ValueError):
            LifetimeConfig(geometry=small_geom(), mode="direct")

    @pytest.mark.parametrize("refresh, age_s", [
        (RefreshConfig(mode="none"), THREE_YEARS_S),
        (RefreshConfig(mode="fcr", period_s=3 * DAY), 3 * DAY),
        (RefreshConfig(mode="adaptive"), min(ADAPTIVE_TIERS_S)),
    ])
    def test_series_judges_rber_at_the_retention_refresh_guarantees(
            self, refresh, age_s):
        # 1000 writes close 7 blocks of a 32 MB drive without an erase, so
        # every written block is still at the initial wear
        geom = small_geom(mb=32)
        events = synth_hot(10, 100, 0.02, 0.9,
                           footprint_bytes=geom.logical_pages * PAGE_SIZE,
                           seed=3)
        cfg = LifetimeConfig(geometry=geom, mode="direct", ecc_limit=2e-3,
                             initial_pec=3000, refresh=refresh)
        assert refresh.retention_s == age_s
        rep = run_lifetime(events, cfg)
        want = 0.5 * (math.exp(RET.eval("log_rber_msb", 3000, age_s))
                      + math.exp(RET.eval("log_rber_lsb", 3000, age_s)))
        assert rep.series[0][1:3] == pytest.approx((want, want), rel=1e-12)
        assert rep.lifetime_days == math.inf

    def test_memory_does_not_grow_with_the_span(self):
        # one event writing 4 GiB, 512Ki pages, to a 32 MB drive: listing
        # every page at once peaked at 29.5 MB, a window of PAGE_WINDOW
        # pages takes about 5 MB whatever the span
        peaks = []
        for gib in (1, 4):
            geom = small_geom(mb=32)
            cfg = LifetimeConfig(geometry=geom,
                                 refresh=RefreshConfig(mode="fcr"))
            drive = Drive(geom)
            tracemalloc.start()
            try:
                replay(Trace([0], [True], [0], [gib << 30]), drive, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert drive.writes["host"] == (gib << 30) // PAGE_SIZE
        assert peaks[1] < 8 << 20
        assert abs(peaks[1] - peaks[0]) < 1 << 20


def reference_write_count(rows, page_size):
    """Host page writes of (op, lba, size_bytes) rows, from the span rule
    written out on Python ints."""
    spp = page_size // SECTOR_BYTES
    return sum(-(-(lba * SECTOR_BYTES + size) // page_size) - lba // spp
               for op, lba, size in rows if op == "W")


class TestReplayPageSpansProperty:
    @patch.object(geometry_mod, "BLOCK_SIZE", 1 << 16)
    @settings(max_examples=100)
    @given(rows=hst.lists(hst.tuples(hst.sampled_from("RWW"),
                                     hst.integers(0, 4000),
                                     hst.integers(1, 40_000)),
                          min_size=1, max_size=60),
           warm=hst.booleans())
    def test_host_writes_are_the_write_spans(self, rows, warm):
        geom = Geometry(capacity_bytes=32 << 16, op_fraction=0.5)
        trace = Trace([i * 10**6 for i in range(len(rows))],
                      [op == "W" for op, _, _ in rows],
                      [lba for _, lba, _ in rows], [size for _, _, size in rows])
        drive = Drive(geom, warm=WarmManager(geom) if warm else None)
        replay(trace, drive, LifetimeConfig(geometry=geom))
        writes = reference_write_count(rows, PAGE_SIZE)
        write_events = sum(op == "W" for op, _, _ in rows)
        event(f"multi-page writes: {writes > write_events}")
        assert drive.writes["host"] == writes
        assert drive.reads == 0
        assert drive.audit()
