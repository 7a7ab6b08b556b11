"""Span tracing from outside the package, and the per-layer metrics.

``install()`` replaces public functions and methods of each layer with
timing wrappers. A function that a caller imported by name is replaced in
the calling module too (``lifetime.run_refresh``, ``fitting.nelder_mead``),
because patching only its home module would miss those calls. Spans
(name, start, end, parent) go into flat arrays in memory and are written
out once, after the run. A layer none of whose functions ran reads 0.

``lifetime.replay_self_s`` is replay time minus its direct host-write,
host-read and refresh-pass children: the event loop and daily series. The
share of each wrapper's own cost that falls outside its span is measured
after the run (``span_cost``) and taken out of that figure too.
"""

import functools
import math
import sys
import time
from array import array

import numpy as np

from flashlab import trace as trace_mod
from flashlab import urt
from flashlab.controller import ftl, heatwatch, lifetime, policies, warm
from flashlab.degradation import RetentionModel3D
from flashlab.models import applications, cdf, fitting, simplex

from workloads import WORKLOADS


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names, self._ids = [], {}
        self.start, self.end = array("d"), array("d")
        self.name, self.parent = array("i"), array("i")
        self._stack = [-1]
        self.counters = {}
        self.tuner = []      # WARM tuner state just before each tune
        self.drives = []

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self):
        i = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i, name_id):
        self.end[i] = self.clock()
        self._stack.pop()
        self.name[i] = name_id

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def _replace_everywhere(orig, new):
    """Rebind every flashlab module global that is ``orig`` to ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "flashlab":
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _wrap(tr, fn, name=None, name_of=None, before=None, after=None):
    """Timing wrapper; the span name may depend on the arguments."""
    nid = tr.intern(name) if name else None

    @functools.wraps(fn)
    def traced(*args, **kw):
        state = before(*args, **kw) if before else None
        i = tr.open()
        try:
            result = fn(*args, **kw)
        finally:
            tr.close(i, nid if name_of is None else tr.intern(name_of(*args, **kw)))
        if after:
            after(result, state, *args, **kw)
        return result
    return traced


def install(tr):
    def patch_fn(mod, attr, **kw):
        orig = getattr(mod, attr)
        _replace_everywhere(orig, _wrap(tr, orig, **kw))

    def patch_method(cls, attr, **kw):
        setattr(cls, attr, _wrap(tr, getattr(cls, attr), **kw))

    # trace
    patch_fn(trace_mod, "parse_canonical", name="trace.parse",
             after=lambda res, _s, *a, **k: tr.count("trace.events", len(res[0])))

    # controller.ftl: a host write during which the drive erased a block
    # paid for reclaim (GC, demotion, rotation) and is timed apart.
    host_id, reclaim_id = tr.intern("ftl.host_write"), tr.intern("ftl.reclaim_write")
    orig_host_write = ftl.Drive.host_write

    def host_write(drive, *args, **kw):
        erases = drive.erases
        i = tr.open()
        try:
            return orig_host_write(drive, *args, **kw)
        finally:
            tr.close(i, host_id if drive.erases == erases else reclaim_id)
    ftl.Drive.host_write = functools.wraps(orig_host_write)(host_write)
    patch_method(ftl.Drive, "host_read", name="ftl.host_read")
    orig_init = ftl.Drive.__init__

    def drive_init(drive, *args, **kw):
        orig_init(drive, *args, **kw)
        tr.drives.append(drive)
    ftl.Drive.__init__ = functools.wraps(orig_init)(drive_init)

    # controller.warm
    patch_method(warm.WarmManager, "route", name="warm.route")
    patch_method(warm.WarmManager, "tune", name="warm.tune",
                 before=lambda mgr, *a, **k: tr.tuner.append(
                     (mgr.h, mgr.window, mgr.hot_hits, mgr.promotions,
                      mgr.demotions)))

    # controller.refresh and controller.lifetime
    def refresh_scan(drive, now, cfg, *a, **k):
        # Closed blocks the pass looks at; must match refresh.run_refresh.
        if cfg.mode == "none":
            return 0
        mask = (drive.state == ftl.CLOSED) & (drive.valid_count > 0)
        if not cfg.include_hot:
            mask &= drive.pool == warm.COLD
        return int(np.count_nonzero(mask))

    def refresh_done(refreshed, scanned, *a, **k):
        tr.count("refresh.scanned", scanned)
        tr.count("refresh.blocks_refreshed", refreshed)
    patch_fn(lifetime, "run_refresh", name="refresh.pass",
             before=refresh_scan, after=refresh_done)
    patch_fn(lifetime, "replay", name="lifetime.replay")

    # degradation and urt
    patch_method(RetentionModel3D, "eval", name="degradation.eval")
    patch_method(urt.AccelLog, "update", name="urt.update",
                 before=lambda log, af_value, tick_s: tr.count("urt.update_sim_s",
                                                               float(tick_s)))
    patch_method(urt.AccelLog, "effective_time", name="urt.effective_time")
    patch_fn(urt, "temp_generate", name="urt.temp_generate")
    patch_fn(urt, "urt_predict", name="urt.urt_predict")

    # controller.heatwatch and controller.policies
    patch_fn(heatwatch, "collect_samples", name="heatwatch.collect_samples",
             after=lambda res, _s, *a, **k: tr.count("heatwatch.samples", len(res)))
    patch_fn(heatwatch, "truth_models", name="heatwatch.truth_models")
    patch_fn(heatwatch, "policy_worst_rber", name="heatwatch.worst_rber")
    patch_fn(policies, "policy_refs",
             name_of=lambda policy, *a, **k: f"policies.refs.{policy}")

    # models
    for attr in ("estimate_rber", "predict_vopt", "sweep_vopt"):
        patch_fn(applications, attr, name=f"applications.{attr}")
    patch_fn(cdf, "state_cdf", name="cdf.state_cdf")
    patch_fn(cdf, "model_density", name="cdf.model_density")
    patch_fn(fitting, "fit_static",
             name_of=lambda hist, family, *a, **k: f"fitting.fit_static.{family}")

    # The stage objectives are closures inside fit_static; wrap them where
    # they are handed to the simplex.
    objective_ids = {"objective": tr.intern("fitting.state_objective"),
                     "joint_objective": tr.intern("fitting.joint_objective")}
    orig_nm = simplex.nelder_mead

    def nelder_mead(objective, *args, **kw):
        nid = objective_ids.get(getattr(objective, "__name__", ""))
        if nid is None:
            return orig_nm(objective, *args, **kw)

        def traced_objective(x):
            i = tr.open()
            try:
                return objective(x)
            finally:
                tr.close(i, nid)
        return orig_nm(traced_objective, *args, **kw)
    _replace_everywhere(orig_nm, functools.wraps(orig_nm)(nelder_mead))


def span_cost(n=100_000):
    """Host seconds per traced call spent outside the call's own span.

    That share lands in the caller's self time. Measured on a wrapped
    no-op, net of calling the bare no-op, best of three.
    """
    def noop():
        return None

    best = math.inf
    for _ in range(3):
        tr = Tracer()
        traced = _wrap(tr, noop, name="noop")
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        inside = float((np.asarray(tr.end) - np.asarray(tr.start)).sum())
        best = min(best, (t1 - t0 - inside - (t2 - t1)) / n)
    return max(best, 0.0)


# --- summary ----------------------------------------------------------------


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tr):
    """Per-layer numbers from the recorded spans; un-timed "_us" are p50."""
    names = np.array(tr.names + ["?"])
    name = np.asarray(tr.name)
    parent = np.asarray(tr.parent)
    dur = np.asarray(tr.end) - np.asarray(tr.start)
    label = names[name]
    c = tr.counters

    def durs(span):
        return dur[label == span]

    def total(span):
        return float(durs(span).sum())

    def calls(span):
        return int(np.count_nonzero(label == span))

    def under(span, ancestor):
        """Spans named ``span`` with an ancestor named ``ancestor``."""
        idx = np.flatnonzero(label == span)
        hits = np.zeros(idx.size, dtype=bool)
        cur = parent[idx]
        while True:
            live = cur >= 0
            if not live.any():
                return idx[hits]
            hits[live] |= label[cur[live]] == ancestor
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)

    us, ms = 1e6, 1e3
    m = {}
    m["trace.parse_s"] = total("trace.parse")
    m["trace.parse_events_per_s"] = (c.get("trace.events", 0) / m["trace.parse_s"]
                                     if m["trace.parse_s"] else 0.0)

    m["ftl.host_write_us.p50"] = _pct(durs("ftl.host_write"), 50) * us
    m["ftl.host_write_us.p99"] = _pct(durs("ftl.host_write"), 99) * us
    m["ftl.reclaim_write_us.p50"] = _pct(durs("ftl.reclaim_write"), 50) * us
    m["ftl.reclaim_write_us.p99"] = _pct(durs("ftl.reclaim_write"), 99) * us
    m["ftl.reclaim_calls"] = calls("ftl.reclaim_write")
    erases = sum(d.erases for d in tr.drives)
    migrated = sum(sum(d.writes.values()) - d.writes["host"] for d in tr.drives)
    m["ftl.migrated_per_erase"] = migrated / erases if erases else 0.0
    m["ftl.host_read_us.p50"] = _pct(durs("ftl.host_read"), 50) * us

    m["warm.route_us.p50"] = _pct(durs("warm.route"), 50) * us
    m["warm.tune_calls"] = calls("warm.tune")
    m["warm.tune_ms"] = total("warm.tune") * ms

    m["refresh.pass_ms.p50"] = _pct(durs("refresh.pass"), 50) * ms
    m["refresh.pass_ms.p99"] = _pct(durs("refresh.pass"), 99) * ms
    m["refresh.passes"] = calls("refresh.pass")
    m["refresh.blocks_refreshed"] = c.get("refresh.blocks_refreshed", 0)
    scanned = c.get("refresh.scanned", 0)
    m["refresh.yield"] = m["refresh.blocks_refreshed"] / scanned if scanned else 0.0

    replay = np.flatnonzero(label == "lifetime.replay")
    is_child = np.isin(parent, replay) & np.isin(
        label, ["ftl.host_write", "ftl.reclaim_write", "ftl.host_read",
                "refresh.pass"])
    m["tracing.span_cost_us"] = span_cost() * us
    m["lifetime.replay_self_s"] = float(
        dur[replay].sum() - dur[is_child].sum()
        - np.count_nonzero(is_child) * m["tracing.span_cost_us"] / us)

    m["degradation.eval_us"] = _pct(durs("degradation.eval"), 50) * us
    m["degradation.eval_calls"] = calls("degradation.eval")

    m["urt.update_us.p50"] = _pct(durs("urt.update"), 50) * us
    sim_h = c.get("urt.update_sim_s", 0.0) / 3600.0
    m["urt.update_ms_per_sim_hour"] = total("urt.update") * ms / sim_h if sim_h else 0.0
    m["urt.update_calls"] = calls("urt.update")
    m["urt.effective_time_us.p50"] = _pct(durs("urt.effective_time"), 50) * us
    m["urt.effective_time_us.p99"] = _pct(durs("urt.effective_time"), 99) * us
    m["urt.effective_time_calls"] = calls("urt.effective_time")
    m["urt.temp_generate_us"] = _pct(durs("urt.temp_generate"), 50) * us
    m["urt.urt_predict_us"] = _pct(durs("urt.urt_predict"), 50) * us

    m["heatwatch.collect_samples_s"] = total("heatwatch.collect_samples")
    eff_in_collect = under("urt.effective_time", "heatwatch.collect_samples").size
    m["heatwatch.sample_yield"] = (c.get("heatwatch.samples", 0) / eff_in_collect
                                   if eff_in_collect else 0.0)
    m["heatwatch.truth_models_us"] = _pct(durs("heatwatch.truth_models"), 50) * us
    m["heatwatch.worst_rber_ms"] = _pct(durs("heatwatch.worst_rber"), 50) * ms
    m["heatwatch.worst_rber_calls"] = calls("heatwatch.worst_rber")

    for p in heatwatch.HEATWATCH_POLICIES:
        m[f"policies.refs_us.{p}"] = _pct(durs(f"policies.refs.{p}"), 50) * us

    for fn in ("estimate_rber", "predict_vopt", "sweep_vopt"):
        m[f"applications.{fn}_us"] = _pct(durs(f"applications.{fn}"), 50) * us

    for fn in ("state_cdf", "model_density"):
        m[f"cdf.{fn}_us"] = _pct(durs(f"cdf.{fn}"), 50) * us
        m[f"cdf.{fn}_calls"] = calls(f"cdf.{fn}")

    for fam in WORKLOADS["fit-compare"].spec["families"]:
        fit = f"fitting.fit_static.{fam}"
        m[f"fitting.fit_static_s.{fam}"] = total(fit)
        m[f"fitting.objective_evals.{fam}"] = int(
            under("fitting.state_objective", fit).size
            + under("fitting.joint_objective", fit).size)
    m["fitting.state_objective_us"] = _pct(durs("fitting.state_objective"), 50) * us
    m["fitting.joint_objective_us"] = _pct(durs("fitting.joint_objective"), 50) * us

    m["tracing.spans"] = len(dur)
    return m
