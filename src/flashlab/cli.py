"""Command-line surface.

Subcommands: fit, simulate, plan, layout, trace-stats. All outputs are
JSON or CSV; every run writes a manifest (config hash, seed, package
versions) next to its artifacts. ``simulate`` starts a run at the
trace's first event, which it takes as time 0: the daily series and the
heatwatch temperature profile's phase both start there. Exit codes: 0 ok,
2 configuration error, 3 non-convergence, 4 uncorrectable data or
infeasible layout.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .channel import load_histogram_csv
from .models import (dynamic_to_dict, fit_static, fit_dynamic, predict_static,
                     save_models_json)
from .models.cdf import FAMILIES
from .degradation import RetentionModel3D
from . import urt as urt_mod
from . import trace as trace_mod
from .raid_ecc import (EccConfig, ParityConfig, ecc_failure_rate, lb_fail,
                       parity_fail, op_fraction, lifetime_years,
                       multirate_lifetime, li_raid_layout, conventional_layout,
                       export_layout_csv, InfeasibleLayout)
from .controller import (Geometry, RefreshConfig, LifetimeConfig, run_lifetime,
                         SECONDS_PER_DAY)
from .controller.heatwatch import HeatwatchConfig, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_UNCORRECTABLE = 4


class ConfigError(ValueError):
    pass


def _load_config(path):
    """The JSON object in the config file at ``path``."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object, not a"
                          f" {type(doc).__name__}")
    return doc


def _write_manifest(out_dir, command, config_obj, seed):
    os.makedirs(out_dir, exist_ok=True)
    blob = json.dumps(config_obj, sort_keys=True, default=str).encode()
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "versions": {
            "flashlab": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# --- fit --------------------------------------------------------------


_USABLE_KL = 0.01


def _nonconverged(fr):
    """A fit counts as failed only when some simplex stage ran out of
    iterations AND the resulting model is unusable. A stage stops once its
    simplex, or its KL values, agree to ``nelder_mead``'s tolerance, so a
    stage that uses up its budget was still moving; the fit's model is
    kept if its KL is usable anyway."""
    return not fr.converged and not (fr.kl_error == fr.kl_error
                                     and fr.kl_error <= _USABLE_KL)


def _pec_from_name(path):
    """The P/E count a histogram's file stem names: its one run of digits."""
    runs = re.findall(r"[0-9]+", os.path.splitext(os.path.basename(path))[0])
    if len(runs) != 1:
        raise ConfigError(f"cannot infer P/E count from filename {path!r}: it"
                          " needs exactly one run of digits; use --pecs")
    return int(runs[0])


def _compare_families(spec):
    """The families a ``--compare`` list names, each known and named once."""
    families = spec.split(",")
    for name in families:
        if name not in FAMILIES:
            raise ConfigError(f"--compare entry {name!r} is not one of"
                              f" {', '.join(FAMILIES)}")
        if families.count(name) > 1:
            raise ConfigError(f"--compare entry {name!r} is repeated")
    return families


def _dynamic_pecs(args):
    """One P/E count per input, from ``--pecs`` or the file names: each a
    count >= 0, with at least 3 distinct positive ones to fit a power law
    through."""
    pecs = ([int(p) for p in args.pecs.split(",")] if args.pecs
            else [_pec_from_name(p) for p in args.inputs])
    if len(pecs) != len(args.inputs):
        raise ConfigError("--pecs count must match inputs")
    if min(pecs) < 0:
        raise ConfigError(f"P/E count {min(pecs)} is negative")
    if len({p for p in pecs if p > 0}) < 3:
        raise ConfigError("--dynamic needs at least 3 distinct positive P/E"
                          f" counts, got {pecs}")
    return pecs


def cmd_fit(args):
    if args.dynamic and args.compare:
        raise ConfigError("--dynamic fits the one --family; it cannot"
                          " --compare families")
    for opt in ("predict", "pecs"):
        if getattr(args, opt) is not None and not args.dynamic:
            raise ConfigError(f"--{opt} needs --dynamic")
    families = (_compare_families(args.compare) if args.compare
                else [args.family])
    if args.predict is not None and not (math.isfinite(args.predict)
                                         and args.predict >= 0):
        raise ConfigError(f"--predict {args.predict} is not a finite P/E"
                          " count >= 0")
    pecs = _dynamic_pecs(args) if args.dynamic else None
    out_dir = args.out
    _write_manifest(out_dir, "fit", vars(args), args.seed)

    if args.dynamic:
        family = families[0]
        fits = []
        for pec, path in sorted(zip(pecs, args.inputs)):
            fr = fit_static(load_histogram_csv(path), family)
            if _nonconverged(fr):
                return EXIT_NONCONVERGENCE
            fits.append((pec, fr))
            print(f"pec={pec} kl={fr.kl_error:.6f}")
        dynamic = fit_dynamic(fits, family)
        if args.predict is not None:
            models, clamped = predict_static(dynamic, args.predict, family)
            save_models_json(models, os.path.join(out_dir, "model.json"))
            print(f"predicted model at pec={args.predict}"
                  + (" (clamped)" if clamped else ""))
        with open(os.path.join(out_dir, "dynamic.json"), "w") as fh:
            json.dump(dynamic_to_dict(dynamic), fh, indent=2, sort_keys=True)
        return EXIT_OK

    hist = load_histogram_csv(args.inputs[0])
    results = {}
    for family in families:
        fr = fit_static(hist, family)
        results[family] = fr
        print(f"{family}: kl={fr.kl_error:.6f} iters={fr.iterations}"
              f" converged={fr.converged}")
    best = min(results, key=lambda f: results[f].kl_error)
    save_models_json(results[best].params, os.path.join(out_dir, "model.json"))
    if any(_nonconverged(r) for r in results.values()):
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# --- simulate -----------------------------------------------------------


def _parse_refresh(spec):
    if spec in (None, "none"):
        return RefreshConfig(mode="none")
    if spec == "adaptive":
        return RefreshConfig(mode="adaptive")
    if spec.startswith("fcr:"):
        val = spec[4:]
        if not val.endswith("d"):
            raise ConfigError("fcr period must look like fcr:3d")
        days = float(val[:-1])
        if not 0 < days < math.inf:
            raise ConfigError(f"fcr period {val!r} must be a positive, finite"
                              " number of days")
        return RefreshConfig(mode="fcr", period_s=days * SECONDS_PER_DAY)
    raise ConfigError(f"unknown refresh spec {spec!r}")


# The int64 P/E counters start at initial_pec; this leaves them room to
# count erases.
_MAX_INITIAL_PEC = 2 ** 62
_POLICY_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
_POLICY_KEYS = {"name", "capacity_bytes", "op_fraction", "refresh", "warm",
                "initial_pec", "mode", "ecc_limit"}


def _json_int(x):
    """A JSON integer, not true/false."""
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_number(x):
    """A JSON number other than true/false, NaN or an infinity."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _ecc_limit(x):
    """A number in (0, 0.5): at 0.5 and above no ECC can correct a read."""
    return _finite_number(x) and 0 < x < 0.5


def _check_keys(doc, allowed, where):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")


def _check_policies(policies):
    """Check every policy entry and build its LifetimeConfig before any
    policy runs; returns [(name, config)]. An entry has only
    ``_POLICY_KEYS``. A name must be a plain file stem, unique and not
    ``manifest``, since it names the policy's artifacts; ``refresh`` is a
    string, ``warm`` a JSON boolean, ``initial_pec`` a non-negative JSON
    integer below ``_MAX_INITIAL_PEC``, ``capacity_bytes`` a JSON integer,
    ``op_fraction`` a JSON number and ``ecc_limit`` an ``_ecc_limit``; the
    geometry and mode must make a valid config."""
    if not isinstance(policies, list) or not policies:
        raise ConfigError("config needs a 'policies' list")
    configs = []
    for p in policies:
        name = p.get("name") if isinstance(p, dict) else None
        if (not isinstance(name, str) or not _POLICY_NAME.fullmatch(name)
                or name == "manifest" or name in dict(configs)):
            raise ConfigError(f"policy name {name!r} must be a unique plain"
                              " file stem other than 'manifest'")
        _check_keys(p, _POLICY_KEYS, f"policy {name!r}")
        pec = p.get("initial_pec", 0)
        if (not isinstance(p.get("refresh", ""), str)
                or not isinstance(p.get("warm", False), bool)
                or not _json_int(pec) or not 0 <= pec < _MAX_INITIAL_PEC
                or not _json_int(p.get("capacity_bytes", 0))
                or ("op_fraction" in p and not _finite_number(p["op_fraction"]))
                or ("ecc_limit" in p and not _ecc_limit(p["ecc_limit"]))):
            raise ConfigError(f"policy {name!r}: refresh must be a string, warm"
                              " true or false, initial_pec a non-negative"
                              " integer below 2**62, capacity_bytes an integer,"
                              " op_fraction a number and ecc_limit a number"
                              " in (0, 0.5)")
        try:
            geom_kw = ({"op_fraction": p["op_fraction"]}
                       if "op_fraction" in p else {})
            cfg = LifetimeConfig(
                geometry=Geometry(p.get("capacity_bytes", 1 << 30), **geom_kw),
                warm=p.get("warm", False),
                refresh=_parse_refresh(p.get("refresh")),
                initial_pec=pec,
                mode=p.get("mode", "analytic"),
                ecc_limit=p.get("ecc_limit"),
            )
        except ValueError as exc:
            raise ConfigError(f"policy {name!r}: {exc}") from exc
        configs.append((name, cfg))
    return configs


def _one_lifetime(item):
    name, cfg, trace = item
    return name, run_lifetime(trace, cfg)


def _load_trace(path):
    """The canonical trace at ``path``, rebased so that its first event is
    at time 0; a ConfigError names the first event whose timestamp is
    below the one before it, since every replay walks time forward."""
    trace, _ = trace_mod.parse_canonical(path)
    ts = trace.timestamp_us
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if back.size:
        i = int(back[0]) + 1
        raise ConfigError(f"trace timestamps decrease at event {i} (counting"
                          f" from 0): timestamp_us {ts[i]} follows"
                          f" {ts[i - 1]}")
    if len(ts) and ts[0]:
        if int(ts[-1]) - int(ts[0]) > np.iinfo(np.int64).max:
            raise ConfigError("trace spans more microseconds than int64 holds")
        trace.timestamp_us = ts - ts[0]
    return trace


_TEMP_KEYS = {f.name for f in dataclasses.fields(urt_mod.TempTrace)} - {"seed"}
_HEATWATCH_KEYS = {"experiment", "temp", "max_samples", "ecc_limit"}


def _heatwatch_config(doc, seed):
    """The heatwatch experiment's HeatwatchConfig and ECC limit: the config
    has only ``_HEATWATCH_KEYS``, ``temp`` maps TempTrace fields other than
    ``seed`` to numbers, with a positive ``period_s`` and a non-negative
    ``noise_sigma_c``, ``max_samples`` is a positive integer and
    ``ecc_limit`` an ``_ecc_limit``; ``seed``, the noise seed, is
    non-negative."""
    if seed < 0:
        raise ConfigError(f"--seed {seed} must be non-negative: it seeds the"
                          " heatwatch temperature noise")
    _check_keys(doc, _HEATWATCH_KEYS, "heatwatch config")
    temp = doc.get("temp", {})
    max_samples = doc.get("max_samples", 300)
    ecc_limit = doc.get("ecc_limit", 2e-3)
    if (not isinstance(temp, dict) or not set(temp) <= _TEMP_KEYS
            or not all(map(_finite_number, temp.values()))):
        raise ConfigError(f"temp must map some of {sorted(_TEMP_KEYS)} to"
                          f" numbers, not {temp!r}")
    if temp.get("period_s", 1) <= 0 or temp.get("noise_sigma_c", 0) < 0:
        raise ConfigError(f"temp period_s must be positive and noise_sigma_c"
                          f" non-negative, not {temp!r}")
    if not _json_int(max_samples) or max_samples < 1:
        raise ConfigError(f"max_samples {max_samples!r} must be a positive"
                          " integer")
    if not _ecc_limit(ecc_limit):
        raise ConfigError(f"ecc_limit {ecc_limit!r} must lie in (0, 0.5)")
    cfg = HeatwatchConfig(temp=urt_mod.TempTrace(seed=seed, **temp),
                          max_samples=max_samples)
    return cfg, float(ecc_limit)


def cmd_simulate(args):
    doc = _load_config(args.config)
    out_dir = args.out
    _write_manifest(out_dir, "simulate", doc, args.seed)

    if doc.get("experiment") == "heatwatch":
        hw_cfg, ecc_limit = _heatwatch_config(doc, args.seed)
        trace = _load_trace(args.trace)
        rm = RetentionModel3D()
        pack = urt_mod.calibration_pack_from_retention(rm)
        res = run_experiment(trace, pack, rm, ecc_limit, cfg=hw_cfg)
        with open(os.path.join(out_dir, "heatwatch.json"), "w") as fh:
            json.dump(res, fh, indent=2, sort_keys=True)
        print(json.dumps(res, sort_keys=True))
        return EXIT_OK

    _check_keys(doc, {"policies"}, "policies config")
    configs = _check_policies(doc.get("policies"))
    trace = _load_trace(args.trace)
    items = [(name, cfg, trace) for name, cfg in configs]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = dict(pool.map(_one_lifetime, items))
    else:
        results = dict(map(_one_lifetime, items))

    worst = EXIT_OK
    for name in sorted(results):
        rep = results[name]
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            fh.write(rep.to_json())
        with open(os.path.join(out_dir, f"{name}_series.csv"), "w") as fh:
            fh.write(rep.series_csv())
        print(f"{name}: lifetime_days="
              f"{'inf' if math.isinf(rep.lifetime_days) else round(rep.lifetime_days, 1)}"
              f" wa={rep.write_amplification:.3f}")
        if rep.lifetime_days <= 0:
            worst = EXIT_UNCORRECTABLE
    return worst


# --- plan ----------------------------------------------------------------


def cmd_plan(args):
    doc = _load_config(args.config)
    out_dir = args.out
    _write_manifest(out_dir, "plan", doc, args.seed)
    try:
        out = _plan_tables(doc)
    except TypeError as exc:  # a section of the wrong JSON type
        raise ConfigError(f"plan config: {exc}") from exc
    with open(os.path.join(out_dir, "plan.json"), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _plan_field(section, where, key, check, default=None, minimum=None):
    """``section[key]``, or ``default`` if one is given and the key is
    absent, once ``check`` (``_json_int`` or ``_finite_number``) accepts
    it and it is at least ``minimum``, if one is given; else a
    ConfigError naming ``where.key``."""
    value = section[key] if default is None or key in section else default
    if not check(value):
        kind = "an integer" if check is _json_int else "a finite number"
        raise ConfigError(f"plan {where}.{key} {value!r} must be {kind}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"plan {where}.{key} {value!r} must be at least"
                          f" {minimum!r}")
    return value


# Each plan section's fields; an ``op`` section is a list of such entries.
_PLAN_KEYS = {
    "ecc": {"codeword_len", "correctable", "coding_rate"},
    "rber": set(),
    "parity": {"chips", "dies", "codewords_per_lb", "p_hgbb"},
    "op": {"pba", "lba"},
    "lifetime": {"pec", "op", "dwpd", "wa", "r_compress"},
    "multirate": {"schedule", "dwpd", "r_compress"},
}


def _plan_tables(doc):
    """The tables of each section the plan config holds. Sections and
    their fields are those of ``_PLAN_KEYS``, and ``rber`` and ``parity``
    need ``ecc``. Counts are JSON integers and every other value a finite
    JSON number; a string, a boolean or a fraction where an integer
    belongs is a ConfigError. So is a physically impossible value: an
    ``op`` entry with fewer physical than logical bytes, a ``lifetime``
    ``pec`` or ``op`` below 0, or an empty ``multirate`` schedule."""
    _check_keys(doc, set(_PLAN_KEYS), "plan config")
    for name, section in doc.items():
        if name in ("rber", "parity") and "ecc" not in doc:
            raise ConfigError(f"plan {name} needs an ecc section")
        for entry in section if name == "op" else [section]:
            if isinstance(entry, dict):
                _check_keys(entry, _PLAN_KEYS[name], f"plan {name}")
    out = {}

    if "ecc" in doc:
        e = doc["ecc"]
        ecc = EccConfig(_plan_field(e, "ecc", "codeword_len", _json_int),
                        _plan_field(e, "ecc", "correctable", _json_int),
                        float(_plan_field(e, "ecc", "coding_rate",
                                          _finite_number, 0.9)))
        rbers = doc.get("rber", [1e-3])
        rbers = rbers if isinstance(rbers, list) else [rbers]
        rows = []
        for i in range(len(rbers)):
            r = _plan_field(rbers, "rber", i, _finite_number)
            p_ecfr = ecc_failure_rate(ecc, float(r))
            row = {"rber": r, "p_ecfr": p_ecfr}
            if "parity" in doc:
                pa = doc["parity"]
                par = ParityConfig(
                    _plan_field(pa, "parity", "chips", _json_int),
                    _plan_field(pa, "parity", "dies", _json_int),
                    _plan_field(pa, "parity", "codewords_per_lb", _json_int, 1),
                    float(_plan_field(pa, "parity", "p_hgbb",
                                      _finite_number, 0.0)))
                p_lb = lb_fail(par, p_ecfr)
                row["p_lb_fail"] = p_lb
                row["p_parity_fail"] = parity_fail(par, p_lb)
            rows.append(row)
        out["ecc"] = rows

    if "op" in doc:
        out["op"] = []
        for e in doc["op"]:
            # spare area is physical less logical capacity; never below 0
            lba = _plan_field(e, "op", "lba", _finite_number)
            pba = _plan_field(e, "op", "pba", _finite_number, minimum=lba)
            out["op"].append({"pba": pba, "lba": lba, "op_fraction":
                              op_fraction(float(pba), float(lba))})

    if "lifetime" in doc:
        lt = doc["lifetime"]
        out["lifetime_years"] = lifetime_years(
            *(float(_plan_field(lt, "lifetime", k, _finite_number,
                                minimum=0 if k in ("pec", "op") else None))
              for k in ("pec", "op", "dwpd", "wa")),
            float(_plan_field(lt, "lifetime", "r_compress", _finite_number, 1.0)))

    if "multirate" in doc:
        mr = doc["multirate"]
        if mr["schedule"] == []:
            raise ConfigError("plan multirate.schedule needs at least one"
                              " (pec_increment, op, wa, rate) entry")
        schedule = [tuple(float(_plan_field(e, f"multirate.schedule.{j}", i,
                                            _finite_number))
                          for i in range(len(e)))
                    for j, e in enumerate(mr["schedule"])]
        out["multirate_lifetime_years"] = multirate_lifetime(
            schedule, float(_plan_field(mr, "multirate", "dwpd", _finite_number)),
            float(_plan_field(mr, "multirate", "r_compress", _finite_number, 1.0)))
    return out


# --- layout ---------------------------------------------------------------


def cmd_layout(args):
    if args.chips < 1 or args.wordlines < 1:
        raise ConfigError(f"--chips {args.chips} and --wordlines"
                          f" {args.wordlines} must both be positive")
    _write_manifest(args.out, "layout", vars(args), args.seed)
    try:
        if args.kind == "li_raid":
            layout = li_raid_layout(args.chips, args.wordlines)
        else:
            layout = conventional_layout(args.chips, args.wordlines)
    except InfeasibleLayout as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_UNCORRECTABLE
    path = os.path.join(args.out, f"{args.kind}_{args.chips}x{args.wordlines}.csv")
    export_layout_csv(layout, path)
    print(f"{layout.kind}: {layout.n_groups} groups"
          + (" (padded)" if layout.flagged else ""))
    return EXIT_OK


# --- trace-stats -----------------------------------------------------------


def cmd_trace_stats(args):
    trace_mod.check_page_size(args.page_size)
    if args.msr:
        trace, skipped = trace_mod.parse_msr(args.trace)
    else:
        trace, skipped = trace_mod.parse_canonical(args.trace)
    writes = int(np.count_nonzero(trace.is_write))
    reads = len(trace) - writes
    ts = trace.timestamp_us
    dur_s = (int(ts[-1]) - int(ts[0])) / 1e6 if len(trace) > 1 else 0.0
    # a Python sum, exact where an int64 total could wrap
    bytes_w = sum(trace.size_bytes[trace.is_write].tolist())
    print(f"events={len(trace)} reads={reads} writes={writes}"
          f" skipped={skipped} duration_s={dur_s:.1f}"
          f" written_bytes={bytes_w}")
    frac_pages, frac_writes = trace_mod.hotness_cdf(trace, args.page_size)
    if frac_pages.size:
        for pct in (0.01, 0.05, 0.20):
            share = float(np.interp(pct, frac_pages, frac_writes))
            print(f"hottest {pct:.0%} of pages absorb {share:.1%} of writes")
    if args.canonical_out:
        trace_mod.write_canonical(trace, args.canonical_out)
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="flashlab")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("fit", help="fit channel models to histograms")
    f.add_argument("inputs", nargs="+")
    f.add_argument("--family", default="student_t", choices=FAMILIES)
    f.add_argument("--compare", help="comma list of families to rank by KL")
    f.add_argument("--dynamic", action="store_true")
    f.add_argument("--pecs", help="comma list of P/E counts per input")
    f.add_argument("--predict", type=float)
    f.set_defaults(fn=cmd_fit)

    s = sub.add_parser("simulate", help="trace-driven lifetime / policy runs")
    s.add_argument("--config", required=True)
    s.add_argument("--trace", required=True)
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(fn=cmd_simulate)

    pl = sub.add_parser("plan", help="analytic ECC/RAID/lifetime tables")
    pl.add_argument("--config", required=True)
    pl.set_defaults(fn=cmd_plan)

    la = sub.add_parser("layout", help="RAID parity layouts")
    la.add_argument("--chips", type=int, required=True)
    la.add_argument("--wordlines", type=int, required=True)
    la.add_argument("--kind", default="li_raid",
                    choices=("li_raid", "conventional"))
    la.set_defaults(fn=cmd_layout)

    t = sub.add_parser("trace-stats", help="summarize a block trace")
    t.add_argument("trace")
    t.add_argument("--msr", action="store_true")
    t.add_argument("--page-size", type=int, default=8192)
    t.add_argument("--canonical-out")
    t.set_defaults(fn=cmd_trace_stats)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
