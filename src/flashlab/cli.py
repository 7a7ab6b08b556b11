"""Command-line surface.

Subcommands: fit, simulate, plan, layout, trace-stats. All outputs are
JSON or CSV; ``fit``, ``simulate``, ``plan`` and ``layout`` write a
manifest (config hash, seed, package versions) just before their first
artifact, so a run that stops before it, as a config error does whether
the checks or the run find it, writes nothing. ``simulate`` starts a run
at the trace's first event, which it takes as time 0: the daily series
and the heatwatch temperature profile's phase both start there. Exit
codes: 0 ok, 2 configuration error, 3 non-convergence, 4 uncorrectable
data or infeasible layout.

The key tables ``_POLICY`` (``simulate``'s policies), ``_HEATWATCH`` with
``_TEMP`` (``simulate``'s heatwatch experiment) and ``_PLAN`` with
``_PLAN_OP`` (``plan``) list every key a config document takes, with its
kind, range and default; ``_checked`` walks them.
"""

import argparse
import hashlib
import json
import math
import os
import re
import sys

import numpy as np
import scipy  # loaded with the models' scipy.special, so free here

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


def _options(args):
    """The parsed options without the subcommand function and --out."""
    return {k: v for k, v in vars(args).items() if k not in ("fn", "out")}


def _write_manifest(out_dir, command, config_obj, seed):
    os.makedirs(out_dir, exist_ok=True)
    blob = json.dumps(config_obj, sort_keys=True).encode()
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "versions": {
            "flashlab": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "scipy": scipy.__version__,
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# --- config documents ----------------------------------------------------
#
# A key table maps each key of a config object to (kind, default,
# interval). A kind is int (a JSON integer, not true/false), float (a JSON
# number finite as a float), bool, str, dict (any object), a nested table
# or [kind], a non-empty list of kind. An absent key takes its default,
# checked like a given value, or stays None; ... marks a required key. An
# interval such as "(0, 0.5)" or "[1, inf)" bounds a number or a list's.

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", dict: "an object"}


def _checked(value, kind, path, interval=None, sep="."):
    """``value`` once it is of ``kind`` and within ``interval``: for a
    table, a dict of every key it lists. A key's path is ``path``, ``sep``
    and the key; a list element's is ``path``, "." and its index. The
    ConfigError reads ``<path>: unknown key 'k'``, ``<path>.<key> is
    required`` or ``<path> <value!r> must be ...``."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} {value!r} must be an object")
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
        out = dict.fromkeys(kind)
        for key, (sub, default, bounds) in kind.items():
            if key not in value and default is ...:
                raise ConfigError(f"{path}{sep}{key} is required")
            if key in value or default is not None:
                out[key] = _checked(value.get(key, default), sub,
                                    f"{path}{sep}{key}", bounds)
        return out
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} {value!r} must be a list")
        if not value:
            raise ConfigError(f"{path} needs at least one entry")
        return [_checked(v, kind[0], f"{path}.{i}", interval)
                for i, v in enumerate(value)]
    if not (isinstance(value, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(value, bool))
            and (kind is not float or abs(value) <= sys.float_info.max)):
        raise ConfigError(f"{path} {value!r} must be {_KINDS[kind]}")
    if interval:
        lo, hi = interval[1:-1].split(", ")
        if not ((float(lo) <= value if interval[0] == "[" else float(lo) < value)
                and (value <= float(hi) if interval[-1] == "]"
                     else value < float(hi))):
            raise ConfigError(f"{path} {value!r} must be " + (
                f"{'at least' if interval[0] == '[' else 'above'} {lo}"
                if hi == "inf" else f"in {interval}"))
    return value


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
    if len(args.inputs) > 1 and not args.dynamic:
        raise ConfigError(f"a static fit takes one histogram, not"
                          f" {len(args.inputs)}; --dynamic fits several")
    # every input is read before anything is written
    pecs = _dynamic_pecs(args) if args.dynamic else [None]
    hists = [(pec, load_histogram_csv(path))
             for pec, path in sorted(zip(pecs, args.inputs))]
    out_dir = args.out

    if args.dynamic:
        family = families[0]
        fits = []
        for pec, hist in hists:
            fr = fit_static(hist, family)
            if _nonconverged(fr):
                return EXIT_NONCONVERGENCE
            fits.append((pec, fr))
            print(f"pec={pec} kl={fr.kl_error:.6f}")
        dynamic = fit_dynamic(fits, family)
        _write_manifest(out_dir, "fit", _options(args), args.seed)
        if args.predict is not None:
            models, clamped = predict_static(dynamic, args.predict, family)
            save_models_json(models, os.path.join(out_dir, "model.json"))
            print(f"predicted model at pec={args.predict}"
                  + (" (clamped)" if clamped else ""))
        with open(os.path.join(out_dir, "dynamic.json"), "w") as fh:
            json.dump(dynamic_to_dict(dynamic), fh, indent=2, sort_keys=True)
        return EXIT_OK

    hist = hists[0][1]
    results = {}
    for family in families:
        fr = fit_static(hist, family)
        results[family] = fr
        print(f"{family}: kl={fr.kl_error:.6f} iters={fr.iterations}"
              f" converged={fr.converged}")
    best = min(results, key=lambda f: results[f].kl_error)
    _write_manifest(out_dir, "fit", _options(args), args.seed)
    save_models_json(results[best].params, os.path.join(out_dir, "model.json"))
    if any(_nonconverged(r) for r in results.values()):
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# --- simulate -----------------------------------------------------------


def _parse_refresh(spec):
    if spec == "none":
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


_POLICY_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
_POLICY = {
    "name": (str, ..., None),
    "capacity_bytes": (int, 1 << 30, None),
    "op_fraction": (float, Geometry.op_fraction, "(0, 1)"),
    "refresh": (str, "none", None),
    "warm": (bool, LifetimeConfig.warm, None),
    # the int64 P/E counters start here; this leaves them room to count
    "initial_pec": (int, LifetimeConfig.initial_pec, f"[0, {2 ** 62})"),
    "mode": (str, LifetimeConfig.mode, None),
    # at 0.5 and above no ECC can correct a read
    "ecc_limit": (float, LifetimeConfig.ecc_limit, "(0, 0.5)"),
}


def _check_policies(doc):
    """{name: LifetimeConfig} for every entry of the policies config, each
    checked by ``_POLICY`` and built before any policy runs. A name must
    be a plain file stem, unique and not ``manifest``, since it names the
    policy's artifacts; the geometry and mode must make a valid config."""
    configs = {}
    entries = _checked(doc, {"policies": ([dict], ..., None)},
                       "policies config")["policies"]
    for i, entry in enumerate(entries):
        name = entry.get("name")
        if (not isinstance(name, str) or not _POLICY_NAME.fullmatch(name)
                or name == "manifest" or name in configs):
            raise ConfigError(f"policies config.policies.{i}.name {name!r}"
                              " must be a unique plain file stem other than"
                              " 'manifest'")
        where = f"policy {name!r}"
        p = _checked(entry, _POLICY, where)
        try:
            configs[name] = LifetimeConfig(
                Geometry(p["capacity_bytes"], op_fraction=p["op_fraction"]),
                warm=p["warm"], refresh=_parse_refresh(p["refresh"]),
                initial_pec=p["initial_pec"], mode=p["mode"],
                ecc_limit=p["ecc_limit"])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
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


_TEMP = {
    "mean_c": (float, urt_mod.TempTrace.mean_c, None),
    "amplitude_c": (float, urt_mod.TempTrace.amplitude_c, None),
    "period_s": (float, urt_mod.TempTrace.period_s, "(0, inf)"),
    "noise_sigma_c": (float, urt_mod.TempTrace.noise_sigma_c, "[0, inf)"),
}
_HEATWATCH = {
    "experiment": (str, ..., None),
    "temp": (_TEMP, {}, None),
    "max_samples": (int, HeatwatchConfig.max_samples, "[1, inf)"),
    "ecc_limit": (float, 2e-3, "(0, 0.5)"),   # the range of _POLICY's
}


def _heatwatch_config(doc, seed):
    """The heatwatch experiment's HeatwatchConfig and ECC limit, from a
    config checked by ``_HEATWATCH``; ``seed``, the noise seed, is
    non-negative."""
    if seed < 0:
        raise ConfigError(f"--seed {seed} must be non-negative: it seeds the"
                          " heatwatch temperature noise")
    hw = _checked(doc, _HEATWATCH, "heatwatch config")
    t = hw["temp"]
    temp = urt_mod.TempTrace(mean_c=t["mean_c"], amplitude_c=t["amplitude_c"],
                             period_s=t["period_s"],
                             noise_sigma_c=t["noise_sigma_c"], seed=seed)
    cfg = HeatwatchConfig(temp=temp, max_samples=hw["max_samples"])
    return cfg, float(hw["ecc_limit"])


def cmd_simulate(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs {args.jobs} must be at least 1")
    doc = _load_config(args.config)
    out_dir = args.out

    if doc.get("experiment") == "heatwatch":
        hw_cfg, ecc_limit = _heatwatch_config(doc, args.seed)
        trace = _load_trace(args.trace)
        pack = urt_mod.calibration_pack_from_retention()
        res = run_experiment(trace, pack, RetentionModel3D(), ecc_limit,
                             cfg=hw_cfg)
        _write_manifest(out_dir, "simulate", doc, args.seed)
        with open(os.path.join(out_dir, "heatwatch.json"), "w") as fh:
            json.dump(res, fh, indent=2, sort_keys=True)
        print(json.dumps(res, sort_keys=True))
        return EXIT_OK

    configs = _check_policies(doc)
    trace = _load_trace(args.trace)
    items = [(name, cfg, trace) for name, cfg in configs.items()]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = dict(pool.map(_one_lifetime, items))
    else:
        results = dict(map(_one_lifetime, items))

    _write_manifest(out_dir, "simulate", doc, args.seed)
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
    out = _plan_tables(doc)
    _write_manifest(out_dir, "plan", doc, args.seed)
    with open(os.path.join(out_dir, "plan.json"), "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


# Each plan section, its keys named ``plan <section>.<key>``; each entry
# of the ``op`` list is checked by ``_PLAN_OP`` as ``plan op``.
_PLAN = {
    "ecc": ({"codeword_len": (int, ..., None),
             "correctable": (int, ..., None),
             "coding_rate": (float, EccConfig.coding_rate, "(0, 1)")},
            None, None),
    "rber": ([float], [1e-3], "[0, 1]"),
    "parity": ({"chips": (int, ..., "[1, inf)"),
                "dies": (int, ..., "[1, inf)"),
                "codewords_per_lb": (int, ParityConfig.codewords_per_lb,
                                     "[1, inf)"),
                "p_hgbb": (float, ParityConfig.p_hgbb, "[0, 1]")}, None, None),
    "op": ([dict], None, None),
    "lifetime": ({"pec": (float, ..., "[0, inf)"),
                  "op": (float, ..., "[0, inf)"),
                  "dwpd": (float, ..., "(0, inf)"),
                  "wa": (float, ..., "(0, inf)"),
                  "r_compress": (float, 1.0, "(0, inf)")}, None, None),
    "multirate": ({"schedule": ([[float]], ..., None),
                   "dwpd": (float, ..., "(0, inf)"),
                   "r_compress": (float, 1.0, "(0, inf)")}, None, None),
}
_PLAN_OP = {"pba": (float, ..., None), "lba": (float, ..., "(0, inf)")}


def _plan_tables(doc):
    """The tables of each section the plan config holds, checked by
    ``_PLAN``; ``rber`` may be one rate rather than a list, and ``rber``
    and ``parity`` need ``ecc``. An ``op`` entry with fewer physical than
    logical bytes is a ConfigError too."""
    if not isinstance(doc.get("rber", []), list):
        doc = dict(doc, rber=[doc["rber"]])
    plan = _checked(doc, _PLAN, "plan", sep=" ")
    for name in ("rber", "parity"):
        if name in doc and "ecc" not in doc:
            raise ConfigError(f"plan {name} needs an ecc section")
    out = {}

    if plan["ecc"] is not None:
        e, pa = plan["ecc"], plan["parity"]
        ecc = EccConfig(e["codeword_len"], e["correctable"],
                        float(e["coding_rate"]))
        par = None if pa is None else ParityConfig(
            pa["chips"], pa["dies"], pa["codewords_per_lb"], float(pa["p_hgbb"]))
        out["ecc"] = []
        for r in plan["rber"]:
            row = {"rber": r, "p_ecfr": ecc_failure_rate(ecc, float(r))}
            if par:
                p_lb = lb_fail(par, row["p_ecfr"])
                row.update(p_lb_fail=p_lb, p_parity_fail=parity_fail(par, p_lb))
            out["ecc"].append(row)

    if plan["op"] is not None:
        out["op"] = []
        for entry in plan["op"]:
            e = _checked(entry, _PLAN_OP, "plan op")
            pba, lba = e["pba"], e["lba"]
            # spare area is physical less logical capacity; never below 0
            if pba < lba:
                raise ConfigError(f"plan op.pba {pba!r} must be at least"
                                  f" {lba!r}")
            out["op"].append({"pba": pba, "lba": lba, "op_fraction":
                              op_fraction(float(pba), float(lba))})

    if plan["lifetime"] is not None:
        lt = plan["lifetime"]
        out["lifetime_years"] = lifetime_years(
            *(float(lt[k]) for k in ("pec", "op", "dwpd", "wa", "r_compress")))

    if plan["multirate"] is not None:
        mr = plan["multirate"]
        out["multirate_lifetime_years"] = multirate_lifetime(
            [tuple(map(float, e)) for e in mr["schedule"]], float(mr["dwpd"]),
            float(mr["r_compress"]))
    return out


# --- layout ---------------------------------------------------------------


def cmd_layout(args):
    if args.chips < 1 or args.wordlines < 1:
        raise ConfigError(f"--chips {args.chips} and --wordlines"
                          f" {args.wordlines} must both be positive")
    try:
        if args.kind == "li_raid":
            layout = li_raid_layout(args.chips, args.wordlines)
        else:
            layout = conventional_layout(args.chips, args.wordlines)
    except InfeasibleLayout as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_UNCORRECTABLE
    _write_manifest(args.out, "layout", _options(args), args.seed)
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
    t.add_argument("--page-size", type=int, default=trace_mod.PAGE_SIZE)
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
