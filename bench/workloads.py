"""The four benchmark workloads: seeded inputs, CLI argv and output checks.

Inputs are generated here from the workload seed with numpy alone, so a
change to the program's own trace synthesis or channel sampler cannot
change what the benchmark feeds it. Every event is one 8 KiB page.

Checks test invariants, not golden values: fixing a modelling defect may
legitimately move the simulated numbers, but not these relations.
"""

import csv
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

DAY_S = 86400.0
PAGE = 8192
SECTORS_PER_PAGE = PAGE // 512
MB = 1 << 20

# Student's t channel of the acceptance test: per-state mean and scale,
# right tail nu=4, left tail nu=5, misprogram probability 1e-3 for ER->P3
# and P1->P2.
T_MEANS = (30.0, 110.0, 183.0, 260.0)
T_SIGMAS = (11.0, 9.0, 8.5, 8.0)
T_ALPHA, T_BETA, T_LAM = 4.0, 5.0, 1e-3
STATES = ("ER", "P1", "P2", "P3")
N_BINS = 304


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; its one-line "why" lives in BENCHMARK.json, and
    so do its per-layer metrics, named ``<workload>.<metric>``."""
    name: str
    kind: str          # "simulate" | "heatwatch" | "fit"
    spec: dict


WORKLOADS = {w.name: w for w in (
    # Hot data is 10% of the footprint, so the WARM tuner settles the same
    # way on every seed: GC plus demotion writes stay within about 3% of
    # their median. The trace ends before the first hourly refresh check,
    # and the hot-pool rotation needs far more wear, so neither runs.
    Workload(
        "warm-gc",
        "simulate",
        {"duration_s": 2400.0, "rate": 50.0, "footprint": 24 * MB,
         "hot_fraction": 0.1, "hot_share": 0.9, "read_fraction": 0.0,
         "policy": {"name": "run", "capacity_bytes": 32 * MB,
                    "mode": "analytic", "refresh": "fcr:3d", "warm": True}}),
    Workload(
        "refresh-read",
        "simulate",
        {"duration_s": 3 * DAY_S, "rate": 500_000 / (7 * DAY_S),
         "footprint": 768 * MB, "hot_fraction": 0.3, "hot_share": 0.9,
         "read_fraction": 0.3,
         "policy": {"name": "run", "capacity_bytes": 1024 * MB,
                    "mode": "direct", "ecc_limit": 2e-3, "refresh": "fcr:1d",
                    "warm": False, "initial_pec": 3200}}),
    Workload(
        "heatwatch",
        "heatwatch",
        {"duration_s": DAY_S, "rate": 0.25, "footprint": 1024 * MB,
         "hot_fraction": 0.02, "hot_share": 0.9, "read_fraction": 0.5,
         "config": {"experiment": "heatwatch", "max_samples": 40,
                    "ecc_limit": 2e-3,
                    "temp": {"mean_c": 35.0, "amplitude_c": 15.0,
                             "noise_sigma_c": 3.0}}}),
    Workload(
        "fit-compare",
        "fit",
        # normal_laplace is left out: it cannot fit a Student's t channel
        # to KL <= 0.01, so the CLI exits 3 (non-convergence) on every seed.
        # 1e7 cells rather than 1e6: the histogram then varies less with
        # the seed, and so does the simplex's iteration count.
        {"cells": 10_000_000, "families": ("gaussian", "student_t")}),
)}


# Which end-to-end metric each layer's numbers should move, and where.
LAYER_MAP = {
    "cli": "setup_s on all four workloads",
    "trace": "wall_s and events_per_s on refresh-read, warm-gc and "
             "heatwatch; absent from fit-compare",
    "controller.ftl": "wall_s on warm-gc, less on refresh-read; "
                      "host_read on refresh-read",
    "controller.warm": "wall_s on warm-gc only",
    "controller.refresh": "wall_s on refresh-read; never runs on warm-gc",
    "controller.lifetime": "wall_s on warm-gc and refresh-read",
    "degradation": "wall_s on refresh-read and heatwatch",
    "urt": "wall_s on heatwatch only",
    "controller.heatwatch": "wall_s on heatwatch",
    "controller.policies": "wall_s on heatwatch",
    "models.applications": "wall_s on heatwatch",
    "models.cdf": "wall_s on fit-compare and heatwatch",
    "models.fitting+simplex": "wall_s on fit-compare only",
}


# --- inputs -------------------------------------------------------------


def _write_trace(path, spec, rng):
    """Two-level skewed single-page trace in the canonical CSV format."""
    n = int(spec["duration_s"] * spec["rate"])
    n_pages = spec["footprint"] // PAGE
    n_hot = max(int(n_pages * spec["hot_fraction"]), 1)
    hot = rng.random(n) < spec["hot_share"]
    pages = np.where(hot, rng.integers(0, n_hot, n),
                     n_hot + rng.integers(0, n_pages - n_hot, n))
    reads = rng.random(n) < spec["read_fraction"]
    times = (np.arange(n) * (1e6 / spec["rate"])).astype(np.int64)
    lbas = pages * SECTORS_PER_PAGE
    ops = np.where(reads, "R", "W")
    with open(path, "w") as fh:
        fh.write("timestamp_us,op,lba,size_bytes\n")
        fh.writelines(f"{t},{o},{a},{PAGE}\n"
                      for t, o, a in zip(times.tolist(), ops.tolist(),
                                         lbas.tolist()))
    return {"events": n, "page_writes": int(n - reads.sum()),
            "reads": int(reads.sum()), "pages": int(n_pages)}


def _two_sided_t(rng, n, alpha, beta):
    """Left half Student's t with nu=beta, right half nu=alpha."""
    left = rng.random(n) < 0.5
    return np.where(left, -np.abs(rng.standard_t(beta, n)),
                    np.abs(rng.standard_t(alpha, n)))


def _write_histogram(path, cells, rng, chunk=1 << 20):
    """Binned Student's t population, states in equal quarters; drawn in
    chunks so that memory does not grow with ``cells``."""
    counts = np.zeros((4, N_BINS), dtype=np.int64)
    for start in range(0, cells, chunk):
        true_state = np.arange(start, min(start + chunk, cells)) % 4
        n = true_state.size
        shape_state = true_state.copy()
        for src, dst in ((0, 3), (1, 2)):
            idx = np.flatnonzero(true_state == src)
            shape_state[idx[rng.random(idx.size) < T_LAM]] = dst
        z = _two_sided_t(rng, n, T_ALPHA, T_BETA)
        vth = (np.asarray(T_MEANS)[shape_state]
               + np.asarray(T_SIGMAS)[shape_state] * z)
        # Grid steps sit at voltages 1..303; bin k holds V_k <= vth < V_k+1.
        bins = np.clip(np.floor(vth), 0, N_BINS - 1).astype(np.int64)
        counts += np.bincount(true_state * N_BINS + bins,
                              minlength=4 * N_BINS).reshape(4, N_BINS)
    with open(path, "w") as fh:
        fh.write("state,bin,count\n")
        for s in range(4):
            for b in np.flatnonzero(counts[s]).tolist():
                fh.write(f"{STATES[s]},{b},{counts[s, b]}\n")
    return {"cells": cells, "nonzero_bins": int(np.count_nonzero(counts))}


def make_inputs(workload, seed, in_dir):
    """Write the workload's inputs; returns (cli_argv_tail, input_info).

    The argv tail follows the global ``--seed/--out`` options.
    """
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 1808_04016])
    spec = workload.spec
    if workload.kind == "fit":
        hist = os.path.join(in_dir, "hist.csv")
        info = _write_histogram(hist, spec["cells"], rng)
        return ["fit", hist, "--compare", ",".join(spec["families"])], info
    trace = os.path.join(in_dir, "trace.csv")
    info = _write_trace(trace, spec, rng)
    cfg = os.path.join(in_dir, "config.json")
    doc = spec["config"] if workload.kind == "heatwatch" else {
        "policies": [spec["policy"]]}
    with open(cfg, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    argv = ["simulate", "--config", cfg, "--trace", trace]
    if workload.kind == "simulate":
        argv += ["--jobs", "1"]
    return argv, info


# --- outputs --------------------------------------------------------------


def artifact_names(workload):
    """Result artifacts hashed for byte-identity; never manifest.json."""
    if workload.kind == "simulate":
        name = workload.spec["policy"]["name"]
        return [f"{name}.json", f"{name}_series.csv"]
    if workload.kind == "heatwatch":
        return ["heatwatch.json"]
    return ["model.json"]


def digests(workload, out_dir):
    """{artifact: sha256}; same-seed runs must agree byte for byte."""
    out = {}
    for name in artifact_names(workload):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _parse_fit_stdout(text):
    """{family: {kl, iterations, converged}} from the fit summary lines."""
    out = {}
    for line in text.splitlines():
        fam, sep, rest = line.partition(": kl=")
        if not sep:
            continue
        kl, iters, conv = rest.split()
        out[fam] = {"kl": float(kl),
                    "iterations": int(iters.split("=")[1]),
                    "converged": conv.split("=")[1] == "True"}
    return out


def check(workload, out_dir, stdout_text, info):
    """Returns (problems, simulated_outputs); no problems means correct."""
    problems = []
    try:
        if workload.kind == "simulate":
            name = workload.spec["policy"]["name"]
            with open(os.path.join(out_dir, f"{name}.json")) as fh:
                rep = json.load(fh)
            with open(os.path.join(out_dir, f"{name}_series.csv"),
                      newline="") as fh:
                rows = list(csv.DictReader(fh))
            if rep["writes"]["host"] != info["page_writes"]:
                problems.append(f"writes.host {rep['writes']['host']} != "
                                f"{info['page_writes']} page writes in trace")
            if sum(int(r["writes_host"]) for r in rows) != info["page_writes"]:
                problems.append("series writes_host does not sum to the trace")
            outputs = {k: rep[k] for k in ("write_amplification",
                                           "lifetime_days", "pec_max",
                                           "writes")}
        elif workload.kind == "heatwatch":
            with open(os.path.join(out_dir, "heatwatch.json")) as fh:
                life = json.load(fh)
            if not (life["fixed"] < life["retention_only"]
                    <= life["heatwatch"] <= life["oracle"]):
                problems.append(f"policy ladder broken: {life}")
            outputs = {"lifetime_pec": life}
        else:
            with open(os.path.join(out_dir, "model.json")) as fh:
                model = json.load(fh)
            fits = _parse_fit_stdout(stdout_text)
            if set(fits) != set(workload.spec["families"]):
                problems.append(f"fit summary lists {sorted(fits)}")
            elif model["family"] != "student_t":
                problems.append(f"fit picked {model['family']}")
            elif fits["student_t"]["kl"] > 0.01:
                problems.append(f"student_t KL {fits['student_t']['kl']} > 0.01")
            outputs = {"fits": fits, "picked": model["family"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifacts: {exc!r}"], {}
    return problems, outputs
