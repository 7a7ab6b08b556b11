"""flashlab benchmark: four seeded CLI workloads, host-time metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all     # every workload, then the traced pass

Paths resolve against the checkout that holds this directory, and every
file written goes under ``.bench_work/`` there.

Each measured run is a fresh interpreter (``child.py``) making one
``flashlab.cli.main`` call with ``--jobs 1`` and BLAS pools capped at one
thread. A fresh process per run keeps process-global state (the cached
``default_tables()``, ``cdf._overshoot_count``, ``nu_clamp_count``) from
leaking between runs. Runs go one at a time.

``--trace 0`` repeats one workload for about ``--seconds`` of host time,
taking the CPUs in turn, and reports the end-to-end metrics over its runs
(``end_to_end``).
``--trace 1`` runs one untraced and one traced run of every workload,
whichever ``--workload`` names, and reports the per-layer metrics that
BENCHMARK.json names ``<workload>.<metric>``, from the traced runs
(``tracer.py``): a layer has numbers only on the workloads that call it.
All runs of one workload, traced or not, must write byte-identical
artifacts. No run starts unless the time left in the invocation's budget
is at least what the previous run took; a run stopped at the budget is
reported apart, not counted as failed. Simulated statistics are checked
and recorded as outputs, never as performance metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl_mod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

RUN_BUDGET_S = 170.0   # hard stop for one invocation's child processes
MODEL_STATUS = ("unvalidated: the repository holds no hardware reference "
                "data, so no simulator error figure is given")


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    spec["units"] = {m["name"]: m["unit"]
                     for m in spec["end_to_end"] + spec["per_layer"]}
    spec["why"] = {w["name"]: w["why"] for w in spec["workloads"]}
    return spec


def _child_env():
    env = dict(os.environ)
    # Bytecode is cached in the checkout as an installed package would be,
    # so set-up time does not depend on the caller's environment.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class BudgetSpent(Exception):
    """A child process was stopped at the invocation's time budget."""


class Run:
    """Every interpreter started by one benchmark invocation."""

    def __init__(self, workload, seed, work_dir, deadline):
        self.wl = workload
        self.seed = seed
        self.dir = work_dir
        self.deadline = deadline
        self.argv, self.info = wl_mod.make_inputs(
            workload, seed, os.path.join(work_dir, "inputs"))
        # trace events, or histogram cells on fit-compare
        self.items = self.info.get("events", self.info.get("cells"))
        self.reps = []        # full runs: result, problems, digests
        self.killed = 0       # runs stopped at the time budget
        self.last_s = 0.0     # host seconds the latest run took

    def time_left(self):
        return self.deadline - time.monotonic()

    def may_start(self):
        """A run starts only if the previous one would still fit."""
        return self.killed == 0 and self.time_left() > self.last_s

    def child(self, tag, cli_argv=(), setup_only=False, spans=None, cpu=None):
        """One fresh interpreter; returns its result dict, None on failure.

        Raises BudgetSpent if the budget runs out first."""
        run_dir = os.path.join(self.dir, tag)
        os.makedirs(run_dir, exist_ok=True)
        result_path = os.path.join(run_dir, "result.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), result_path]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", os.path.join(run_dir, spans)]
        cmd += ["--", *cli_argv]
        err_path = os.path.join(run_dir, "stderr.txt")
        with open(err_path, "w") as err:
            try:
                proc = subprocess.run(
                    cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                    stderr=err, timeout=max(self.time_left(), 1.0))
            except subprocess.TimeoutExpired:
                print(f"{tag}: stopped at the time budget", file=sys.stderr)
                self.killed += 1
                raise BudgetSpent(tag) from None
        if proc.returncode != 0:
            with open(err_path) as fh:
                sys.stderr.write(fh.read()[-2000:])
            return None
        with open(result_path) as fh:
            return json.load(fh)

    def rep(self, traced):
        """One full run, checked; returns its elapsed host seconds."""
        tag = f"rep{len(self.reps):02d}" + ("-traced" if traced else "")
        out = os.path.join(self.dir, tag, "out")
        argv = ["--seed", str(self.seed), "--out", out, *self.argv]
        t0 = time.perf_counter()
        # Each CPU's speed drifts on its own; taking them in turn lets
        # one workload's runs average over all of them.
        cpus = sorted(os.sched_getaffinity(0))
        try:
            res = self.child(tag, argv, spans="spans.npz" if traced else None,
                             cpu=cpus[len(self.reps) % len(cpus)])
        finally:
            self.last_s = time.perf_counter() - t0
        rec = {"tag": tag, "traced": traced, "result": res, "problems": []}
        if res is None:
            rec["problems"] = ["child process failed"]
        elif res["rc"] != 0:
            rec["problems"] = [f"exit code {res['rc']}"]
        else:
            with open(os.path.join(out, "stdout.txt")) as fh:
                stdout_text = fh.read()
            rec["problems"], rec["outputs"] = wl_mod.check(
                self.wl, out, stdout_text, self.info)
            if not rec["problems"]:
                rec["sha256"] = wl_mod.digests(self.wl, out)
        self.reps.append(rec)
        return self.last_s

    def count_failed(self):
        """Failed reps: a failed check, or artifacts unlike the first rep's."""
        first = next((r["sha256"] for r in self.reps if "sha256" in r), None)
        for r in self.reps:
            if not r["problems"] and r["sha256"] != first:
                r["problems"] = ["artifacts differ from the first run's"]
        return sum(1 for r in self.reps if r["problems"])

    def results(self, traced):
        return [r["result"] for r in self.reps
                if not r["problems"] and r["traced"] == traced]


def _median(values):
    return statistics.median(values) if values else 0.0


def host_time(run):
    """Mean raw host seconds of the untraced runs: ``cli.main`` and the
    reference loop timed next to it (``child.reference_loop``)."""
    res = run.results(traced=False)
    if not res:
        return None
    wall = statistics.fmean([r["wall_s"] for r in res])
    return {"wall_s": wall, "ref_s": statistics.fmean([r["ref_s"] for r in res]),
            "events_per_s": run.items / wall}


def end_to_end(run):
    """``wall_ref`` is host time in ``cli.main`` over host time in the
    reference loop, both summed over the runs; the others are medians.

    This host's speed swings by about 1.6x for seconds to minutes at a
    time, on each CPU apart. The reference loop runs in the same
    processes, on the same CPU, just before and after ``cli.main``, so the
    ratio keeps what the program costs and drops most of what the host
    did meanwhile. Raw seconds are kept in the record.
    """
    res = run.results(traced=False)
    raw = host_time(run)
    wall_ref = raw["wall_s"] / raw["ref_s"] if raw else 0.0
    return {
        "wall_ref": wall_ref,
        "events_per_ref": run.items / wall_ref if wall_ref else 0.0,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in res]),
        "setup_s": _median([r["setup_s"] for r in res]),
    }


def per_layer(spec, runs):
    """The per-layer metrics BENCHMARK.json lists: ``cli.*`` and
    ``tables.*`` over every run, ``<workload>.<metric>`` from that
    workload's traced runs."""
    every = [res for run in runs for res in
             run.results(traced=True) + run.results(traced=False)]
    out = {"cli.import_s": _median([r["import_s"] for r in every]),
           "tables.build_ms": _median([r["tables_ms"] for r in every])}
    by_name = {run.wl.name: run for run in runs}
    for metric in spec["per_layer"]:
        wl, _, key = metric["name"].partition(".")
        if wl in by_name:
            out[metric["name"]] = _median(
                [r["layers"][key] for r in by_name[wl].results(traced=True)])
    return out


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(),
    }


def _warm_up(run):
    # The first import in a checkout compiles bytecode; users pay that once
    # per install, not per run, so it is not measured.
    if not os.path.isdir(os.path.join(SRC, "flashlab", "__pycache__")):
        run.child("warmup", setup_only=True)


def _tracing_overhead(run):
    """Traced minus untraced wall_s of one pair; a run output, not a metric."""
    traced, untraced = run.results(traced=True), run.results(traced=False)
    if not (traced and untraced):
        return None
    return _median([r["wall_s"] for r in traced]) - _median(
        [r["wall_s"] for r in untraced])


def _checked(spec, run):
    """What one workload's runs did: inputs, checks, digests, raw numbers."""
    failed = run.count_failed()
    good = next((r for r in run.reps if not r["problems"]), None)
    return {
        "workload": run.wl.name, "why": spec["why"][run.wl.name],
        "inputs": run.info,
        "correct": failed == 0, "attempted": len(run.reps), "failed": failed,
        "fail_ratio": failed / len(run.reps) if run.reps else 0.0,
        "stopped_at_budget": run.killed,
        "tracing_overhead_s": _tracing_overhead(run),
        "host_time": host_time(run),
        "artifact_sha256": good["sha256"] if good else None,
        "outputs": good["outputs"] if good else None,
        "runs": [{k: v for k, v in r.items() if k != "outputs"}
                 for r in run.reps],
    }


def _record(work_dir, seed, seconds, trace, checked, metrics):
    record = {
        "seed": seed, "trace": trace, "seconds": seconds,
        "machine": machine_info(), "model": MODEL_STATUS,
        "layer_map": wl_mod.LAYER_MAP,
        "correct": all(c["correct"] for c in checked),
        "attempted": sum(c["attempted"] for c in checked),
        "failed": sum(c["failed"] for c in checked),
        "workloads": checked, "metrics": metrics,
    }
    path = os.path.join(work_dir, "record.json")
    record["path"] = os.path.relpath(path, ROOT)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    # Keep the record, run outputs and spans; the inputs are bulky.
    for c in checked:
        shutil.rmtree(os.path.join(work_dir, c["workload"], "inputs"),
                      ignore_errors=True)
    return record


def measure(spec, workload, seed, seconds):
    """End-to-end metrics of one workload, untraced."""
    work_dir = os.path.join(WORK, f"{workload.name}-seed{seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    run = Run(workload, seed, os.path.join(work_dir, workload.name),
              time.monotonic() + RUN_BUDGET_S)
    _warm_up(run)
    # At least two runs for a median, then stop at the count that lands
    # closest to ``seconds``.
    measured = 0.0
    while run.may_start() and (
            len(run.reps) < 2 or measured + run.last_s / 2 < seconds):
        try:
            measured += run.rep(traced=False)
        except BudgetSpent:
            break
    return _record(work_dir, seed, seconds, 0, [_checked(spec, run)],
                   end_to_end(run))


def trace_all(spec, seed):
    """Per-layer metrics: one untraced/traced pair of every workload.

    Every workload is traced, because a layer has numbers only on the
    workloads that call it and each per-layer metric names its workload.
    """
    work_dir = os.path.join(WORK, f"traced-seed{seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = [Run(wl, seed, os.path.join(work_dir, wl.name), deadline)
            for wl in wl_mod.WORKLOADS.values()]
    _warm_up(runs[0])
    try:
        for run in runs:
            for traced in (False, True):
                if not run.may_start():
                    raise BudgetSpent(run.wl.name)
                run.rep(traced)
    except BudgetSpent:
        pass
    checked = [_checked(spec, run) for run in runs]
    return _record(work_dir, seed, None, 1, checked, per_layer(spec, runs))


def report(spec, record):
    """Human-readable lines; the JSON result line is printed separately."""
    mode = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {mode} seed={record['seed']}: attempted={record['attempted']} "
          f"failed={record['failed']}")
    print(f"   machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"   model: {record['model']}")
    print(f"   record: {record['path']}")
    for c in record["workloads"]:
        print(f"-- {c['workload']}: attempted={c['attempted']} "
              f"failed={c['failed']} fail_ratio={c['fail_ratio']:.3f} "
              f"stopped_at_budget={c['stopped_at_budget']}")
        if c["host_time"] is not None:
            print("   raw host time, mean of untraced runs: " + ", ".join(
                f"{k}={v:.6g}" for k, v in c["host_time"].items()))
        if c["tracing_overhead_s"] is not None:
            print(f"   tracing overhead (traced minus untraced wall_s, one "
                  f"pair): {c['tracing_overhead_s']:.3f} s")
        print(f"   why: {c['why']}")
        print(f"   inputs: {json.dumps(c['inputs'], sort_keys=True)}")
        print(f"   outputs: {json.dumps(c['outputs'], sort_keys=True)}")
        for name, sha in (c["artifact_sha256"] or {}).items():
            print(f"   sha256 {sha}  {name}")
        for r in c["runs"]:
            if r["problems"]:
                print(f"   {r['tag']}: {'; '.join(r['problems'])}")
    for name, value in record["metrics"].items():
        print(f"   {name:<48} {value:>16.6g} {spec['units'][name]}")


def result_line(spec, records):
    """The contract's last line; with several untraced records (``all``)
    the end-to-end names carry their workload."""
    metrics = {}
    for rec in records:
        prefix = (f"{rec['workloads'][0]['workload']}."
                  if len(records) > 1 and not rec["trace"] else "")
        for name, value in rec["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": spec["units"][name]}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main():
    if not (os.path.isfile(os.path.join(SRC, "flashlab", "cli.py"))
            and os.path.isfile(os.path.join(ROOT, "BENCHMARK.json"))):
        print(f"{ROOT} holds no flashlab checkout (src/flashlab/cli.py, "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = _load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(wl_mod.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.makedirs(WORK, exist_ok=True)
    if args.workload == "all":
        records = [measure(spec, wl, args.seed, args.seconds)
                   for wl in wl_mod.WORKLOADS.values()]
        records.append(trace_all(spec, args.seed))
    elif args.trace:
        records = [trace_all(spec, args.seed)]
    else:
        records = [measure(spec, wl_mod.WORKLOADS[args.workload], args.seed,
                           args.seconds)]
    for rec in records:
        report(spec, rec)
    print(result_line(spec, records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
