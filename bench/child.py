"""One measured run in a fresh interpreter.

    python3 bench/child.py RESULT.json [--cpu N] [--setup-only]
        [--spans SPANS.npz] -- <flashlab cli argv>

Times the import of ``flashlab.cli`` plus the first ``default_tables()``
call (set-up), then ``flashlab.cli.main(argv)`` with its standard output
sent to ``stdout.txt`` in the run's ``--out`` directory. Nothing heavy is
imported before the set-up clock starts. A fixed reference loop is timed
just before and just after ``cli.main``, on the same CPU, so that the
caller can tell a slow program from a slow host.
"""

import json
import os
import resource
import sys
import time


def reference_loop(n=600_000):
    """Host seconds for fixed work that no change to flashlab can touch:
    dict updates, float arithmetic and small numpy operations, the mix
    the simulator's own inner loops are made of."""
    import numpy as np
    t0 = time.perf_counter()
    counts, acc = {}, 0.0
    x = np.arange(64.0)
    for i in range(n):
        k = (i * 7919) & 4095
        counts[k] = counts.get(k, 0) + (i % 13)
        if i & 31 == 0:
            acc += float(x[i & 63]) + len(counts)
            x = x * 0.999 + 1.0
    return time.perf_counter() - t0


def main(argv):
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    if "--cpu" in opts:
        os.sched_setaffinity(0, {int(opts[opts.index("--cpu") + 1])})

    t0 = time.perf_counter()
    import flashlab.cli as cli
    t1 = time.perf_counter()
    from flashlab.models.tables import default_tables
    default_tables()
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "tables_ms": (t2 - t1) * 1e3,
              "setup_s": t2 - t0}

    if "--setup-only" not in opts:
        tracer = None
        if spans_path:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer_mod.install(tracer)
        out_dir = cli_argv[cli_argv.index("--out") + 1]
        os.makedirs(out_dir, exist_ok=True)
        saved = sys.stdout
        ref_before = reference_loop()
        with open(os.path.join(out_dir, "stdout.txt"), "w") as fh:
            sys.stdout = fh
            try:
                t3 = time.perf_counter()
                rc = cli.main(cli_argv)
                t4 = time.perf_counter()
            finally:
                sys.stdout = saved
        ref_s = (ref_before + reference_loop()) / 2
        result.update(rc=rc, wall_s=t4 - t3, ref_s=ref_s)
        if tracer is not None:
            result["layers"] = tracer_mod.layer_metrics(tracer)
            result["tuner"] = tracer.tuner
            tracer.save(spans_path)

    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
