"""One fresh interpreter of a benchmark run.

Usage: python3 perfbench/worker.py MANIFEST.json

Imports hicp from the checkout, runs the untimed warm-up commands, prints
READY (the parent times set-up up to that line), then runs each batch of
commands back to back through ``hicp.cli.main(argv)`` and writes the
per-command wall times and exit codes to the manifest's results file.
A batch marked ``trace`` runs with spans around the layer functions.

Right before and right after each command the worker times a fixed
piece of pure-Python work (``calibration_s``).  The speed of the machine
drifts by 20 % and more within seconds, the calibration follows much of
that drift, and the parent uses it to scale each command's time to a
nominal machine speed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import sys
import time
import traceback


_CAL_X = [0.5 + 0.01 * i for i in range(97)]
_CAL_D = {i: 0.001 * i for i in range(113)}


def calibration_s():
    """Seconds taken by each of three runs of a fixed loop of float math,
    list indexing and dict lookups.  The loop allocates no object the
    garbage collector tracks, so its time does not depend on what the
    code under test keeps on the heap."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(10000):
            x = _CAL_X[i % 97]
            acc += math.acos(math.tanh(x)) + math.cosh(x) * math.sinh(x)
            acc -= _CAL_D[i % 113] * 1e-9
        times.append(time.perf_counter() - t0)
    return times


def run_batch(main, commands, tracer=None):
    wall, cal, rcs, errors = [], [], [], []
    with open(os.devnull, "w") as sink:
        for c in commands:
            gc.collect()
            before = calibration_s()
            rc, err = None, None
            op = tracer.begin_op(f"cli.{c['cmd']}") if tracer else None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = main(c["argv"])
            except Exception:  # a crash counts against the run, never ends it
                err = traceback.format_exc(limit=3)
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end_op(op)
            wall.append(dt)
            cal.append((before, calibration_s()))
            rcs.append(rc)
            errors.append(err)
    return {"wall": wall, "cal": cal, "rc": rcs, "error": errors}


def main(manifest_path):
    with open(manifest_path) as fh:
        man = json.load(fh)
    sys.path.insert(0, man["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from hicp import cli

    warm = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in man["warmup"]:
            warm.append(cli.main(argv))
    print("READY", flush=True)
    if man.get("setup_only"):
        return 0
    calibration_s()  # its first, cold run is slow

    out = {"warmup_rc": warm, "batches": []}
    for batch in man["batches"]:
        if not batch["trace"]:
            out["batches"].append(run_batch(cli.main, batch["commands"]))
            out["batches"][-1]["maxrss_kb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            continue
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        try:
            res = run_batch(cli.main, batch["commands"], tracer)
        finally:
            tracer.uninstall()
        res["layers"] = layer_metrics(tracer)
        if man.get("spans"):
            tracer.save(man["spans"])
        out["batches"].append(res)
    with open(man["results"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
