"""hicp benchmark: seeded batches of ``hicp`` CLI commands, timed end to
end in fresh interpreters, every output checked.

    python3 perfbench/run.py --workload solve-torus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --smoke                        # harness self-test
    python3 perfbench/run.py --series                       # size series

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are a readable report.  The full record of a run
(machine, versions, input hash, every command) goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("solve-torus", "validate-enum", "render-large")
# One BLAS/OpenMP thread: the machine has two cores, which leaves one for
# the OS and the harness.  Set before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# A fixed string-hash seed: set iteration order over the hat vertices
# ("v", id) / ("f", index) otherwise changes from one interpreter to the
# next, and with it the memory layout the timed code walks.
HASH_ENV = {"PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 9  # set-up-only interpreters; setup_s is their median
# Every time is scaled to a nominal machine speed: multiplied by
# NOMINAL_CAL_S over the mean of the median calibration loop timed right
# before and right after it (worker.calibration_s).  On the machine that
# defined the benchmark (2-core Xeon, Python 3.11) that median read
# 3.1-5.3 ms; NOMINAL_CAL_S sits between, so there scaled times read
# like plain seconds.
NOMINAL_CAL_S = 0.0045
WORKER_TIMEOUT_S = 150

# end-to-end metric -> unit, in the order BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", "wall_s": "s", "eucl_p50_s": "s",
              "hyp_p50_s": "s", "ok_ratio": "ratio", "exact_ratio": "ratio",
              "peak_rss_mb": "MB"}


class RunError(Exception):
    """The run could not produce a result (worker crashed or hung)."""


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "threads": {k: os.environ.get(k) for k in
                        (*THREAD_ENV, "HICP_THREADS")}}


# ---------------------------------------------------------------------------
# Workers


def _manifest(path, **fields):
    fields.setdefault("src", os.path.join(ROOT, "src"))
    with open(path, "w") as fh:
        json.dump(fields, fh)
    return path


def start_worker(manifest):
    """Start a worker and time it until READY: (process, setup seconds).
    Stops the worker if it never gets ready."""
    t0 = time.perf_counter()
    p = subprocess.Popen([sys.executable, WORKER, manifest],
                         stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         env=dict(os.environ, **HASH_ENV))
    line = p.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(p, 0)
        raise RunError(f"worker did not start (exit {p.returncode})")
    return p, setup


def stop(p, timeout):
    """Wait for a worker; kill it when the timeout passes."""
    try:
        p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        raise RunError(f"worker exceeded {timeout} s and was stopped")
    finally:
        p.stdout.close()
    if p.returncode != 0:
        raise RunError(f"worker exited with {p.returncode}")


def run_worker(manifest, timeout=WORKER_TIMEOUT_S):
    p, setup = start_worker(manifest)
    stop(p, timeout)
    return setup


def scaled(seconds, cal_before, cal_after):
    """A time scaled to the nominal machine speed; the calibrations are
    worker.calibration_s() lists."""
    c = 0.5 * (sorted(cal_before)[1] + sorted(cal_after)[1])
    return seconds * NOMINAL_CAL_S / c


def setup_sample(manifest):
    """Set-up time of one set-up-only worker: (raw, scaled) seconds."""
    from worker import calibration_s
    before = calibration_s()
    raw = run_worker(manifest)
    return raw, scaled(raw, before, calibration_s())


# ---------------------------------------------------------------------------
# One workload


def run_workload(workload, seed, seconds, trace):
    import checks
    import gen
    wdir = os.path.join(WORK, workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    os.makedirs(OUT, exist_ok=True)
    rounds = gen.rounds_for(workload, seconds)
    warm = gen.smoke_inputs(workload, seed, wdir, "warm")
    sets = [gen.make_inputs(workload, seed, rounds, wdir, "main")]
    if trace:  # same batch shape, distinct inputs
        sets.append(gen.make_inputs(workload, f"{seed}/traced", rounds,
                                    wdir, "traced"))
    digest = hashlib.sha256("".join(
        s.digest() for s in [warm] + sets).encode()).hexdigest()

    warmup = [c["argv"] for c in warm.commands]

    def setup_samples(ks):
        return [setup_sample(_manifest(
            os.path.join(wdir, f"setup{k}.json"), warmup=warmup,
            setup_only=True)) for k in ks]

    # half of the set-up samples before the batch and half after it, so
    # that their median spans the run and not one stretch of it
    half = SETUP_SAMPLES // 2 + 1
    setups = setup_samples(range(half))
    results = os.path.join(wdir, "results.json")
    spans = os.path.join(OUT, f"{workload}-spans.npz")
    main_setup = run_worker(_manifest(
        os.path.join(wdir, "main.json"), warmup=warmup, results=results,
        spans=spans if trace else None,
        batches=[{"trace": i == 1, "commands": s.commands}
                 for i, s in enumerate(sets)]))
    setups += setup_samples(range(half, SETUP_SAMPLES))
    with open(results) as fh:
        res = json.load(fh)

    records, failed = [], 0
    for label, s, b in zip(("main", "traced"), sets, res["batches"]):
        for c, rc, dt, cal, err in zip(s.commands, b["rc"], b["wall"],
                                       b["cal"], b["error"]):
            why = checks.check(c, rc, err)
            failed += why is not None
            records.append({"batch": label, "id": c["id"], "cmd": c["cmd"],
                            "geometry": c["geometry"], "input": c["argv"][2],
                            "exit": rc, "wall_s": dt, "cal_s": cal,
                            "scaled_s": scaled(dt, *cal), "failure": why})
    main = [r for r in records if r["batch"] == "main"]
    attempted = len(records)
    e2e = end_to_end(main, [x for _raw, x in setups],
                     res["batches"][0]["maxrss_kb"])
    out = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "rounds": rounds, "input_sha256": digest,
           "machine": machine_record(), "warmup_exit": res["warmup_rc"],
           "setup_samples_s": setups, "main_setup_s": main_setup,
           "raw_wall_s": sum(r["wall_s"] for r in main),
           "end_to_end": e2e, "attempted": attempted, "failed": failed,
           "commands": records}
    if trace:
        layers = dict(res["batches"][1]["layers"])
        traced_wall = sum(r["scaled_s"] for r in records
                          if r["batch"] == "traced")
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.untraced_wall_s"] = (e2e["wall_s"][0], "s")
        layers["trace.overhead_s"] = (traced_wall - e2e["wall_s"][0], "s")
        out["per_layer"] = layers
        out["spans_file"] = os.path.relpath(spans, ROOT)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    return out


def end_to_end(main, setups, maxrss_kb):
    """The seven end-to-end metrics of the untraced batch, as
    name -> (value, unit).  Times are scaled ones."""
    def p50(geometry):
        return statistics.median(r["scaled_s"] for r in main
                                 if r["geometry"] == geometry)

    n_fail = sum(r["failure"] is not None for r in main)
    validates = [r for r in main if r["cmd"] == "validate"]
    partial = sum(r["exit"] == 3 for r in validates)
    vals = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(r["scaled_s"] for r in main),
        "eucl_p50_s": p50("euclidean"),
        "hyp_p50_s": p50("hyperbolic"),
        # complements of the failure and partial-verdict shares, so that
        # no end-to-end metric reads 0 at a healthy commit
        "ok_ratio": 1.0 - n_fail / len(main),
        "exact_ratio": 1.0 - (partial / len(validates) if validates
                              else 0.0),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    return {k: (v, END_TO_END[k]) for k, v in vals.items()}


# ---------------------------------------------------------------------------
# Reporting


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(out):
    m = out["machine"]
    print(f"# {out['workload']}  seed={out['seed']}  rounds={out['rounds']}"
          f"  commands={out['attempted']}  failed={out['failed']}")
    print(f"# inputs sha256 {out['input_sha256']}")
    print(f"# machine nproc={m['nproc']} cpu={m['cpu']!r} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"threads={m['threads']}")
    rows = dict(out["end_to_end"])
    main = [r for r in out["commands"] if r["batch"] == "main"]
    n_val = sum(r["cmd"] == "validate" for r in main)
    rows["fail_ratio"] = (1.0 - rows["ok_ratio"][0], "ratio")
    rows["partial_ratio"] = (1.0 - rows["exact_ratio"][0], "ratio")
    for name, (v, unit) in rows.items():
        print(f"  {name:<16} {_fmt(v):>12} {unit}")
    cal = statistics.median(x for r in main for c in r["cal_s"] for x in c)
    print(f"  ({len(main)} commands, {n_val} validate; unscaled wall_s "
          f"{_fmt(out['raw_wall_s'])} s, median calibration "
          f"{1e3 * cal:.3f} ms against {1e3 * NOMINAL_CAL_S:.3f} ms)")
    for name, (v, unit) in sorted(out.get("per_layer", {}).items()):
        print(f"  {name:<40} {_fmt(v):>12} {unit}")
    for r in out["commands"]:
        if r["failure"]:
            print(f"  FAILED {r['batch']} {r['id']} {r['cmd']} "
                  f"{r['geometry']}: {r['failure']}")


def result_line(outs, trace):
    metrics = {}
    for out in outs:
        src = out["per_layer"] if trace else out["end_to_end"]
        prefix = f"{out['workload']}." if len(outs) > 1 else ""
        for name, (v, unit) in src.items():
            metrics[prefix + name] = {"value": v, "unit": unit}
    failed = sum(o["failed"] for o in outs)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(o["attempted"] for o in outs),
                       "failed": failed, "metrics": metrics})


# ---------------------------------------------------------------------------
# Self-test and size series


def poison(c):
    """A copy of a solve, validate or render command whose expectation is
    deliberately wrong."""
    bad = json.loads(json.dumps(c))
    exp = bad["expect"]
    if c["cmd"] == "solve":
        exp["a"][min(exp["a"])] += 1e-3
    elif c["cmd"] == "validate":
        bad["expect"] = {"exit": [0]}
    else:
        exp["area"] += 1.0
    return bad


def smoke(seed):
    """Each workload on one tiny input, untraced and traced, plus a copy
    with a wrong expectation that must count as a failure."""
    import checks
    import gen
    ok = True
    for w in WORKLOADS:
        wdir = os.path.join(WORK, "smoke", w)
        shutil.rmtree(wdir, ignore_errors=True)
        os.makedirs(wdir)
        warm = gen.smoke_inputs(w, seed, wdir, "warm")
        sets = [gen.smoke_inputs(w, f"{seed}/{k}", wdir, f"run{k}")
                for k in (1, 2)]
        results = os.path.join(wdir, "results.json")
        run_worker(_manifest(
            os.path.join(wdir, "main.json"), results=results,
            warmup=[c["argv"] for c in warm.commands],
            batches=[{"trace": i == 1, "commands": s.commands}
                     for i, s in enumerate(sets)]))
        with open(results) as fh:
            res = json.load(fh)
        fails = []
        for s, b in zip(sets, res["batches"]):
            for c, rc, err in zip(s.commands, b["rc"], b["error"]):
                fails.append(checks.check(c, rc, err))
        c0, b0 = sets[0].commands[-1], res["batches"][0]
        bad = checks.check(poison(c0), b0["rc"][-1], b0["error"][-1])
        layers = res["batches"][1]["layers"]
        good = (not any(fails) and bad is not None
                and layers["trace.ops"][0] == len(sets[1].commands))
        ok &= good
        print(f"{w}: {'ok' if good else 'FAILED'}; checks {fails}; "
              f"poisoned copy -> {bad!r}")
    return 0 if ok else 1


SERIES_SIZES = (3, 4, 6, 8)
SERIES_BUDGET_S = 60  # a size whose worker takes longer is skipped


def series(seed):
    """Traced solves of triangulated tori at several sizes; grad_U and
    hessian_U time against triangle count with a fitted exponent."""
    import gen
    wdir = os.path.join(WORK, "series")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    os.makedirs(OUT, exist_ok=True)
    rows = []
    for g in gen.GEOMS:
        for n in SERIES_SIZES:
            s = gen.InputSet(wdir, f"n{n}-{g}")
            gen._solve_inputs(s, seed, 1, complex_name=f"tri{n}:even")
            cmds = [c for c in s.commands if c["geometry"] == g]
            results = os.path.join(s.dir, "results.json")
            row = {"geometry": g, "n": n, "triangles": 2 * n * n}
            try:
                run_worker(_manifest(
                    os.path.join(s.dir, "main.json"), warmup=[],
                    results=results,
                    batches=[{"trace": True, "commands": cmds}]),
                    timeout=SERIES_BUDGET_S)
            except RunError as exc:
                row["skipped"] = str(exc)
                rows.append(row)
                print(f"{g:10} n={n:2} skipped: {exc}", flush=True)
                continue
            with open(results) as fh:
                b = json.load(fh)["batches"][0]
            lay = {k: v for k, (v, _u) in b["layers"].items()}
            g_calls = lay["solver.grad_U.calls"]
            g_time = lay["solver.grad_U.hessian.s"] \
                + lay["solver.grad_U.search.s"]
            row.update({
                "solve_s": b["wall"][0], "exit": b["rc"][0],
                "grad_U_calls": g_calls,
                "grad_U_ms": 1e3 * g_time / g_calls,
                "hessian_U_calls": lay["solver.hessian_U.calls"],
                "hessian_U_s": lay["solver.hessian_U.s"]
                / max(1, lay["solver.hessian_U.calls"])})
            rows.append(row)
            print(f"{g:10} n={n:2} tris={row['triangles']:4} "
                  f"solve={row['solve_s']:.3f}s grad_U={row['grad_U_ms']:.3f}"
                  f"ms hessian_U={row['hessian_U_s']:.3f}s", flush=True)
    fits = {}
    for g in gen.GEOMS:
        done = [r for r in rows if r["geometry"] == g and "skipped" not in r]
        for key in ("grad_U_ms", "hessian_U_s", "solve_s"):
            if len(done) >= 2:
                fits[f"{g}.{key}"] = _loglog_slope(
                    [r["triangles"] for r in done], [r[key] for r in done])
    for k, v in fits.items():
        print(f"exponent {k}: {v:.2f}")
    with open(os.path.join(OUT, "series.json"), "w") as fh:
        json.dump({"machine": machine_record(),
                   "budget_s": SERIES_BUDGET_S, "rows": rows,
                   "exponents": fits}, fh, indent=1)
    return 0


def _loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


# ---------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="harness self-test on tiny inputs")
    p.add_argument("--series", action="store_true",
                   help="traced size series of the solver (not gated)")
    args = p.parse_args(argv)
    if not (args.workload or args.smoke or args.series):
        p.error("give --workload, --smoke or --series")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, HERE)
    import gen
    gen.import_hicp()  # exits with an error when src/hicp is missing
    if args.smoke:
        return smoke(args.seed)
    if args.series:
        return series(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                for w in names]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for out in outs:
        report(out)
    print(result_line(outs, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
