#!/usr/bin/env python3
"""contrareg benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

Run from the repository root:

    python3 bench/run.py --workload lines_fit --seed 0 --seconds 30 --trace 0

Workloads, metric names and units are those of BENCHMARK.json.

--trace 0: set up several times (set-up time is the median, plus the median
time a fresh interpreter takes to import contrareg), then repeat the
workload's timed pass, a closed loop with one client, while another pass
fits in --seconds; time metrics are medians over passes.

--trace 1: set up once, make one pass untraced and one with hooks on every
layer's entry points (the ratio of their wall times is the tracing
overhead), time the layer table and interpreter start-up, and write spans,
layer table and run record to .bench_build/.

Outputs are checked in both modes.  Earlier lines of standard output carry
the run record and every measured number by name and unit; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
STARTUP_REPEATS = 3

# Units of the numbers a run prints that are not metrics of BENCHMARK.json.
EXTRA_UNITS = {"baseline_r2": "1", "failed_cells": "count", "best_d": "1", "passes": "count"}
# Per-layer metrics that only some workloads have; the others report 0 and list them
# as not applicable.
OWN_METRICS = ("fit_s", "predict_s", "predict_rows_per_s", "cv_s", "simulate_s", "rank_s",
               "final_ll", "grad_inf", "heldout_r2", "select.failed_cells")
EVAL_ERRORS = ("FactorizationError", "ShapeMismatch")

# per-layer metric -> span name it is computed from ("not measured" if none of that
# span's hook sites exists)
NEEDS = {
    "model.eval_ms": "model.evaluate", "model.evals": "model.evaluate",
    "model.evals_grad": "model.evaluate", "model.eval_errors": "model.evaluate",
    "model.nonfinite": "model.evaluate",
    "model.build_workspace_calls": "model.build_workspace",
    "optimizer.fits": "optimizer.fit", "optimizer.iterations": "optimizer.fit",
    "optimizer.evals_per_fit": "model.evaluate",
    "optimizer.overhead_ms_per_iter": "model.evaluate",
    "optimizer.initialize_s": "optimizer.initialize",
    "select.pca_baseline_s": "select.pca_linear_baseline",
    "select.rank_features_s": "select.rank_features",
    "io.write_table_s": "io.write_table", "io.write_cells_per_s": "io.write_table",
    "io.bytes_written": "io.write_table", "io.read_table_s": "io.read_table",
    "io.read_cells_per_s": "io.read_table", "io.bytes_read": "io.read_table",
    "io.write_predictions_s": "io.write_predictions", "io.load_model_s": "io.load_model",
    "simulate.generate_lines_s": "simulate.generate_lines",
    "simulate.generate_s": "simulate.generate",
}
NEEDS.update({f"model.eval_errors.{t}": "model.evaluate" for t in EVAL_ERRORS})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0      # ru_maxrss is in KiB on Linux


def run_untraced(wl, seconds, import_s, checks):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    passes, quality = [], None
    start = time.perf_counter()
    while True:
        steps, out = wl.run_pass(in_process=False)
        passes.append(steps)
        quality = wl.check(out, checks)
        # closed loop: start another pass only while it still fits in the run's time
        if time.perf_counter() - start + steps["wall_s"] > seconds:
            break
    values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    values.update(quality)
    values["setup_s"] = import_s + statistics.median(setups)
    # cli_files does its work in child processes: report the largest of them
    values["peak_rss_mb"] = peak_rss_mb(children=wl.name == "cli_files")
    values["passes"] = len(passes)
    return values, {"import_s": import_s, "setup_samples_s": setups, "passes": passes}


def run_traced(wl, import_s, checks, shapes=None, hooks=None):
    import layers
    import tracing
    from tracing import Tracer, descendants, self_times, to_records

    shapes = shapes or layers.SHAPES
    tracer = Tracer(hooks or tracing.HOOKS)
    with tracer:
        with tracer.span("bench.setup") as setup_root:
            wl.setup()
    # The CLI runs in-process in both passes, so that the hooks see inside it.
    t0 = time.perf_counter()
    steps, out = wl.run_pass(in_process=True)
    untraced_wall = time.perf_counter() - t0
    wl.check(out, checks)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracer:
            with tracer.span("bench.pass") as root:
                _, out = wl.run_pass(in_process=True)
    quality = wl.check(out, checks)

    spans = tracer.spans
    inside = descendants(spans, root)
    named = {}
    for s in inside:
        named.setdefault(s.name, []).append(s)
    for s in descendants(spans, setup_root)[1:]:
        if s.name.startswith("simulate."):
            named.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in named.get(name, []))

    def summed(name, key):
        return sum(s.info.get(key, 0) for s in named.get(name, []))

    evals = named.get("model.evaluate", [])
    fits = named.get("optimizer.fit", [])
    selfs = self_times(spans, root)
    v = {f"{layer}.self_s": t for layer, t in selfs.items()}
    v.update({
        "model.eval_ms": statistics.median(s.duration for s in evals) * 1e3 if evals else 0.0,
        "model.evals": len(evals),
        "model.evals_grad": sum(s.info.get("grad", False) for s in evals),
        "model.eval_errors": sum("error" in s.info for s in evals),
        "model.nonfinite": sum(s.info.get("finite") is False for s in evals),
        "model.build_workspace_calls": len(named.get("model.build_workspace", [])),
        "optimizer.fits": len(fits),
        "optimizer.iterations": summed("optimizer.fit", "iterations"),
        "optimizer.evals_per_fit": len(evals) / len(fits) if fits else 0.0,
        "optimizer.overhead_ms_per_iter":
            selfs["optimizer"] * 1e3 / len(evals) if evals else 0.0,
        "optimizer.initialize_s": total("optimizer.initialize"),
        "select.pca_baseline_s": total("select.pca_linear_baseline"),
        "select.rank_features_s": total("select.rank_features"),
        "io.write_table_s": total("io.write_table"),
        "io.bytes_written": summed("io.write_table", "bytes"),
        "io.read_table_s": total("io.read_table"),
        "io.bytes_read": summed("io.read_table", "bytes"),
        "io.write_predictions_s": total("io.write_predictions"),
        "io.load_model_s": total("io.load_model"),
        "simulate.generate_lines_s": total("simulate.generate_lines"),
        "simulate.generate_s": total("simulate.generate"),
        "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        "trace.wall_s": root.duration,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": root.duration - untraced_wall,
        "trace.overhead_ratio": root.duration / untraced_wall,
    })
    for t in EVAL_ERRORS:
        v[f"model.eval_errors.{t}"] = sum(s.info.get("error") == t for s in evals)
    write_s, read_s = v["io.write_table_s"], v["io.read_table_s"]
    v["io.write_cells_per_s"] = summed("io.write_table", "cells") / write_s if write_s else 0.0
    v["io.read_cells_per_s"] = summed("io.read_table", "cells") / read_s if read_s else 0.0

    unmeasured = tracer.unmeasured
    for metric, name in NEEDS.items():
        if name in unmeasured:
            v[metric] = None
    for name in unmeasured:
        v[f"{name.split('.', 1)[0]}.self_s"] = None

    # Step times of the untraced pass and the quality of the traced one's results.
    own = dict(steps, **quality)
    own["select.failed_cells"] = quality.get("failed_cells")
    not_applicable = [k for k in OWN_METRICS if own.get(k) is None]
    v.update({k: 0.0 if own.get(k) is None else own[k] for k in OWN_METRICS})

    table = layers.layer_table(shapes)
    table["grad_log_likelihood", layers.SINGLE_THREAD_SHAPE + "-1t"] = \
        layers.single_thread_row(ROOT, shapes)
    for (fn_name, shape), row in table.items():
        v[f"model.{fn_name}_ms.{shape}"] = row["median"]
        v[f"model.{fn_name}_p90_ms.{shape}"] = row["p90"]
    table = {f"{fn_name}.{shape}": row for (fn_name, shape), row in table.items()}
    v["cli.startup_s"] = statistics.median(startup_s() for _ in range(STARTUP_REPEATS))

    detail = {"import_s": import_s, "not_applicable": not_applicable, "layer_table": table,
              "missing_hooks": [".".join(site) for site in sorted(tracer.missing)],
              "spans": to_records(spans)}
    return v, detail


def python_s(*argv):
    """Wall time of one fresh interpreter running `python *argv` on the checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, check=True)
    return time.perf_counter() - t0


def startup_s():
    """Wall time of a bare CLI process: interpreter start-up, imports, argument parsing."""
    return python_s("-m", "contrareg.cli", "--help")


def measure(wl, args, import_s, shapes=None, hooks=None):
    """Run the workload in the requested mode; returns (values, detail, files, checks)."""
    from workloads import Checks
    checks = Checks()
    try:
        if args.trace:
            values, detail = run_traced(wl, import_s, checks, shapes, hooks)
        else:
            values, detail = run_untraced(wl, args.seconds, import_s, checks)
        files = wl.files() if hasattr(wl, "files") else {}
        detail["input_seed"] = wl.seed      # cv_grid's inputs do not follow --seed
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    values["failed_frac"] = checks.failed / checks.attempted
    return values, detail, files, checks


def report(spec, args, values, detail, files, checks):
    """Print the record and every measured number, then the result line; returns the result."""
    from record import run_record
    record = run_record(ROOT, args.workload, args.seed, args.seconds, args.trace, files)
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = dict(EXTRA_UNITS, **{m["name"]: m["unit"]
                                 for m in spec["end_to_end"] + spec["per_layer"]})
    measured = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())
                if v is not None}
    not_measured = sorted(m["name"] for m in spec_metrics if values.get(m["name"]) is None)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                          for m in spec_metrics if values.get(m["name"]) is not None}}
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"record": record, "measured": measured, "not_measured": not_measured,
                       "failed_checks": checks.failures, **detail}, fh, default=float)
        detail = {k: v for k, v in detail.items() if k != "spans"}
        detail["trace_file"] = os.path.relpath(path, ROOT)

    print(json.dumps({"record": record}))
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({"measured": measured}, default=float))
    if not_measured:
        print(json.dumps({"not_measured": not_measured}))
    if checks.failures:
        print(json.dumps({"failed_checks": checks.failures[:50]}))
    print(json.dumps(result))
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "contrareg", "__init__.py")):
        print(f"error: no contrareg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import contrareg from the checkout's src/: {exc}", file=sys.stderr)
        return 2
    # Imports are part of set-up.  This process imports only once, so time them in
    # fresh interpreters and take the median.
    import_s = statistics.median(python_s("-c", "import contrareg")
                                 for _ in range(IMPORT_REPEATS))

    wl = workloads.WORKLOADS[args.workload](
        args.seed, os.path.join(OUT_DIR, f"{args.workload}-{args.seed}"))
    report(spec, args, *measure(wl, args, import_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
