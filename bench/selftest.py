#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (about a minute on two cores).

    python3 bench/selftest.py

Asserts that every metric of BENCHMARK.json is printed with its unit in both
modes on every workload, that the checks pass on good outputs and trip on a
deliberately corrupted one, and that a missing hook target yields
"not measured" instead of an error.  Files go to .bench_build/selftest/.
"""

import contextlib
import io as _io
import json
import os
import sys
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(run.OUT_DIR, "selftest")
TINY_SHAPES = {"p50": (6, 6, 5, 2), "p200": (6, 6, 8, 2), "lines": (8, 8, 9, 2),
               "cv": (8, 8, 4, 2), "p2": (8, 8, 2, 1), "wide": (6, 6, 12, 3)}
# The user-facing numbers each workload's untraced run reports on its "measured" line.
REPORTED = {"lines_fit": ("setup_s", "wall_s", "peak_rss_mb", "fit_s", "predict_rows_per_s",
                          "predict_s", "final_ll", "grad_inf", "heldout_r2", "failed_frac"),
            "cv_grid": ("setup_s", "wall_s", "peak_rss_mb", "cv_s", "final_ll", "grad_inf",
                        "heldout_r2", "failed_frac"),
            "cli_files": ("setup_s", "wall_s", "peak_rss_mb", "simulate_s", "predict_s",
                          "rank_s", "failed_frac")}


def tiny(name, seed=0):
    workdir = os.path.join(WORKDIR, name)
    if name == "lines_fit":
        return workloads.LinesFit(seed, workdir, max_iter=30,
                                  lines={"image_side": 10, "n_fg": 100, "n_bg": 100,
                                         "line_column": 5})
    if name == "cv_grid":
        return workloads.CvGrid(seed, workdir, gen={"n": 30, "m": 30, "p": 4},
                                d_grid=(1, 2), k=3, fit={"restarts": 0, "max_iter": 50})
    return workloads.CliFiles(seed, workdir, n=12, m=10, side=6, model_iter=5)


def run_tiny(spec, name, trace, hooks=None):
    args = SimpleNamespace(workload=name, seed=0, seconds=0.1, trace=trace)
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.report(spec, args, *run.measure(tiny(name), args, 0.0,
                                                     shapes=TINY_SHAPES, hooks=hooks))
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines[-1] == result, "the result must be the last line"
    return result, lines


def test_metrics_printed(spec):
    for name in REPORTED:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_tiny(spec, name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (name, trace, lines)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(want) ^ set(got))
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())
            if trace == 0:
                measured = next(line["measured"] for line in lines if "measured" in line)
                for metric in REPORTED[name]:
                    assert metric in measured and measured[metric]["unit"], (name, metric)
                if name == "cli_files":       # no fit in its timed pass
                    assert not {"final_ll", "grad_inf", "heldout_r2"} & set(measured)
            else:
                detail = next(line["detail"] for line in lines if "detail" in line)
                for metric in detail["not_applicable"]:
                    assert result["metrics"][metric]["value"] == 0.0, (name, metric)
                if name == "cli_files":
                    assert {"final_ll", "predict_rows_per_s"} <= set(detail["not_applicable"])
        print(f"ok  {name}: every metric printed with its unit, checks pass")


def test_corruption_trips_checks():
    # cli_files: one predicted mean changed in pred.csv
    wl = tiny("cli_files")
    wl.setup()
    _, out = wl.run_pass(in_process=True)
    checks = workloads.Checks()
    wl.check(out, checks)
    assert checks.failed == 0, checks.failures
    with open(wl.pred_path) as fh:
        rows = fh.read().splitlines()
    cells = rows[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    rows[1] = ",".join(cells)
    with open(wl.pred_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    checks = workloads.Checks()
    wl.check(out, checks)
    assert any(f.startswith("pred.csv") for f in checks.failures), checks.failures
    wl.cleanup()

    # lines_fit: one row-wise prediction off by a relative 1e-9
    wl = tiny("lines_fit")
    wl.setup()
    _, out = wl.run_pass()
    mean0, var0 = out["rows"][0]
    out["rows"][0] = (mean0 * (1 + 1e-9), var0)
    checks = workloads.Checks()
    wl.check(out, checks)
    assert checks.failures == ["predict_row[0]: row-wise prediction differs from the batch "
                               "prediction"], checks.failures

    # lines_fit: a reported final log-likelihood off by a relative 1e-6
    out["rows"][0] = (mean0, var0)
    out["result"].ll_trace[-1] *= 1 + 1e-6
    checks = workloads.Checks()
    wl.check(out, checks)
    assert [f.split(":")[0] for f in checks.failures] == ["fit_ll"], checks.failures

    # cv_grid: a failed (NaN) cell
    wl = tiny("cv_grid")
    wl.setup()
    _, out = wl.run_pass()
    out["report"].test_r2[0, 1] = np.nan
    checks = workloads.Checks()
    wl.check(out, checks)
    assert checks.failures == ["cell[d=1,fold=1]: cell failed (NaN test R2)"], checks.failures
    print("ok  corrupted outputs trip their checks")


def test_missing_hook_not_measured(spec):
    # every site of model.evaluate gone; one of optimizer.fit's sites gone, the others kept
    hooks = [h for h in tracing.HOOKS if h[2] != "model.evaluate"]
    hooks.append(("contrareg.optimizer", "_no_such_function", "model.evaluate"))
    hooks.append(("contrareg.no_such_module", "fit", "optimizer.fit"))
    result, lines = run_tiny(spec, "cv_grid", 1, hooks=hooks)
    not_measured = next(line["not_measured"] for line in lines if "not_measured" in line)
    for metric in ("model.evals", "model.eval_ms", "optimizer.evals_per_fit", "model.self_s"):
        assert metric in not_measured and metric not in result["metrics"], metric
    for metric in ("optimizer.fits", "optimizer.iterations", "optimizer.self_s",
                   "model.build_workspace_calls"):
        assert metric not in not_measured and result["metrics"][metric]["value"] > 0, metric
    detail = next(line["detail"] for line in lines if "detail" in line)
    assert "contrareg.no_such_module.fit" in detail["missing_hooks"], detail["missing_hooks"]
    assert result["correct"]
    print("ok  a missing hook target is reported as not measured")


def main():
    spec = run.load_spec()
    os.makedirs(WORKDIR, exist_ok=True)
    test_metrics_printed(spec)
    test_corruption_trips_checks()
    test_missing_hook_not_measured(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
