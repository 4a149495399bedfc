"""The benchmark's workloads: inputs made from a seed, one timed pass, output checks.

Each workload is a closed loop with a single client: a pass starts only
after the previous one has finished.  `setup` builds the inputs (it is
repeated to time set-up), `run_pass` does the timed work and returns the
step times and the raw outputs, `check` verifies the outputs outside the
timed region and returns the result-quality numbers.

Library calls go through module attributes (`optimizer.fit`,
`select.cross_validate`, `cli.main`, ...) so that the tracer's hooks see them.
"""

import csv
import os
import subprocess
import sys
import time

import numpy as np

from contrareg import cli, io, model, optimizer, select, simulate
from contrareg.model import Dataset
from contrareg.optimizer import FitConfig
from contrareg.simulate import GenConfig, LinesConfig

REL_TOL = 1e-12
LL_TOL = 1e-9         # reported final log-likelihood vs. one recomputed from the returned params


def _close(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return False
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return bool(np.all(np.abs(a - b) <= REL_TOL * max(scale, np.finfo(float).tiny)))


class Checks:
    """Operations attempted in a run; an operation fails if it raised or a check on it failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed(self):
        return len(self.failures)


def _split(data, seed):
    """Criterion 7's 67 % train / 33 % test split of the foreground rows."""
    rng = np.random.default_rng(1000 + seed)
    perm = rng.permutation(data.X.shape[0])
    n_train = int(round(data.X.shape[0] * 0.67))
    tr, te = perm[:n_train], perm[n_train:]
    train = Dataset(X=data.X[tr], r=data.r[tr], Y=data.Y, feature_names=data.feature_names)
    return train, data.X[te], data.r[te]


def _warm_up(data, config):
    """One likelihood-and-gradient evaluation: loads code paths and the BLAS thread pool."""
    params = optimizer.initialize(data, config)
    model.log_likelihood_and_grad(params, data, config.alpha)


class LinesFit:
    """Corrupted-lines fit (p = 784 > n + m) and held-out scoring one row per call."""

    name = "lines_fit"

    def __init__(self, seed, workdir, lines=None, max_iter=100):
        self.seed = seed
        self.lines = dict(lines or {})
        self.max_iter = max_iter

    def setup(self):
        data = simulate.generate_lines(LinesConfig(seed=self.seed, **self.lines))
        self.train, self.X_test, self.r_test = _split(data, self.seed)
        # criterion 7's configuration; tol never triggers, so every pass runs max_iter steps
        self.config = FitConfig(d=2, mode="adaptive_moment", init="pca_warm_start", tol=1e-7,
                                max_iter=self.max_iter, step0=5e-2, restarts=0, seed=self.seed)
        _warm_up(self.train, self.config)

    def run_pass(self, in_process=False):
        t0 = time.perf_counter()
        result = optimizer.fit(self.train, self.config)
        t1 = time.perf_counter()
        rows = [result.predict(self.X_test[i:i + 1]) for i in range(self.X_test.shape[0])]
        t2 = time.perf_counter()
        means, var = result.predict(self.X_test)
        baseline = select.pca_linear_baseline(self.train, self.X_test, 2)
        t3 = time.perf_counter()
        steps = {"fit_s": t1 - t0, "predict_s": t2 - t1,
                 "predict_rows_per_s": len(rows) / (t2 - t1), "wall_s": t3 - t0}
        return steps, {"result": result, "rows": rows, "means": means, "var": var,
                       "baseline": baseline}

    def check(self, out, checks):
        result = out["result"]
        trace = np.asarray(result.ll_trace, float)
        checks.op("fit", trace.size == self.max_iter + 1 and bool(np.all(np.isfinite(trace))),
                  f"ll trace has {trace.size} entries, expected {self.max_iter + 1} finite")
        checks.op("fit_progress", trace[-1] > trace[0],
                  f"final ll {trace[-1]:.6g} not above the starting point's {trace[0]:.6g}")
        centered = Dataset(X=self.train.X - result.center_x, r=self.train.r - result.center_r,
                           Y=self.train.Y - result.center_x)
        ll = model.log_likelihood(result.params, centered, self.config.alpha)
        checks.op("fit_ll", abs(ll - trace[-1]) <= LL_TOL * abs(ll),
                  f"reported final ll {trace[-1]!r} is not the returned parameters' {ll!r}")
        for i, (mean_i, var_i) in enumerate(out["rows"]):
            checks.op(f"predict_row[{i}]",
                      _close(mean_i, out["means"][i:i + 1]) and _close(var_i, out["var"]),
                      "row-wise prediction differs from the batch prediction")
        r2 = simulate.r_squared(out["means"], self.r_test)
        r2_base = simulate.r_squared(out["baseline"], self.r_test)
        # Criterion 7's gap of 0.2 holds for its 400-step fit; 100 steps need not reach it.
        checks.op("predict_batch", r2 > r2_base,
                  f"held-out R2 {r2:.4f} does not beat PCA+LR {r2_base:.4f}")
        return {"final_ll": float(result.final_ll), "grad_inf": float(result.grad_inf_norm),
                "heldout_r2": r2, "baseline_r2": r2_base}


class CvGrid:
    """Criterion 9's first case: 5-fold CV over d in {1, 2, 4} with the default line-search solver.

    The data, the folds and the restarts' starting points all come from
    criterion 9's seed 4000, whatever the run's seed.  The solver's
    evaluation count depends on them (16 200 to 19 700 over fold seeds 0-9),
    so fixing them keeps the timed work the same on every run.
    """

    name = "cv_grid"
    SEED = 4000

    def __init__(self, seed, workdir, gen=None, d_grid=(1, 2, 4), k=5, fit=None):
        self.seed = self.SEED
        self.gen = {"n": 300, "m": 300, "p": 20, "d": 2, **(gen or {})}
        self.d_grid = list(d_grid)
        self.k = k
        self.fit = {"tol": 1e-6, "restarts": 1, **(fit or {})}

    def setup(self):
        self.data, _ = simulate.generate(GenConfig(seed=self.seed, **self.gen))
        self.config = FitConfig(d=2, seed=self.seed, **self.fit)
        _warm_up(self.data, self.config)

    def run_pass(self, in_process=False):
        results = []
        inner = select.fit

        def pass_through(data, config):       # keeps each cell's FitResult; times nothing
            res = inner(data, config)
            results.append(res)
            return res

        select.fit = pass_through
        try:
            t0 = time.perf_counter()
            report = select.cross_validate(self.data, self.d_grid, self.k, self.config)
            t1 = time.perf_counter()
        finally:
            select.fit = inner
        return {"cv_s": t1 - t0, "wall_s": t1 - t0}, {"report": report, "results": results}

    def check(self, out, checks):
        report, results = out["report"], out["results"]
        nan_cells = int(np.sum(np.isnan(report.test_r2)))
        for di, d in enumerate(report.d_grid):
            for fi in range(report.k):
                checks.op(f"cell[d={d},fold={fi}]", not np.isnan(report.test_r2[di, fi]),
                          "cell failed (NaN test R2)")
        checks.op("best_d", report.best_d in self.d_grid, f"best_d {report.best_d} not in grid")
        row = report.test_r2[report.d_grid.index(report.best_d)]
        return {"final_ll": float(sum(r.final_ll for r in results)),
                "grad_inf": float(max(r.grad_inf_norm for r in results)),
                "heldout_r2": float(np.nanmean(row)) if np.any(np.isfinite(row)) else float("nan"),
                "best_d": report.best_d, "failed_cells": nan_cells}


class CliFiles:
    """The CLI as a user runs it: simulate two large CSVs, predict from one, rank features."""

    name = "cli_files"

    def __init__(self, seed, workdir, n=2000, m=2000, side=28, model_iter=5):
        self.seed = seed
        self.dir = workdir
        self.n, self.m, self.side = n, m, side
        self.model_iter = model_iter
        self.prefix = os.path.join(workdir, "sim")
        self.model_path = os.path.join(workdir, "model.json")
        self.pred_path = os.path.join(workdir, "pred.csv")
        self.rank_path = os.path.join(workdir, "rank.csv")

    def _lines(self, **kw):
        return LinesConfig(image_side=self.side, line_column=self.side // 2, seed=self.seed, **kw)

    def setup(self):
        """Write the model file the timed commands use, from a short deterministic fit."""
        os.makedirs(self.dir, exist_ok=True)
        data = simulate.generate_lines(self._lines())
        train, _, _ = _split(data, self.seed)
        config = FitConfig(d=2, mode="adaptive_moment", init="pca_warm_start", tol=1e-7,
                           max_iter=self.model_iter, step0=5e-2, restarts=0, seed=self.seed)
        result = optimizer.fit(train, config)
        meta = {"seed": config.seed, "iterations": result.iterations,
                "final_ll": float(result.final_ll), "converged": result.converged}
        io.save_model(self.model_path, io.model_to_dict(
            result.params, result.center_x, result.center_r, config.alpha, meta,
            feature_names=data.feature_names))
        self.model = result
        self._run(["--help"], in_process=False)      # warms the interpreter's files

    def commands(self):
        return [
            ("simulate_s", ["simulate", "--lines", "--n", str(self.n), "--m", str(self.m),
                            "--image-side", str(self.side), "--line-column", str(self.side // 2),
                            "--seed", str(self.seed), "--out-prefix", self.prefix]),
            ("predict_s", ["predict", "--model", self.model_path,
                           "--input", self.prefix + "_background.csv", "--out", self.pred_path]),
            ("rank_s", ["rank", "--model", self.model_path, "--out", self.rank_path]),
        ]

    def _run(self, argv, in_process):
        t0 = time.perf_counter()
        if in_process:
            code = cli.main(argv)
            err = ""
        else:
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            proc = subprocess.run([sys.executable, "-m", "contrareg.cli", *argv], env=env,
                                  cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=170)
            code, err = proc.returncode, proc.stderr
        return code, time.perf_counter() - t0, err

    def run_pass(self, in_process=False):
        steps, codes = {}, {}
        for step, argv in self.commands():
            codes[step] = self._run(argv, in_process)
            steps[step] = codes[step][1]
        steps["wall_s"] = sum(t for _, t, _ in codes.values())
        return steps, {"codes": codes}

    def files(self):
        paths = [self.prefix + "_foreground.csv", self.prefix + "_background.csv",
                 self.model_path, self.pred_path, self.rank_path]
        return {os.path.basename(p): os.path.getsize(p) for p in paths if os.path.exists(p)}

    def check(self, out, checks):
        codes = out["codes"]
        for step, (code, _, err) in codes.items():
            checks.op(step.replace("_s", ""), code == 0, f"exit code {code}: {err.strip()[-300:]}")
        data = simulate.generate_lines(self._lines(n_fg=self.n, n_bg=self.m))
        want_means, want_var = self.model.predict(data.Y)
        checks.op("pred.csv", *self._check_predictions(want_means, want_var))
        checks.op("rank.csv", *self._check_ranking(data.feature_names))
        return {}           # no fit in the timed pass, so no result-quality numbers

    def _check_predictions(self, want_means, want_var):
        try:
            with open(self.pred_path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            means = np.array([float(r[1]) for r in rows])
            variances = np.array([float(r[2]) for r in rows])
        except (OSError, ValueError, IndexError) as exc:
            return False, f"unreadable: {exc}"
        if len(rows) != self.m:
            return False, f"{len(rows)} rows, expected {self.m}"
        if not (_close(means, want_means) and _close(variances, np.full(self.m, want_var))):
            return False, "predictions differ from FitResult.predict"
        return True, ""

    def _check_ranking(self, names):
        try:
            with open(self.rank_path, newline="") as fh:
                ranked = [r[1] for r in list(csv.reader(fh))[1:]]
        except (OSError, IndexError) as exc:
            return False, f"unreadable: {exc}"
        if sorted(ranked) != sorted(names):
            return False, "ranked features are not a permutation of the model's features"
        return True, ""

    def cleanup(self):
        for path in (self.prefix + "_foreground.csv", self.prefix + "_background.csv",
                     self.pred_path, self.rank_path, self.model_path):
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {w.name: w for w in (LinesFit, CvGrid, CliFiles)}
