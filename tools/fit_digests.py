"""Print SHA-256 digests of fitted bits and the d = 2 margins of criterion 9.

    PYTHONPATH=src python3 tools/fit_digests.py

Run it on two trees and compare the output line by line: equal digests mean
that a change left those bits alone.  It prints one line per item:

- the params, centres and ll_trace of the benchmark's cv_grid fits (15:
  d in {1, 2, 4} by 5 folds) and of its lines_fit fit, with the inputs that
  bench/workloads.py builds (it only reads that module);
- the files that `simulate`, `fit` (line search with a restart; Adam from
  the pca warm start), `predict` and `rank` write at fixed seeds;
- the standard output of `gradcheck` (default flags, and a p < 2d shape);
- criterion 9 per seed: best_d and the mean test R^2 at d = 2 minus the best
  other d (positive where d = 2 wins);
- criterion 7 per seed: held-out R^2 of the fit and of the PCA+LR baseline.

Criteria 7 and 9 are configured as tests/test_acceptance.py configures them.
The whole run takes about 16 s on a 2-core VM.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.dont_write_bytecode = True          # leave bench/ as it is: no __pycache__ there

import workloads  # noqa: E402  (bench/workloads.py)
from contrareg import (Dataset, FitConfig, GenConfig, LinesConfig, cross_validate,  # noqa: E402
                       generate, generate_lines, pca_linear_baseline, r_squared)
from contrareg import cli, optimizer  # noqa: E402


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, float)).tobytes())
    return h.hexdigest()


def fit_digests(name, result):
    p = result.params
    print(f"{name} params  {digest(p.S, p.W, p.beta, [p.sigma2, p.tau2])}")
    print(f"{name} centres {digest(result.center_x, [result.center_r])}")
    print(f"{name} ll_trace {digest(result.ll_trace)}")


def benchmark_fits():
    with tempfile.TemporaryDirectory() as tmp:
        cv = workloads.CvGrid(0, tmp)
        cv.setup()
        _, out = cv.run_pass()
        for i, result in enumerate(out["results"]):
            fit_digests(f"cv_grid fit {i:2d}", result)
        lines = workloads.LinesFit(0, tmp)
        lines.setup()
        _, out = lines.run_pass()
        fit_digests("lines_fit", out["result"])
        print(f"lines_fit predict {digest(out['means'], [out['var']])}")


def run_cli(*argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"contrareg {' '.join(map(str, argv))} exited with {code}")
    return stdout.getvalue()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        sim = os.path.join(tmp, "sim")
        fg, bg = sim + "_foreground.csv", sim + "_background.csv"
        run_cli("simulate", "--n", 80, "--m", 80, "--p", 6, "--d", 2, "--seed", 3,
                "--out-prefix", sim)
        data = ["--foreground", fg, "--background", bg, "--response-col", "response"]
        models = {"fit": ["-d", 2, "--max-iter", 300, "--restarts", 1, "--seed", 11],
                  "fit_adam": ["-d", 2, "--mode", "adam", "--init", "pca-warm-start",
                               "--max-iter", 200, "--seed", 5]}
        outputs = [("simulate foreground", fg), ("simulate background", bg)]
        for name, flags in models.items():
            model = os.path.join(tmp, f"{name}.json")
            pred, rank = os.path.join(tmp, f"{name}_pred.csv"), os.path.join(tmp, f"{name}_rank.csv")
            run_cli("fit", *data, *flags, "--out", model)
            run_cli("predict", "--model", model, "--input", bg, "--out", pred)
            run_cli("rank", "--model", model, "--out", rank)
            outputs += [(f"{name} model", model), (f"{name} predict", pred),
                        (f"{name} rank", rank)]
        for name, path in outputs:
            print(f"cli {name} {file_digest(path)}")
    for flags in ([], ["--trials", 7, "--p", 3, "--d", 3, "--seed", 5]):
        text = run_cli("gradcheck", *flags)
        print(f"cli gradcheck {' '.join(map(str, flags)) or '(defaults)'} "
              f"{hashlib.sha256(text.encode()).hexdigest()}")


def criterion_9():
    hits = 0
    for i in range(10):
        seed = 4000 + 29 * i
        data, _ = generate(GenConfig(n=300, m=300, p=20, d=2, seed=seed))
        report = cross_validate(data, [1, 2, 4], 5,
                                FitConfig(d=2, tol=1e-6, restarts=1, seed=seed))
        means = np.nanmean(report.test_r2, axis=1)
        at_2 = report.d_grid.index(2)
        margin = means[at_2] - max(m for j, m in enumerate(means) if j != at_2)
        hits += report.best_d == 2
        print(f"criterion 9 seed {seed}: best_d {report.best_d}, d=2 margin {margin:+.6e}")
    print(f"criterion 9: best_d = 2 in {hits}/10 seeds (needs >= 8)")


def criterion_7():
    for seed in (0, 1, 2):
        data = generate_lines(LinesConfig(seed=seed))
        perm = np.random.default_rng(1000 + seed).permutation(data.n)
        n_train = int(round(data.n * 0.67))
        tr, te = perm[:n_train], perm[n_train:]
        train = Dataset(X=data.X[tr], r=data.r[tr], Y=data.Y, feature_names=data.feature_names)
        result = optimizer.fit(train, FitConfig(d=2, mode="adaptive_moment",
                                                init="pca_warm_start", tol=1e-7, max_iter=400,
                                                step0=5e-2, restarts=0, seed=seed))
        r2 = r_squared(result.predict(data.X[te])[0], data.r[te])
        r2_base = r_squared(pca_linear_baseline(train, data.X[te], 2), data.r[te])
        print(f"criterion 7 seed {seed}: held-out R2 {r2:.6f}, PCA+LR {r2_base:.6f}")


def main():
    benchmark_fits()
    cli_outputs()
    criterion_9()
    criterion_7()


if __name__ == "__main__":
    main()
