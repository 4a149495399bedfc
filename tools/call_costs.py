"""Print the per-call cost, in microseconds, of the calls a fit repeats.

    PYTHONPATH=src python3 tools/call_costs.py

Each figure is the best of 7 repeats of a timed loop, divided by the loop's
call count.  It prints one line per item:

- the fit's objective, optimizer._Objective.__call__ (likelihood and packed
  gradient), at cv_grid's shape for d = 1, 2 and 4, and at lines_fit's;
- the L-BFGS direction, optimizer._lbfgs_direction, from 10 curvature pairs
  at cv_grid's shape with d = 2;
- build_workspace at cv_grid's shape with d = 2.

The inputs are built as bench/workloads.py builds them (it only reads that
module).  cv_grid's shape is one cross-validation fold's: the first 240
foreground rows of its data (n = 300, m = 300, p = 20), at the
random_normal start that optimizer.initialize draws from its config.
lines_fit's is its training split (p = 784) at the pca_warm_start start.
The run takes about 4 s on a 2-core VM.
"""

import os
import sys
import tempfile
import timeit
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.dont_write_bytecode = True          # leave bench/ as it is: no __pycache__ there

import workloads  # noqa: E402  (bench/workloads.py)
from contrareg import Dataset, build_workspace, optimizer  # noqa: E402
from contrareg.model import _pack  # noqa: E402

REPEATS = 7


def per_call_us(call, number):
    """Best of REPEATS loops of number calls, in microseconds per call."""
    return min(timeit.repeat(call, number=number, repeat=REPEATS)) / number * 1e6


def objective_at(data, config):
    """The fit's objective on data and the packed start it solves from."""
    objective = optimizer._Objective(data, config.alpha, config.d)
    theta = _pack(optimizer.initialize(objective.data, config))
    return objective, theta


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cv = workloads.CvGrid(0, tmp)
        cv.setup()
        lines = workloads.LinesFit(0, tmp)
        lines.setup()
    data, n_train = cv.data, cv.data.n * (cv.k - 1) // cv.k
    fold = Dataset(X=data.X[:n_train], r=data.r[:n_train], Y=data.Y)
    shape = f"n = {fold.n}, m = {fold.m}, p = {fold.p}"
    for d in (1, 2, 4):
        objective, theta = objective_at(fold, replace(cv.config, d=d))
        print(f"objective, cv_grid ({shape}, d = {d}): "
              f"{per_call_us(lambda: objective(theta), 2000):.1f} us")
    train = lines.train
    objective, theta = objective_at(train, lines.config)
    print(f"objective, lines_fit (n = {train.n}, m = {train.m}, p = {train.p}, "
          f"d = {lines.config.d}): {per_call_us(lambda: objective(theta), 200):.1f} us")

    config = replace(cv.config, d=2)
    objective, theta = objective_at(fold, config)
    rng = np.random.default_rng(0)
    B = rng.standard_normal((theta.size, theta.size))
    S = rng.standard_normal((10, theta.size))
    Y = S @ (B @ B.T / theta.size + 0.1 * np.eye(theta.size))     # pairs of an SPD quadratic
    g = objective(theta)[1]
    print(f"L-BFGS direction, 10 pairs of {theta.size}: "
          f"{per_call_us(lambda: optimizer._lbfgs_direction(g, S, Y), 2000):.1f} us")
    params = optimizer.initialize(objective.data, config)
    print(f"build_workspace, cv_grid (p = {fold.p}, d = 2): "
          f"{per_call_us(lambda: build_workspace(params), 2000):.1f} us")


if __name__ == "__main__":
    main()
