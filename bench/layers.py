"""Layer table: direct calls to the model's public evaluation functions at fixed shapes.

Run as a script with --single-thread SHAPE it times grad_log_likelihood at one
shape in this process only and prints one JSON object; the benchmark starts
it as a child with OPENBLAS_NUM_THREADS=1 so that the thread limit applies to
that child alone.
"""

import json
import os
import sys
import time

import numpy as np

from contrareg import GenConfig, build_workspace, generate, grad_log_likelihood, log_likelihood

# name: (n, m, p, d)
SHAPES = {
    "p50": (100, 100, 50, 2),
    "p200": (100, 100, 200, 2),
    "lines": (200, 300, 784, 2),
    "cv": (240, 300, 20, 2),
    "p2": (500, 500, 2, 1),
    "wide": (200, 200, 5000, 5),
}
FUNCTIONS = {
    "build_workspace": lambda params, data: build_workspace(params),
    "log_likelihood": log_likelihood,
    "grad_log_likelihood": grad_log_likelihood,
}
# Calls per function and shape; the wide shape takes seconds per call.
REPEATS = {"wide": 1, "lines": 7}
DEFAULT_REPEATS = 25
SINGLE_THREAD_SHAPE = "lines"


def _problem(shape):
    n, m, p, d = shape
    return generate(GenConfig(n=n, m=m, p=p, d=d, seed=7))


def time_calls(fn_name, params, data, repeats):
    call = FUNCTIONS[fn_name]
    if repeats > 1:                                    # warm-up, not counted
        call(params, data)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call(params, data)
        samples.append(time.perf_counter() - t0)
    return samples


def summarize(samples):
    ms = np.asarray(samples) * 1e3
    return {"median": float(np.median(ms)), "p90": float(np.percentile(ms, 90)),
            "count": len(samples)}


def layer_table(shapes):
    """{(fn, shape): {"median", "p90", "count"}} for every function and shape."""
    table = {}
    for label, shape in shapes.items():
        data, params = _problem(shape)
        reps = REPEATS.get(label, DEFAULT_REPEATS)
        for fn_name in FUNCTIONS:
            table[fn_name, label] = summarize(
                time_calls(fn_name, params, data, reps))
        del data, params
    return table


def single_thread_row(root, shapes):
    """grad_log_likelihood at SINGLE_THREAD_SHAPE, timed in a child limited to one BLAS thread."""
    import subprocess
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    shape = ",".join(str(v) for v in shapes[SINGLE_THREAD_SHAPE])
    reps = str(REPEATS.get(SINGLE_THREAD_SHAPE, DEFAULT_REPEATS))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--single-thread", shape, reps],
                          env=env, cwd=root, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child(shape_arg, reps):
    shape = tuple(int(v) for v in shape_arg.split(","))
    data, params = _problem(shape)
    print(json.dumps(summarize(time_calls("grad_log_likelihood", params, data, int(reps)))))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--single-thread":
        _child(sys.argv[2], sys.argv[3])
    else:
        sys.exit("usage: layers.py --single-thread N,M,P,D REPEATS")
