"""Command-line interface: fit, predict, cv, simulate, gradcheck, rank.

Exit codes: 0 success, 2 malformed input file or unwritable output file, 3 shape mismatch,
4 optimization failure (including degenerate data and zero beta),
5 gradient check mismatch.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields

import numpy as np

from . import io
from .errors import (ConstantTruth, DegenerateData, FactorizationError,
                     MalformedFile, NonFiniteObjective, RankDeficiencyError,
                     ShapeMismatch, TooFewSamples, ZeroBeta)
from .model import (Dataset, GradientSet, ModelParams, finite_diff_gradient,
                    grad_log_likelihood, predict_rows)
from .optimizer import FitConfig, fit
from .select import cross_validate, rank_features
from .simulate import GenConfig, LinesConfig, generate, generate_lines

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_SHAPE = 3
EXIT_OPTIM = 4
EXIT_GRADCHECK = 5

# CLI spelling -> FitConfig value, for each flag whose spellings differ
_SPELLINGS = {"mode": {"adam": "adaptive_moment", "line-search": "line_search_ascent"},
              "init": {"random-normal": "random_normal", "pca-warm-start": "pca_warm_start"}}


def _given(args, cls):
    """Flags given that name fields of cls; the others are absent, so cls's defaults hold."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _add_data_flags(sub):
    for flag in ("--foreground", "--background", "--response-col"):
        sub.add_argument(flag, required=True)


def _add_fit_flags(sub):
    sub.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                     help="line search: stop at |g|_inf <= tol * max(1, |ll|) / n; "
                          "adam: stop after 3 relative changes of ll below tol")
    sub.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--mode", choices=_SPELLINGS["mode"], default=argparse.SUPPRESS)
    sub.add_argument("--restarts", type=int, default=argparse.SUPPRESS,
                     help=f"extra seeded random starts (default {FitConfig.restarts}); "
                          "pca-warm-start is deterministic and runs once")
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--step0", type=float, default=argparse.SUPPRESS,
                     help="learning rate of --mode adam; the line search does not read it")
    sub.add_argument("--init", choices=_SPELLINGS["init"], default=argparse.SUPPRESS)


def _fit_config(args, d):
    given = _given(args, FitConfig) | {"d": d}
    for name, spellings in _SPELLINGS.items():
        if name in given:
            given[name] = spellings[given[name]]
    return FitConfig(**given)


def _load_dataset(args):
    X, fg_names, r = io.read_table(args.foreground, response_col=args.response_col)
    Y, bg_names, _ = io.read_table(args.background)
    if fg_names != bg_names:
        raise ShapeMismatch(
            "foreground and background feature columns disagree by name or order")
    return Dataset(X=X, r=r, Y=Y, feature_names=fg_names)


def cmd_fit(args):
    data = _load_dataset(args)
    config = _fit_config(args, args.d)
    result = fit(data, config)
    meta = {"seed": config.seed, "iterations": result.iterations,
            "final_ll": float(result.final_ll), "converged": result.converged}
    doc = io.model_to_dict(result.params, result.center_x, result.center_r,
                           config.alpha, meta, feature_names=data.feature_names)
    io.save_model(args.out, doc)
    report = {"final_ll": float(result.final_ll), "iterations": result.iterations,
              "converged": result.converged, "best_restart": result.best_restart,
              "grad_inf_norm": result.grad_inf_norm,
              "wall_time_seconds": result.wall_time_seconds, "model": args.out}
    print(json.dumps(report))
    return EXIT_OK


def cmd_predict(args):
    params, center_x, center_r, _, names, meta = io.load_model(args.model)
    X, in_names, _ = io.read_table(args.input)
    if names is not None and in_names != list(names):
        raise ShapeMismatch("input feature columns disagree with the model's")
    means, var = predict_rows(params, X, center_x, center_r)
    io.write_predictions(args.out, means, var)
    return EXIT_OK


def cmd_cv(args):
    data = _load_dataset(args)
    try:
        d_grid = [int(tok) for tok in args.d_grid.split(",") if tok]
    except ValueError as exc:
        raise ShapeMismatch(f"--d-grid must be comma-separated integers: {exc}") from exc
    config = _fit_config(args, 1)      # cross_validate sets d for each grid entry
    report = cross_validate(data, d_grid, args.k, config)
    train, test = report.train_r2.tolist(), report.test_r2.tolist()
    doc = {"d_grid": report.d_grid, "k": report.k, "best_d": report.best_d}
    for name, table in (("train_r2", train), ("test_r2", test)):
        doc[name] = [[None if np.isnan(v) else v for v in row] for row in table]
    print(json.dumps(doc))
    if args.out_csv:
        io.write_rows(args.out_csv, ["d", "fold", "train_r2", "test_r2"],
                      ((d, fi, train[di][fi], test[di][fi])
                       for di, d in enumerate(report.d_grid) for fi in range(report.k)))
    return EXIT_OK


def cmd_simulate(args):
    if args.lines:
        config = LinesConfig(n_fg=args.n, n_bg=args.m, **_given(args, LinesConfig))
        data = generate_lines(config)
        truth = None
    else:
        if args.p < 1 or args.d < 1:
            raise ShapeMismatch("--p and --d are required for model simulation")
        config = GenConfig(**_given(args, GenConfig))
        data, truth = generate(config)
    names = data.feature_names or [f"f{i}" for i in range(data.p)]
    if args.response_col in names:
        raise ShapeMismatch(f"--response-col {args.response_col!r} is also a feature name")
    outputs = [args.out_prefix + "_foreground.csv", args.out_prefix + "_background.csv"]
    if truth is not None:
        outputs.append(args.out_prefix + "_truth.json")
    for path in outputs:
        if os.path.isdir(path):
            raise MalformedFile(path, 0, "is a directory")
    # every output goes to a temporary sibling, and all are renamed into place only once
    # all are complete: a failed run leaves none of them, and no partial file
    staged = [f"{path}.{os.getpid()}.part" for path in outputs]
    try:
        # a child process writes the background table while this process writes the foreground
        with _writer_process(staged[1], data.Y, names):
            io.write_table(staged[0], data.X, names,
                           responses=data.r, response_col=args.response_col)
        if truth is not None:
            meta = {"seed": config.seed, "iterations": 0, "final_ll": None, "converged": True}
            doc = io.model_to_dict(truth, np.zeros(data.p), 0.0, 1.0, meta,
                                   feature_names=names)
            io.save_model(staged[2], doc)
        for part, path in zip(staged, outputs):
            try:
                os.replace(part, path)
            except OSError as exc:
                raise MalformedFile(path, 0, str(exc)) from exc
    except MalformedFile as exc:
        if exc.path not in staged:
            raise
        path = outputs[staged.index(exc.path)]
        raise MalformedFile(path, exc.line, exc.message.replace(exc.path, path)) from None
    finally:
        for part in staged:
            with suppress(OSError):
                os.remove(part)
    return EXIT_OK


@contextmanager
def _writer_process(path, matrix, names):
    """io.write_table(path, matrix, names) in a child process while the block runs.

    The child is forked where the platform can fork, so it inherits the
    matrix instead of receiving a pickled copy; the default method elsewhere
    (spawn, or forkserver from Python 3.14 on) would pickle it.  Forking is
    safe here because the child only formats floats and writes a file: it
    calls no BLAS routine and takes no lock that a BLAS thread holds.  The child
    reports None or its exception over a one-way pipe, and that exception is
    raised here.  A child that dies without reporting is a MalformedFile.  The
    child is stopped if the block raises, and joined on every path.
    """
    import multiprocessing      # here: at module level it would slow every command's start-up
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = multiprocessing.get_context(method)
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_write_table, args=(sender, path, matrix, names))
    child.start()
    sender.close()          # so that the child's end, once closed, gives EOF here
    error = None
    try:
        yield
        with suppress(EOFError):
            error = receiver.recv()
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        receiver.close()
    if error is None and child.exitcode != 0:
        error = MalformedFile(path, 0, f"writer process exited with code {child.exitcode}")
    if error is not None:
        raise error


def _write_table(sender, path, matrix, names):
    """The writer process: io.write_table, looked up when called, then its outcome to sender."""
    try:
        io.write_table(path, matrix, names)
    except Exception as exc:
        sender.send(exc)
    else:
        sender.send(None)
    finally:
        sender.close()


def cmd_gradcheck(args):
    if min(args.p, args.d, args.n, args.m, args.trials, args.seed) < 0:
        raise ShapeMismatch("--p, --d, --n, --m, --trials and --seed must be nonnegative")
    if not (0 <= args.rtol < np.inf and 0 < args.step < np.inf):
        raise ShapeMismatch(f"--rtol must be finite and >= 0 and --step finite and > 0, "
                            f"got {args.rtol} and {args.step}")
    rng_master = np.random.default_rng(args.seed)
    blocks = [f.name for f in fields(GradientSet)]
    worst = dict.fromkeys(blocks, 0.0)
    bad_seed = None
    # err <= rtol iff |a-b| <= rtol*|b| + 1e-8 (abs slack near zero)
    slack = 1e-8 / args.rtol if args.rtol > 0 else 1e-300
    for trial in range(args.trials):
        inst_seed = int(rng_master.integers(0, 2**32))
        rng = np.random.default_rng(inst_seed)
        n = 0 if trial % 5 == 4 else args.n      # exercise the vanishing-term case
        params = ModelParams(S=rng.standard_normal((args.p, args.d)),
                             W=rng.standard_normal((args.p, args.d)),
                             beta=rng.standard_normal(args.d),
                             sigma2=float(rng.uniform(0.3, 1.5)),
                             tau2=float(rng.uniform(0.3, 1.5)))
        data = Dataset(X=rng.standard_normal((n, args.p)),
                       r=rng.standard_normal(n),
                       Y=rng.standard_normal((args.m, args.p)))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        ana = grad_log_likelihood(params, data, alpha)
        num = finite_diff_gradient(params, data, alpha, step=args.step)
        for block in blocks:
            a = np.asarray(getattr(ana, block), float)
            b = np.asarray(getattr(num, block), float)
            rel = np.abs(a - b) / (np.abs(b) + slack)
            err = float(np.max(rel, initial=0.0))
            worst[block] = max(worst[block], err)
            if err > args.rtol and bad_seed is None:
                bad_seed = inst_seed
    for block in blocks:
        print(f"{block[1:]}: worst relative error {worst[block]:.3e}")
    if any(worst[b] > args.rtol for b in blocks):
        print(f"gradient mismatch (offending instance seed: {bad_seed})")
        return EXIT_GRADCHECK
    return EXIT_OK


def cmd_rank(args):
    params, _, _, _, names, _ = io.load_model(args.model)
    ranking = rank_features(params)
    scores = ranking.scores.tolist()
    io.write_rows(args.out, ["rank", "feature", "score"],
                  ((rank, names[idx - 1] if names else str(idx), scores[idx - 1])
                   for rank, idx in enumerate(ranking.order, start=1)))   # idx is 1-based
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="contrareg",
                                     description="Contrastive linear regression toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit the model to foreground/background tables")
    _add_data_flags(p_fit)
    p_fit.add_argument("-d", type=int, required=True)
    p_fit.add_argument("--out", required=True)
    _add_fit_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = subs.add_parser("predict", help="predict responses with a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_cv = subs.add_parser("cv", help="cross-validate the latent dimension")
    _add_data_flags(p_cv)
    p_cv.add_argument("--d-grid", required=True, help="comma-separated, e.g. 1,2,3")
    p_cv.add_argument("--k", type=int, default=10)
    p_cv.add_argument("--out-csv", default=None,
                      help="tidy per-cell CSV (d, fold, train_r2, test_r2)")
    _add_fit_flags(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    p_sim = subs.add_parser("simulate", help="write a simulated dataset to CSV")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--p", type=int, default=0)
    p_sim.add_argument("--d", type=int, default=0)
    p_sim.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_sim.add_argument("--out-prefix", required=True)
    p_sim.add_argument("--response-col", default="response")
    p_sim.add_argument("--lines", action="store_true",
                       help="corrupted-lines image analog instead of the model")
    p_sim.add_argument("--image-side", type=int, default=argparse.SUPPRESS)
    p_sim.add_argument("--background-rank", type=int, default=argparse.SUPPRESS)
    p_sim.add_argument("--noise-sd", type=float, default=argparse.SUPPRESS)
    p_sim.add_argument("--line-column", type=int, default=argparse.SUPPRESS)
    p_sim.set_defaults(func=cmd_simulate)

    p_gc = subs.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_gc.add_argument("--p", type=int, default=6)
    p_gc.add_argument("--d", type=int, default=2)
    p_gc.add_argument("--n", type=int, default=5)
    p_gc.add_argument("--m", type=int, default=5)
    p_gc.add_argument("--trials", type=int, default=20)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--step", type=float, default=1e-5)
    p_gc.add_argument("--rtol", type=float, default=1e-4)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_rank = subs.add_parser(
        "rank", help="feature ranking from a saved model",
        description="Rank features by |score|.  The score, W beta / ||beta||, is the "
                    "model's estimate of Cov(x_j, r), up to one common factor.")
    p_rank.add_argument("--model", required=True)
    p_rank.add_argument("--out", required=True)
    p_rank.set_defaults(func=cmd_rank)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedFile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (ShapeMismatch, TooFewSamples) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (DegenerateData, NonFiniteObjective, FactorizationError,
            RankDeficiencyError, ZeroBeta, ConstantTruth) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPTIM


if __name__ == "__main__":
    sys.exit(main())
