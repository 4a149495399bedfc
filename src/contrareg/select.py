"""Latent-dimension selection, the PCA+linear-regression baseline, feature ranking."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConstantTruth, DegenerateData, FactorizationError,
                     NonFiniteObjective, RankDeficiencyError, ShapeMismatch,
                     TooFewSamples, ZeroBeta)
from .model import Dataset, ModelParams
from .optimizer import FitConfig, fit
from .simulate import r_squared

_TIE_TOL = 1e-12


@dataclass
class CVReport:
    d_grid: list
    k: int
    train_r2: np.ndarray      # len(d_grid) x k, NaN marks a failed cell
    test_r2: np.ndarray
    best_d: int


@dataclass
class FeatureRanking:
    component_index: int      # 1-based latent dimension
    scores: np.ndarray        # length p
    order: np.ndarray         # permutation of 1..p, |score| descending


def cross_validate(data: Dataset, d_grid, k: int, config: FitConfig) -> CVReport:
    """k-fold CV over foreground rows; the full background rides along each fold.

    Cells where fitting or scoring fails are recorded as NaN and excluded
    from the selection means.  best_d maximizes mean test R^2; ties go to
    the smaller d.
    """
    data.validate()
    d_grid = sorted(_integral(d) for d in d_grid)
    if not d_grid:
        raise ShapeMismatch("d_grid is empty")
    if k < 2:
        raise TooFewSamples(f"k must be >= 2, got {k}")
    if data.n < k:
        raise TooFewSamples(f"need n >= k, got n={data.n}, k={k}")
    for d in d_grid:
        if not 1 <= d <= data.p:
            raise ShapeMismatch(f"need 1 <= d <= p={data.p} for every grid entry, got d={d}")
    # an invalid config fails every cell alike: raise it instead of a NaN report
    replace(config, d=d_grid[0]).validate()

    rng = np.random.default_rng(config.seed)
    folds = np.array_split(rng.permutation(data.n), k)
    train_r2 = np.full((len(d_grid), k), np.nan)
    test_r2 = np.full((len(d_grid), k), np.nan)

    X, r = np.asarray(data.X, float), np.asarray(data.r, float)
    for di, d in enumerate(d_grid):
        for fi, test_idx in enumerate(folds):
            train_idx = np.setdiff1d(np.arange(data.n), test_idx)
            train = Dataset(X=X[train_idx], r=r[train_idx], Y=data.Y,
                            feature_names=data.feature_names)
            try:
                result = fit(train, replace(config, d=d))
                pred_train, _ = result.predict(X[train_idx])
                pred_test, _ = result.predict(X[test_idx])
                train_r2[di, fi] = r_squared(pred_train, r[train_idx])
                test_r2[di, fi] = r_squared(pred_test, r[test_idx])
            except (ConstantTruth, DegenerateData, FactorizationError,
                    NonFiniteObjective, ShapeMismatch):
                continue

    best_d = d_grid[0]
    best_mean = -np.inf
    for di, d in enumerate(d_grid):
        cells = test_r2[di]
        if np.all(np.isnan(cells)):
            continue
        mean = float(np.nanmean(cells))
        if mean > best_mean + _TIE_TOL:
            best_mean = mean
            best_d = d
    return CVReport(d_grid=d_grid, k=k, train_r2=train_r2, test_r2=test_r2, best_d=best_d)


def _integral(d):
    """A grid entry as an int; ShapeMismatch unless its value is an integer."""
    try:
        if int(d) == d:
            return int(d)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ShapeMismatch(f"d_grid entries must be integers, got {d!r}")


def pca_linear_baseline(train: Dataset, test_X, d: int):
    """Top-d PCA of the foreground training matrix + OLS of r on the scores."""
    train.validate()
    test_X = np.asarray(test_X, float)
    if d < 1 or d > train.p:
        raise ShapeMismatch(f"need 1 <= d <= p, got d={d}, p={train.p}")
    if test_X.ndim != 2 or test_X.shape[1] != train.p:
        raise ShapeMismatch(f"test_X must have p={train.p} columns, got {test_X.shape}")

    X = np.asarray(train.X, float)
    mean = X.mean(axis=0)
    Xc = X - mean
    _, svals, Vt = np.linalg.svd(Xc, full_matrices=False)
    tol = max(Xc.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    if np.sum(svals > tol) < d:
        raise RankDeficiencyError(
            f"training matrix has fewer than d={d} nonzero singular values")
    comps = Vt[:d].T
    scores = Xc @ comps
    design = np.column_stack([np.ones(train.n), scores])
    coef, *_ = np.linalg.lstsq(design, np.asarray(train.r, float), rcond=None)
    test_scores = (test_X - mean) @ comps
    return np.column_stack([np.ones(test_X.shape[0]), test_scores]) @ coef


def rank_features(params: ModelParams, names=None,
                  canonical_rotation: bool = True) -> FeatureRanking:
    """Rank features by |loading| of the response-linked contrastive component.

    With the canonical rotation the latent basis is rotated so beta aligns
    with the first axis, making the selected column W beta / ||beta|| and
    the ranking invariant to the rotational nonidentifiability of (W, beta).
    Without it, the raw column of W at argmax |beta_k| is used.
    """
    W = np.asarray(params.W, float)
    beta = np.asarray(params.beta, float)
    bnorm = float(np.linalg.norm(beta))
    if bnorm < 1e-12:
        raise ZeroBeta("||beta|| < 1e-12: no response-linked component to rank")
    if names is not None and len(names) != W.shape[0]:
        raise ShapeMismatch("names length does not match feature count")

    if canonical_rotation:
        # after rotating beta onto the first axis, that axis is the ranked column
        component_index = 1
        scores = W @ beta / bnorm
    else:
        component_index = int(np.argmax(np.abs(beta))) + 1
        scores = W[:, component_index - 1].copy()

    # stable sort on (-|score|, index): equal magnitudes keep the lower index first
    order = np.argsort(-np.abs(scores), kind="stable") + 1
    return FeatureRanking(component_index=component_index, scores=scores, order=order)
