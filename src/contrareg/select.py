"""Latent-dimension selection, the PCA+linear-regression baseline, feature ranking."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConstantTruth, DegenerateData, FactorizationError,
                     NonFiniteObjective, RankDeficiencyError, ShapeMismatch,
                     TooFewSamples, ZeroBeta)
from .model import Dataset, ModelParams, _integral, _rows
from .optimizer import FitConfig, fit, _sketched_loadings
from .simulate import r_squared

_TIE_TOL = 1e-12


@dataclass(eq=False)
class CVReport:
    d_grid: list
    k: int
    train_r2: np.ndarray      # len(d_grid) x k, NaN marks a failed cell
    test_r2: np.ndarray
    best_d: int


@dataclass(eq=False)
class FeatureRanking:
    scores: np.ndarray        # length p
    order: np.ndarray         # permutation of 1..p, |score| descending


def cross_validate(data: Dataset, d_grid, k: int, config: FitConfig) -> CVReport:
    """k-fold CV over foreground rows; the full background rides along each fold.

    Cells where fitting or scoring fails are recorded as NaN and excluded
    from the selection means.  best_d maximizes mean test R^2; ties go to
    the smaller d.
    """
    d_grid = sorted(_integral(d, "d_grid entry") for d in d_grid)
    if not d_grid:
        raise ShapeMismatch("d_grid is empty")
    k = _integral(k, "k")
    if k < 2:
        raise TooFewSamples(f"k must be >= 2, got {k}")
    if data.n < k:
        raise TooFewSamples(f"need n >= k, got n={data.n}, k={k}")
    for d in d_grid:
        if not 1 <= d <= data.p:
            raise ShapeMismatch(f"need 1 <= d <= p={data.p} for every grid entry, got d={d}")

    rng = np.random.default_rng(config.seed)
    folds = np.array_split(rng.permutation(data.n), k)
    train_r2 = np.full((len(d_grid), k), np.nan)
    test_r2 = np.full((len(d_grid), k), np.nan)

    X, r = data.X, data.r
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


def pca_linear_baseline(train: Dataset, test_X, d: int):
    """Top-d PCA of the foreground training matrix + OLS of r on the scores.

    The components come from the sketch of the pca_warm_start start
    (optimizer._sketched_loadings), with its constant test matrix, so the
    baseline is deterministic.  RankDeficiencyError when s_d^2 <= 1e-12 s_1^2,
    as in contrastive_residuals, or n <= d (centering leaves rank n - 1).
    """
    test_X = _rows(test_X, train.p)
    d = _integral(d, "d")
    if d < 1 or d > train.p:
        raise ShapeMismatch(f"need 1 <= d <= p, got d={d}, p={train.p}")
    if train.n <= d:
        raise RankDeficiencyError(f"need more than d={d} training rows, got {train.n}")

    mean = train.X.mean(axis=0)
    Xc = train.X - mean
    loadings, comps = _sketched_loadings(lambda B: Xc @ B, lambda U: Xc.T @ U,
                                         train.n, train.p, d)
    sizes = np.linalg.norm(loadings, axis=0)
    if sizes[-1] ** 2 <= 1e-12 * sizes[0] ** 2:
        raise RankDeficiencyError(
            f"training matrix has fewer than d={d} singular values above 1e-6 s_1")
    scores = Xc @ comps
    design = np.column_stack([np.ones(train.n), scores])
    coef, *_ = np.linalg.lstsq(design, train.r, rcond=None)
    test_scores = (test_X - mean) @ comps
    return np.column_stack([np.ones(test_X.shape[0]), test_scores]) @ coef


def rank_features(params: ModelParams) -> FeatureRanking:
    """Rank features by |W beta| / ||beta||, the pattern of the response-linked component.

    Under the model Cov(x, r) = W beta, so the score is the model's estimate
    of Cov(x_j, r) for each feature j, up to one common factor (1 / ||beta||).
    It is the first column of W once the latent basis is rotated so that beta
    lies on the first axis, so a joint rotation of (W, beta) leaves it
    unchanged.  order is 1-based.  Raises ZeroBeta if ||beta|| < 1e-12.
    """
    bnorm = float(np.linalg.norm(params.beta))
    if bnorm < 1e-12:
        raise ZeroBeta("||beta|| < 1e-12: no response-linked component to rank")
    scores = params.W @ params.beta / bnorm
    # stable sort on (-|score|, index): equal magnitudes keep the lower index first
    order = np.argsort(-np.abs(scores), kind="stable") + 1
    return FeatureRanking(scores=scores, order=order)
