"""Maximum-likelihood fitting by gradient ascent with restarts.

Two step policies are available: backtracking line search (monotone ascent,
the default) and first/second-moment adaptive steps (Adam-style, not
monotone).  sigma2 and tau2 are optimized on the log scale so positivity is
structural.  Data are column-centered with the pooled foreground/background
mean and the response is mean-centered; the offsets are stored on the result
and re-applied at prediction time.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateData, FactorizationError, NonFiniteObjective,
                     ShapeMismatch)
from .model import (Dataset, ModelParams, predict_rows, _evaluate, _grad_vector,
                    _pack, _unpack)

MODES = ("line_search_ascent", "adaptive_moment")
INITS = ("random_normal", "pca_warm_start")

_VAR_FLOOR = 1e-6
_STEP_MIN = 1e-14
_STEP_MAX = 1e3
_PATIENCE = 3           # consecutive small relative changes before stopping


@dataclass
class FitConfig:
    d: int
    alpha: float = 1.0
    tol: float = 1e-4
    max_iter: int = 5000
    mode: str = "line_search_ascent"
    step0: float = 1e-2
    restarts: int = 3
    seed: int = 0
    init: str = "random_normal"

    def validate(self):
        if self.d < 1:
            raise ShapeMismatch(f"d must be >= 1, got {self.d}")
        if self.tol <= 0:
            raise ShapeMismatch(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ShapeMismatch(f"max_iter must be >= 1, got {self.max_iter}")
        if self.mode not in MODES:
            raise ShapeMismatch(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.init not in INITS:
            raise ShapeMismatch(f"init must be one of {INITS}, got {self.init!r}")
        if self.step0 <= 0 or self.restarts < 0 or self.alpha < 0:
            raise ShapeMismatch("step0 must be > 0, restarts >= 0, alpha >= 0")


@dataclass
class FitResult:
    params: ModelParams
    center_x: np.ndarray
    center_r: float
    ll_trace: list
    converged: bool
    best_restart: int
    wall_time_seconds: float
    grad_inf_norm: float

    @property
    def final_ll(self):
        return self.ll_trace[-1]

    @property
    def iterations(self):
        return len(self.ll_trace) - 1

    def predict(self, X):
        """Predictive means and (constant) variance for rows of X."""
        return predict_rows(self.params, X, self.center_x, self.center_r)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def initialize(data: Dataset, config: FitConfig) -> ModelParams:
    """Seeded starting point; data are assumed already centered by fit()."""
    config.validate()
    data.validate()
    if data.n == 0:
        raise DegenerateData("cannot initialize with zero foreground samples")
    if config.d > data.p:
        raise ShapeMismatch(f"d={config.d} exceeds feature dimension p={data.p}")

    use_bg = data.m > 0 and config.alpha > 0
    pooled = np.vstack([data.X, data.Y]) if use_bg else np.asarray(data.X, float)
    pooled = pooled - pooled.mean(axis=0)
    data_var = float(np.mean(pooled ** 2))
    if data_var <= 0.0:
        raise DegenerateData("all-constant columns: pooled data variance is zero")
    r_var = float(np.var(np.asarray(data.r, float)))
    sigma2 = max(0.5 * data_var, _VAR_FLOOR)
    tau2 = max(0.5 * r_var, _VAR_FLOOR)

    p, d = data.p, config.d
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x1217]))
    if config.init == "random_normal":
        S = 0.1 * rng.standard_normal((p, d))
        W = 0.1 * rng.standard_normal((p, d))
        beta = 0.1 * rng.standard_normal(d)
        return ModelParams(S=S, W=W, beta=beta, sigma2=sigma2, tau2=tau2)

    # pca_warm_start
    _, svals, Vt = np.linalg.svd(pooled, full_matrices=False)
    ncomp = min(d, svals.size)
    scale = svals[:ncomp] / np.sqrt(max(pooled.shape[0], 1))
    S = np.zeros((p, d))
    S[:, :ncomp] = Vt[:ncomp].T * scale
    Xc = np.asarray(data.X, float) - np.asarray(data.X, float).mean(axis=0)
    span = Vt[:ncomp].T
    resid = Xc - (Xc @ span) @ span.T
    _, rs, RVt = np.linalg.svd(resid, full_matrices=False)
    ncomp_w = min(d, rs.size)
    W = np.zeros((p, d))
    W[:, :ncomp_w] = RVt[:ncomp_w].T * (rs[:ncomp_w] / np.sqrt(max(data.n, 1)))
    beta = np.zeros(d)
    return ModelParams(S=S, W=W, beta=beta, sigma2=sigma2, tau2=tau2)


# ---------------------------------------------------------------------------
# Single-restart solvers
# ---------------------------------------------------------------------------

def _small_change_streak(streak, ll_new, ll, tol):
    """Count consecutive steps whose relative change of the objective is below tol."""
    return streak + 1 if abs(ll_new - ll) / (abs(ll) + 1.0) < tol else 0


def _run_line_search(fun, theta0, config):
    ll, g = fun(theta0)
    if not np.isfinite(ll):
        raise NonFiniteObjective("objective non-finite at the starting point")
    theta = theta0
    step = config.step0
    trace = [ll]
    streak = 0
    converged = False
    for _ in range(config.max_iter):
        accepted = False
        st = step
        while st >= _STEP_MIN:
            cand = theta + st * g
            ll_c, g_c = fun(cand)
            if np.isfinite(ll_c) and ll_c > ll:
                accepted = True
                break
            st *= 0.5
        if not accepted:
            # no ascent direction step improves the objective: stationary
            converged = True
            break
        streak = _small_change_streak(streak, ll_c, ll, config.tol)
        theta, ll, g = cand, ll_c, g_c
        trace.append(ll)
        step = min(st * 2.0, _STEP_MAX)
        if streak >= _PATIENCE:
            converged = True
            break
    return theta, g, trace, converged


def _run_adaptive_moment(fun, theta0, config):
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = config.step0
    for attempt in range(4):
        theta = theta0.copy()
        ll, g = fun(theta)
        if not np.isfinite(ll):
            raise NonFiniteObjective("objective non-finite at the starting point")
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        trace = [ll]
        streak = 0
        converged = False
        blown_up = False
        for it in range(1, config.max_iter + 1):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** it)
            vhat = v / (1.0 - b2 ** it)
            theta = theta + lr * mhat / (np.sqrt(vhat) + eps)
            ll_new, g = fun(theta)
            if not np.isfinite(ll_new):
                blown_up = True
                break
            streak = _small_change_streak(streak, ll_new, ll, config.tol)
            ll = ll_new
            trace.append(ll)
            if streak >= _PATIENCE:
                converged = True
                break
        if not blown_up:
            return theta, g, trace, converged
        lr *= 0.1      # auto-shrink after blow-up, three retries
    raise NonFiniteObjective("objective blew up despite shrinking the step 3 times")


# ---------------------------------------------------------------------------
# Public fit
# ---------------------------------------------------------------------------

def fit(data: Dataset, config: FitConfig) -> FitResult:
    """Maximum-likelihood estimate over config.restarts + 1 seeded starts.

    The best start by final log-likelihood wins.  pca_warm_start has one
    start whatever config.restarts says, so it runs a single solve.
    """
    t0 = time.perf_counter()
    config.validate()
    data.validate()
    if data.n == 0:
        raise DegenerateData("cannot fit with zero foreground samples")

    X = np.asarray(data.X, float)
    Y = np.asarray(data.Y, float)
    r = np.asarray(data.r, float)
    # with alpha=0 the background must not influence the fit, centering included
    pooled = np.vstack([X, Y]) if (data.m > 0 and config.alpha > 0) else X
    center_x = pooled.mean(axis=0)
    center_r = float(r.mean())
    centered = Dataset(X=X - center_x, r=r - center_r, Y=Y - center_x,
                       feature_names=data.feature_names)

    p, d = data.p, config.d

    def fun(theta):
        try:
            # an overflowing exp(log sigma2) is a failed trial, not a warning
            with np.errstate(over="raise"):
                params = _unpack(theta, p, d)
            ll, grad = _evaluate(params, centered, config.alpha, want_grad=True)
        except (FloatingPointError, FactorizationError, ShapeMismatch):
            return -np.inf, None
        return ll, _grad_vector(params, grad)

    runner = _run_line_search if config.mode == "line_search_ascent" else _run_adaptive_moment

    # pca_warm_start draws nothing at random: every restart would repeat the same solve
    starts = 1 if config.init == "pca_warm_start" else config.restarts + 1
    best = None
    for restart in range(starts):
        sub = replace(config, seed=_restart_seed(config.seed, restart))
        theta0 = _pack(initialize(centered, sub))
        theta, g, trace, converged = runner(fun, theta0, config)
        if best is None or trace[-1] > best[2][-1]:
            best = (theta, g, trace, converged, restart)

    theta, g, trace, converged, restart = best
    return FitResult(params=_unpack(theta, p, d), center_x=center_x, center_r=center_r,
                     ll_trace=trace, converged=converged, best_restart=restart,
                     wall_time_seconds=time.perf_counter() - t0,
                     grad_inf_norm=float(np.max(np.abs(g))))


def _restart_seed(seed, restart):
    return int(np.uint64(seed) ^ np.uint64(0x9E3779B97F4A7C15 * (restart + 1) & (2**64 - 1)))
