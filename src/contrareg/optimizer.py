"""Maximum-likelihood fitting with restarts.

Two solvers are available.  The default, line_search_ascent, is a monotone
L-BFGS ascent: the compact form of the L-BFGS matrix (Byrd, Nocedal &
Schnabel 1994) turns the gradient into a quasi-Newton direction, and an
Armijo backtracking line search accepts only steps that increase the
objective.  It stops at a stationary point, where the gradient test
|g|_inf <= tol * max(1, |ll|) / n holds (n foreground rows), or where
rounding stalls it.  adaptive_moment takes first/second-moment adaptive
steps (Adam-style, not monotone) with learning rate step0 and stops after
_PATIENCE small relative changes of the objective.  sigma2 and tau2 are
optimized on the log scale so positivity is structural.  Data are
column-centered with the pooled foreground/background mean (the foreground
mean when alpha = 0 or there is no background) and the response is
mean-centered; the offsets are stored on the result and re-applied at
prediction time.

At the sizes CV fits (p = 20, d <= 4), an iteration costs more in numpy
calls than in arithmetic, so the solver keeps their number down.  The
compact form takes a few matrix calls and one small triangular inverse,
where the two-loop recursion (Nocedal 1980) took four calls per pair; it
is the same matrix with other rounding, and tests/test_optimizer.py holds
it to the recursion.  That inverse, like model._factor's factors, calls
the LAPACK gufunc behind np.linalg.inv without the wrapper, whose checks
cost more than the arithmetic; tests/test_model.py::TestFactor pins the
bits against np.linalg.  The problem is one value, _Objective: the
centres, the centred data, their constants |X|^2, |Y|^2 and X'r (computed
once per fit, not per call), alpha and d.  A call tests theta once and
builds its ModelParams unchecked, under one np.errstate, so a trial that
overflows or fails to factor is a failed trial (-inf), not a warning.  fit
checks its inputs, builds the objective, solves from each start and keeps
the best; the result holds no reference to the objective.  FitResult.predict
builds the fitted predictive map once, on first use, and reuses it.

The pca_warm_start start finds its top-d subspaces by randomized subspace
iteration (Halko, Martinsson & Tropp 2011, SIAM Rev. 53:217, Alg. 4.4):
_POWER_PASSES = 5 passes over the data, none where the sketch already
spans every direction, and no Gram matrix or stacked copy of the data.
Its Gaussian test matrix has the constant seed _SKETCH_SEED, so the start
draws nothing from config.seed and one solve covers every restart.  The
same sketch, _sketched_loadings, gives select.pca_linear_baseline its
components; it is the package's only PCA routine.
"""

import time
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import (DegenerateData, FactorizationError, NonFiniteObjective,
                     ShapeMismatch)
from .model import (Dataset, ModelParams, build_workspace, _data_constants, _evaluate,
                    _integral_fields, _inv, _pack, _predict_rows, _rows, _unpack)

MODES = ("line_search_ascent", "adaptive_moment")
INITS = ("random_normal", "pca_warm_start")

_VAR_FLOOR = 1e-6
_STEP_MIN = 1e-14
_MEMORY = 10            # L-BFGS curvature pairs kept
_ARMIJO = 1e-4          # sufficient-increase constant of the line search
_STALL = 1e-15          # relative change of the objective at rounding level
_PATIENCE = 3           # adaptive_moment: consecutive small relative changes before stopping
_OVERSAMPLE = 10        # pca_warm_start: sketch columns beyond d
_POWER_PASSES = 5       # pca_warm_start: subspace-iteration passes over the data
_SKETCH_SEED = 0x5EED   # pca_warm_start: the test matrix's seed, the same for every fit


@dataclass(frozen=True)
class FitConfig:
    """Fit settings, checked once, at construction (ShapeMismatch if invalid).

    tol is the stopping tolerance: line_search_ascent stops once
    |g|_inf <= tol * max(1, |ll|) / n, adaptive_moment after _PATIENCE
    relative changes of the objective below tol.  step0 is adaptive_moment's
    learning rate; line_search_ascent does not read it.
    """

    d: int
    alpha: float = 1.0
    tol: float = 1e-4
    max_iter: int = 5000
    mode: str = "line_search_ascent"
    step0: float = 1e-2
    restarts: int = 0
    seed: int = 0
    init: str = "random_normal"

    def __post_init__(self):
        _integral_fields(self, ("d", "max_iter", "restarts", "seed"))
        if self.d < 1:
            raise ShapeMismatch(f"d must be >= 1, got {self.d}")
        if not 0 < self.tol < np.inf:
            raise ShapeMismatch(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ShapeMismatch(f"max_iter must be >= 1, got {self.max_iter}")
        if self.mode not in MODES:
            raise ShapeMismatch(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.init not in INITS:
            raise ShapeMismatch(f"init must be one of {INITS}, got {self.init!r}")
        if not 0 < self.step0 < np.inf:
            raise ShapeMismatch(f"step0 must be positive and finite, got {self.step0}")
        if not 0 <= self.alpha < np.inf:
            raise ShapeMismatch(f"alpha must be finite and nonnegative, got {self.alpha}")
        if self.restarts < 0:
            raise ShapeMismatch(f"restarts must be >= 0, got {self.restarts}")
        if not 0 <= self.seed < 2**64:
            raise ShapeMismatch(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(eq=False)
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
        """Predictive means and (constant) variance for rows of X, as model.predict_rows.

        The predictive map is built from params once, on the first call, and
        every later call reuses it.
        """
        X = _rows(X, self.params.p)
        return _predict_rows(self._workspace, X, self.center_x, self.center_r)

    @cached_property
    def _workspace(self):
        return build_workspace(self.params)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def initialize(data: Dataset, config: FitConfig) -> ModelParams:
    """Seeded starting point from data centered as fit() centers them, not centered again.

    Constant data raise DegenerateData; the test is exact: every pooled row equals X[0].
    pca_warm_start takes S from the pooled rows and W from the foreground's
    residual off span(S) as PPCA loadings (Tipping & Bishop 1999), found by
    randomized subspace iteration (Halko, Martinsson & Tropp 2011) in
    _POWER_PASSES = 5 passes over the data, block by block.  Its test
    matrix has the constant seed _SKETCH_SEED, not config.seed, so the
    start draws nothing from the fit's seed and fit solves it once.
    """
    if data.n == 0:
        raise DegenerateData("cannot initialize with zero foreground samples")

    blocks = (data.X, data.Y) if data.m > 0 and config.alpha > 0 else (data.X,)
    if all(np.all(Z == data.X[0]) for Z in blocks):
        raise DegenerateData("all-constant columns: pooled data variance is zero")
    rows = sum(len(Z) for Z in blocks)
    data_var = sum(np.vdot(Z, Z) for Z in blocks) / (data.p * rows)
    r_var = float(np.var(data.r))
    sigma2 = max(0.5 * data_var, _VAR_FLOOR)
    tau2 = max(0.5 * r_var, _VAR_FLOOR)

    p, d = data.p, config.d
    if config.init == "random_normal":
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x1217]))
        S = 0.1 * rng.standard_normal((p, d))
        W = 0.1 * rng.standard_normal((p, d))
        beta = 0.1 * rng.standard_normal(d)
        return ModelParams(S=S, W=W, beta=beta, sigma2=sigma2, tau2=tau2)

    # pca_warm_start: S from the pooled rows Z = [X; Y], never stacked
    S, span = _sketched_loadings(
        lambda B: np.concatenate([Z @ B for Z in blocks]),
        lambda U: sum(Z.T @ part for Z, part in zip(blocks, np.split(U, [data.n]))),
        rows, p, d)

    # W from the foreground's residual (X - 1 mean')(I - span span'), with the mean and
    # the projection applied inside the products, so no n x p residual is formed
    X = data.X
    mean = X.mean(axis=0)

    def off_span(G):
        return G - span @ (span.T @ G)

    def residual(B):
        B = off_span(B)
        return X @ B - mean @ B

    def residual_t(U):
        return off_span(X.T @ U - np.outer(mean, U.sum(axis=0)))

    W, _ = _sketched_loadings(residual, residual_t, data.n, p, d)
    return ModelParams(S=S, W=W, beta=np.zeros(d), sigma2=sigma2, tau2=tau2)


def _sketched_loadings(Z_times, Zt_times, rows, p, d):
    """PPCA loadings of centered rows Z as sigma2 -> 0, and their right singular vectors.

    Z is read only through Z_times(B) = Z B for a p x k block B and
    Zt_times(U) = Z' U for a rows x k block U.  Randomized subspace
    iteration (Halko, Martinsson & Tropp 2011, Alg. 4.4 on Z', then
    Alg. 5.1) with k = min(rows, p, d + _OVERSAMPLE): a Gaussian rows x k
    test matrix from the constant _SKETCH_SEED, an orthonormal p x k basis
    B of Z' times it, _POWER_PASSES passes B <- qr(Z' qr(Z B)), then the SVD
    of the rows x k sketch Z B.  At k = min(rows, p) the first basis already
    spans Z's row space, so no pass is made and the result is exact;
    otherwise the error of direction j falls as (s_{k+1} / s_j)^(2 passes + 1).
    Returns the top-d right singular vectors times singular value /
    sqrt(rows), zero-padded to d columns, and those min(d, rows, p) vectors.
    """
    k = min(rows, p, d + _OVERSAMPLE)
    draw = np.random.default_rng(_SKETCH_SEED).standard_normal
    basis = np.linalg.qr(Zt_times(draw((rows, k))))[0]      # the test matrix is not kept
    for _ in range(0 if k == min(rows, p) else _POWER_PASSES):
        basis = np.linalg.qr(Zt_times(np.linalg.qr(Z_times(basis))[0]))[0]
    _, svals, wt = np.linalg.svd(Z_times(basis), full_matrices=False)
    keep = min(d, k)
    span = basis @ wt[:keep].T
    loadings = np.zeros((p, d))
    loadings[:, :keep] = span * (svals[:keep] / np.sqrt(rows))
    return loadings, span


# ---------------------------------------------------------------------------
# Single-restart solvers
# ---------------------------------------------------------------------------

def _lbfgs_direction(g, S, Y):
    """The L-BFGS inverse-Hessian approximation H applied to g, in compact form.

    S and Y hold the curvature pairs (s, y) as rows, oldest first, with y the
    decrease of the gradient, so that H approximates the inverse Hessian of
    -ll.  With R the upper triangle of S Y', D its diagonal and
    gamma = s'y / y'y of the newest pair (Byrd, Nocedal & Schnabel 1994,
    Thm 2.2),

        H = gamma I + [S' gamma Y'] [[R^-T (D + gamma Y Y') R^-1, -R^-T],
                                     [-R^-1, 0]] [S; gamma Y].

    That is the matrix of the two-loop recursion (Nocedal & Wright,
    Alg. 7.4), rounded differently, in a few matrix calls; the recursion is
    kept as the test oracle.
    """
    SY = S @ Y.T
    Ri = _inv(np.triu(SY))
    gamma = SY[-1, -1] / (Y[-1] @ Y[-1])
    q = Ri @ (S @ g)
    h = g - Y.T @ q
    return gamma * h + S.T @ (Ri.T @ (SY.diagonal() * q - gamma * (Y @ h)))


def _stationary(g, ll, tol, n):
    return np.max(np.abs(g)) <= tol * max(1.0, abs(ll)) / n


def _run_line_search(fun, theta, ll, g, config, n):
    trace = [ll]
    S = Y = np.empty((0, theta.size))          # curvature pairs as rows, oldest first
    converged = _stationary(g, ll, config.tol, n)
    while not converged and len(trace) <= config.max_iter:
        direction = _lbfgs_direction(g, S, Y) if len(S) else g
        slope = g @ direction
        if slope <= 0.0:
            # not an ascent direction: restart from steepest ascent
            S = Y = S[:0]
            direction, slope = g, g @ g
        st = 1.0 if len(S) else 1.0 / max(1.0, np.linalg.norm(g))
        while st >= _STEP_MIN:
            cand = theta + st * direction
            ll_c, g_c = fun(cand)
            if ll_c >= ll + _ARMIJO * st * slope:      # False for a failed (-inf) trial
                break
            st *= 0.5
        else:
            # no step increases the objective: a stall at rounding level
            converged = True
            break
        s, y = cand - theta, g - g_c
        if s @ y > 1e-10 * (y @ y):
            S, Y = np.vstack([S, s])[-_MEMORY:], np.vstack([Y, y])[-_MEMORY:]
        stalled = abs(ll_c - ll) <= _STALL * (abs(ll) + 1.0)
        theta, ll, g = cand, ll_c, g_c
        trace.append(ll)
        converged = stalled or _stationary(g, ll, config.tol, n)
    return theta, g, trace, bool(converged)


def _run_adaptive_moment(fun, theta0, ll0, g0, config):
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = config.step0
    for _ in range(4):
        theta, ll, g = theta0, ll0, g0
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        trace = [ll]
        streak = 0
        for it in range(1, config.max_iter + 1):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** it)
            vhat = v / (1.0 - b2 ** it)
            theta = theta + lr * mhat / (np.sqrt(vhat) + eps)
            ll_new, g = fun(theta)
            if not np.isfinite(ll_new):
                break
            streak = streak + 1 if abs(ll_new - ll) / (abs(ll) + 1.0) < config.tol else 0
            ll = ll_new
            trace.append(ll)
            if streak >= _PATIENCE:
                return theta, g, trace, True
        else:
            return theta, g, trace, False
        lr *= 0.1      # auto-shrink after blow-up, three retries
    raise NonFiniteObjective("objective blew up despite shrinking the step 3 times")


# ---------------------------------------------------------------------------
# Public fit
# ---------------------------------------------------------------------------

class _Objective:
    """The problem fit solves, as a value: theta -> (ll, g) on centred data.

    Holds the centres (the pooled foreground/background column mean, or the
    foreground's when alpha = 0 or there is no background; the response
    mean), the centred Dataset, its constants (model._data_constants),
    alpha and d.  A call tests theta once and builds its ModelParams
    unchecked, under one np.errstate: a theta that is not finite, a variance
    whose exp overflows, a failed factor or a non-finite gradient is a
    failed trial (-inf, None), not a warning.  g is _evaluate's packed
    gradient with its sigma2 and tau2 entries scaled in place to the log
    scale.  _evaluate is looked up as a module global at each call, so a
    hook set there sees every call.
    """

    def __init__(self, data, alpha, d):
        X, Y, r = data.X, data.Y, data.r
        # with alpha=0 the background must not influence the fit, centering included,
        # and no term reads it, so it is not copied
        use_bg = data.m > 0 and alpha > 0
        self.center_x = ((X.sum(axis=0) + Y.sum(axis=0)) / (data.n + data.m) if use_bg
                         else X.mean(axis=0))
        self.center_r = float(r.mean())
        self.data = Dataset(X=X - self.center_x, r=r - self.center_r,
                            Y=Y - self.center_x if use_bg else Y[:0],
                            feature_names=data.feature_names)
        self.constants = _data_constants(self.data, use_bg)
        self.alpha, self.d = alpha, d

    def __call__(self, theta):
        with np.errstate(all="ignore"):
            params = _unpack(theta, self.data.p, self.d)
            if not (np.isfinite(theta).all() and max(params.sigma2, params.tau2) < np.inf):
                return -np.inf, None
            try:
                ll, g = _evaluate(params, self.data, self.alpha, want_grad=True,
                                  constants=self.constants)
            except (FactorizationError, ShapeMismatch):
                return -np.inf, None
            # chain rule: d/d log(v) = v d/dv, which may overflow
            g[-2] *= params.sigma2
            g[-1] *= params.tau2
        if not np.isfinite(g[-2:]).all():
            return -np.inf, None
        return ll, g


def fit(data: Dataset, config: FitConfig) -> FitResult:
    """Maximum-likelihood estimate over config.restarts + 1 seeded starts.

    The best start by final log-likelihood wins.  pca_warm_start has one
    start whatever config.restarts says, so it runs a single solve.  A
    constant response raises DegenerateData: beta = 0 fits it exactly, and
    the likelihood grows without bound as tau2 -> 0.  The test is exact:
    every r equals r[0], so one foreground row is constant too.  The
    objective, and with it the centred copy of the data, is not kept on the
    result.
    """
    t0 = time.perf_counter()
    if data.n == 0:
        raise DegenerateData("cannot fit with zero foreground samples")
    if np.all(data.r == data.r[0]):
        raise DegenerateData("constant response: the likelihood is unbounded as tau2 -> 0")

    objective = _Objective(data, config.alpha, config.d)
    runner = (partial(_run_line_search, n=data.n) if config.mode == "line_search_ascent"
              else _run_adaptive_moment)

    # pca_warm_start draws nothing at random: every restart would repeat the same solve
    starts = 1 if config.init == "pca_warm_start" else config.restarts + 1
    best = None
    for restart in range(starts):
        sub = replace(config, seed=_restart_seed(config.seed, restart))
        theta0 = _pack(initialize(objective.data, sub))
        ll0, g0 = objective(theta0)
        if not np.isfinite(ll0):
            raise NonFiniteObjective("objective non-finite at the starting point")
        theta, g, trace, converged = runner(objective, theta0, ll0, g0, config)
        if best is None or trace[-1] > best[2][-1]:
            best = (theta, g, trace, converged, restart)

    theta, g, trace, converged, restart = best
    return FitResult(params=_unpack(theta, data.p, config.d), center_x=objective.center_x,
                     center_r=objective.center_r, ll_trace=trace, converged=converged,
                     best_restart=restart, wall_time_seconds=time.perf_counter() - t0,
                     grad_inf_norm=float(np.max(np.abs(g))))


def _restart_seed(seed, restart):
    return int(np.uint64(seed) ^ np.uint64(0x9E3779B97F4A7C15 * (restart + 1) & (2**64 - 1)))
