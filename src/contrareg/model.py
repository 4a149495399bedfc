"""Core model: domain types, log-likelihood, gradients, prediction, latent posterior.

The generative model is

    x = S z_a + W t + eps_a        (foreground observation, dim p)
    y = S z_b + eps_b              (background observation, dim p)
    r = beta' t + eta              (foreground response)

with z_a, z_b, t standard normal in dim d, eps ~ N(0, sigma2 I_p) and
eta ~ N(0, tau2).  Marginally y ~ N(0, P) with P = S S' + sigma2 I, and
x ~ N(0, Q) with Q = P + W W'.  The posterior of t given x is
N(A W' P^-1 x, A) with A = (W' P^-1 W + I)^-1, which also gives the
predictive law of r given x.

P and Q are sigma2 I plus rank d and rank 2d (Q = sigma2 I + U U' with
U = [S W]), so the Woodbury identity and the matrix determinant lemma reduce
every solve and log-determinant to d x d and 2d x 2d factors (Tipping &
Bishop 1999; Bishop, PRML 12.2 and App. C).  The log-likelihood is

    log N(X; 0, Q) + log N(r | X) + alpha log N(Y; 0, P),

and one low-rank Gaussian routine computes both Gaussian terms and their
gradients.  It reads each data matrix Z through |Z|^2, which a fit computes
once, and one product Z'(Z B) per evaluation with the thin p x k block B = V
of its factor, as PPCA's likelihood reads the sample covariance (Tipping &
Bishop 1999): B = V_Q for the foreground and B = V_P for the background.
Q is factored for every use (build_workspace), P only where the background
term is weighted in (_evaluate with alpha > 0).  The r | x term is written
once, in _evaluate, from the residual e = r - X v and X'e.  An evaluation costs
O((n + m) p d) time and O((n + m) d + p d) memory beyond the data; neither a
p x p nor an n x p matrix is formed.  The one exception is a Gaussian whose
U has p or more columns (p <= 2d, so Z is n x 2d at most): there the
expanded |Z C^-1|^2 cancels, and Z C^-1 is formed to keep d/dsigma2
accurate at a tiny sigma2.  Dense P and Q exist only in the test oracles.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import FactorizationError, RankDeficiencyError, ShapeMismatch

LOG_2PI = float(np.log(2.0 * np.pi))
_ROW_BLOCK = 256     # rows per block where a pass over a data matrix would copy it whole
# the LAPACK gufuncs that np.linalg.cholesky and np.linalg.inv run, without their
# wrappers (see _factor); a failure leaves NaN and sets the invalid flag
_cholesky = partial(_umath_linalg.cholesky_lo, signature="d->d")
_inv = partial(_umath_linalg.inv, signature="d->d")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _integral(value, name):
    """value as an int; ShapeMismatch unless its value is an integer."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ShapeMismatch(f"{name} must be an integer, got {value!r}")


def _integral_fields(config, names):
    """Store each named field of a frozen config as an int, via _integral."""
    for name in names:
        object.__setattr__(config, name, _integral(getattr(config, name), name))


def _finite_arrays(obj, names):
    """Store each named field of a frozen dataclass as a float64 array, without a copy
    when it already is one; ShapeMismatch if an entry is not finite."""
    for name in names:
        a = np.asarray(getattr(obj, name), float)
        if not np.isfinite(a).all():
            raise ShapeMismatch(f"{name} contains non-finite entries")
        object.__setattr__(obj, name, a)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full parameter bundle (S, W, beta, sigma2, tau2).

    Construction checks that S and W are both p x d with 1 <= d <= p, that
    beta has length d, and that every entry is finite with sigma2, tau2 >= 0;
    it raises ShapeMismatch otherwise.  The arrays are stored as float64,
    without a copy when they already are, so an in-place edit afterwards is
    not re-checked.  Zero variances are a valid simulation truth; the
    likelihood (build_workspace) needs them positive.  Equality and hash are
    by identity: an elementwise array comparison has no single truth value.
    """

    S: np.ndarray        # p x d shared loadings
    W: np.ndarray        # p x d foreground-specific loadings
    beta: np.ndarray     # d regression coefficients
    sigma2: float        # observation noise variance
    tau2: float          # response noise variance

    @property
    def p(self):
        return self.S.shape[0]

    @property
    def d(self):
        return self.S.shape[1]

    def __post_init__(self):
        _finite_arrays(self, ("S", "W", "beta"))
        for name in ("sigma2", "tau2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        S, W, beta = self.S, self.W, self.beta
        if S.ndim != 2 or W.shape != S.shape:
            raise ShapeMismatch(f"S and W must both be p x d, got {S.shape} and {W.shape}")
        p, d = S.shape
        if not 1 <= d <= p:
            raise ShapeMismatch(f"latent dimension d={d} must be in [1, p={p}]")
        if beta.shape != (d,):
            raise ShapeMismatch(f"beta must have length d={d}, got shape {beta.shape}")
        if not (0.0 <= self.sigma2 < np.inf and 0.0 <= self.tau2 < np.inf):
            raise ShapeMismatch(
                f"sigma2 and tau2 must be finite and nonnegative, got {self.sigma2}, {self.tau2}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Foreground matrix X with responses r, plus background matrix Y.

    Construction checks that X (n x p) and Y (m x p) are 2-d with the same
    column count p >= 1, that r has length n, that every entry is finite
    and that feature_names, if given, has length p; it raises ShapeMismatch
    otherwise.  The arrays are stored as float64, without a copy when they
    already are, so an in-place edit afterwards is not re-checked.  Equality
    and hash are by identity, as for ModelParams.
    """

    X: np.ndarray                     # n x p
    r: np.ndarray                     # n
    Y: np.ndarray                     # m x p
    feature_names: list = None

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def m(self):
        return self.Y.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    def __post_init__(self):
        _finite_arrays(self, ("X", "r", "Y"))
        X, r, Y = self.X, self.r, self.Y
        if X.ndim != 2 or Y.ndim != 2:
            raise ShapeMismatch("X and Y must be 2-d arrays")
        if X.shape[1] != Y.shape[1]:
            raise ShapeMismatch(f"X has {X.shape[1]} columns but Y has {Y.shape[1]}")
        if X.shape[1] == 0:
            raise ShapeMismatch("X and Y have no feature columns; p must be >= 1")
        if r.shape != (X.shape[0],):
            raise ShapeMismatch(f"r must have length n={X.shape[0]}, got shape {r.shape}")
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise ShapeMismatch("feature_names length does not match column count")


@dataclass(frozen=True, eq=False)
class Workspace:
    """Small factor of Q for one parameter value.

    The Q fields are _factor's output for U = [S W], so Q^-1 U = V_Q L_Q^-1
    with L_Q L_Q' = sigma2 I_2d + U'U.  A = (W' P^-1 W + I)^-1 = sigma2 [L_Q^-T L_Q^-1]
    restricted to the W block, and P^-1 W A beta = Q^-1 W beta.  pred_coef
    is that vector v, with predictive mean v' x; pred_var is the
    (x-independent) predictive variance tau2 + beta' A beta.  Building one
    costs O(p d^2 + d^3).  P's own factor is read only by the background
    term, so _evaluate computes it there.
    """

    U: np.ndarray          # p x 2d, [S W]
    Li_Q: np.ndarray       # 2d x 2d, L_Q^-1
    V_Q: np.ndarray        # p x 2d, U L_Q^-T
    A: np.ndarray
    logdet_Q: float
    pred_var: float
    pred_coef: np.ndarray


@dataclass(frozen=True, eq=False)
class GradientSet:
    """Gradient of the log-likelihood, natural (constrained) parameterization."""

    dS: np.ndarray
    dW: np.ndarray
    dbeta: np.ndarray
    dsigma2: float
    dtau2: float


@dataclass(frozen=True)
class PredictiveDist:
    mean: float
    variance: float


@dataclass(frozen=True, eq=False)
class LatentPosterior:
    t_mean: np.ndarray
    t_cov: np.ndarray


# ---------------------------------------------------------------------------
# Packed parameter vector (unconstrained parameterization)
# ---------------------------------------------------------------------------

def _pack(params):
    return np.concatenate([
        params.S.ravel(),
        params.W.ravel(),
        params.beta,
        [np.log(params.sigma2), np.log(params.tau2)],
    ])


def _blocks(theta, p, d):
    """The S, W and beta blocks of a packed vector (views)."""
    k = p * d
    return theta[:k].reshape(p, d), theta[k:2 * k].reshape(p, d), theta[2 * k:2 * k + d]


def _unpack(theta, p, d):
    """ModelParams of a packed vector, without ModelParams' checks.

    Each caller's theta is finite: it comes from checked parameters or from
    a successful evaluation, or the caller is fit's objective, which tests
    theta once and rejects an exp that overflowed to an infinite variance.
    The blocks are float64 views, as the checks would store them.
    """
    S, W, beta = _blocks(theta, p, d)
    params = object.__new__(ModelParams)
    params.__dict__.update(S=S, W=W, beta=beta,
                           sigma2=float(np.exp(theta[-2])), tau2=float(np.exp(theta[-1])))
    return params


def _gradient_set(g, p, d):
    """GradientSet of a natural-scale packed gradient; its blocks are views of g."""
    dS, dW, dbeta = _blocks(g, p, d)
    return GradientSet(dS=dS, dW=dW, dbeta=dbeta, dsigma2=float(g[-2]), dtau2=float(g[-1]))


# ---------------------------------------------------------------------------
# Workspace construction
# ---------------------------------------------------------------------------

def _factor(U, s2, label):
    """V = U L^-T, L^-1 and log|sigma2 I + U U'| for L L' = sigma2 I + U'U.

    Call under np.errstate(all="ignore").  It calls the LAPACK gufuncs that
    np.linalg.cholesky and np.linalg.inv run, directly: the same bits,
    without the wrappers' type checks and errstate, which took most of a
    2d x 2d factor's time.  A factor that fails is NaN and one of an
    overflowing U'U infinite, so either leaves logdet non-finite: a
    FactorizationError.  TestFactor in tests/test_model.py pins the bits
    against np.linalg.
    """
    p, k = U.shape
    M = U.T @ U
    M.ravel()[::k + 1] += s2
    L = _cholesky(M)
    logdet = float((p - k) * np.log(s2) + 2.0 * np.log(L.diagonal()).sum())
    if not np.isfinite(logdet):
        raise FactorizationError(f"{label} is not finite, or numerically non-SPD")
    Li = _inv(L)
    return U @ Li.T, Li, logdet


def build_workspace(params: ModelParams) -> Workspace:
    """Small factor of Q, A and the prediction cache for a parameter value."""
    with np.errstate(all="ignore"):          # overflow and a failed factor raise below
        return _workspace(params)


def _workspace(params):
    """build_workspace's body, for a caller already under np.errstate(all="ignore")."""
    # construction allows zero variances (a noiseless truth); the likelihood divides by them
    if not (params.sigma2 > 0.0 and params.tau2 > 0.0):
        raise ShapeMismatch(f"sigma2 and tau2 must be positive, got {params.sigma2}, {params.tau2}")
    S, W, beta = params.S, params.W, params.beta
    d = S.shape[1]
    s2 = np.float64(params.sigma2)
    U = np.hstack([S, W])
    V_Q, Li_Q, logdet_Q = _factor(U, s2, "sigma2 I + U'U")

    Li_W = Li_Q[:, d:]                         # L_Q^-1 restricted to the W block
    A = s2 * (Li_W.T @ Li_W)
    pred_var = params.tau2 + float(beta @ (A @ beta))
    pred_coef = V_Q @ (Li_W @ beta)
    return Workspace(U=U, Li_Q=Li_Q, V_Q=V_Q, A=A, logdet_Q=logdet_Q,
                     pred_var=pred_var, pred_coef=pred_coef)


# ---------------------------------------------------------------------------
# Likelihood and gradient
# ---------------------------------------------------------------------------

def _check_pair(params, data, alpha):
    if data.p != params.p:
        raise ShapeMismatch(f"data has p={data.p} but params have p={params.p}")
    if not 0 <= alpha < np.inf:
        raise ShapeMismatch(f"alpha must be finite and nonnegative, got {alpha}")


def _squared_norms(data, use_bg):
    """|X|^2 and |Y|^2 (0 without the background term): _gaussian's data constants."""
    return np.vdot(data.X, data.X), (np.vdot(data.Y, data.Y) if use_bg else 0.0)


def _gaussian(Z, quad, V, Li, logdet, s2, want_grad):
    """Sum over the rows z of Z of log N(z; 0, C), C = sigma2 I + U U'.

    quad is |Z|^2, a constant of the data that a fit computes once.
    V, Li and logdet are _factor's for U: C^-1 = (I - V V') / sigma2 and
    C^-1 U = V Li.  Returns (ll, None), or with want_grad (ll, (d/dU,
    d/dsigma2)).  The data enter once, through Z V and G = Z'(Z V):
    K = (Z V)'(Z V) gives Z C^-1 U = Z V Li, (Z C^-1)' Z C^-1 U =
    (G - V K) Li / sigma2 and
    |Z C^-1|^2 = (|Z|^2 - tr K) / sigma2^2 - tr(Li' K Li) / sigma2.  When U
    has p or more columns no direction carries only noise and that
    difference cancels, so there Z C^-1 is formed instead (p <= 2d, tiny).
    """
    n, p = Z.shape
    k = V.shape[1]
    ZV = Z @ V
    K = ZV.T @ ZV
    trK = K.trace()
    ll = -0.5 * (n * (logdet + p * LOG_2PI) + (quad - trK) / s2)
    if not want_grad:
        return ll, None
    dU = ((Z.T @ ZV - V @ K) / s2 - n * V) @ Li
    if k < p:
        zci2 = (quad - trK) / (s2 * s2) - np.vdot(Li, K @ Li) / s2
    else:
        ZCi = (Z - ZV @ V.T) / s2
        zci2 = np.vdot(ZCi, ZCi)
    ds2 = 0.5 * (zci2 - n * (p - np.vdot(V, V)) / s2)
    return ll, (dU, ds2)


def _evaluate(params, data, alpha, want_grad, sq_norms=None):
    """Shared evaluation of the log-likelihood and (optionally) its gradient.

    sq_norms is _squared_norms(data, ...) where the caller evaluates the same
    data many times, as fit does; without it they are computed here.
    Returns (ll, None), or with want_grad (ll, g): g is the gradient packed as
    _pack lays theta out, on the natural scale (d/dsigma2 and d/dtau2 last).

    log p = log N(X; 0, Q) + log N(r | X) + alpha log N(Y; 0, P), with both
    Gaussian terms from _gaussian.  r | x is N(v' x, s), v = pred_coef and
    s = pred_var; this term is written here alone, from the residual
    e = r - X v and, for the gradient, X' e, w = Q^-1 X' e and U' w.
    At a tiny noise variance the gradient overflows into inf - inf: a
    non-finite ll is -inf and a non-finite g, tested once, a FactorizationError.
    Every caller holds one np.errstate(all="ignore") around the call, so
    neither shows as a floating-point warning.
    """
    ws = _workspace(params)
    d = params.d
    s2 = np.float64(params.sigma2)
    beta = params.beta
    X, n = data.X, data.n
    v = ws.pred_coef                               # Q^-1 W beta = P^-1 W A beta
    s = np.float64(ws.pred_var)                    # tau2 + beta' A beta
    use_bg = alpha > 0.0 and data.m > 0
    quad_x, quad_y = _squared_norms(data, use_bg) if sq_norms is None else sq_norms

    ll, gx = _gaussian(X, quad_x, ws.V_Q, ws.Li_Q, ws.logdet_Q, s2, want_grad)
    e = data.r - X @ v
    E2 = e @ e
    ll += -0.5 * (n * (np.log(s) + LOG_2PI) + E2 / s)
    if use_bg:
        ll_y, gy = _gaussian(data.Y, quad_y, *_factor(params.S, s2, "sigma2 I + S'S"), s2,
                             want_grad)
        ll += alpha * ll_y
    if not np.isfinite(ll):
        ll = -np.inf
    if not want_grad:
        return ll, None

    dU, dsigma2 = gx
    Xe = X.T @ e
    VXe = ws.V_Q.T @ Xe
    w = (Xe - ws.V_Q @ VXe) / s2                   # Q^-1 X' e
    wU = ws.Li_Q.T @ VXe                           # U' w
    kappa = (E2 / s - n) / (2.0 * s)               # d ll / d s
    # the regression term reaches U through Q in v and in s
    dU += (2.0 * kappa * v - w / s)[:, None] * (ws.U.T @ v) - v[:, None] * wU / s
    dsigma2 += kappa * (v @ v) - (w @ v) / s
    if use_bg:
        dU[:, :d] += alpha * gy[0]
        dsigma2 += alpha * gy[1]
    dW = dU[:, d:] + (w / s - 2.0 * kappa * v)[:, None] * beta
    dbeta = 2.0 * kappa * (ws.A @ beta) + wU[d:] / s
    g = np.concatenate([dU[:, :d].ravel(), dW.ravel(), dbeta, [dsigma2, kappa]])
    if not np.isfinite(g).all():
        raise FactorizationError("gradient is not finite (noise-variance underflow)")
    return ll, g


def log_likelihood(params: ModelParams, data: Dataset, alpha: float = 1.0) -> float:
    """Joint log-density of (X, r, Y) with the background terms weighted by alpha.

    Includes all -0.5 log(2 pi) constants so the value is a true log-density.
    """
    _check_pair(params, data, alpha)
    with np.errstate(all="ignore"):
        return _evaluate(params, data, alpha, want_grad=False)[0]


def grad_log_likelihood(params: ModelParams, data: Dataset, alpha: float = 1.0) -> GradientSet:
    """Analytic gradient of log_likelihood w.r.t. (S, W, beta, sigma2, tau2)."""
    return log_likelihood_and_grad(params, data, alpha)[1]


def log_likelihood_and_grad(params, data, alpha=1.0):
    """One-pass evaluation of objective and gradient (shared factorizations).

    Raises FactorizationError where the gradient is not finite, as at a noise
    variance so small that d ll / d tau2 overflows.
    """
    _check_pair(params, data, alpha)
    with np.errstate(all="ignore"):
        ll, g = _evaluate(params, data, alpha, want_grad=True)
    return ll, _gradient_set(g, params.p, params.d)


def finite_diff_gradient(params: ModelParams, data: Dataset, alpha: float = 1.0,
                         step: float = 1e-5) -> GradientSet:
    """Central-difference gradient of log_likelihood (verification oracle).

    Each entry of the packed vector is perturbed by +-step: S, W and beta
    additively, sigma2 and tau2 on the log scale to preserve positivity.  The
    log-scale derivatives are divided by the variances to return
    natural-scale values.
    """
    if step <= 0:
        raise ShapeMismatch(f"step must be positive, got {step}")
    _check_pair(params, data, alpha)
    p, d = params.p, params.d
    theta = _pack(params)
    g = np.empty_like(theta)
    with np.errstate(all="ignore"):
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += step
            minus[i] -= step
            g[i] = (_evaluate(_unpack(plus, p, d), data, alpha, want_grad=False)[0]
                    - _evaluate(_unpack(minus, p, d), data, alpha, want_grad=False)[0]) / (2 * step)
    g[-2] /= params.sigma2
    g[-1] /= params.tau2
    return _gradient_set(g, p, d)


# ---------------------------------------------------------------------------
# Prediction, latent posterior, residuals
# ---------------------------------------------------------------------------

def _row(x, p):
    x = np.asarray(x, float)
    if x.shape != (p,):
        raise ShapeMismatch(f"x must have length p={p}, got shape {x.shape}")
    return x


def _rows(X, p):
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != p:
        raise ShapeMismatch(f"X must have p={p} columns, got shape {X.shape}")
    return X


def predict(params: ModelParams, x_star) -> PredictiveDist:
    """Predictive law of r given a new foreground observation x."""
    x = _row(x_star, params.p)
    ws = build_workspace(params)
    return PredictiveDist(mean=float(ws.pred_coef @ x), variance=ws.pred_var)


def predict_rows(params: ModelParams, X, center_x, center_r):
    """Predictive means and (constant) variance for rows of X, re-applying the fit's centering."""
    X = _rows(X, params.p)
    ws = build_workspace(params)
    means = np.empty(len(X))
    for start in range(0, len(X), _ROW_BLOCK):      # no centred copy of X
        stop = start + _ROW_BLOCK
        np.matmul(X[start:stop] - center_x, ws.pred_coef, out=means[start:stop])
    return means + center_r, ws.pred_var


def latent_posterior(params: ModelParams, x) -> LatentPosterior:
    """Posterior N(A W' P^-1 x, A) of the foreground-specific latent t."""
    x = _row(x, params.p)
    ws = build_workspace(params)
    Li_W = ws.Li_Q[:, params.d:]
    t_mean = Li_W.T @ (ws.V_Q.T @ x)              # A W' P^-1 x = W' Q^-1 x
    return LatentPosterior(t_mean=t_mean, t_cov=ws.A)


def contrastive_residuals(params: ModelParams, X):
    """Rows of X minus their orthogonal projection onto span(S).

    The residuals (the "contrastive expression") are orthogonal to the
    columns of S.  The projector comes from the left singular vectors of S,
    so it stays accurate when S is ill-conditioned.  Raises
    RankDeficiencyError when s_min^2 <= 1e-12 s_max^2; there is no fallback.
    """
    X = _rows(X, params.p)
    U, svals, _ = np.linalg.svd(params.S, full_matrices=False)      # d >= 1 values
    if svals[-1] ** 2 <= 1e-12 * svals[0] ** 2:
        raise RankDeficiencyError(f"S'S is singular beyond tolerance (singular values {svals})")
    return X - (X @ U) @ U.T
