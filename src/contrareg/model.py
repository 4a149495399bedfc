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
gradients.  The data enter an evaluation only through Z V and Z'(Z V), with
V the thin p x k block of Z's factor (V_Q for the foreground, V_P for the
background), as PPCA's likelihood reads the sample covariance (Tipping &
Bishop 1999), and through the constants |X|^2, |Y|^2 and X'r, which a fit
computes once: beside them, two passes over each data matrix with the
gradient, one for the likelihood alone.  The r | x term is written once, in _evaluate, and
reuses the foreground's products: with v = V_Q c its residual is
e = r - (X V_Q) c and X'e = X'r - X'(X V_Q) c.  Q is factored for every use
(build_workspace); P's Cholesky factor is the leading d x d block of Q's,
which depends on sigma2 I + S'S alone, inverted on its own where the
background term is weighted in (_evaluate with alpha > 0).  _evaluate
reads Q's factor as a tuple from build_workspace's body and builds no
Workspace, and it writes the gradient once, into a new packed vector per
call, through views of its S, W and beta blocks.  An evaluation
costs O((n + m) p d) time and O((n + m) d + p d) memory beyond the data;
neither a p x p nor an n x p matrix is formed.  The one exception is a
Gaussian whose U has p or more columns (p <= 2d, so Z is n x 2d at most):
there the expanded |Z C^-1|^2 cancels, and Z C^-1 is formed to keep
d/dsigma2 accurate at a tiny sigma2.  Dense P and Q exist only in the test
oracles.
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
    costs O(p d^2 + d^3).  _evaluate reads the same fields as a tuple from
    _workspace, which builds no Workspace, with L_Q beside them: P's factor
    is read only by the background term, which takes it there from L_Q.
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
    """V = U L^-T, L^-1, log|sigma2 I + U U'| and L, for L L' = sigma2 I + U'U.

    Call under np.errstate(all="ignore").  It calls the LAPACK gufuncs that
    np.linalg.cholesky and np.linalg.inv run, directly: the same bits,
    without the wrappers' type checks and errstate, which took most of a
    2d x 2d factor's time.  A factor that fails is NaN and one of an
    overflowing U'U infinite, so either leaves logdet non-finite: a
    FactorizationError.  TestFactor in tests/test_model.py pins the bits
    against np.linalg.
    """
    k = U.shape[1]
    M = U.T @ U
    M.ravel()[::k + 1] += s2
    L = _cholesky(M)
    return (*_inverse_factor(U, L, s2, label), L)


def _inverse_factor(U, L, s2, label):
    """_factor's V, L^-1 and logdet from a Cholesky factor L of sigma2 I + U'U.

    A leading block of L is the factor of the leading block of sigma2 I + U'U,
    so _evaluate takes P's factor (U = S) from Q's (U = [S W]).
    """
    p, k = U.shape
    logdet = float((p - k) * np.log(s2) + 2.0 * np.log(L.diagonal()).sum())
    if not np.isfinite(logdet):
        raise FactorizationError(f"{label} is not finite, or numerically non-SPD")
    Li = _inv(L)
    return U @ Li.T, Li, logdet


def build_workspace(params: ModelParams) -> Workspace:
    """Small factor of Q, A and the prediction cache for a parameter value."""
    with np.errstate(all="ignore"):          # overflow and a failed factor raise below
        return Workspace(*_workspace(params)[0])


def _workspace(params):
    """build_workspace's body, for a caller already under np.errstate(all="ignore").

    Returns two tuples: Workspace's fields in their order, and the Cholesky
    factor L_Q of sigma2 I + U'U (its leading d x d block is P's factor),
    c = L_Q^-1 restricted to the W block times beta (pred_coef = V_Q c) and
    A beta.  _evaluate reads them without building a Workspace.
    """
    # construction allows zero variances (a noiseless truth); the likelihood divides by them
    if not (params.sigma2 > 0.0 and params.tau2 > 0.0):
        raise ShapeMismatch(f"sigma2 and tau2 must be positive, got {params.sigma2}, {params.tau2}")
    S, W, beta = params.S, params.W, params.beta
    d = S.shape[1]
    s2 = np.float64(params.sigma2)
    U = np.hstack([S, W])
    V_Q, Li_Q, logdet_Q, L_Q = _factor(U, s2, "sigma2 I + U'U")

    Li_W = Li_Q[:, d:]                         # L_Q^-1 restricted to the W block
    A = s2 * (Li_W.T @ Li_W)
    Ab = A @ beta
    pred_var = params.tau2 + float(beta @ Ab)
    c = Li_W @ beta
    pred_coef = V_Q @ c
    return (U, Li_Q, V_Q, A, logdet_Q, pred_var, pred_coef), (L_Q, c, Ab)


# ---------------------------------------------------------------------------
# Likelihood and gradient
# ---------------------------------------------------------------------------

def _check_pair(params, data, alpha):
    if data.p != params.p:
        raise ShapeMismatch(f"data has p={data.p} but params have p={params.p}")
    if not 0 <= alpha < np.inf:
        raise ShapeMismatch(f"alpha must be finite and nonnegative, got {alpha}")


def _data_constants(data, use_bg):
    """|X|^2, |Y|^2 (0 without the background term) and X'r: _evaluate's data constants."""
    X = data.X
    return np.vdot(X, X), (np.vdot(data.Y, data.Y) if use_bg else 0.0), data.r @ X


def _gaussian(Z, quad, V, Li, logdet, s2, want_grad):
    """Sum over the rows z of Z of log N(z; 0, C), C = sigma2 I + U U'.

    quad is |Z|^2, a constant of the data that a fit computes once.
    V, Li and logdet are _factor's for U: C^-1 = (I - V V') / sigma2 and
    C^-1 U = V Li.  Returns (ll, None, Z V, None), or with want_grad
    (ll, (d/dU, d/dsigma2), Z V, G): the products it reads the data through,
    which the caller reuses.  The data enter once, through Z V and
    G = Z'(Z V): K = (Z V)'(Z V) gives Z C^-1 U = Z V Li,
    (Z C^-1)' Z C^-1 U = (G - V K) Li / sigma2 and
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
        return ll, None, ZV, None
    G = Z.T @ ZV
    dU = ((G - V @ K) / s2 - n * V) @ Li
    if k < p:
        zci2 = (quad - trK) / (s2 * s2) - np.vdot(Li, K @ Li) / s2
    else:
        ZCi = (Z - ZV @ V.T) / s2
        zci2 = np.vdot(ZCi, ZCi)
    ds2 = 0.5 * (zci2 - n * (p - np.vdot(V, V)) / s2)
    return ll, (dU, ds2), ZV, G


def _evaluate(params, data, alpha, want_grad, constants=None):
    """Shared evaluation of the log-likelihood and (optionally) its gradient.

    constants is _data_constants(data, ...) where the caller evaluates the
    same data many times, as fit does; without it they are computed here.
    Returns (ll, None), or with want_grad (ll, g): g is the gradient packed as
    _pack lays theta out, on the natural scale (d/dsigma2 and d/dtau2 last),
    a new vector on every call, which the caller may keep and scale in place.

    log p = log N(X; 0, Q) + log N(r | X) + alpha log N(Y; 0, P), with both
    Gaussian terms from _gaussian.  r | x is N(v' x, s), v = pred_coef =
    V_Q c with c = L_Q^-1 restricted to the W block times beta, and
    s = pred_var; this term is written here alone, from the residual
    e = r - (X V_Q) c and, for the gradient, X'e = X'r - G c,
    w = Q^-1 X'e and U'w, where X V_Q and G = X'(X V_Q) are the
    foreground Gaussian's products.  The background's factor is the leading
    d x d block of L_Q, inverted on its own.  At a tiny noise variance the
    gradient overflows into inf - inf: a non-finite ll is -inf and a
    non-finite g, tested once, a FactorizationError.  Every caller holds one
    np.errstate(all="ignore") around the call, so neither shows as a
    floating-point warning.
    """
    # v = pred_coef = Q^-1 W beta = P^-1 W A beta = V_Q c
    (U, Li_Q, V_Q, _, logdet_Q, pred_var, v), (L_Q, c, Ab) = _workspace(params)
    p, d = params.S.shape
    s2 = np.float64(params.sigma2)
    n = data.n
    s = np.float64(pred_var)                       # tau2 + beta' A beta
    use_bg = alpha > 0.0 and data.m > 0
    quad_x, quad_y, Xr = _data_constants(data, use_bg) if constants is None else constants

    ll, gx, XV, G = _gaussian(data.X, quad_x, V_Q, Li_Q, logdet_Q, s2, want_grad)
    e = data.r - XV @ c
    E2 = e @ e
    ll += -0.5 * (n * (np.log(s) + LOG_2PI) + E2 / s)
    if use_bg:
        factor_P = _inverse_factor(params.S, L_Q[:d, :d], s2, "sigma2 I + S'S")
        ll_y, gy, _, _ = _gaussian(data.Y, quad_y, *factor_P, s2, want_grad)
        ll += alpha * ll_y
    if not np.isfinite(ll):
        ll = -np.inf
    if not want_grad:
        return ll, None

    dU, dsigma2 = gx
    Xe = Xr - G @ c                                # X'e without a pass over X
    VXe = V_Q.T @ Xe
    w = (Xe - V_Q @ VXe) / s2                      # Q^-1 X' e
    wU = Li_Q.T @ VXe                              # U' w
    kappa = (E2 / s - n) / (2.0 * s)               # d ll / d s
    # the regression term reaches U through Q in v and in s, and W also through W beta
    t = 2.0 * kappa * v - w / s
    dU += t[:, None] * (U.T @ v) - v[:, None] * wU / s
    dsigma2 += kappa * (v @ v) - (w @ v) / s
    # the packed gradient is written once, a new vector per call: its blocks are views
    g = np.empty(2 * p * d + d + 2)
    dS, dW, dbeta = _blocks(g, p, d)
    if use_bg:
        np.add(dU[:, :d], alpha * gy[0], out=dS)
        dsigma2 += alpha * gy[1]
    else:
        dS[...] = dU[:, :d]
    np.subtract(dU[:, d:], t[:, None] * params.beta, out=dW)
    np.add(2.0 * kappa * Ab, wU[d:] / s, out=dbeta)
    g[-2:] = dsigma2, kappa
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
    constants = _data_constants(data, alpha > 0.0 and data.m > 0)
    with np.errstate(all="ignore"):
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += step
            minus[i] -= step
            g[i] = (_evaluate(_unpack(plus, p, d), data, alpha, False, constants)[0]
                    - _evaluate(_unpack(minus, p, d), data, alpha, False, constants)[0]) / (2 * step)
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
    return _predict_rows(build_workspace(params), X, center_x, center_r)


def _predict_rows(ws, X, center_x, center_r):
    """predict_rows from a workspace, for checked rows X.

    The rows are centred _ROW_BLOCK at a time, so no centred copy of X is
    formed, and each mean is its own dot product: a row's bits do not depend
    on the rows predicted with it.
    """
    means = np.empty(len(X))
    for start in range(0, len(X), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        np.matmul((X[start:stop] - center_x)[:, None], ws.pred_coef, out=means[start:stop, None])
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
