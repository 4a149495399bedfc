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

All covariance solves go through Cholesky factors; dense inverses of the
p x p matrices never appear here (only in test oracles).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular, LinAlgError

from .errors import FactorizationError, RankDeficiencyError, ShapeMismatch

LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Full parameter bundle (S, W, beta, sigma2, tau2)."""

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

    def validate(self):
        S, W, beta = np.asarray(self.S), np.asarray(self.W), np.asarray(self.beta)
        if S.ndim != 2 or W.shape != S.shape:
            raise ShapeMismatch(f"S and W must both be p x d, got {S.shape} and {W.shape}")
        p, d = S.shape
        if beta.shape != (d,):
            raise ShapeMismatch(f"beta must have length d={d}, got shape {beta.shape}")
        if d > p:
            raise ShapeMismatch(f"latent dimension d={d} exceeds ambient dimension p={p}")
        if not (self.sigma2 > 0.0 and self.tau2 > 0.0):
            raise ShapeMismatch(f"sigma2 and tau2 must be positive, got {self.sigma2}, {self.tau2}")
        for name, a in (("S", S), ("W", W), ("beta", beta)):
            if not np.all(np.isfinite(a)):
                raise ShapeMismatch(f"{name} contains non-finite entries")
        if not (np.isfinite(self.sigma2) and np.isfinite(self.tau2)):
            raise ShapeMismatch("sigma2/tau2 must be finite")


@dataclass(frozen=True)
class Dataset:
    """Foreground matrix X with responses r, plus background matrix Y."""

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

    def validate(self):
        X, r, Y = np.asarray(self.X), np.asarray(self.r), np.asarray(self.Y)
        if X.ndim != 2 or Y.ndim != 2:
            raise ShapeMismatch("X and Y must be 2-d arrays")
        if X.shape[1] != Y.shape[1]:
            raise ShapeMismatch(f"X has {X.shape[1]} columns but Y has {Y.shape[1]}")
        if r.shape != (X.shape[0],):
            raise ShapeMismatch(f"r must have length n={X.shape[0]}, got shape {r.shape}")
        for name, a in (("X", X), ("r", r), ("Y", Y)):
            if not np.all(np.isfinite(a)):
                raise ShapeMismatch(f"{name} contains non-finite entries")
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise ShapeMismatch("feature_names length does not match column count")


@dataclass(frozen=True)
class Workspace:
    """Derived matrices and factorizations cached for one parameter value.

    P = S S' + sigma2 I, Q = P + W W', A = (W' P^-1 W + I)^-1.
    pred_coef is the vector v with predictive mean v' x, pred_var the
    (x-independent) predictive variance tau2 + beta' A beta.
    """

    P: np.ndarray
    Q: np.ndarray
    A: np.ndarray
    chol_P: np.ndarray     # lower triangular
    chol_Q: np.ndarray     # lower triangular
    logdet_P: float
    logdet_Q: float
    pred_var: float
    pred_coef: np.ndarray


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LatentPosterior:
    t_mean: np.ndarray
    t_cov: np.ndarray


# ---------------------------------------------------------------------------
# Packed parameter vector (unconstrained parameterization)
# ---------------------------------------------------------------------------

def _pack(params):
    return np.concatenate([
        np.asarray(params.S, float).ravel(),
        np.asarray(params.W, float).ravel(),
        np.asarray(params.beta, float),
        [np.log(params.sigma2), np.log(params.tau2)],
    ])


def _blocks(theta, p, d):
    """The S, W and beta blocks of a packed vector (views)."""
    k = p * d
    return theta[:k].reshape(p, d), theta[k:2 * k].reshape(p, d), theta[2 * k:2 * k + d]


def _unpack(theta, p, d):
    S, W, beta = _blocks(theta, p, d)
    return ModelParams(S=S, W=W, beta=beta,
                       sigma2=float(np.exp(theta[-2])), tau2=float(np.exp(theta[-1])))


def _grad_vector(params, grad):
    # chain rule: d/d log(v) = v * d/dv
    return np.concatenate([
        grad.dS.ravel(),
        grad.dW.ravel(),
        grad.dbeta,
        [params.sigma2 * grad.dsigma2, params.tau2 * grad.dtau2],
    ])


# ---------------------------------------------------------------------------
# Workspace construction
# ---------------------------------------------------------------------------

def _spd_cholesky(M, label):
    if not np.all(np.isfinite(M)):
        raise FactorizationError(f"{label} contains non-finite entries")
    try:
        return cholesky(M, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise FactorizationError(f"{label} is numerically non-SPD: {exc}") from exc


def _chol_solve(L, B):
    """Solve (L L') x = B with a lower-triangular L."""
    Z = solve_triangular(L, B, lower=True, check_finite=False)
    return solve_triangular(L, Z, lower=True, trans="T", check_finite=False)


def build_workspace(params: ModelParams) -> Workspace:
    """Assemble P, Q, A and the prediction cache for a parameter value."""
    params.validate()
    S, W = np.asarray(params.S, float), np.asarray(params.W, float)
    p = params.p
    P = S @ S.T + params.sigma2 * np.eye(p)
    Q = P + W @ W.T
    L_P = _spd_cholesky(P, "P")
    L_Q = _spd_cholesky(Q, "Q")
    logdet_P = 2.0 * float(np.sum(np.log(np.diag(L_P))))
    logdet_Q = 2.0 * float(np.sum(np.log(np.diag(L_Q))))

    Zw = solve_triangular(L_P, W, lower=True, check_finite=False)
    M = Zw.T @ Zw                       # W' P^-1 W
    A = np.linalg.inv(M + np.eye(params.d))
    A = 0.5 * (A + A.T)

    u = A @ np.asarray(params.beta, float)
    pred_var = params.tau2 + float(params.beta @ u)
    pred_coef = _chol_solve(L_P, W @ u)
    return Workspace(P=P, Q=Q, A=A, chol_P=L_P, chol_Q=L_Q,
                     logdet_P=logdet_P, logdet_Q=logdet_Q,
                     pred_var=pred_var, pred_coef=pred_coef)


# ---------------------------------------------------------------------------
# Likelihood and gradient
# ---------------------------------------------------------------------------

def _check_pair(params, data, alpha):
    # params are validated by build_workspace, on every evaluation
    data.validate()
    if data.p != params.p:
        raise ShapeMismatch(f"data has p={data.p} but params have p={params.p}")
    if alpha < 0:
        raise ShapeMismatch(f"alpha must be nonnegative, got {alpha}")


def _evaluate(params, data, alpha, want_grad):
    """Shared evaluation of the log-likelihood and (optionally) its gradient.

    Quadratic forms use triangular half-solves; the gradient additionally
    needs full solves against the data matrices, which keeps the cost at
    O((n + m) p^2) per call.
    """
    S = np.asarray(params.S, float)
    W = np.asarray(params.W, float)
    beta = np.asarray(params.beta, float)
    X = np.asarray(data.X, float)
    r = np.asarray(data.r, float)
    n, p = data.n, params.p

    ws = build_workspace(params)
    L_P, L_Q, A = ws.chol_P, ws.chol_Q, ws.A

    u = A @ beta                                   # A beta
    s = ws.pred_var                                # tau2 + beta' A beta
    v = ws.pred_coef                               # P^-1 W A beta

    means = X @ v
    e = r - means
    E2 = float(e @ e)

    # foreground quadratic term against Q
    Zx = solve_triangular(L_Q, X.T, lower=True, check_finite=False)
    quad_x = float(np.sum(Zx * Zx))

    ll = (-0.5 * n * np.log(s) - 0.5 * E2 / s
          - 0.5 * n * ws.logdet_Q - 0.5 * quad_x
          - 0.5 * n * (p + 1) * LOG_2PI)

    use_bg = alpha > 0.0 and data.m > 0
    Zy = None
    if use_bg:
        Y = np.asarray(data.Y, float)
        m = data.m
        Zy = solve_triangular(L_P, Y.T, lower=True, check_finite=False)
        quad_y = float(np.sum(Zy * Zy))
        ll += alpha * (-0.5 * m * ws.logdet_P - 0.5 * quad_y - 0.5 * m * p * LOG_2PI)

    if not np.isfinite(ll):
        ll = -np.inf
    if not want_grad:
        return ll, None

    # --- gradient ---------------------------------------------------------
    kappa = -0.5 * n / s + 0.5 * E2 / s ** 2       # d ll / d s

    Pi_W = _chol_solve(L_P, W)                     # P^-1 W
    c = X.T @ e                                    # sum_i e_i x_i
    Pi_c = _chol_solve(L_P, c)
    h = A @ (W.T @ Pi_c)                           # A W' P^-1 c
    abar = -Pi_c + Pi_W @ h

    Qi_X = solve_triangular(L_Q, Zx, lower=True, trans="T", check_finite=False)  # Q^-1 X'
    Qi_S = _chol_solve(L_Q, S)
    Qi_W = _chol_solve(L_Q, W)

    dbeta = 2.0 * kappa * u + h / s
    dtau2 = kappa

    dW = (-2.0 * kappa * np.outer(v, u)
          + (np.outer(Pi_c, u) - Pi_W @ (np.outer(u, h) + np.outer(h, u))) / s
          - n * Qi_W + Qi_X @ (Qi_X.T @ W))

    dS = (2.0 * kappa * np.outer(v, v @ S)
          + (np.outer(abar, v @ S) + np.outer(v, abar @ S)) / s
          - n * Qi_S + Qi_X @ (Qi_X.T @ S))

    Li_Q = solve_triangular(L_Q, np.eye(p), lower=True, check_finite=False)
    tr_Qi = float(np.sum(Li_Q * Li_Q))
    dsigma2 = (kappa * float(v @ v) + float(abar @ v) / s
               - 0.5 * n * tr_Qi + 0.5 * float(np.sum(Qi_X * Qi_X)))

    if use_bg:
        m = data.m
        Pi_Y = solve_triangular(L_P, Zy, lower=True, trans="T", check_finite=False)  # P^-1 Y'
        Pi_S = _chol_solve(L_P, S)
        Li_P = solve_triangular(L_P, np.eye(p), lower=True, check_finite=False)
        tr_Pi = float(np.sum(Li_P * Li_P))
        dS = dS + alpha * (-m * Pi_S + Pi_Y @ (Pi_Y.T @ S))
        dsigma2 += alpha * (-0.5 * m * tr_Pi + 0.5 * float(np.sum(Pi_Y * Pi_Y)))

    grad = GradientSet(dS=dS, dW=dW, dbeta=dbeta,
                       dsigma2=float(dsigma2), dtau2=float(dtau2))
    return ll, grad


def log_likelihood(params: ModelParams, data: Dataset, alpha: float = 1.0) -> float:
    """Joint log-density of (X, r, Y) with the background terms weighted by alpha.

    Includes all -0.5 log(2 pi) constants so the value is a true log-density.
    """
    _check_pair(params, data, alpha)
    ll, _ = _evaluate(params, data, alpha, want_grad=False)
    return ll


def grad_log_likelihood(params: ModelParams, data: Dataset, alpha: float = 1.0) -> GradientSet:
    """Analytic gradient of log_likelihood w.r.t. (S, W, beta, sigma2, tau2)."""
    return log_likelihood_and_grad(params, data, alpha)[1]


def log_likelihood_and_grad(params, data, alpha=1.0):
    """One-pass evaluation of objective and gradient (shared factorizations)."""
    _check_pair(params, data, alpha)
    return _evaluate(params, data, alpha, want_grad=True)


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
    params.validate()          # _pack would silently accept mismatched blocks
    p, d = params.p, params.d
    theta = _pack(params)
    g = np.empty_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        g[i] = (_evaluate(_unpack(plus, p, d), data, alpha, want_grad=False)[0]
                - _evaluate(_unpack(minus, p, d), data, alpha, want_grad=False)[0]) / (2.0 * step)
    dS, dW, dbeta = _blocks(g, p, d)
    return GradientSet(dS=dS, dW=dW, dbeta=dbeta,
                       dsigma2=float(g[-2] / params.sigma2),
                       dtau2=float(g[-1] / params.tau2))


# ---------------------------------------------------------------------------
# Prediction, latent posterior, residuals
# ---------------------------------------------------------------------------

def _row(x, p):
    x = np.asarray(x, float)
    if x.shape != (p,):
        raise ShapeMismatch(f"x must have length p={p}, got shape {x.shape}")
    return x


def predict(params: ModelParams, x_star, workspace: Workspace = None) -> PredictiveDist:
    """Predictive law of r given a new foreground observation x."""
    x = _row(x_star, params.p)
    ws = workspace if workspace is not None else build_workspace(params)
    return PredictiveDist(mean=float(ws.pred_coef @ x), variance=ws.pred_var)


def predict_rows(params: ModelParams, X, center_x, center_r):
    """Predictive means and (constant) variance for rows of X, re-applying the fit's centering."""
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != params.p:
        raise ShapeMismatch(f"X must have p={params.p} columns, got shape {X.shape}")
    ws = build_workspace(params)
    return (X - center_x) @ ws.pred_coef + center_r, ws.pred_var


def latent_posterior(params: ModelParams, x, workspace: Workspace = None) -> LatentPosterior:
    """Posterior N(A W' P^-1 x, A) of the foreground-specific latent t."""
    x = _row(x, params.p)
    ws = workspace if workspace is not None else build_workspace(params)
    W = np.asarray(params.W, float)
    t_mean = ws.A @ (W.T @ _chol_solve(ws.chol_P, x))
    return LatentPosterior(t_mean=t_mean, t_cov=ws.A)


def contrastive_residuals(params: ModelParams, X, allow_rank_deficient: bool = False):
    """Rows of X minus their least-squares reconstruction from the columns of S.

    The residuals (the "contrastive expression") are orthogonal to span(S).
    With allow_rank_deficient the minimum-norm solution is used instead of
    raising on degenerate shared loadings.
    """
    S = np.asarray(params.S, float)
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != S.shape[0]:
        raise ShapeMismatch(f"X must have p={S.shape[0]} columns, got shape {X.shape}")
    svals = np.linalg.svd(S, compute_uv=False)
    smax2 = svals[0] ** 2 if svals.size else 0.0
    if svals.size == 0 or svals[-1] ** 2 <= 1e-12 * smax2:
        if not allow_rank_deficient:
            raise RankDeficiencyError(
                f"S'S is singular beyond tolerance (singular values {svals})")
        Z = X @ np.linalg.pinv(S).T
    else:
        Z = np.linalg.solve(S.T @ S, S.T @ X.T).T
    return X - Z @ S.T
