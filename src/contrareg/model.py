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
gradients.  An evaluation costs O((n + m) p d) time and O((n + m) p + p d)
memory; no p x p matrix is formed.  Dense P and Q exist only in the test
oracles.
"""

from dataclasses import dataclass

import numpy as np

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
    """Small factors of P and Q for one parameter value.

    The P fields are _factor's output for S and the Q fields for U = [S W],
    so P^-1 = (I - V_P V_P') / sigma2 and Q^-1 U = V_Q L_Q^-1 with
    L_Q L_Q' = sigma2 I_2d + U'U.  A = (W' P^-1 W + I)^-1 = sigma2 [L_Q^-T L_Q^-1]
    restricted to the W block, and P^-1 W A beta = Q^-1 W beta.  pred_coef
    is that vector v, with predictive mean v' x; pred_var is the
    (x-independent) predictive variance tau2 + beta' A beta.  Building one
    costs O(p d^2 + d^3).
    """

    U: np.ndarray          # p x 2d, [S W]
    Li_P: np.ndarray       # d x d, L_P^-1
    Li_Q: np.ndarray       # 2d x 2d, L_Q^-1
    V_P: np.ndarray        # p x d, S L_P^-T
    V_Q: np.ndarray        # p x 2d, U L_Q^-T
    A: np.ndarray
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

def _factor(U, s2, label):
    """V = U L^-T, L^-1 and log|sigma2 I + U U'| for L L' = sigma2 I + U'U."""
    p, k = U.shape
    with np.errstate(over="ignore"):       # overflowing loadings: FactorizationError below
        M = U.T @ U
    M.ravel()[::k + 1] += s2
    if not np.isfinite(M).all():
        raise FactorizationError(f"{label} contains non-finite entries")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{label} is numerically non-SPD: {exc}") from exc
    Li = np.linalg.inv(L)
    return U @ Li.T, Li, float((p - k) * np.log(s2) + 2.0 * np.log(L.diagonal()).sum())


def build_workspace(params: ModelParams) -> Workspace:
    """Small factors of P and Q, A and the prediction cache for a parameter value."""
    params.validate()
    S, W = np.asarray(params.S, float), np.asarray(params.W, float)
    beta = np.asarray(params.beta, float)
    d = S.shape[1]
    s2 = np.float64(params.sigma2)
    U = np.hstack([S, W])
    V_P, Li_P, logdet_P = _factor(S, s2, "sigma2 I + S'S")
    V_Q, Li_Q, logdet_Q = _factor(U, s2, "sigma2 I + U'U")

    Li_W = Li_Q[:, d:]                         # L_Q^-1 restricted to the W block
    A = s2 * (Li_W.T @ Li_W)
    pred_var = params.tau2 + float(beta @ (A @ beta))
    pred_coef = V_Q @ (Li_W @ beta)
    return Workspace(U=U, Li_P=Li_P, Li_Q=Li_Q, V_P=V_P, V_Q=V_Q, A=A,
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


def _gaussian(Z, V, Li, logdet, s2, want_grad):
    """Sum over the rows z of Z of log N(z; 0, C), C = sigma2 I + U U'.

    V, Li and logdet are _factor's for U: C^-1 = (I - V V') / sigma2 and
    C^-1 U = V Li.  With want_grad it also returns d/dU, d/dsigma2 and the
    solves Z C^-1 U and Z C^-1.  Forming Z C^-1 rather than expanding its
    squared norm keeps rounding from being amplified by 1/sigma2, an
    eigenvalue of (sigma2 I + U'U)^-1 when U has p or more columns.
    """
    n, p = Z.shape
    ZV = Z @ V
    ll = -0.5 * (n * (logdet + p * LOG_2PI) + (np.vdot(Z, Z) - np.vdot(ZV, ZV)) / s2)
    if not want_grad:
        return ll, None
    ZCiU = ZV @ Li
    ZCi = Z - ZV @ V.T
    ZCi /= s2
    dU = ZCi.T @ ZCiU - n * (V @ Li)
    ds2 = 0.5 * (np.vdot(ZCi, ZCi) - n * (p - np.vdot(V, V)) / s2)
    return ll, (dU, ds2, ZCiU, ZCi)


def _evaluate(params, data, alpha, want_grad):
    """Shared evaluation of the log-likelihood and (optionally) its gradient.

    log p = log N(X; 0, Q) + log N(r | X) + alpha log N(Y; 0, P), with both
    Gaussian terms from _gaussian.  r | x is N(v' x, s), v = pred_coef and
    s = pred_var; its gradient reuses the foreground's X Q^-1 and X Q^-1 U.
    At a tiny noise variance the gradient overflows into inf - inf: a
    non-finite ll is -inf and a non-finite gradient a FactorizationError,
    without floating-point warnings.
    """
    ws = build_workspace(params)
    d = params.d
    s2 = np.float64(params.sigma2)
    beta = np.asarray(params.beta, float)
    X = np.asarray(data.X, float)
    r = np.asarray(data.r, float)
    n = X.shape[0]
    v = ws.pred_coef                               # Q^-1 W beta = P^-1 W A beta
    s = np.float64(ws.pred_var)                    # tau2 + beta' A beta
    use_bg = alpha > 0.0 and data.m > 0

    with np.errstate(all="ignore"):
        ll, gx = _gaussian(X, ws.V_Q, ws.Li_Q, ws.logdet_Q, s2, want_grad)
        e = r - X @ v
        E2 = e @ e
        ll += -0.5 * (n * (np.log(s) + LOG_2PI) + E2 / s)
        if use_bg:
            ll_y, gy = _gaussian(np.asarray(data.Y, float), ws.V_P, ws.Li_P,
                                 ws.logdet_P, s2, want_grad)
            ll += alpha * ll_y
        if not np.isfinite(ll):
            ll = -np.inf
        if not want_grad:
            return ll, None

        dU, dsigma2, T, XQi = gx                   # T = X Q^-1 U
        kappa = (E2 / s - n) / (2.0 * s)           # d ll / d s
        w = e @ XQi                                # Q^-1 X' e
        wU = T.T @ e                               # U' Q^-1 X' e
        # the regression term reaches U through Q in v and in s
        dU += np.outer(2.0 * kappa * v - w / s, ws.U.T @ v) - np.outer(v, wU) / s
        dsigma2 += kappa * (v @ v) - (w @ v) / s
        if use_bg:
            dU[:, :d] += alpha * gy[0]
            dsigma2 += alpha * gy[1]
        dS = dU[:, :d]
        dW = dU[:, d:] + np.outer(w / s - 2.0 * kappa * v, beta)
        dbeta = 2.0 * kappa * (ws.A @ beta) + wU[d:] / s
    if not (np.isfinite(dsigma2) and np.isfinite(kappa) and np.isfinite(dS).all()
            and np.isfinite(dW).all() and np.isfinite(dbeta).all()):
        raise FactorizationError("gradient is not finite (noise-variance underflow)")
    return ll, GradientSet(dS=dS, dW=dW, dbeta=dbeta,
                           dsigma2=float(dsigma2), dtau2=float(kappa))


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
    """One-pass evaluation of objective and gradient (shared factorizations).

    Raises FactorizationError where the gradient is not finite, as at a noise
    variance so small that d ll / d tau2 overflows.
    """
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


def predict(params: ModelParams, x_star) -> PredictiveDist:
    """Predictive law of r given a new foreground observation x."""
    x = _row(x_star, params.p)
    ws = build_workspace(params)
    return PredictiveDist(mean=float(ws.pred_coef @ x), variance=ws.pred_var)


def predict_rows(params: ModelParams, X, center_x, center_r):
    """Predictive means and (constant) variance for rows of X, re-applying the fit's centering."""
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != params.p:
        raise ShapeMismatch(f"X must have p={params.p} columns, got shape {X.shape}")
    ws = build_workspace(params)
    return (X - center_x) @ ws.pred_coef + center_r, ws.pred_var


def latent_posterior(params: ModelParams, x) -> LatentPosterior:
    """Posterior N(A W' P^-1 x, A) of the foreground-specific latent t."""
    x = _row(x, params.p)
    ws = build_workspace(params)
    Li_W = ws.Li_Q[:, params.d:]
    t_mean = Li_W.T @ (ws.V_Q.T @ x)              # A W' P^-1 x = W' Q^-1 x
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
