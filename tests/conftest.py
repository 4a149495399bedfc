"""Shared helpers and independent dense-matrix oracles.

The oracles deliberately use explicit inverses and brute-force Gaussian
densities so they share no code path with the library implementation.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest

from contrareg import Dataset, ModelParams


def random_params(rng, p, d, loading_scale=1.0):
    return ModelParams(
        S=loading_scale * rng.standard_normal((p, d)),
        W=loading_scale * rng.standard_normal((p, d)),
        beta=rng.standard_normal(d),
        sigma2=float(rng.uniform(0.3, 1.5)),
        tau2=float(rng.uniform(0.3, 1.5)),
    )


def random_dataset(rng, n, m, p):
    return Dataset(
        X=rng.standard_normal((n, p)),
        r=rng.standard_normal(n),
        Y=rng.standard_normal((m, p)),
    )


def dense_P(params):
    return params.S @ params.S.T + params.sigma2 * np.eye(params.p)


def dense_Q(params):
    return dense_P(params) + params.W @ params.W.T


def dense_A(params):
    P_inv = np.linalg.inv(dense_P(params))
    return np.linalg.inv(params.W.T @ P_inv @ params.W + np.eye(params.d))


def svd_loadings(Z, d):
    """PPCA loadings of centered rows Z as sigma2 -> 0, from the thin SVD (oracle only).

    The top-d right singular vectors times singular value / sqrt(rows),
    zero-padded to d columns, and those min(d, rows, p) vectors.
    """
    rows, p = Z.shape
    k = min(d, rows, p)
    _, svals, Vt = np.linalg.svd(Z, full_matrices=False)
    span = Vt[:k].T
    loadings = np.zeros((p, d))
    loadings[:, :k] = span * (svals[:k] / np.sqrt(rows))
    return loadings, span


def gaussian_logpdf(x, cov):
    """log N(x; 0, cov) via explicit dense inverse (oracle only)."""
    x = np.atleast_1d(np.asarray(x, float))
    k = x.size
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return -0.5 * (k * np.log(2.0 * np.pi) + logdet
                   + float(x @ np.linalg.inv(cov) @ x))


def oracle_log_likelihood(params, data, alpha=1.0):
    """Brute-force joint-Gaussian density: sum of log N over all samples.

    r_i | x_i is Gaussian with mean b' x_i and variance s where
    b = Q^{-1} W beta and s = tau2 + beta' A beta; x ~ N(0, Q); y ~ N(0, P).
    """
    P, Q, A = dense_P(params), dense_Q(params), dense_A(params)
    beta = np.asarray(params.beta, float)
    W = np.asarray(params.W, float)
    b = np.linalg.inv(Q) @ W @ beta
    s = params.tau2 + float(beta @ A @ beta)
    total = 0.0
    for i in range(data.n):
        x = np.asarray(data.X, float)[i]
        total += gaussian_logpdf(x, Q)
        resid = float(data.r[i]) - float(b @ x)
        total += -0.5 * (np.log(2.0 * np.pi) + np.log(s) + resid ** 2 / s)
    for j in range(data.m):
        total += alpha * gaussian_logpdf(np.asarray(data.Y, float)[j], P)
    return total


def oracle_conditional(joint_cov, x, k_obs):
    """Exact Gaussian conditioning of the trailing block on the first k_obs."""
    joint_cov = np.asarray(joint_cov, float)
    S11 = joint_cov[:k_obs, :k_obs]
    S12 = joint_cov[:k_obs, k_obs:]
    S22 = joint_cov[k_obs:, k_obs:]
    G = S12.T @ np.linalg.inv(S11)
    return G @ x, S22 - G @ S12


def oracle_fisher_information(params, n, m):
    """Expected Fisher information of (vec S, vec W, beta, sigma2, tau2).

    A foreground row (x, r) is N(0, F) with F = [[Q, W beta], [beta' W',
    beta' beta + tau2]] and a background row is N(0, P), at background
    weight 1 as in the default fit.  For a zero-mean Gaussian with
    covariance C(theta), one row contributes 1/2 tr(C^-1 dC_i C^-1 dC_j).
    Latent rotations make the matrix singular for d > 1; for d = 1 only
    sign flips remain and it is invertible.
    """
    S = np.asarray(params.S, float)
    W = np.asarray(params.W, float)
    beta = np.asarray(params.beta, float)
    p, d = S.shape

    def fg(top, cross, corner):
        return np.block([[top, cross[:, None]],
                         [cross[None, :], np.array([[corner]])]])

    eye, zero_p, zero_pp = np.eye(p), np.zeros(p), np.zeros((p, p))
    dF, dP = [], []
    for k in range(p):            # d/dS[k, j], row-major like S.ravel()
        for j in range(d):
            dSS = np.outer(eye[k], S[:, j]) + np.outer(S[:, j], eye[k])
            dF.append(fg(dSS, zero_p, 0.0))
            dP.append(dSS)
    for k in range(p):            # d/dW[k, j]
        for j in range(d):
            dWW = np.outer(eye[k], W[:, j]) + np.outer(W[:, j], eye[k])
            dF.append(fg(dWW, beta[j] * eye[k], 0.0))
            dP.append(zero_pp)
    for j in range(d):            # d/dbeta[j]
        dF.append(fg(zero_pp, W[:, j], 2.0 * beta[j]))
        dP.append(zero_pp)
    dF.append(fg(eye, zero_p, 0.0))           # d/dsigma2
    dP.append(eye)
    dF.append(fg(zero_pp, zero_p, 1.0))       # d/dtau2
    dP.append(zero_pp)

    F = fg(dense_Q(params), W @ beta, float(beta @ beta) + params.tau2)
    F_inv = np.linalg.inv(F)
    P_inv = np.linalg.inv(dense_P(params))
    AF = [F_inv @ D for D in dF]
    AP = [P_inv @ D for D in dP]
    k = len(dF)
    info = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            info[i, j] = (0.5 * n * np.sum(AF[i] * AF[j].T)
                          + 0.5 * m * np.sum(AP[i] * AP[j].T))
    return info


def _mp_gaussian_logpdf(rows, cov):
    """Sum of log N(z; 0, cov) over rows, in mpmath at the current precision."""
    L = mpmath.cholesky(cov)
    k = cov.rows
    logdet = 2 * mpmath.fsum(mpmath.log(L[i, i]) for i in range(k))
    total = mpmath.mpf(0)
    for z in rows:
        w = []                       # L^-1 z by forward substitution
        for i in range(k):
            w.append((z[i] - mpmath.fsum(L[i, j] * w[j] for j in range(i))) / L[i, i])
        total -= (k * mpmath.log(2 * mpmath.pi) + logdet + mpmath.fsum(c * c for c in w)) / 2
    return total


def _mp_log_likelihood(theta, p, d, fg_rows, bg_rows, alpha):
    S = mpmath.matrix(p, d)
    W = mpmath.matrix(p, d)
    for i in range(p):
        for j in range(d):
            S[i, j] = theta[i * d + j]
            W[i, j] = theta[p * d + i * d + j]
    beta = mpmath.matrix(theta[2 * p * d:2 * p * d + d])
    sigma2, tau2 = theta[-2], theta[-1]
    P = S * S.T + sigma2 * mpmath.eye(p)
    F = mpmath.matrix(p + 1, p + 1)  # joint covariance of [x; r]
    Q = P + W * W.T
    Wb = W * beta
    for i in range(p):
        F[i, p] = F[p, i] = Wb[i]
        for j in range(p):
            F[i, j] = Q[i, j]
    F[p, p] = (beta.T * beta)[0] + tau2
    return (_mp_gaussian_logpdf(fg_rows, F)
            + alpha * _mp_gaussian_logpdf(bg_rows, P))


def mp_reference(params, data, alpha=1.0, dps=60, step="1e-20"):
    """log-likelihood and its gradient from the dense joint density at dps digits.

    Foreground rows [x; r] are N(0, F) with F = [[Q, W beta], [beta' W',
    beta' beta + tau2]], background rows N(0, P).  The gradient blocks
    (dS, dW, dbeta, dsigma2, dtau2) are central differences with the given
    step; at 60 digits their rounding and truncation errors are about 1e-40.
    """
    p, d = params.p, params.d
    with mpmath.workdps(dps):
        theta = [mpmath.mpf(float(v)) for v in
                 np.concatenate([np.ravel(params.S), np.ravel(params.W),
                                 np.ravel(params.beta), [params.sigma2, params.tau2]])]
        fg_rows = [[mpmath.mpf(float(v)) for v in row] + [mpmath.mpf(float(ri))]
                   for row, ri in zip(np.asarray(data.X, float), np.asarray(data.r, float))]
        bg_rows = [[mpmath.mpf(float(v)) for v in row] for row in np.asarray(data.Y, float)]
        a = mpmath.mpf(float(alpha))
        h = mpmath.mpf(step)

        def ll(th):
            return _mp_log_likelihood(th, p, d, fg_rows, bg_rows, a)

        grad = []
        for i in range(len(theta)):
            plus, minus = list(theta), list(theta)
            plus[i] += h
            minus[i] -= h
            grad.append(float((ll(plus) - ll(minus)) / (2 * h)))
        k = p * d
        blocks = (np.reshape(grad[:k], (p, d)), np.reshape(grad[k:2 * k], (p, d)),
                  np.array(grad[2 * k:2 * k + d]), grad[-2], grad[-1])
        return float(ll(theta)), blocks


def random_orthogonal(rng, d):
    Qm, Rm = np.linalg.qr(rng.standard_normal((d, d)))
    return Qm * np.sign(np.diag(Rm))


def traced_peak(call):
    """(call(), the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def assert_rel_close(a, b, rtol, atol=0.0):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
