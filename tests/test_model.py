"""Core model: workspace, likelihood, gradients, prediction, residuals."""

from dataclasses import replace

import numpy as np
import pytest

from contrareg import (Dataset, FactorizationError, ModelParams,
                       RankDeficiencyError, ShapeMismatch, build_workspace,
                       contrastive_residuals, finite_diff_gradient,
                       grad_log_likelihood, latent_posterior, log_likelihood,
                       predict)
from contrareg import model
from contrareg.model import log_likelihood_and_grad, predict_rows

from conftest import (assert_rel_close, dense_A, dense_P, dense_Q, mp_reference,
                      oracle_conditional, oracle_log_likelihood, random_dataset,
                      random_orthogonal, random_params, traced_peak)

# (n, m, p, d) shapes of the low-rank engine's edge regimes: p > n + m,
# 2d > p (U = [S W] spans all of R^p), no foreground rows, no background rows
REGIMES = [(3, 3, 60, 2), (4, 4, 3, 2), (0, 5, 6, 2), (5, 0, 6, 2)]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class TestConstruction:
    @pytest.mark.parametrize("field, value", [
        ("X", np.array([[0.0, np.nan]] * 3)),
        ("r", np.array([0.0, np.inf, 0.0])),
        ("Y", np.full((4, 2), -np.inf)),
        ("X", np.zeros(3)),
        ("Y", np.zeros((4, 3))),
        ("r", np.zeros(2)),
        ("feature_names", ["a"]),
    ], ids=["nan-X", "inf-r", "inf-Y", "1d-X", "columns-differ", "r-length", "names-length"])
    def test_invalid_dataset_rejected(self, field, value):
        fields = dict(X=np.zeros((3, 2)), r=np.zeros(3), Y=np.zeros((4, 2)),
                      feature_names=["a", "b"])
        Dataset(**fields)
        with pytest.raises(ShapeMismatch):
            Dataset(**{**fields, field: value})

    def test_arrays_stored_as_float64_without_copy(self):
        data = Dataset(X=np.ones((3, 2), int), r=[1, 2, 3], Y=np.zeros((4, 2), int))
        assert data.X.dtype == data.r.dtype == data.Y.dtype == np.float64
        X, S = np.ones((3, 2)), np.ones((2, 1))
        assert Dataset(X=X, r=np.zeros(3), Y=np.zeros((0, 2))).X is X
        assert ModelParams(S=S, W=S, beta=np.ones(1), sigma2=1.0, tau2=1.0).S is S

    def test_equality_and_hash_are_identity(self):
        # the array fields have no single truth value, so equal values do not compare equal
        fields = dict(S=np.ones((2, 1)), W=np.zeros((2, 1)), beta=np.ones(1),
                      sigma2=1.0, tau2=1.0)
        params = ModelParams(**fields)
        assert not params == ModelParams(**fields)
        assert params == params
        assert len({params, params}) == 1
        data = Dataset(X=np.zeros((3, 2)), r=np.zeros(3), Y=np.zeros((4, 2)))
        assert not data == Dataset(X=data.X, r=data.r, Y=data.Y)
        assert data in {data}

    def test_zero_variances_construct_but_have_no_likelihood(self):
        # a noiseless simulation truth is valid; the likelihood divides by sigma2 and tau2
        params = ModelParams(S=np.ones((2, 1)), W=np.zeros((2, 1)), beta=np.zeros(1),
                             sigma2=0.0, tau2=0.0)
        with pytest.raises(ShapeMismatch):
            build_workspace(params)


# ---------------------------------------------------------------------------
# build_workspace
# ---------------------------------------------------------------------------

class TestBuildWorkspace:
    def test_zero_loadings_identity_case(self):
        params = ModelParams(S=np.zeros((1, 1)), W=np.zeros((1, 1)),
                             beta=np.zeros(1), sigma2=1.0, tau2=1.0)
        ws = build_workspace(params)
        logdet_P = model._factor(params.S, params.sigma2, "P")[2]
        # P = Q = I
        assert_rel_close([logdet_P, ws.logdet_Q], [0.0, 0.0], 0)
        assert_rel_close(ws.A, [[1.0]], 0)

    def test_orthogonal_axes_hand_computable(self):
        params = ModelParams(S=np.array([[1.0], [0.0]]),
                             W=np.array([[0.0], [1.0]]),
                             beta=np.zeros(1), sigma2=1.0, tau2=1.0)
        ws = build_workspace(params)
        logdet_P = model._factor(params.S, params.sigma2, "P")[2]
        # P = diag(2, 1), Q = diag(2, 2)
        assert_rel_close([logdet_P, ws.logdet_Q], [np.log(2.0), 2.0 * np.log(2.0)], 1e-15)
        assert_rel_close(ws.A, [[0.5]], 1e-15)

    def test_woodbury_identity_random_instance(self, rng):
        params = random_params(rng, 6, 2)
        ws = build_workspace(params)
        lhs = ws.A @ params.W.T @ np.linalg.inv(dense_P(params))
        rhs = params.W.T @ np.linalg.inv(dense_Q(params))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_woodbury_identity_100_instances(self, rng):
        for _ in range(100):
            p = int(rng.integers(2, 21))
            d = int(rng.integers(1, min(p, 5) + 1))
            params = random_params(rng, p, d)
            ws = build_workspace(params)
            lhs = ws.A @ params.W.T @ np.linalg.inv(dense_P(params))
            rhs = params.W.T @ np.linalg.inv(dense_Q(params))
            rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert rel <= 1e-10

    def test_cholesky_pivots_bounded_below_by_sigma(self, rng):
        # the pivots of sigma2 I + U'U are >= sigma, so those of its inverse factor are <= 1/sigma
        for _ in range(20):
            params = random_params(rng, 8, 3)
            ws = build_workspace(params)
            sigma = np.sqrt(params.sigma2)
            Li_P = model._factor(params.S, params.sigma2, "P")[1]
            assert np.max(np.diag(Li_P)) <= (1 + 1e-12) / sigma
            assert np.max(np.diag(ws.Li_Q)) <= (1 + 1e-12) / sigma

    def test_logdets_match_slogdet(self, rng):
        params = random_params(rng, 7, 3)
        ws = build_workspace(params)
        logdet_P = model._factor(params.S, params.sigma2, "P")[2]
        assert_rel_close(logdet_P, np.linalg.slogdet(dense_P(params))[1], 1e-10)
        assert_rel_close(ws.logdet_Q, np.linalg.slogdet(dense_Q(params))[1], 1e-10)

    def test_pred_var_at_least_tau2(self, rng):
        for _ in range(10):
            params = random_params(rng, 5, 2)
            assert build_workspace(params).pred_var >= params.tau2

    def test_invalid_params_rejected(self):
        with pytest.raises(ShapeMismatch):
            build_workspace(ModelParams(S=np.zeros((2, 1)), W=np.zeros((2, 2)),
                                        beta=np.zeros(1), sigma2=1.0, tau2=1.0))
        with pytest.raises(ShapeMismatch):
            build_workspace(ModelParams(S=np.zeros((2, 1)), W=np.zeros((2, 1)),
                                        beta=np.zeros(1), sigma2=0.0, tau2=1.0))
        with pytest.raises(ShapeMismatch):             # d = 0: no latent factor
            build_workspace(ModelParams(S=np.zeros((2, 0)), W=np.zeros((2, 0)),
                                        beta=np.zeros(0), sigma2=1.0, tau2=1.0))

    def test_overflowing_params_raise_factorization_error(self):
        # S S' overflows to inf, so P cannot factorize
        params = ModelParams(S=np.full((2, 1), 1e200), W=np.zeros((2, 1)),
                             beta=np.zeros(1), sigma2=1.0, tau2=1.0)
        with pytest.raises((FactorizationError, ShapeMismatch)):
            build_workspace(params)


class TestFactor:
    # _factor calls the LAPACK gufuncs behind np.linalg.cholesky and inv directly,
    # a private numpy entry point: these pin that it computes np.linalg's bits and
    # that a failed factor is a FactorizationError, with no RuntimeWarning
    @pytest.mark.parametrize("sigma2", [1e-6, 1.0, 1e3])
    @pytest.mark.parametrize("p, d", [(20, 2), (9, 4), (4, 2), (3, 2), (1, 1)],
                             ids=["p>2d", "p=2d+1", "p=2d", "p<2d", "p<2d-1"])
    def test_bits_equal_numpy_linalg(self, rng, p, d, sigma2):
        for _ in range(5):
            U = rng.standard_normal((p, 2 * d)) * rng.uniform(0.1, 10.0)
            V, Li, logdet, _ = model._factor(U, sigma2, "M")
            M = U.T @ U + sigma2 * np.eye(2 * d)
            L = np.linalg.cholesky(M)
            Li_ref = np.linalg.inv(L)
            assert np.array_equal(Li, Li_ref)
            assert np.array_equal(V, U @ Li_ref.T)
            assert logdet == float((p - 2 * d) * np.log(sigma2)
                                   + 2.0 * np.log(L.diagonal()).sum())

    @pytest.mark.parametrize("U, sigma2", [
        (np.full((4, 2), 1e6), 1e-6),            # U'U + sigma2 I rounds to a singular matrix
        (np.full((3, 2), 1e200), 1.0),           # U'U overflows
        (np.ones((3, 2)), np.inf),               # sigma2 = exp(log sigma2) overflowed
        (np.array([[1.0, np.nan], [0.0, 1.0]]), 1.0),
    ], ids=["non-SPD", "overflow", "inf-sigma2", "nan"])
    def test_failed_factor_is_typed(self, U, sigma2):
        with np.errstate(all="ignore"), pytest.raises(FactorizationError):
            model._factor(U, sigma2, "M")

    def test_public_entry_points_raise_without_warnings(self):
        # Q's factor fails numerically: no errstate of the caller's hides a warning
        params = ModelParams(S=np.full((4, 1), 1e6), W=np.full((4, 1), 1e6),
                             beta=np.ones(1), sigma2=1e-6, tau2=1.0)
        data = Dataset(X=np.ones((3, 4)), r=np.arange(3.0), Y=np.ones((2, 4)))
        for call in (build_workspace, lambda params: log_likelihood(params, data),
                     lambda params: log_likelihood_and_grad(params, data),
                     lambda params: predict(params, np.ones(4))):
            with pytest.raises(FactorizationError):
                call(params)


# ---------------------------------------------------------------------------
# log_likelihood
# ---------------------------------------------------------------------------

class TestLogLikelihood:
    def test_all_zero_identity_case(self):
        params = ModelParams(S=np.zeros((1, 1)), W=np.zeros((1, 1)),
                             beta=np.zeros(1), sigma2=1.0, tau2=1.0)
        data = Dataset(X=np.zeros((1, 1)), r=np.zeros(1), Y=np.zeros((0, 1)))
        assert_rel_close(log_likelihood(params, data), -np.log(2 * np.pi), 1e-14)

    def test_alpha_zero_equals_empty_background(self, rng):
        params = random_params(rng, 4, 2)
        data = random_dataset(rng, 5, 7, 4)
        no_bg = Dataset(X=data.X, r=data.r, Y=np.zeros((0, 4)))
        assert log_likelihood(params, data, alpha=0.0) == log_likelihood(params, no_bg)

    def test_matches_dense_joint_gaussian_oracle(self, rng):
        params = random_params(rng, 4, 2)
        data = random_dataset(rng, 3, 3, 4)
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert_rel_close(log_likelihood(params, data, alpha),
                             oracle_log_likelihood(params, data, alpha), 1e-9)

    def test_oracle_agreement_many_instances(self, rng):
        for _ in range(25):
            p = int(rng.integers(1, 9))
            d = int(rng.integers(1, min(p, 3) + 1))
            params = random_params(rng, p, d)
            data = random_dataset(rng, int(rng.integers(0, 6)),
                                  int(rng.integers(0, 6)), p)
            alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            assert_rel_close(log_likelihood(params, data, alpha),
                             oracle_log_likelihood(params, data, alpha),
                             1e-9, atol=1e-9)
        for n, m, p, d in REGIMES:
            for sigma2 in (1e-6, 1e-2, 1.0):
                params = replace(random_params(rng, p, d), sigma2=sigma2)
                data = random_dataset(rng, n, m, p)
                for alpha in (0.0, 1.0):
                    assert_rel_close(log_likelihood(params, data, alpha),
                                     oracle_log_likelihood(params, data, alpha),
                                     1e-9, atol=1e-9)

    def test_rotation_invariance_of_objective(self, rng):
        params = random_params(rng, 6, 3)
        data = random_dataset(rng, 5, 5, 6)
        base = log_likelihood(params, data)
        R1 = random_orthogonal(rng, 3)
        R2 = random_orthogonal(rng, 3)
        rotated = ModelParams(S=params.S @ R1, W=params.W @ R2,
                              beta=R2.T @ params.beta,
                              sigma2=params.sigma2, tau2=params.tau2)
        assert_rel_close(log_likelihood(rotated, data), base, 1e-10)

    def test_shape_mismatch_raises(self, rng):
        params = random_params(rng, 4, 2)
        data = random_dataset(rng, 3, 3, 5)
        with pytest.raises(ShapeMismatch):
            log_likelihood(params, data)
        with pytest.raises(ShapeMismatch):
            log_likelihood(params, random_dataset(rng, 3, 3, 4), alpha=-1.0)
        with pytest.raises(ShapeMismatch):
            log_likelihood(params, random_dataset(rng, 3, 3, 4), alpha=float("nan"))


# ---------------------------------------------------------------------------
# grad_log_likelihood / finite_diff_gradient
# ---------------------------------------------------------------------------

class TestExtremeVariances:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma2", [1e-200, 1e200])
    @pytest.mark.parametrize("tau2", [1e-200, 1e200])
    def test_give_minus_inf_or_factorization_error(self, rng, sigma2, tau2):
        # what a rejected line-search trial can hand the engine: the result is
        # a finite or -inf objective with a finite gradient, or a typed error,
        # never OverflowError, ZeroDivisionError or a RuntimeWarning
        for p, d in ((6, 2), (3, 2)):
            params = replace(random_params(rng, p, d), sigma2=sigma2, tau2=tau2)
            data = random_dataset(rng, 5, 4, p)
            try:
                ll, grad = log_likelihood_and_grad(params, data)
            except FactorizationError:
                continue
            assert np.isfinite(ll) or ll == -np.inf
            assert isinstance(grad.dsigma2, float) and isinstance(grad.dtau2, float)
            # a gradient that would not be finite is a FactorizationError instead
            assert all(np.all(np.isfinite(a)) for a in
                       (grad.dS, grad.dW, grad.dbeta, grad.dsigma2, grad.dtau2))


class TestGradients:
    def test_no_foreground_kills_foreground_blocks(self, rng):
        params = random_params(rng, 5, 2)
        data = random_dataset(rng, 0, 6, 5)
        g = grad_log_likelihood(params, data)
        assert np.all(g.dW == 0.0)
        assert np.all(g.dbeta == 0.0)
        assert g.dtau2 == 0.0
        # S and sigma2 still see the background
        assert np.any(g.dS != 0.0)

    def test_alpha_zero_equals_empty_background(self, rng):
        params = random_params(rng, 4, 2)
        data = random_dataset(rng, 5, 7, 4)
        no_bg = Dataset(X=data.X, r=data.r, Y=np.zeros((0, 4)))
        g0 = grad_log_likelihood(params, data, alpha=0.0)
        g1 = grad_log_likelihood(params, no_bg)
        assert np.array_equal(g0.dS, g1.dS)
        assert np.array_equal(g0.dW, g1.dW)
        assert np.array_equal(g0.dbeta, g1.dbeta)
        assert g0.dsigma2 == g1.dsigma2
        assert g0.dtau2 == g1.dtau2

    def test_matches_finite_differences_50_instances(self, rng):
        for trial in range(50):
            p = int(rng.integers(1, 9))
            d = int(rng.integers(1, min(p, 3) + 1))
            n = 0 if trial % 10 == 9 else int(rng.integers(1, 11))
            m = int(rng.integers(0, 11))
            params = random_params(rng, p, d)
            data = random_dataset(rng, n, m, p)
            alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            ana = grad_log_likelihood(params, data, alpha)
            num = finite_diff_gradient(params, data, alpha, step=1e-5)
            for a, b in ((ana.dS, num.dS), (ana.dW, num.dW),
                         (ana.dbeta, num.dbeta),
                         (ana.dsigma2, num.dsigma2), (ana.dtau2, num.dtau2)):
                np.testing.assert_allclose(np.atleast_1d(a), np.atleast_1d(b),
                                           rtol=1e-4, atol=1e-8)
        # at sigma2 = 1e-6 a central difference cannot resolve the gradient at
        # rtol 1e-4: test_matches_60_digit_reference_at_tiny_sigma2 covers it
        for n, m, p, d in REGIMES:
            for sigma2 in (1e-2, 1.0):
                params = replace(random_params(rng, p, d), sigma2=sigma2)
                data = random_dataset(rng, n, m, p)
                ana = grad_log_likelihood(params, data)
                num = finite_diff_gradient(params, data, step=1e-5)
                for a, b in ((ana.dS, num.dS), (ana.dW, num.dW),
                             (ana.dbeta, num.dbeta),
                             (ana.dsigma2, num.dsigma2), (ana.dtau2, num.dtau2)):
                    np.testing.assert_allclose(np.atleast_1d(a), np.atleast_1d(b),
                                               rtol=1e-4, atol=1e-8)

    def test_matches_60_digit_reference_at_tiny_sigma2(self, rng):
        # shapes with 2d >= p, where no direction carries only noise, and one
        # with p > 2d; the error of a block is taken relative to its largest
        # entry, since an entry far below that sits at double rounding level
        for n, m, p, d in ((7, 2, 1, 1), (1, 1, 2, 1), (3, 3, 4, 2), (5, 4, 3, 2),
                           (4, 4, 6, 2)):
            for _ in range(4):
                params = replace(random_params(rng, p, d), sigma2=1e-6)
                data = random_dataset(rng, n, m, p)
                ref_ll, ref = mp_reference(params, data)
                ll, grad = log_likelihood_and_grad(params, data)
                assert abs(ll - ref_ll) <= 1e-7 * abs(ref_ll)
                for a, b in zip((grad.dS, grad.dW, grad.dbeta, grad.dsigma2, grad.dtau2),
                                ref):
                    err = np.max(np.abs(np.subtract(a, b))) / np.max(np.abs(b))
                    assert err <= 1e-7, (n, m, p, d, err)

    def test_matches_60_digit_reference_at_near_noiseless_response(self, rng):
        # r = X v up to 1e-6: X'e = X'r - G c cancels to about 1e-6 of X'r; a large W
        # and small variances make the predictive variance s small (1e-8 to 1e-4), so
        # w / s, the term X'e reaches, weighs in each block
        for n, m, p, d in ((6, 3, 4, 2), (5, 4, 3, 1)):
            for _ in range(3):
                params = random_params(rng, p, d)
                params = replace(params, W=10.0 * params.W, sigma2=1e-4, tau2=1e-8)
                data = random_dataset(rng, n, m, p)
                r = data.X @ build_workspace(params).pred_coef + 1e-6 * rng.standard_normal(n)
                data = Dataset(X=data.X, r=r, Y=data.Y)
                ref_ll, ref = mp_reference(params, data)
                ll, grad = log_likelihood_and_grad(params, data)
                assert abs(ll - ref_ll) <= 1e-7 * abs(ref_ll)
                for a, b in zip((grad.dS, grad.dW, grad.dbeta, grad.dsigma2, grad.dtau2),
                                ref):
                    err = np.max(np.abs(np.subtract(a, b))) / np.max(np.abs(b))
                    assert err <= 1e-7, (n, m, p, d, err)

    def test_background_factor_reads_no_w_bits(self, rng):
        # n = 0 leaves only the background term, which P's factor (the leading block
        # of Q's) computes from S alone.  With W in span(S), L_Q^-1's upper-right
        # block is often nonzero by rounding, so a factor read from L_Q^-1 or V_Q
        # would carry W's bits
        for _ in range(10):
            params = random_params(rng, 6, 2)
            data = random_dataset(rng, 0, 7, 6)
            results = []
            for _ in range(2):
                aligned = replace(params, W=params.S @ rng.standard_normal((2, 2)))
                results.append(log_likelihood_and_grad(aligned, data))
                assert np.all(results[-1][1].dW == 0.0)
            (ll_a, g_a), (ll_b, g_b) = results
            assert ll_a == ll_b
            assert np.array_equal(g_a.dS, g_b.dS) and g_a.dsigma2 == g_b.dsigma2

    def test_finite_diff_second_order_convergence(self, rng):
        params = random_params(rng, 4, 2)
        data = random_dataset(rng, 4, 4, 4)
        ana = grad_log_likelihood(params, data)

        def err(step):
            num = finite_diff_gradient(params, data, step=step)
            return max(np.max(np.abs(num.dS - ana.dS)),
                       np.max(np.abs(num.dW - ana.dW)),
                       np.max(np.abs(num.dbeta - ana.dbeta)))

        ratio = err(1e-2) / err(5e-3)
        assert 3.0 < ratio < 5.0   # halving the step shrinks the error ~4x

    def test_quadratic_sanity_one_parameter_instance(self):
        # p=1, d=1, zero loadings: l(sigma2) depends only on sigma2
        data = Dataset(X=np.array([[1.5]]), r=np.array([0.3]),
                       Y=np.array([[0.7]]))

        def make(sigma2):
            return ModelParams(S=np.zeros((1, 1)), W=np.zeros((1, 1)),
                               beta=np.zeros(1), sigma2=sigma2, tau2=1.0)

        ana = grad_log_likelihood(make(0.8), data).dsigma2
        for step in (1e-3, 1e-4):
            lo = log_likelihood(make(0.8 - step), data)
            hi = log_likelihood(make(0.8 + step), data)
            central = (hi - lo) / (2 * step)
            assert abs(central - ana) < 10.0 * step ** 2

    def test_rejects_nonpositive_step(self, rng):
        params = random_params(rng, 3, 1)
        data = random_dataset(rng, 2, 2, 3)
        with pytest.raises(ShapeMismatch):
            finite_diff_gradient(params, data, step=0.0)


# ---------------------------------------------------------------------------
# predict / latent_posterior
# ---------------------------------------------------------------------------

class TestPredict:
    def test_zero_beta(self, rng):
        params = random_params(rng, 4, 2)
        params = ModelParams(S=params.S, W=params.W, beta=np.zeros(2),
                             sigma2=params.sigma2, tau2=params.tau2)
        dist = predict(params, rng.standard_normal(4))
        assert dist.mean == 0.0
        assert_rel_close(dist.variance, params.tau2, 1e-14)

    def test_zero_w(self, rng):
        params = random_params(rng, 4, 2)
        params = ModelParams(S=params.S, W=np.zeros((4, 2)), beta=params.beta,
                             sigma2=params.sigma2, tau2=params.tau2)
        dist = predict(params, rng.standard_normal(4))
        assert abs(dist.mean) < 1e-14
        assert_rel_close(dist.variance,
                         params.tau2 + float(params.beta @ params.beta), 1e-12)

    def test_matches_conditioning_oracle(self, rng):
        params = random_params(rng, 5, 2)
        x = rng.standard_normal(5)
        Q = dense_Q(params)
        wb = params.W @ params.beta
        s_marg = float(params.beta @ params.beta) + params.tau2
        joint = np.block([[Q, wb[:, None]], [wb[None, :], np.array([[s_marg]])]])
        mean_o, cov_o = oracle_conditional(joint, x, 5)
        dist = predict(params, x)
        assert_rel_close(dist.mean, mean_o[0], 1e-9)
        assert_rel_close(dist.variance, cov_o[0, 0], 1e-9)

    def test_variance_constant_in_x_and_at_least_tau2(self, rng):
        params = random_params(rng, 6, 3)
        d1 = predict(params, rng.standard_normal(6))
        d2 = predict(params, 100.0 * rng.standard_normal(6))
        assert d1.variance == d2.variance
        assert d1.variance >= params.tau2

    def test_wrong_length_rejected(self, rng):
        with pytest.raises(ShapeMismatch):
            predict(random_params(rng, 4, 2), np.zeros(5))

    def test_rows_in_blocks_hold_no_copy_of_x(self, rng):
        # 2000 rows: several blocks of rows and a partial one, each centred on its own
        params = random_params(rng, 784, 2)
        X, center_x = rng.standard_normal((2000, 784)), rng.standard_normal(784)
        (means, var), peak = traced_peak(lambda: predict_rows(params, X, center_x, 1.5))
        assert peak <= 0.25 * X.nbytes
        ws = build_workspace(params)
        assert_rel_close(means, (X - center_x) @ ws.pred_coef + 1.5, 1e-12)
        assert var == ws.pred_var
        for i in (0, 255, 256, 1999):
            assert_rel_close(predict_rows(params, X[i:i + 1], center_x, 1.5)[0], means[i:i + 1],
                             1e-12)


class TestLatentPosterior:
    def test_zero_w_recovers_prior(self, rng):
        params = random_params(rng, 4, 2)
        params = ModelParams(S=params.S, W=np.zeros((4, 2)), beta=params.beta,
                             sigma2=params.sigma2, tau2=params.tau2)
        post = latent_posterior(params, rng.standard_normal(4))
        assert np.max(np.abs(post.t_mean)) < 1e-14
        assert_rel_close(post.t_cov, np.eye(2), 1e-12)

    def test_zero_x_zero_mean(self, rng):
        post = latent_posterior(random_params(rng, 5, 2), np.zeros(5))
        assert np.all(post.t_mean == 0.0)

    def test_matches_conditioning_oracle(self, rng):
        params = random_params(rng, 5, 2)
        x = rng.standard_normal(5)
        Q = dense_Q(params)
        joint = np.block([[Q, params.W], [params.W.T, np.eye(2)]])
        mean_o, cov_o = oracle_conditional(joint, x, 5)
        post = latent_posterior(params, x)
        assert_rel_close(post.t_mean, mean_o, 1e-9)
        assert_rel_close(post.t_cov, cov_o, 1e-9)
        assert_rel_close(post.t_cov, dense_A(params), 1e-9)


# ---------------------------------------------------------------------------
# contrastive_residuals
# ---------------------------------------------------------------------------

class TestContrastiveResiduals:
    def test_span_of_s_gives_zero_residual(self, rng):
        params = random_params(rng, 6, 2)
        Z = rng.standard_normal((4, 2))
        X = Z @ params.S.T
        resid = contrastive_residuals(params, X)
        assert np.max(np.abs(resid)) < 1e-10

    def test_zero_s_rejected(self):
        params = ModelParams(S=np.zeros((3, 1)), W=np.zeros((3, 1)),
                             beta=np.zeros(1), sigma2=1.0, tau2=1.0)
        with pytest.raises(RankDeficiencyError):
            contrastive_residuals(params, np.ones((2, 3)))

    @pytest.mark.parametrize("c", [1e4, 9e5])
    def test_ill_conditioned_s_matches_exact_projector(self, c):
        # singular values 1, 1/sqrt(c), 1/c pass the rank test; a solve with S'S
        # squares the condition number, an error of about 1e-5 at c = 9e5
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((50, 3)))
        R = random_orthogonal(rng, 3)
        S = Q @ np.diag([1.0, c ** -0.5, 1.0 / c]) @ R.T
        params = ModelParams(S=S, W=np.zeros((50, 3)), beta=np.zeros(3),
                             sigma2=1.0, tau2=1.0)
        X = rng.standard_normal((20, 50))
        resid = contrastive_residuals(params, X)
        assert np.max(np.abs(resid - (X - (X @ Q) @ Q.T))) < 1e-9

    def test_residual_orthogonal_to_s_columns(self, rng):
        params = random_params(rng, 6, 2)
        X = rng.standard_normal((5, 6))
        resid = contrastive_residuals(params, X)
        assert np.max(np.abs(resid @ params.S)) < 1e-10

    def test_wrong_column_count_rejected(self, rng):
        with pytest.raises(ShapeMismatch):
            contrastive_residuals(random_params(rng, 4, 2), np.zeros((2, 5)))
