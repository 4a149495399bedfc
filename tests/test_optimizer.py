"""Optimizer: initialization, monotone ascent, determinism, recovery."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from contrareg import (Dataset, DegenerateData, FitConfig, GenConfig,
                       LinesConfig, ShapeMismatch, build_workspace, fit,
                       generate, generate_lines, initialize, latent_posterior,
                       pca_linear_baseline, predict, r_squared)
from contrareg import optimizer
from contrareg.model import _evaluate, _grad_vector


def _params_equal(a, b):
    return (np.array_equal(a.S, b.S) and np.array_equal(a.W, b.W)
            and np.array_equal(a.beta, b.beta)
            and a.sigma2 == b.sigma2 and a.tau2 == b.tau2)


class TestInitialize:
    def test_same_seed_bit_identical(self, rng):
        data, _ = generate(GenConfig(n=20, m=20, p=5, d=2, seed=3))
        config = FitConfig(d=2, seed=11)
        assert _params_equal(initialize(data, config), initialize(data, config))

    def test_pca_warm_start_recovers_exact_subspace(self, rng):
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        scores = rng.standard_normal((40, 2))
        X = scores @ basis.T
        data = Dataset(X=X, r=rng.standard_normal(40), Y=np.zeros((0, 6)))
        params = initialize(data, FitConfig(d=2, init="pca_warm_start"))
        # largest principal angle between span(S) and span(basis), via its sine
        # (numerically exact for tiny angles, unlike arccos of the cosines)
        Qs = np.linalg.qr(params.S)[0]
        sin_theta = np.linalg.norm(Qs - basis @ (basis.T @ Qs), 2)
        assert sin_theta <= 1e-8

    def test_zero_response_floors_tau2(self, rng):
        data = Dataset(X=rng.standard_normal((10, 3)), r=np.zeros(10),
                       Y=rng.standard_normal((5, 3)))
        params = initialize(data, FitConfig(d=1))
        assert params.tau2 == 1e-6

    def test_no_foreground_rejected(self, rng):
        data = Dataset(X=np.zeros((0, 3)), r=np.zeros(0),
                       Y=rng.standard_normal((5, 3)))
        with pytest.raises(DegenerateData):
            initialize(data, FitConfig(d=1))

    def test_constant_columns_rejected(self):
        data = Dataset(X=np.ones((8, 3)), r=np.arange(8.0), Y=np.ones((8, 3)))
        with pytest.raises(DegenerateData):
            initialize(data, FitConfig(d=1))

    def test_d_larger_than_p_rejected(self, rng):
        data, _ = generate(GenConfig(n=10, m=10, p=3, d=1, seed=0))
        with pytest.raises(ShapeMismatch):
            initialize(data, FitConfig(d=4))


class TestFit:
    def test_line_search_trace_is_monotone(self):
        data, _ = generate(GenConfig(n=60, m=60, p=4, d=2, seed=5))
        result = fit(data, FitConfig(d=2, max_iter=200, restarts=0, seed=5))
        trace = np.asarray(result.ll_trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_deterministic_bit_for_bit(self):
        data, _ = generate(GenConfig(n=40, m=40, p=4, d=2, seed=9))
        config = FitConfig(d=2, max_iter=150, restarts=1, seed=9)
        r1 = fit(data, config)
        r2 = fit(data, config)
        assert _params_equal(r1.params, r2.params)
        assert r1.ll_trace == r2.ll_trace
        assert r1.best_restart == r2.best_restart

    def test_deterministic_init_solved_once(self, monkeypatch):
        data, _ = generate(GenConfig(n=40, m=40, p=4, d=2, seed=9))
        calls = []

        def counted(*args):
            calls.append(args)
            return initialize(*args)

        monkeypatch.setattr(optimizer, "initialize", counted)
        multi = fit(data, FitConfig(d=2, max_iter=150, restarts=3, seed=9,
                                    init="pca_warm_start"))
        assert len(calls) == 1
        single = fit(data, FitConfig(d=2, max_iter=150, restarts=0, seed=9,
                                     init="pca_warm_start"))
        assert _params_equal(multi.params, single.params)
        assert multi.ll_trace == single.ll_trace
        assert (multi.converged, multi.best_restart) == (single.converged, single.best_restart)

    def test_restart_selection_dominates_single_start(self):
        data, _ = generate(GenConfig(n=40, m=40, p=4, d=2, seed=13))
        multi = fit(data, FitConfig(d=2, max_iter=150, restarts=3, seed=13))
        single = fit(data, FitConfig(d=2, max_iter=150, restarts=0, seed=13))
        assert multi.final_ll >= single.final_ll

    def test_alpha_zero_equals_empty_background(self):
        data, _ = generate(GenConfig(n=30, m=30, p=3, d=1, seed=21))
        no_bg = Dataset(X=data.X, r=data.r, Y=np.zeros((0, 3)))
        r_alpha = fit(data, FitConfig(d=1, alpha=0.0, max_iter=100, restarts=0, seed=21))
        r_empty = fit(no_bg, FitConfig(d=1, max_iter=100, restarts=0, seed=21))
        assert _params_equal(r_alpha.params, r_empty.params)
        assert r_alpha.final_ll == r_empty.final_ll

    def test_recovers_predictive_surface(self):
        # data from known params; R^2 of predictions against the true
        # noise-free response surface on a held-out set
        data, truth = generate(GenConfig(n=200, m=200, p=2, d=1, seed=7000))
        test, _ = generate(GenConfig(n=200, m=0, p=2, d=1, seed=57000, truth=truth))
        result = fit(data, FitConfig(d=1, tol=1e-4, restarts=1, seed=7000))
        pred, _ = result.predict(test.X)
        true_mean = test.X @ build_workspace(truth).pred_coef
        assert r_squared(pred, true_mean) >= 0.9

    def test_converged_gradient_norm_small_at_tight_tol(self):
        data, _ = generate(GenConfig(n=200, m=200, p=2, d=1, seed=31))
        result = fit(data, FitConfig(d=1, tol=1e-12, max_iter=50000,
                                     restarts=0, seed=31))
        assert result.converged
        assert result.grad_inf_norm <= 1e-2

    def test_converged_means_gradient_test_passed(self):
        # converged is a stationary point: |g|_inf <= tol * |ll| / n, not a
        # run of small relative changes of the objective
        data, _ = generate(GenConfig(n=200, m=200, p=2, d=1, seed=31))
        config = FitConfig(d=1, tol=1e-4, restarts=0, seed=31)
        result = fit(data, config)
        assert result.converged
        assert result.grad_inf_norm <= config.tol * abs(result.final_ll) / data.n

    def test_default_fit_on_corrupted_lines_predicts(self):
        # criterion 7's seed-0 split, fitted with the default solver and tol
        data = generate_lines(LinesConfig(seed=0))
        perm = np.random.default_rng(1000).permutation(data.X.shape[0])
        n_train = int(round(data.X.shape[0] * 0.67))
        tr, te = perm[:n_train], perm[n_train:]
        train = Dataset(X=data.X[tr], r=data.r[tr], Y=data.Y)
        result = fit(train, FitConfig(d=2, init="pca_warm_start", seed=0))
        assert result.converged
        pred, _ = result.predict(data.X[te])
        baseline = pca_linear_baseline(train, data.X[te], 2)
        assert r_squared(pred, data.r[te]) >= r_squared(baseline, data.r[te]) + 0.2

    def test_nonfinite_gradient_trial_rejected(self, monkeypatch):
        # a trial whose objective is higher but whose gradient is NaN is a
        # failed trial, not an accepted step
        data, _ = generate(GenConfig(n=40, m=40, p=4, d=2, seed=9))
        evaluate = optimizer._evaluate
        calls = []

        def nan_once(*args, **kwargs):
            ll, grad = evaluate(*args, **kwargs)
            calls.append(ll)
            if len(calls) == 2:
                grad = replace(grad, dsigma2=float("nan"))
            return ll, grad

        monkeypatch.setattr(optimizer, "_evaluate", nan_once)
        result = fit(data, FitConfig(d=2, max_iter=150, restarts=0, seed=9))
        assert calls[1] > calls[0]
        assert np.isfinite(result.grad_inf_norm)
        assert np.all(np.isfinite(result.ll_trace))

    def test_adaptive_moment_matches_line_search_objective(self):
        data, _ = generate(GenConfig(n=100, m=100, p=3, d=1, seed=17))
        ls = fit(data, FitConfig(d=1, tol=1e-10, max_iter=20000, restarts=0, seed=17))
        am = fit(data, FitConfig(d=1, mode="adaptive_moment", tol=1e-9,
                                 max_iter=20000, restarts=0, seed=17))
        assert am.final_ll == pytest.approx(ls.final_ll, abs=1e-3)

    @pytest.mark.parametrize("mode", ["line_search_ascent", "adaptive_moment"])
    def test_reported_objective_and_gradient_are_those_of_the_result(self, mode):
        # fit reads both from the solver's last evaluation instead of re-evaluating
        data, _ = generate(GenConfig(n=40, m=40, p=4, d=2, seed=19))
        config = FitConfig(d=2, mode=mode, max_iter=120, restarts=1, seed=19)
        result = fit(data, config)
        centered = Dataset(X=data.X - result.center_x, r=data.r - result.center_r,
                           Y=data.Y - result.center_x)
        ll, grad = _evaluate(result.params, centered, config.alpha, want_grad=True)
        assert result.final_ll == ll
        assert result.grad_inf_norm == np.max(np.abs(_grad_vector(result.params, grad)))

    def test_p_much_larger_than_n(self):
        # p = 20 000: one dense p x p matrix would take 3.2 GB
        data, _ = generate(GenConfig(n=20, m=20, p=20_000, d=2, seed=3))
        # trials whose sigma2 overflows are rejected as typed failures, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit(data, FitConfig(d=2, max_iter=3, restarts=0, seed=3))
        assert np.all(np.isfinite(result.ll_trace)) and len(result.ll_trace) == 4
        x = data.X[0] - result.center_x
        dist = predict(result.params, x)
        post = latent_posterior(result.params, x)
        assert np.isfinite(dist.mean) and np.isfinite(dist.variance)
        assert np.all(np.isfinite(post.t_mean)) and np.all(np.isfinite(post.t_cov))

    def test_predict_applies_centering(self):
        data, _ = generate(GenConfig(n=50, m=50, p=3, d=1, seed=2))
        result = fit(data, FitConfig(d=1, max_iter=100, restarts=0, seed=2))
        means, var = result.predict(result.center_x[None, :])
        assert means[0] == pytest.approx(result.center_r, abs=1e-12)
        assert var >= result.params.tau2

    def test_no_foreground_rejected(self, rng):
        data = Dataset(X=np.zeros((0, 3)), r=np.zeros(0),
                       Y=rng.standard_normal((5, 3)))
        with pytest.raises(DegenerateData):
            fit(data, FitConfig(d=1))

    def test_seed_outside_restart_seed_range_rejected(self):
        # _restart_seed takes the seed as np.uint64
        for seed in (-1, 2**64):
            with pytest.raises(ShapeMismatch):
                FitConfig(d=1, seed=seed).validate()
        FitConfig(d=1, seed=2**64 - 1).validate()
        assert optimizer._restart_seed(2**64 - 1, 0) >= 0

    def test_invalid_config_rejected(self):
        data, _ = generate(GenConfig(n=10, m=10, p=3, d=1, seed=0))
        with pytest.raises(ShapeMismatch):
            fit(data, FitConfig(d=1, tol=0.0))
        with pytest.raises(ShapeMismatch):
            fit(data, FitConfig(d=1, mode="newton"))
