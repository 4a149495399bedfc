"""Optimizer: initialization, monotone ascent, determinism, recovery."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from contrareg import (Dataset, DegenerateData, FitConfig, GenConfig,
                       LinesConfig, NonFiniteObjective, ShapeMismatch,
                       build_workspace, fit, generate, generate_lines, initialize,
                       latent_posterior, pca_linear_baseline, predict, r_squared)
from contrareg import optimizer
from contrareg.model import _pack, _unpack, log_likelihood_and_grad, predict_rows

from conftest import random_params, svd_loadings, traced_peak


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

    @staticmethod
    def _gram_start(data, d):
        """The PCA start from the thin SVDs of the pooled stack and the formed residual."""
        S, span = svd_loadings(np.vstack([data.X, data.Y]), d)
        Xc = data.X - data.X.mean(axis=0)
        W, _ = svd_loadings(Xc - (Xc @ span) @ span.T, d)
        return S, W

    # pooled rows and residual rows both within d + 10 = 12 or p, so the sketch spans
    # every direction and makes no power pass
    @pytest.mark.parametrize("n, m, p", [(30, 20, 8), (8, 4, 40)])
    def test_sketched_start_matches_gram_start_when_sketch_is_exact(self, rng, n, m, p):
        X = rng.standard_normal((n, p)) * np.linspace(3.0, 0.5, p)
        Y = rng.standard_normal((m, p)) * np.linspace(0.5, 2.0, p)
        center = np.vstack([X, Y]).mean(axis=0)
        data = Dataset(X=X - center, r=rng.standard_normal(n), Y=Y - center)
        params = initialize(data, FitConfig(d=2, init="pca_warm_start"))
        for got, want in zip((params.S, params.W), self._gram_start(data, 2)):
            # singular vectors are unique up to sign
            got = got * np.sign(np.sum(got * want, axis=0))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_sketched_span_near_exact_on_planted_signal(self, rng):
        rows, p, d = 500, 300, 2
        basis = np.linalg.qr(rng.standard_normal((p, d)))[0]
        Z = 20.0 * rng.standard_normal((rows, d)) @ basis.T + rng.standard_normal((rows, p))
        Z -= Z.mean(axis=0)
        loadings, span = optimizer._sketched_loadings(lambda B: Z @ B, lambda U: Z.T @ U,
                                                      rows, p, d)
        want, want_span = svd_loadings(Z, d)
        assert np.linalg.norm(span @ span.T - want_span @ want_span.T) <= 1e-8
        np.testing.assert_allclose(np.linalg.norm(loadings, axis=0),
                                   np.linalg.norm(want, axis=0), rtol=1e-10)

    def test_sketched_start_draws_nothing_from_the_seed(self):
        # 50 pooled rows and p = 20 exceed d + 10, so the sketch is random and iterated
        data, _ = generate(GenConfig(n=30, m=20, p=20, d=2, seed=3))
        first = initialize(data, FitConfig(d=2, init="pca_warm_start"))
        for seed in (0, 1, 2**64 - 1):
            assert _params_equal(initialize(data, FitConfig(d=2, init="pca_warm_start",
                                                            seed=seed)), first)

    def test_sketched_loadings_zero_padded_past_min_rows_p(self, rng):
        for shape in ((2, 5), (5, 2)):
            Z = rng.standard_normal(shape)
            loadings, span = optimizer._sketched_loadings(lambda B: Z @ B, lambda U: Z.T @ U,
                                                          *shape, 3)
            assert loadings.shape == (shape[1], 3) and span.shape == (shape[1], 2)
            assert np.all(loadings[:, 2] == 0.0) and np.all(loadings[:, :2] != 0.0)

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

    # the pooled mean of 0.1, 1/3 and 0.7 is not exactly the constant, so centering
    # leaves rows of rounding residue: the test must not be a variance > 0 test
    @pytest.mark.parametrize("entry", [initialize, fit], ids=["initialize", "fit"])
    @pytest.mark.parametrize("init", ["random_normal", "pca_warm_start"])
    @pytest.mark.parametrize("value, rows", [(1.0, 8), (0.1, 8), (1 / 3, 10), (0.7, 300)])
    def test_constant_columns_rejected(self, value, rows, init, entry):
        data = Dataset(X=np.full((rows, 3), value), r=np.arange(float(rows)),
                       Y=np.full((rows, 3), value))
        with pytest.raises(DegenerateData):
            entry(data, FitConfig(d=1, init=init, max_iter=3))

    @pytest.mark.parametrize("init", ["random_normal", "pca_warm_start"])
    def test_constant_blocks_differing_from_each_other_accepted_unless_alpha_zero(self, init):
        # each block is constant, but the pooled rows vary when the background is pooled
        data = Dataset(X=np.ones((8, 3)), r=np.arange(8.0), Y=np.zeros((8, 3)))
        assert initialize(data, FitConfig(d=1, init=init)).sigma2 > 1e-6
        with pytest.raises(DegenerateData):
            initialize(data, FitConfig(d=1, init=init, alpha=0.0))

    # beta = 0 fits a constant response exactly, so ll grows without bound as tau2 -> 0;
    # fit rejects it, while initialize accepts it (test_zero_response_floors_tau2)
    @pytest.mark.parametrize("init", ["random_normal", "pca_warm_start"])
    @pytest.mark.parametrize("r", [np.ones(30), 0.1 * np.ones(30), np.ones(1)],
                             ids=["ones", "tenths", "one_row"])
    def test_constant_response_rejected_by_fit(self, rng, r, init):
        data = Dataset(X=rng.standard_normal((len(r), 3)), r=r,
                       Y=rng.standard_normal((20, 3)))
        with pytest.raises(DegenerateData, match="constant response"):
            fit(data, FitConfig(d=1, init=init))

    def test_d_larger_than_p_rejected(self, rng):
        data, _ = generate(GenConfig(n=10, m=10, p=3, d=1, seed=0))
        with pytest.raises(ShapeMismatch):
            initialize(data, FitConfig(d=4))


def _two_loop_direction(g, pairs):
    """Two-loop recursion (Nocedal & Wright, Alg. 7.4): the oracle of the compact form.

    pairs holds (s, y) from oldest to newest, with y the decrease of the gradient.
    """
    q = g.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = (s @ q) / (s @ y)
        q -= a * y
        alphas.append(a)
    s, y = pairs[-1]
    q *= (s @ y) / (y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - (y @ q) / (s @ y)) * s
    return q


class TestLineSearch:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_compact_direction_matches_two_loop(self, rng, k):
        # curvature pairs of a random SPD quadratic, in cv_grid's 84 parameters at d = 2
        B = rng.standard_normal((84, 84))
        A = B @ B.T / 84 + 0.1 * np.eye(84)
        for _ in range(10):
            S = rng.standard_normal((k, 84))
            Y = S @ A
            g = rng.standard_normal(84)
            ref = _two_loop_direction(g, list(zip(S, Y)))
            got = optimizer._lbfgs_direction(g, S, Y)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def _scripted(self, monkeypatch, answers, max_iter, downhill_first=False):
        """Run the line search from theta = 0, g = (1, 0) on an objective that
        returns answers in turn, then failed trials; return the trial points and
        the pair count each L-BFGS direction saw.  With downhill_first the first
        direction is -g."""
        trials, seen = [], []
        inner = optimizer._lbfgs_direction

        def fun(theta):
            trials.append(theta.copy())
            return answers[len(trials) - 1] if len(trials) <= len(answers) else (-np.inf, None)

        def spy(g, *stack):
            seen.append(len(stack[0]))
            return -g if downhill_first and len(seen) == 1 else inner(g, *stack)

        monkeypatch.setattr(optimizer, "_lbfgs_direction", spy)
        optimizer._run_line_search(fun, np.zeros(2), 0.0, np.array([1.0, 0.0]),
                                   FitConfig(d=1, tol=1e-12, max_iter=max_iter), n=1)
        return trials, seen

    @pytest.mark.parametrize("eps, kept", [(2e-10, True), (0.5e-10, False)])
    def test_pair_kept_only_if_curvature_exceeds_1e_10_of_y_norm(self, monkeypatch, eps, kept):
        # the first step is s = (1, 0) with y = (eps, 1): s'y = eps, y'y = 1 + eps^2
        g1 = np.array([1.0 - eps, -1.0])
        trials, seen = self._scripted(monkeypatch, [(1.0, g1)], max_iter=2)
        if kept:
            assert seen == [1]
        else:
            # steepest ascent, with the first step's length rule
            assert seen == []
            assert np.array_equal(trials[1], trials[0] + (1.0 / np.linalg.norm(g1)) * g1)

    def test_non_ascent_direction_resets_to_steepest_ascent(self, monkeypatch):
        # the first L-BFGS direction is made to point downhill: the pairs are
        # dropped, the step is steepest ascent, and the next direction sees
        # only the pair that step made
        g1, g2 = np.array([0.0, -1.0]), np.array([0.0, -0.5])
        trials, seen = self._scripted(monkeypatch, [(1.0, g1), (2.0, g2)], max_iter=3,
                                      downhill_first=True)
        assert seen == [1, 1]
        assert np.array_equal(trials[1], trials[0] + g1)


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
            ll, g = evaluate(*args, **kwargs)
            calls.append(ll)
            if len(calls) == 2:
                g[-2] = np.nan
            return ll, g

        monkeypatch.setattr(optimizer, "_evaluate", nan_once)
        objective = optimizer._Objective(data, 1.0, 2)
        theta = _pack(initialize(objective.data, FitConfig(d=2, seed=9)))
        assert np.isfinite(objective(theta)[0])
        assert objective(theta) == (-np.inf, None)
        calls.clear()
        result = fit(data, FitConfig(d=2, max_iter=150, restarts=0, seed=9))
        assert calls[1] > calls[0]
        assert np.isfinite(result.grad_inf_norm)
        assert np.all(np.isfinite(result.ll_trace))

    def test_failed_trials_need_no_model_params_checks(self):
        # the objective tests theta once and builds ModelParams unchecked: each of
        # these trials is still a failed trial, with no warning and nothing raised
        data, _ = generate(GenConfig(n=40, m=40, p=4, d=2, seed=9))
        objective = optimizer._Objective(data, 1.0, 2)
        theta = _pack(initialize(objective.data, FitConfig(d=2, seed=9)))
        trials = {"nan S": (0, np.nan), "inf W": (8, np.inf), "-inf beta": (16, -np.inf),
                  "sigma2 overflows": (-2, 1e3), "sigma2 underflows": (-2, -1e3),
                  "tau2 overflows": (-1, 1e3), "tau2 underflows": (-1, -1e3)}
        outcomes = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, (index, value) in trials.items():
                trial = theta.copy()
                trial[index] = value
                outcomes[name] = objective(trial)
        assert outcomes == {name: (-np.inf, None) for name in trials}

    def test_adaptive_moment_retries_from_the_stored_start(self, monkeypatch):
        # the start is evaluated once; a retry after a blow-up reuses that evaluation
        data, _ = generate(GenConfig(n=80, m=80, p=6, d=2, seed=3))
        evaluate = optimizer._evaluate
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_evaluate", counted)
        config = FitConfig(d=2, mode="adaptive_moment", max_iter=200, seed=3)
        # every step overflows exp(log sigma2) before the model is evaluated
        with pytest.raises(NonFiniteObjective):
            fit(data, replace(config, step0=1e6))
        assert len(calls) == 1
        calls.clear()
        retried = fit(data, replace(config, step0=1e3))      # the first step blows up
        assert len(calls) == len(retried.ll_trace) == 201
        assert retried.ll_trace == fit(data, replace(config, step0=1e3 * 0.1)).ll_trace

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
        objective = optimizer._Objective(data, config.alpha, config.d)
        theta = _pack(result.params)
        # the log-scale round trip of the variances is exact here, so theta is the solver's
        assert _params_equal(_unpack(theta, 4, 2), result.params)
        ll, g = objective(theta)
        assert result.final_ll == ll
        assert result.grad_inf_norm == np.max(np.abs(g))

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_objective_gradient_is_log_likelihood_and_grad_packed(self, alpha):
        # the packed gradient is the package's one internal form: GradientSet's blocks
        # are views of it, and the objective only rescales its last two entries
        data, _ = generate(GenConfig(n=40, m=30, p=5, d=2, seed=21))
        objective = optimizer._Objective(data, alpha, 2)
        theta = _pack(initialize(objective.data, FitConfig(d=2, alpha=alpha, seed=21)))
        theta[:-2] += 0.1          # beta off zero, so every block of g is nonzero
        params = _unpack(theta, 5, 2)
        ll, g = objective(theta)
        ll_ref, grad = log_likelihood_and_grad(params, objective.data, alpha)
        assert ll == ll_ref
        assert np.array_equal(g[:-2], np.concatenate([grad.dS.ravel(), grad.dW.ravel(),
                                                      grad.dbeta]))
        assert g[-2] == params.sigma2 * grad.dsigma2 and g[-1] == params.tau2 * grad.dtau2
        assert np.count_nonzero(g) == g.size

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

    @pytest.mark.parametrize("init", ["random_normal", "pca_warm_start"])
    def test_translation_invariant(self, init):
        # initialize reads fit's centered data, so no start may depend on the raw offset
        data, _ = generate(GenConfig(n=200, m=200, p=10, d=2, seed=31))
        c, k = np.linspace(-50.0, 80.0, 10), 3.0
        config = FitConfig(d=2, init=init, seed=31)
        base = fit(data, config)
        moved = fit(Dataset(X=data.X + c, r=data.r + k, Y=data.Y + c), config)
        assert moved.final_ll == pytest.approx(base.final_ll, rel=1e-12)
        for f in (lambda q: q.S @ q.S.T, lambda q: q.W @ q.beta):
            a, b = f(moved.params), f(base.params)
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
        np.testing.assert_allclose(moved.center_x, base.center_x + c, rtol=1e-12, atol=1e-12)
        assert moved.center_r == pytest.approx(base.center_r + k, rel=1e-12)

    def test_center_is_the_pooled_mean(self, rng):
        # fit sums X and Y block by block: the stack's mean up to rounding, and at
        # alpha = 0 the foreground mean's own bits
        data = Dataset(X=rng.standard_normal((30, 5)) + 3.0, r=rng.standard_normal(30),
                       Y=rng.standard_normal((50, 5)) - 1.0)
        config = FitConfig(d=1, max_iter=1)
        np.testing.assert_allclose(fit(data, config).center_x,
                                   np.vstack([data.X, data.Y]).mean(axis=0), rtol=0, atol=1e-14)
        assert np.array_equal(fit(data, replace(config, alpha=0.0)).center_x,
                              data.X.mean(axis=0))

    @pytest.mark.parametrize("init, bound", [("random_normal", 1.5), ("pca_warm_start", 1.5)])
    def test_peak_allocation_near_one_copy_of_the_data(self, init, bound):
        # fit holds one centered copy of X and Y; the pca warm start reads it through
        # products with thin rows x k blocks, with no pooled stack
        rng = np.random.default_rng(5)
        data = Dataset(X=rng.standard_normal((1000, 100)), r=rng.standard_normal(1000),
                       Y=rng.standard_normal((1000, 100)))
        tracemalloc.start()
        try:
            fit(data, FitConfig(d=2, init=init, max_iter=3, restarts=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * (data.X.nbytes + data.Y.nbytes)

    @pytest.mark.parametrize("init", ["random_normal", "pca_warm_start"])
    def test_peak_allocation_without_the_background_term(self, init):
        # at alpha = 0 no term reads the background, so fit centres only X
        rng = np.random.default_rng(5)
        data = Dataset(X=rng.standard_normal((1000, 100)), r=rng.standard_normal(1000),
                       Y=rng.standard_normal((1000, 100)))
        tracemalloc.start()
        try:
            fit(data, FitConfig(d=2, alpha=0.0, init=init, max_iter=3, restarts=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * (data.X.nbytes + data.Y.nbytes)

    def test_no_centred_copy_outlives_fit(self):
        # the objective holds the centred data; the result keeps no reference to it
        rng = np.random.default_rng(6)
        data = Dataset(X=rng.standard_normal((1000, 100)), r=rng.standard_normal(1000),
                       Y=rng.standard_normal((1000, 100)))
        tracemalloc.start()
        try:
            result = fit(data, FitConfig(d=2, max_iter=3, restarts=0))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.iterations == 3
        assert current <= 0.1 * (data.X.nbytes + data.Y.nbytes)

    def test_predict_applies_centering(self):
        data, _ = generate(GenConfig(n=50, m=50, p=3, d=1, seed=2))
        result = fit(data, FitConfig(d=1, max_iter=100, restarts=0, seed=2))
        means, var = result.predict(result.center_x[None, :])
        assert means[0] == pytest.approx(result.center_r, abs=1e-12)
        assert var >= result.params.tau2

    def test_predictive_map_built_once_and_rows_keep_their_bits(self, monkeypatch):
        data, _ = generate(GenConfig(n=120, m=50, p=6, d=2, seed=4))
        result = fit(data, FitConfig(d=2, max_iter=30, restarts=0, seed=4))
        calls = []
        monkeypatch.setattr(optimizer, "build_workspace",
                            lambda params: calls.append(params) or build_workspace(params))
        rows = [result.predict(data.X[i:i + 1]) for i in range(100)]
        assert calls == [result.params]
        means, var = result.predict(data.X[:100])
        assert len(calls) == 1
        # each mean is its own dot product, whatever rows are predicted with it
        assert np.array_equal(np.concatenate([m for m, _ in rows]), means)
        assert all(v == var for _, v in rows)

    def test_predict_rows_in_blocks_hold_no_copy_of_x(self, rng):
        # 2000 rows, as the lines benchmark scores: the cached map is applied block by block
        params = random_params(rng, 784, 2)
        result = optimizer.FitResult(params=params, center_x=rng.standard_normal(784),
                                     center_r=1.5, ll_trace=[0.0], converged=True,
                                     best_restart=0, wall_time_seconds=0.0, grad_inf_norm=0.0)
        X = rng.standard_normal((2000, 784))
        result.predict(X[:1])                       # builds the map outside the trace
        (means, var), peak = traced_peak(lambda: result.predict(X))
        assert peak <= 0.25 * X.nbytes
        want, want_var = predict_rows(params, X, result.center_x, 1.5)
        assert np.array_equal(means, want) and var == want_var

    def test_no_foreground_rejected(self, rng):
        data = Dataset(X=np.zeros((0, 3)), r=np.zeros(0),
                       Y=rng.standard_normal((5, 3)))
        with pytest.raises(DegenerateData):
            fit(data, FitConfig(d=1))

    def test_seed_outside_restart_seed_range_rejected(self):
        # _restart_seed takes the seed as np.uint64
        for seed in (-1, 2**64):
            with pytest.raises(ShapeMismatch):
                FitConfig(d=1, seed=seed)
        FitConfig(d=1, seed=2**64 - 1)
        assert optimizer._restart_seed(2**64 - 1, 0) >= 0

    def test_integer_settings_stored_as_int_or_rejected(self):
        config = FitConfig(d=1.0, max_iter=np.float64(10.0), restarts=np.int64(1), seed=3.0)
        assert [type(config.d), type(config.max_iter), type(config.restarts),
                type(config.seed)] == [int] * 4
        for name in ("d", "max_iter", "restarts", "seed"):
            with pytest.raises(ShapeMismatch, match=name):
                FitConfig(**{"d": 1, name: 1.5})

    def test_invalid_config_rejected(self):
        data, _ = generate(GenConfig(n=10, m=10, p=3, d=1, seed=0))
        with pytest.raises(ShapeMismatch):
            fit(data, FitConfig(d=1, tol=0.0))
        with pytest.raises(ShapeMismatch):
            fit(data, FitConfig(d=1, mode="newton"))
        for name in ("alpha", "tol", "step0"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ShapeMismatch):
                    fit(data, FitConfig(d=1, **{name: value}))
