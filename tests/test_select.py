"""Selection module: cross-validation, PCA baseline, feature ranking."""

import numpy as np
import pytest

from contrareg import (Dataset, FitConfig, GenConfig, ModelParams,
                       RankDeficiencyError, ShapeMismatch, TooFewSamples,
                       ZeroBeta, cross_validate, fit, generate,
                       pca_linear_baseline, rank_features)

from conftest import random_orthogonal


class TestCrossValidate:
    def test_recovers_true_latent_dimension(self):
        data, _ = generate(GenConfig(n=300, m=300, p=20, d=2, seed=4000))
        report = cross_validate(data, [1, 2, 4], 5,
                                FitConfig(d=2, tol=1e-4, restarts=0, seed=4000))
        assert report.best_d == 2
        # selection agrees with exhaustive comparison of mean test R^2
        means = np.nanmean(report.test_r2, axis=1)
        assert report.d_grid[int(np.argmax(means))] == 2

    def test_leave_one_out_boundary(self):
        data, _ = generate(GenConfig(n=10, m=10, p=3, d=1, seed=8))
        report = cross_validate(data, [1, 2], 10,
                                FitConfig(d=1, tol=1e-3, max_iter=200,
                                          restarts=0, seed=8))
        assert report.test_r2.shape == (2, 10)
        assert report.train_r2.shape == (2, 10)
        assert np.all(np.isfinite(report.train_r2))

    def test_constant_response_marks_all_cells_invalid(self):
        data, _ = generate(GenConfig(n=20, m=10, p=3, d=1, seed=3))
        const = Dataset(X=data.X, r=np.zeros(20), Y=data.Y)
        report = cross_validate(const, [1], 4,
                                FitConfig(d=1, tol=1e-3, max_iter=100,
                                          restarts=0, seed=3))
        assert np.all(np.isnan(report.test_r2))
        assert np.all(np.isnan(report.train_r2))

    def test_tie_breaks_toward_smaller_d(self):
        data, _ = generate(GenConfig(n=30, m=10, p=4, d=1, seed=6))
        # duplicated d gives exactly tied means; the first (smaller index,
        # same d) must win without tripping the tie tolerance
        report = cross_validate(data, [2, 2], 3,
                                FitConfig(d=2, tol=1e-3, max_iter=100,
                                          restarts=0, seed=6))
        assert report.best_d == 2
        assert np.array_equal(report.test_r2[0], report.test_r2[1])

    def test_preconditions(self):
        data, _ = generate(GenConfig(n=10, m=5, p=3, d=1, seed=0))
        with pytest.raises(TooFewSamples):
            cross_validate(data, [1], 1, FitConfig(d=1))
        with pytest.raises(TooFewSamples):
            cross_validate(data, [1], 11, FitConfig(d=1))
        with pytest.raises(ShapeMismatch):
            cross_validate(data, [4], 2, FitConfig(d=1))
        with pytest.raises(ShapeMismatch):
            cross_validate(data, [], 2, FitConfig(d=1))
        with pytest.raises(ShapeMismatch):
            cross_validate(data, [0, 1], 2, FitConfig(d=1))
        with pytest.raises(ShapeMismatch):
            cross_validate(data, [1.5], 2, FitConfig(d=1))
        with pytest.raises(ShapeMismatch):
            cross_validate(data, [1, "2"], 2, FitConfig(d=1))
        report = cross_validate(data, [np.int64(1)], 2,
                                FitConfig(d=1, restarts=0, max_iter=20))
        assert report.d_grid == [1] and type(report.d_grid[0]) is int

    @pytest.mark.parametrize("bad", [dict(tol=0.0), dict(mode="newton"),
                                     dict(max_iter=0), dict(seed=-1)])
    def test_invalid_config_raises_instead_of_nan_report(self, bad):
        # every cell would fail alike, which reads as an all-NaN report
        data, _ = generate(GenConfig(n=10, m=5, p=3, d=1, seed=0))
        with pytest.raises(ShapeMismatch):
            cross_validate(data, [1, 2], 2, FitConfig(d=1, restarts=0, **bad))


class TestPcaLinearBaseline:
    def test_exact_rank_d_is_perfect_on_train(self, rng):
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        scores = rng.standard_normal((30, 2))
        X = scores @ basis.T
        r = scores @ np.array([1.5, -0.5]) + 2.0
        train = Dataset(X=X, r=r, Y=np.zeros((0, 6)))
        pred = pca_linear_baseline(train, X, 2)
        assert np.max(np.abs(pred - r)) < 1e-8

    def test_d_equal_p_matches_ordinary_least_squares(self, rng):
        X = rng.standard_normal((40, 3))
        r = rng.standard_normal(40)
        train = Dataset(X=X, r=r, Y=np.zeros((0, 3)))
        pred = pca_linear_baseline(train, X, 3)
        Xc = X - X.mean(axis=0)
        design = np.column_stack([np.ones(40), Xc])
        coef, *_ = np.linalg.lstsq(design, r, rcond=None)
        assert np.max(np.abs(pred - design @ coef)) < 1e-8

    def test_rank_deficient_training_rejected(self, rng):
        X = np.outer(rng.standard_normal(10), rng.standard_normal(4))
        train = Dataset(X=X, r=rng.standard_normal(10), Y=np.zeros((0, 4)))
        with pytest.raises(RankDeficiencyError):
            pca_linear_baseline(train, X, 2)

    def test_preconditions(self, rng):
        X = rng.standard_normal((10, 3))
        train = Dataset(X=X, r=rng.standard_normal(10), Y=np.zeros((0, 3)))
        with pytest.raises(ShapeMismatch):
            pca_linear_baseline(train, X, 4)
        with pytest.raises(ShapeMismatch):
            pca_linear_baseline(train, rng.standard_normal((5, 2)), 2)


class TestRankFeatures:
    def test_axis_aligned_beta_fixed_point(self, rng):
        W = rng.standard_normal((5, 3))
        params = ModelParams(S=rng.standard_normal((5, 3)), W=W,
                             beta=np.array([0.0, 0.7, 0.0]),
                             sigma2=1.0, tau2=1.0)
        ranking = rank_features(params)
        col = W[:, 1]
        cos = abs(ranking.scores @ col) / (np.linalg.norm(ranking.scores)
                                           * np.linalg.norm(col))
        assert cos >= 1 - 1e-10
        assert ranking.component_index == 1

    def test_hand_sorted_magnitudes(self):
        W = np.array([[3.0], [-5.0], [0.0], [1.0]])
        params = ModelParams(S=np.zeros((4, 1)), W=W, beta=np.array([1.0]),
                             sigma2=1.0, tau2=1.0)
        ranking = rank_features(params)
        assert list(ranking.order) == [2, 1, 4, 3]    # 1-based feature indices
        mags = np.abs(ranking.scores[ranking.order - 1])
        assert np.all(np.diff(mags) <= 0)

    def test_equal_magnitudes_lower_index_first(self):
        W = np.array([[2.0], [-2.0], [1.0]])
        params = ModelParams(S=np.zeros((3, 1)), W=W, beta=np.array([1.0]),
                             sigma2=1.0, tau2=1.0)
        ranking = rank_features(params)
        assert list(ranking.order) == [1, 2, 3]

    def test_rotation_invariance_of_order(self, rng):
        data, _ = generate(GenConfig(n=80, m=80, p=6, d=2, seed=12))
        result = fit(data, FitConfig(d=2, tol=1e-6, max_iter=2000,
                                     restarts=0, seed=12))
        base = rank_features(result.params)
        R = random_orthogonal(rng, 2)
        rotated = ModelParams(S=result.params.S, W=result.params.W @ R,
                              beta=R.T @ result.params.beta,
                              sigma2=result.params.sigma2,
                              tau2=result.params.tau2)
        rot = rank_features(rotated)
        assert np.array_equal(base.order, rot.order)

    def test_no_rotation_uses_raw_column(self):
        W = np.array([[1.0, 4.0], [2.0, -6.0]])
        params = ModelParams(S=np.zeros((2, 2)), W=W,
                             beta=np.array([0.1, -0.9]), sigma2=1.0, tau2=1.0)
        ranking = rank_features(params, canonical_rotation=False)
        assert ranking.component_index == 2
        assert np.array_equal(ranking.scores, W[:, 1])

    def test_zero_beta_rejected(self):
        params = ModelParams(S=np.zeros((3, 1)), W=np.ones((3, 1)),
                             beta=np.zeros(1), sigma2=1.0, tau2=1.0)
        with pytest.raises(ZeroBeta):
            rank_features(params)

    def test_names_length_checked(self):
        params = ModelParams(S=np.zeros((3, 1)), W=np.ones((3, 1)),
                             beta=np.ones(1), sigma2=1.0, tau2=1.0)
        with pytest.raises(ShapeMismatch):
            rank_features(params, names=["a", "b"])
