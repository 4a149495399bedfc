"""Selection module: cross-validation, PCA baseline, feature ranking."""

import numpy as np
import pytest

from contrareg import (CVReport, Dataset, FeatureRanking, FitConfig, FitResult,
                       GenConfig, ModelParams, RankDeficiencyError, ShapeMismatch,
                       TooFewSamples, ZeroBeta, cross_validate, fit, generate,
                       pca_linear_baseline, rank_features)

from conftest import random_orthogonal, svd_loadings


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

    def test_non_integer_k_rejected(self):
        data, _ = generate(GenConfig(n=10, m=5, p=3, d=1, seed=0))
        with pytest.raises(ShapeMismatch, match="k must be an integer"):
            cross_validate(data, [1], 2.5, FitConfig(d=1))
        report = cross_validate(data, [1], 2.0, FitConfig(d=1, max_iter=20))
        assert type(report.k) is int

    @pytest.mark.parametrize("bad", [dict(tol=0.0), dict(mode="newton"),
                                     dict(max_iter=0), dict(seed=-1),
                                     dict(alpha=float("nan")), dict(alpha=float("inf")),
                                     dict(tol=float("inf")), dict(step0=float("nan")),
                                     dict(seed=1.5), dict(mode="adaptive_moment", max_iter=10.5)])
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

    def test_d_read_as_an_integer(self, rng):
        # d goes through the same integer rule as cross_validate's grid
        X = rng.standard_normal((10, 3))
        train = Dataset(X=X, r=rng.standard_normal(10), Y=np.zeros((0, 3)))
        assert np.array_equal(pca_linear_baseline(train, X, np.float64(2.0)),
                              pca_linear_baseline(train, X, 2))
        with pytest.raises(ShapeMismatch, match="integer"):
            pca_linear_baseline(train, X, 1.5)

    def test_zero_training_rows_rejected_like_one(self, rng):
        # the mean of zero rows would warn before the rank rule is reached
        for rows in (0, 1):
            train = Dataset(X=rng.standard_normal((rows, 3)), r=rng.standard_normal(rows),
                            Y=np.zeros((0, 3)))
            with pytest.raises(RankDeficiencyError):
                pca_linear_baseline(train, rng.standard_normal((2, 3)), 1)

    @staticmethod
    def _two_directions(rng, rows, p, rho):
        """X = U diag(1, rho) V' with U orthogonal to the ones vector, so centering keeps X."""
        G = rng.standard_normal((rows, 2))
        U = np.linalg.qr(G - G.mean(axis=0))[0]
        V = np.linalg.qr(rng.standard_normal((p, 2)))[0]
        return U @ np.diag([1.0, rho]) @ V.T, V

    @staticmethod
    def _svd_pca_ols(X, r, test_X, d):
        """The baseline's predictions from the thin SVD's components (oracle)."""
        mean = X.mean(axis=0)
        _, comps = svd_loadings(X - mean, d)
        design = np.column_stack([np.ones(len(X)), (X - mean) @ comps])
        coef, *_ = np.linalg.lstsq(design, r, rcond=None)
        return np.column_stack([np.ones(len(test_X)), (test_X - mean) @ comps]) @ coef

    # 30 x 6 has more rows than columns, 8 x 40 fewer; both are within d + 10, where
    # the sketch spans every direction and is exact
    @pytest.mark.parametrize("rows, p", [(30, 6), (8, 40)])
    def test_singular_value_at_gram_rounding_level_rejected(self, rng, rows, p):
        # s_2^2 = 1e-14 s_1^2 is below the rank rule's 1e-12 s_1^2
        X, _ = self._two_directions(rng, rows, p, 1e-7)
        train = Dataset(X=X, r=rng.standard_normal(rows), Y=np.zeros((0, p)))
        with pytest.raises(RankDeficiencyError):
            pca_linear_baseline(train, X, 2)

    @pytest.mark.parametrize("rows, p", [(30, 6), (8, 40)])
    def test_small_singular_value_matches_svd_oracle(self, rng, rows, p):
        X, V = self._two_directions(rng, rows, p, 1e-4)
        r = rng.standard_normal(rows)
        # test rows in the row space of X: rounding may tilt the second component by
        # about eps / rho into directions that X does not have
        test_X = np.vstack([X, rng.standard_normal((5, 2)) @ np.diag([1.0, 1e-4]) @ V.T])
        got = pca_linear_baseline(Dataset(X=X, r=r, Y=np.zeros((0, p))), test_X, 2)
        want = self._svd_pca_ols(X, r, test_X, 2)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_iterated_sketch_matches_svd_oracle(self, rng):
        # rows and p both above d + 10, so the sketch is random and makes its power
        # passes; the planted spectrum stands far above the noise's
        rows, p, d = 120, 300, 2
        basis = np.linalg.qr(rng.standard_normal((p, 3)))[0]
        scores = rng.standard_normal((rows, 3)) * np.array([40.0, 30.0, 20.0])
        X = scores @ basis.T + rng.standard_normal((rows, p))
        r = scores @ np.array([1.0, -0.5, 0.3]) + rng.standard_normal(rows)
        test_X = rng.standard_normal((20, 3)) * np.array([40.0, 30.0, 20.0]) @ basis.T
        got = pca_linear_baseline(Dataset(X=X, r=r, Y=np.zeros((0, p))), test_X, d)
        want = self._svd_pca_ols(X, r, test_X, d)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_result_equality_and_hash_are_identity():
    # the array fields have no single truth value, so equal values do not compare equal
    ranking = FeatureRanking(scores=np.ones(2), order=np.array([1, 2]))
    report = CVReport(d_grid=[1], k=2, train_r2=np.zeros((1, 2)), test_r2=np.zeros((1, 2)),
                      best_d=1)
    params = ModelParams(S=np.ones((2, 1)), W=np.zeros((2, 1)), beta=np.ones(1),
                         sigma2=1.0, tau2=1.0)
    result = FitResult(params=params, center_x=np.zeros(2), center_r=0.0, ll_trace=[0.0],
                       converged=True, best_restart=0, wall_time_seconds=0.0,
                       grad_inf_norm=0.0)
    for value in (ranking, report, result):
        assert not value == type(value)(**vars(value))
        assert value == value
        assert len({value, value}) == 1


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

    def test_zero_beta_rejected(self):
        params = ModelParams(S=np.zeros((3, 1)), W=np.ones((3, 1)),
                             beta=np.zeros(1), sigma2=1.0, tau2=1.0)
        with pytest.raises(ZeroBeta):
            rank_features(params)
