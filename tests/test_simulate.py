"""Simulation harness: generator, error metrics, corrupted lines, R^2."""

import hashlib

import numpy as np
import pytest

from contrareg import (ConstantTruth, ErrorReport, GenConfig, LinesConfig,
                       ModelParams, ShapeMismatch, estimation_errors, generate,
                       generate_lines, r_squared)
from contrareg.simulate import _periodic_blur

from conftest import random_orthogonal, random_params, traced_peak


class TestGenerate:
    def test_noiseless_degenerate_case(self, rng):
        S = rng.standard_normal((4, 2))
        truth = ModelParams(S=S, W=np.zeros((4, 2)), beta=np.zeros(2),
                            sigma2=0.0, tau2=0.0)
        data, _ = generate(GenConfig(n=30, m=10, p=4, d=2, seed=1, truth=truth))
        assert np.all(data.r == 0.0)
        # every x lies exactly in span(S)
        proj = S @ np.linalg.solve(S.T @ S, S.T @ data.X.T)
        assert np.max(np.abs(data.X - proj.T)) < 1e-10

    def test_same_seed_identical_dataset(self):
        a, ta = generate(GenConfig(n=15, m=10, p=5, d=2, seed=77))
        b, tb = generate(GenConfig(n=15, m=10, p=5, d=2, seed=77))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.r, b.r)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(ta.S, tb.S)

    def test_seed_isolation_from_global_state(self):
        np.random.seed(0)
        a, _ = generate(GenConfig(n=10, m=5, p=3, d=1, seed=5))
        np.random.seed(12345)
        b, _ = generate(GenConfig(n=10, m=5, p=3, d=1, seed=5))
        assert np.array_equal(a.X, b.X)

    def test_moments_match_analytic_covariances(self):
        data, truth = generate(GenConfig(n=20000, m=20000, p=4, d=2, seed=3))
        Q = truth.S @ truth.S.T + truth.W @ truth.W.T + truth.sigma2 * np.eye(4)
        P = truth.S @ truth.S.T + truth.sigma2 * np.eye(4)
        cov_x = data.X.T @ data.X / data.n
        cov_y = data.Y.T @ data.Y / data.m
        assert np.linalg.norm(cov_x - Q) <= 0.1 * np.linalg.norm(Q)
        assert np.linalg.norm(cov_y - P) <= 0.1 * np.linalg.norm(P)
        wb = truth.W @ truth.beta
        cov_xr = data.X.T @ data.r / data.n
        assert np.linalg.norm(cov_xr - wb) <= 0.1 * np.linalg.norm(wb) + 0.05
        var_r = float(np.mean(data.r ** 2))
        s_marg = float(truth.beta @ truth.beta) + truth.tau2
        assert abs(var_r - s_marg) <= 0.1 * s_marg

    def test_non_integer_sizes_rejected(self):
        for bad in (dict(n=2.5), dict(p=2.5), dict(seed=0.5)):
            with pytest.raises(ShapeMismatch, match="must be an integer"):
                GenConfig(**{"n": 5, "m": 5, "p": 3, "d": 1, **bad})
        for bad in (dict(n_fg=2.5), dict(image_side=8.5), dict(line_column=1.5)):
            with pytest.raises(ShapeMismatch, match="must be an integer"):
                LinesConfig(**bad)
        assert type(GenConfig(n=5.0, m=5, p=3, d=1).n) is int

    def test_invalid_config_rejected(self):
        with pytest.raises(ShapeMismatch):
            generate(GenConfig(n=5, m=5, p=2, d=3, seed=0))
        with pytest.raises(ShapeMismatch):
            generate(GenConfig(n=-1, m=5, p=2, d=1, seed=0))
        with pytest.raises(ShapeMismatch):
            generate(GenConfig(n=5, m=5, p=2, d=1, seed=-1))


class TestEstimationErrors:
    def test_identity_gives_zero(self, rng):
        params = random_params(rng, 4, 2)
        rep = estimation_errors(params, params)
        assert rep == ErrorReport(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_rotation_invariance_of_s_err(self, rng):
        truth = random_params(rng, 5, 2)
        R = random_orthogonal(rng, 2)
        rotated = ModelParams(S=truth.S @ R, W=truth.W, beta=truth.beta,
                              sigma2=truth.sigma2, tau2=truth.tau2)
        assert estimation_errors(rotated, truth).S_err < 1e-12

    def test_matches_dense_frobenius_oracle(self, rng):
        est = random_params(rng, 3, 1)
        truth = random_params(rng, 3, 1)
        rep = estimation_errors(est, truth)
        num = np.linalg.norm(est.S @ est.S.T - truth.S @ truth.S.T, "fro")
        den = np.linalg.norm(truth.S @ truth.S.T, "fro")
        assert rep.S_err == pytest.approx(num / den, rel=1e-12)
        assert rep.beta_err == pytest.approx(
            abs(np.linalg.norm(est.beta) - np.linalg.norm(truth.beta)), rel=1e-12)
        assert rep.sigma2_err == pytest.approx(est.sigma2 - truth.sigma2)
        assert rep.tau2_err == pytest.approx(est.tau2 - truth.tau2)

    def test_common_rotation_leaves_s_err_unchanged(self, rng):
        est = random_params(rng, 4, 2)
        truth = random_params(rng, 4, 2)
        R = random_orthogonal(rng, 2)
        base = estimation_errors(est, truth).S_err
        rot = estimation_errors(
            ModelParams(S=est.S @ R, W=est.W, beta=est.beta,
                        sigma2=est.sigma2, tau2=est.tau2),
            ModelParams(S=truth.S @ R, W=truth.W, beta=truth.beta,
                        sigma2=truth.sigma2, tau2=truth.tau2)).S_err
        assert rot == pytest.approx(base, rel=1e-10)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ShapeMismatch):
            estimation_errors(random_params(rng, 3, 1), random_params(rng, 4, 1))


class TestGenerateLines:
    def test_noiseless_construction(self):
        config = LinesConfig(image_side=8, n_fg=20, n_bg=5, background_rank=0,
                             noise_sd=0.0, line_column=3, seed=9)
        data = generate_lines(config)
        # pixel sum equals intensity * height exactly (unit intensity)
        sums = data.X.sum(axis=1)
        assert np.array_equal(sums, data.r)
        assert np.all(data.Y == 0.0)
        assert np.all((data.r >= 1) & (data.r <= 8))

    def test_same_seed_identical_images(self):
        a = generate_lines(LinesConfig(seed=4))
        b = generate_lines(LinesConfig(seed=4))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.r, b.r)

    def test_fixed_seed_arrays_pinned(self):
        # 500 rows span more than one block of the row-blocked noise draw
        data = generate_lines(LinesConfig(n_fg=500, n_bg=500, seed=3))
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (data.X, data.r, data.Y)]
        assert digests == [
            "950d759fc46a76dd0c4170635db7b811dded968d250400597c94a14a43538363",
            "101caded646e5aee05e2898056eac360c6677aa9e782a1000e369eed9c66b5e8",
            "4c788ec901e8073c0ec2f6cd3f4fbb5e335dd79f7f1714c2891ae4e47539dc41"]

    def test_peak_allocation_near_its_outputs(self):
        # the noise is added in row blocks, so no full-size draw or product is held
        data, peak = traced_peak(lambda: generate_lines(LinesConfig(n_fg=500, n_bg=500)))
        assert peak <= 1.3 * (data.X.nbytes + data.Y.nbytes + data.r.nbytes)

    def test_line_column_pixels_predict_height(self):
        data = generate_lines(LinesConfig(seed=0))
        side = 28
        cols = np.arange(side) * side + 14     # the line-column pixels
        design = np.column_stack([np.ones(data.X.shape[0]), data.X[:, cols]])
        coef, *_ = np.linalg.lstsq(design, data.r, rcond=None)
        pred = design @ coef
        assert r_squared(pred, data.r) >= 0.9

    def test_line_in_requested_column(self):
        config = LinesConfig(image_side=10, n_fg=5, n_bg=2, background_rank=0,
                             noise_sd=0.0, line_column=7, seed=2)
        data = generate_lines(config)
        images = data.X.reshape(-1, 10, 10)
        off_column = np.delete(images, 7, axis=2)
        assert np.all(off_column == 0.0)
        for img, h in zip(images, data.r.astype(int)):
            assert np.array_equal(img[:, 7], (np.arange(10) < h).astype(float))

    def test_default_line_column_is_the_middle_one(self):
        config = LinesConfig(image_side=10, n_fg=5, n_bg=2, background_rank=0,
                             noise_sd=0.0, seed=2)
        assert config.line_column == 5 and LinesConfig().line_column == 14
        images = generate_lines(config).X.reshape(-1, 10, 10)
        assert np.all(np.delete(images, 5, axis=2) == 0.0)
        assert np.all(images[:, 0, 5] == 1.0)

    def test_blur_matches_scipy_reference(self):
        # the kernel has 2r + 1 > side taps (r = int(side / 2 + 0.5)), so every sum wraps
        ndimage = pytest.importorskip("scipy.ndimage")
        for side in range(1, 41):
            stack = np.random.default_rng(side).standard_normal((3, side, side))
            got = _periodic_blur(stack, side / 8.0)
            for img, blurred in zip(stack, got):
                want = ndimage.gaussian_filter(img, sigma=side / 8.0, mode="wrap")
                assert np.max(np.abs(blurred - want)) <= 1e-15 * np.max(np.abs(want))

    def test_non_finite_noise_sd_rejected(self):
        # it would fail later, after the textures are drawn, as non-finite data
        for value in (float("nan"), float("inf")):
            with pytest.raises(ShapeMismatch, match="noise_sd finite"):
                LinesConfig(noise_sd=value)

    def test_invalid_config_rejected(self):
        with pytest.raises(ShapeMismatch):
            generate_lines(LinesConfig(line_column=28))
        with pytest.raises(ShapeMismatch):
            generate_lines(LinesConfig(noise_sd=-0.1))
        with pytest.raises(ShapeMismatch):
            generate_lines(LinesConfig(seed=-1))


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_constant_mean_prediction(self):
        assert r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_arithmetic(self):
        assert r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)

    def test_constant_truth_rejected(self):
        with pytest.raises(ConstantTruth):
            r_squared([1.0, 2.0], [3.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ShapeMismatch):
            r_squared([1.0], [1.0])
        with pytest.raises(ShapeMismatch):
            r_squared([1.0, 2.0], [1.0, 2.0, 3.0])
