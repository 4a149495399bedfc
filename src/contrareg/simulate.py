"""Seeded data generation from the generative model plus error metrics.

Includes the corrupted-lines image analog: seeded low-rank smooth textures
shared by foreground and background, with the foreground additionally
carrying a vertical line whose height is the response.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstantTruth, ShapeMismatch
from .model import Dataset, ModelParams


@dataclass
class GenConfig:
    n: int
    m: int
    p: int
    d: int
    seed: int = 0
    truth: ModelParams = None

    def validate(self):
        if self.p < 1 or self.d < 1 or self.d > self.p:
            raise ShapeMismatch(f"need 1 <= d <= p, got d={self.d}, p={self.p}")
        if self.n < 0 or self.m < 0 or self.seed < 0:
            raise ShapeMismatch("n, m and seed must be nonnegative")


@dataclass
class ErrorReport:
    beta_err: float      # | ||beta_hat|| - ||beta|| |
    sigma2_err: float    # signed, estimate - truth
    tau2_err: float      # signed, estimate - truth
    S_err: float         # ||Sh Sh' - S S'||_F / ||S S'||_F
    W_err: float


@dataclass
class LinesConfig:
    image_side: int = 28
    n_fg: int = 300
    n_bg: int = 300
    background_rank: int = 4
    noise_sd: float = 0.1
    line_column: int = 14
    seed: int = 0

    def validate(self):
        if self.image_side < 1 or self.n_fg < 1 or self.n_bg < 1:
            raise ShapeMismatch("image_side, n_fg, n_bg must be positive")
        if self.background_rank < 0 or self.noise_sd < 0 or self.seed < 0:
            raise ShapeMismatch("background_rank, noise_sd and seed must be nonnegative")
        if not 0 <= self.line_column < self.image_side:
            raise ShapeMismatch(
                f"line_column must be in [0, {self.image_side}), got {self.line_column}")


def default_truth(p, d, rng):
    """Default ground-truth draw: N(0,1) loadings, variances 0.25."""
    return ModelParams(S=rng.standard_normal((p, d)),
                       W=rng.standard_normal((p, d)),
                       beta=rng.standard_normal(d),
                       sigma2=0.25, tau2=0.25)


def generate(config: GenConfig):
    """Draw (Dataset, truth ModelParams) from the generative model."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    truth = config.truth if config.truth is not None else default_truth(config.p, config.d, rng)
    S = np.asarray(truth.S, float)
    W = np.asarray(truth.W, float)
    beta = np.asarray(truth.beta, float)
    if S.shape != (config.p, config.d):
        raise ShapeMismatch(f"truth has shape {S.shape}, expected {(config.p, config.d)}")
    sig = np.sqrt(truth.sigma2)
    tau = np.sqrt(truth.tau2)

    n, m, p, d = config.n, config.m, config.p, config.d
    z_a = rng.standard_normal((n, d))
    t = rng.standard_normal((n, d))
    eps_a = sig * rng.standard_normal((n, p))
    eta = tau * rng.standard_normal(n)
    z_b = rng.standard_normal((m, d))
    eps_b = sig * rng.standard_normal((m, p))

    X = z_a @ S.T + t @ W.T + eps_a
    r = t @ beta + eta
    Y = z_b @ S.T + eps_b
    return Dataset(X=X, r=r, Y=Y), truth


def estimation_errors(estimate: ModelParams, truth: ModelParams) -> ErrorReport:
    """Estimation error metrics, rotation-invariant for S and W."""
    eS, eW = np.asarray(estimate.S, float), np.asarray(estimate.W, float)
    tS, tW = np.asarray(truth.S, float), np.asarray(truth.W, float)
    if eS.shape != tS.shape or eW.shape != tW.shape:
        raise ShapeMismatch(f"shape mismatch: {eS.shape} vs {tS.shape}")
    eb = np.asarray(estimate.beta, float)
    tb = np.asarray(truth.beta, float)
    if eb.shape != tb.shape:
        raise ShapeMismatch(f"beta shapes differ: {eb.shape} vs {tb.shape}")

    def subspace_err(Uh, U):
        num = np.linalg.norm(Uh @ Uh.T - U @ U.T, "fro")
        den = np.linalg.norm(U @ U.T, "fro")
        return float(num / den) if den > 0 else float(num)

    return ErrorReport(
        beta_err=float(abs(np.linalg.norm(eb) - np.linalg.norm(tb))),
        sigma2_err=float(estimate.sigma2 - truth.sigma2),
        tau2_err=float(estimate.tau2 - truth.tau2),
        S_err=subspace_err(eS, tS),
        W_err=subspace_err(eW, tW),
    )


_PATTERN_SD = 0.3       # per-pixel sd of the strongest texture component
_PATTERN_DECAY = 3.0    # amplitude ratio between consecutive components


def _smooth_patterns(rank, side, rng):
    """Smooth random images used as shared texture components.

    Amplitudes decay geometrically so the texture has a realistic spectrum:
    the leading components dominate the image variance while the trailing
    ones fall below the variance of the foreground line.
    """
    # imported here: scipy.ndimage takes longer to import than all of contrareg
    from scipy.ndimage import gaussian_filter

    patterns = np.empty((rank, side, side))
    for k in range(rank):
        raw = rng.standard_normal((side, side))
        img = gaussian_filter(raw, sigma=side / 8.0, mode="wrap")
        sd = img.std()
        amp = _PATTERN_SD * _PATTERN_DECAY ** (-k)
        patterns[k] = img * (amp / sd) if sd > 0 else img
    return patterns.reshape(rank, side * side)


def generate_lines(config: LinesConfig) -> Dataset:
    """Corrupted-lines analog: shared textures, foreground vertical line of height r."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    side = config.image_side
    p = side * side
    patterns = _smooth_patterns(config.background_rank, side, rng)

    def texture_block(count):
        if config.background_rank == 0:
            return np.zeros((count, p))
        coefs = rng.standard_normal((count, config.background_rank))
        return coefs @ patterns

    fg = texture_block(config.n_fg)
    heights = rng.integers(1, side + 1, size=config.n_fg)
    for i, h in enumerate(heights):
        # vertical line of fixed unit intensity, rows 0..h-1 of line_column
        fg[i, np.arange(h) * side + config.line_column] += 1.0
    fg += config.noise_sd * rng.standard_normal((config.n_fg, p))

    bg = texture_block(config.n_bg)
    bg += config.noise_sd * rng.standard_normal((config.n_bg, p))

    names = [f"px_{i // side}_{i % side}" for i in range(p)]
    return Dataset(X=fg, r=heights.astype(float), Y=bg, feature_names=names)


def r_squared(predictions, truth) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot (can be negative)."""
    pred = np.asarray(predictions, float)
    obs = np.asarray(truth, float)
    if pred.shape != obs.shape or pred.ndim != 1:
        raise ShapeMismatch(f"vectors must match, got {pred.shape} and {obs.shape}")
    if pred.size < 2:
        raise ShapeMismatch("need at least 2 values")
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0.0:
        raise ConstantTruth("truth vector is constant; R^2 undefined")
    ss_res = float(np.sum((obs - pred) ** 2))
    return 1.0 - ss_res / ss_tot
