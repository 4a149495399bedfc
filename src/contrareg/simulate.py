"""Seeded data generation from the generative model plus error metrics.

Includes the corrupted-lines image analog: seeded low-rank smooth textures
shared by foreground and background, with the foreground additionally
carrying a vertical line whose height is the response.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstantTruth, ShapeMismatch
from .model import Dataset, ModelParams, _ROW_BLOCK, _integral, _integral_fields


@dataclass(frozen=True)
class GenConfig:
    n: int
    m: int
    p: int
    d: int
    seed: int = 0
    truth: ModelParams = None

    def __post_init__(self):
        _integral_fields(self, ("n", "m", "p", "d", "seed"))
        if self.p < 1 or self.d < 1 or self.d > self.p:
            raise ShapeMismatch(f"need 1 <= d <= p, got d={self.d}, p={self.p}")
        if self.n < 0 or self.m < 0 or self.seed < 0:
            raise ShapeMismatch("n, m and seed must be nonnegative")
        if self.truth is not None and self.truth.S.shape != (self.p, self.d):
            raise ShapeMismatch(f"truth has shape {self.truth.S.shape}, expected {(self.p, self.d)}")


@dataclass
class ErrorReport:
    beta_err: float      # | ||beta_hat|| - ||beta|| |
    sigma2_err: float    # signed, estimate - truth
    tau2_err: float      # signed, estimate - truth
    S_err: float         # ||Sh Sh' - S S'||_F / ||S S'||_F
    W_err: float


@dataclass(frozen=True)
class LinesConfig:
    image_side: int = 28
    n_fg: int = 300
    n_bg: int = 300
    background_rank: int = 4
    noise_sd: float = 0.1
    line_column: int = None      # None: the middle column, image_side // 2
    seed: int = 0

    def __post_init__(self):
        _integral_fields(self, ("image_side", "n_fg", "n_bg", "background_rank", "seed"))
        column = self.image_side // 2 if self.line_column is None else self.line_column
        object.__setattr__(self, "line_column", _integral(column, "line_column"))
        if self.image_side < 1 or self.n_fg < 1 or self.n_bg < 1:
            raise ShapeMismatch("image_side, n_fg, n_bg must be positive")
        if self.background_rank < 0 or not 0 <= self.noise_sd < np.inf or self.seed < 0:
            raise ShapeMismatch("background_rank, noise_sd and seed must be nonnegative, "
                                f"noise_sd finite; got noise_sd={self.noise_sd}")
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
    rng = np.random.default_rng(config.seed)
    truth = config.truth if config.truth is not None else default_truth(config.p, config.d, rng)
    S, W, beta = truth.S, truth.W, truth.beta
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
    eS, eW, eb = estimate.S, estimate.W, estimate.beta
    tS, tW, tb = truth.S, truth.W, truth.beta
    if eS.shape != tS.shape:
        raise ShapeMismatch(f"shape mismatch: {eS.shape} vs {tS.shape}")

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
_PATTERN_DECAY = 3.0    # amplitude ratio between consecutive components, so the leading ones
                        # dominate the texture and the trailing ones fall below the line's variance


def _periodic_blur(images, sigma):
    """Periodic Gaussian blur of the last two axes, truncated at 4 sigma."""
    radius = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    w = phi[radius:] / phi.sum()        # the full kernel's sum, as in ndimage.gaussian_filter
    for axis in (-2, -1):
        out = images * w[0]
        for j in range(radius, 0, -1):  # and its order of sums: the output matches it bit for bit
            out += (np.roll(images, j, axis) + np.roll(images, -j, axis)) * w[j]
        images = out
    return images


def _smooth_patterns(rank, side, rng):
    """Shared texture components: white noise under a periodic blur with sigma = side / 8."""
    patterns = _periodic_blur(rng.standard_normal((rank, side, side)), side / 8.0)
    for k, img in enumerate(patterns):
        sd = img.std()          # 0 for a 1 x 1 image
        if sd > 0:
            img *= _PATTERN_SD * _PATTERN_DECAY ** (-k) / sd
    return patterns.reshape(rank, side * side)


def _add_noise(images, sd, rng):
    """images += sd * N(0, 1) draws, one block of rows at a time: the generator draws the
    same stream in blocks, so the bits are those of one full-size draw, without its copies."""
    buffer = np.empty((min(len(images), _ROW_BLOCK), images.shape[1]))
    for start in range(0, len(images), _ROW_BLOCK):
        rows = images[start:start + _ROW_BLOCK]
        noise = rng.standard_normal(out=buffer[:len(rows)])
        noise *= sd
        rows += noise


def generate_lines(config: LinesConfig) -> Dataset:
    """Corrupted-lines analog: shared textures, foreground vertical line of height r."""
    rng = np.random.default_rng(config.seed)
    side = config.image_side
    p = side * side
    patterns = _smooth_patterns(config.background_rank, side, rng)
    fg = rng.standard_normal((config.n_fg, config.background_rank)) @ patterns
    heights = rng.integers(1, side + 1, size=config.n_fg)
    # vertical line of fixed unit intensity, rows 0..h-1 of line_column
    fg[:, config.line_column::side] += np.arange(side) < heights[:, None]
    _add_noise(fg, config.noise_sd, rng)

    bg = rng.standard_normal((config.n_bg, config.background_rank)) @ patterns
    _add_noise(bg, config.noise_sd, rng)

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
