"""Contrastive linear regression: case-control latent-variable regression.

Separates variation shared between foreground (case) and background
(control) data from foreground-specific variation, and regresses the
case-only response on the foreground-specific latent component.
"""

from .errors import (ConstantTruth, ContrastiveRegressionError, DegenerateData,
                     FactorizationError, MalformedFile, NonFiniteObjective,
                     RankDeficiencyError, ShapeMismatch, TooFewSamples, ZeroBeta)
from .model import (Dataset, GradientSet, LatentPosterior, ModelParams,
                    PredictiveDist, Workspace, build_workspace,
                    contrastive_residuals, finite_diff_gradient,
                    grad_log_likelihood, latent_posterior, log_likelihood,
                    predict)
from .optimizer import FitConfig, FitResult, fit, initialize
from .select import CVReport, FeatureRanking, cross_validate, pca_linear_baseline, rank_features
from .simulate import (ErrorReport, GenConfig, LinesConfig, estimation_errors,
                       generate, generate_lines, r_squared)

__version__ = "0.1.0"

__all__ = [
    "ConstantTruth", "ContrastiveRegressionError", "DegenerateData",
    "FactorizationError", "MalformedFile", "NonFiniteObjective",
    "RankDeficiencyError", "ShapeMismatch", "TooFewSamples", "ZeroBeta",
    "Dataset", "GradientSet", "LatentPosterior", "ModelParams",
    "PredictiveDist", "Workspace", "build_workspace", "contrastive_residuals",
    "finite_diff_gradient", "grad_log_likelihood", "latent_posterior",
    "log_likelihood", "predict",
    "FitConfig", "FitResult", "fit", "initialize",
    "CVReport", "FeatureRanking", "cross_validate", "pca_linear_baseline",
    "rank_features",
    "ErrorReport", "GenConfig", "LinesConfig", "estimation_errors", "generate",
    "generate_lines", "r_squared",
]
