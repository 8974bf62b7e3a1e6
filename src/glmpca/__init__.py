"""glmpca: exponential-family principal component analysis.

Factorizes a features-by-observations matrix under a Gaussian, Poisson,
Bernoulli, or negative binomial likelihood, with optional covariates and
per-observation offsets.  Fitting runs penalized Fisher scoring, one
joint step per factor block, U then V, in which every row solves for all
of its updateable columns at once; postprocessing projects covariates
out of the latent factors, rotates the loadings to orthonormality, and
orders dimensions by magnitude so the output behaves like PCA
scores/loadings.
"""

from .exceptions import (ConfigError, DataError, DomainError, FitError,
                         GlmPcaError, PostprocessError)
from .families import Family, bernoulli, gaussian, negative_binomial, poisson
from .io import LoadedMatrix, read_matrix, write_result
# check_data_matrix, gradient, fisher_info and predictor_stats stay
# importable from here for the tests and the benchmark, outside __all__
from .model import (IndexSets, ModelState, build_model, check_data_matrix,
                    fisher_info, gradient, linear_predictor, objective,
                    predictor_stats)
from .optimizer import FitConfig, FitResult, fit
from .postprocess import postprocess, project_out_covariates

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DomainError", "FitError", "GlmPcaError",
    "PostprocessError",
    "Family", "bernoulli", "gaussian", "negative_binomial", "poisson",
    "LoadedMatrix", "read_matrix", "write_result",
    "IndexSets", "ModelState", "build_model", "linear_predictor",
    "objective",
    "FitConfig", "FitResult", "fit",
    "postprocess", "project_out_covariates",
    "__version__",
]
