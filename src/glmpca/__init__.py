"""glmpca: exponential-family principal component analysis.

Factorizes a features-by-observations matrix under a Gaussian, Poisson,
Bernoulli, or negative binomial likelihood, with optional covariates and
per-observation offsets.  Fitting runs penalized diagonal Fisher scoring
over the factor columns; postprocessing projects covariates out of the
latent factors, rotates the loadings to orthonormality, and orders
dimensions by magnitude so the output behaves like PCA scores/loadings.
"""

from .exceptions import (ConfigError, DataError, DegenerateColumnError,
                         DomainError, FitError, GlmPcaError, OracleError,
                         PostprocessError)
from .families import Family, bernoulli, gaussian, negative_binomial, poisson
from .io import LoadedMatrix, read_matrix, write_result
from .model import (IndexSets, ModelState, build_model, check_data_matrix,
                    fisher_info, gradient, linear_predictor, objective,
                    predictor_stats)
from .optimizer import (FitConfig, FitResult, fit, full_scoring,
                        update_column)
from .postprocess import postprocess, project_out_covariates

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DegenerateColumnError", "DomainError",
    "FitError", "GlmPcaError", "OracleError", "PostprocessError",
    "Family", "bernoulli", "gaussian", "negative_binomial", "poisson",
    "LoadedMatrix", "read_matrix", "write_result",
    "IndexSets", "ModelState", "build_model", "check_data_matrix",
    "fisher_info", "gradient", "linear_predictor", "objective",
    "predictor_stats",
    "FitConfig", "FitResult", "fit", "full_scoring", "update_column",
    "postprocess", "project_out_covariates",
    "__version__",
]
