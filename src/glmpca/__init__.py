"""glmpca: exponential-family principal component analysis.

Factorizes a features-by-observations matrix under a Gaussian, Poisson,
Bernoulli, or negative binomial likelihood, with optional covariates and
per-observation offsets.  Fitting runs penalized Fisher scoring, one
joint step per factor block, U then V, in which every row solves for all
of its updateable columns at once; postprocessing projects covariates
out of the latent factors and takes the SVD of their product, so the
output behaves like PCA scores/loadings.
"""

from .exceptions import (ConfigError, DataError, DomainError, FitError,
                         GlmPcaError)
from .families import Family, bernoulli, gaussian, negative_binomial, poisson
from .io import LoadedMatrix, read_matrix, write_result
# check_data_matrix, which the benchmark calls, stays importable from
# here, outside __all__; the scoring pass and the kernels it runs are
# internals, imported from glmpca.model
from .model import IndexSets, ModelState, build_model, check_data_matrix
from .optimizer import FitConfig, FitResult, fit
from .postprocess import postprocess, project_out_covariates

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "DomainError", "FitError", "GlmPcaError",
    "Family", "bernoulli", "gaussian", "negative_binomial", "poisson",
    "LoadedMatrix", "read_matrix", "write_result",
    "IndexSets", "ModelState", "build_model",
    "FitConfig", "FitResult", "fit",
    "postprocess", "project_out_covariates",
    "__version__",
]
