"""Post-fit transformations that make the latent factors PCA-like.

Three steps, all of which leave the linear predictor R (and hence the
predicted means) unchanged:

1. projection  - move any component of the latent factors lying in the
   span of the covariates into the regression coefficients, so the
   factors become orthogonal to X and Z;
2. rotation    - an SVD change of basis so the loadings matrix has
   orthonormal columns;
3. ordering    - permute dimensions by decreasing L2 norm of the factor
   columns (equivalently by variance once the means are zero).

No J x N matrix is ever formed here; the work is O(max(L, K_o, K_f)^3)
for the small inversions plus matrix products linear in N and J.
"""

from __future__ import annotations

import numpy as np

from .exceptions import PostprocessError
from .model import ModelState


class Projector:
    """Orthogonal projector onto the column span of a design matrix.

    Applied implicitly through the (X'X)^{-1} factors, so the n x n
    matrix is never formed.  A missing or empty design yields the zero
    projector.
    """

    def __init__(self, design: np.ndarray | None):
        if design is None or design.size == 0:
            self.design = None
            self.gram = None
            return
        design = np.asarray(design, dtype=float)
        gram = design.T @ design
        if np.linalg.matrix_rank(design) < design.shape[1]:
            raise PostprocessError(
                "design matrix is rank deficient; cannot project it out"
            )
        self.design = design
        self.gram = gram

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """P @ mat."""
        if self.design is None:
            return np.zeros_like(mat)
        return self.design @ np.linalg.solve(self.gram, self.design.T @ mat)

    def complement(self, mat: np.ndarray) -> np.ndarray:
        """(I - P) @ mat."""
        if self.design is None:
            return mat.copy()
        return mat - self.apply(mat)


def project_factors(u_latent, v_latent, coef_a, coef_gamma, X, Z):
    """Projection step on raw arrays; returns the four updated blocks.

    The coefficient updates absorb exactly what the projections remove,
    so V U' is unchanged:

        A     <- A + V~ U~' X (X'X)^{-1}
        Gamma <- Gamma + (I - P_x) U~ V~' Z (Z'Z)^{-1}
        U~    <- (I - P_x) U~
        V~    <- (I - P_z) V~

    The A update uses the pre-projection factors; the Gamma update uses
    the x-projected factors.  All right-hand sides are evaluated before
    anything is overwritten.
    """
    px = Projector(X)
    pz = Projector(Z)
    if px.design is not None:
        coef_a = coef_a + v_latent @ np.linalg.solve(
            px.gram, px.design.T @ u_latent).T
    else:
        coef_a = coef_a.copy()
    u_proj = px.complement(u_latent)
    if pz.design is not None:
        coef_gamma = coef_gamma + u_proj @ np.linalg.solve(
            pz.gram, pz.design.T @ v_latent).T
    else:
        coef_gamma = coef_gamma.copy()
    v_proj = pz.complement(v_latent)
    return u_proj, v_proj, coef_a, coef_gamma


def rotate_factors(u_latent: np.ndarray, v_latent: np.ndarray):
    """Rotation step on raw arrays: orthonormalize the loadings.

    With the SVD V~' = F diag(d) Vhat', the new loadings Vhat have
    orthonormal columns and Uhat = U~ F diag(d) keeps the product
    Vhat Uhat' = V~ U~'.  Zero singular values (rank-deficient loadings)
    produce all-zero factor columns, which is legal and left to the
    caller to flag.  Signs are fixed so each loading column's largest
    absolute entry is positive.
    """
    f_rot, sing, vh = np.linalg.svd(v_latent.T, full_matrices=False)
    v_hat = vh.T
    u_hat = (u_latent @ f_rot) * sing[None, :]
    signs = np.sign(v_hat[np.argmax(np.abs(v_hat), axis=0),
                          np.arange(v_hat.shape[1])])
    signs[signs == 0] = 1.0
    return u_hat * signs[None, :], v_hat * signs[None, :]


def order_factors(u_hat: np.ndarray, v_hat: np.ndarray):
    """Ordering step: joint column permutation by decreasing factor norm.

    Stable on ties, so equal-norm columns keep their relative order, and
    applying the step twice is a no-op.
    """
    norms = np.linalg.norm(u_hat, axis=0)
    order = np.argsort(-norms, kind="stable")
    return u_hat[:, order], v_hat[:, order]


# ----------------------------------------------------------------------
# on the model state


def project_out_covariates(state: ModelState) -> ModelState:
    """Apply the projection step in place; R is unchanged, and afterwards
    X' U_latent = 0 and Z' V_latent = 0."""
    idx = state.index
    u_proj, v_proj, coef_a, coef_gamma = project_factors(
        state.U_latent, state.V_latent, state.A, state.Gamma,
        state.X if idx.n_obs_cov else None,
        state.Z if idx.n_feat_cov else None,
    )
    state.V[:, idx.obs_slice] = coef_a
    state.U[:, idx.feat_slice] = coef_gamma
    state.U[:, idx.latent_slice] = u_proj
    state.V[:, idx.latent_slice] = v_proj
    return state


def postprocess(state: ModelState):
    """Run projection, rotation, and ordering; returns (factors, loadings).

    Mutates the coefficient and latent blocks of ``state`` (projection),
    then derives the rotated, ordered factors from the projected blocks.
    """
    project_out_covariates(state)
    return order_factors(*rotate_factors(state.U_latent, state.V_latent))
