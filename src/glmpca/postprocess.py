"""Post-fit transformations that make the latent factors PCA-like.

Three steps, all of which leave the linear predictor R (and hence the
predicted means) unchanged:

1. projection  - move any component of the latent factors lying in the
   span of the covariates into the regression coefficients, so the
   factors become orthogonal to X and Z; runs in place on the model
   state, one covariate side at a time;
2. rotation    - an SVD change of basis so the loadings matrix has
   orthonormal columns;
3. ordering    - permute dimensions by decreasing L2 norm of the factor
   columns (equivalently by variance once the means are zero).

Rotation and ordering take and return raw factor arrays.

No J x N matrix is ever formed here; the work is O(max(L, K_o, K_f)^3)
for the small inversions plus matrix products linear in N and J.
"""

from __future__ import annotations

import numpy as np

from .exceptions import PostprocessError
from .model import ModelState


def project_out_covariates(state: ModelState) -> ModelState:
    """Apply the projection step in place; R is unchanged, and afterwards
    X' U_latent = 0 and Z' V_latent = 0.

    Each design D sits in one factor matrix ("own") and its coefficients
    C in the other ("partner"): X in U with A in V, then Z in V with
    Gamma in U.  With coef = (D'D)^{-1} D' own_latent,

        C          <- C + partner_latent coef'
        own_latent <- own_latent - D coef

    so V U' keeps its value.  The X side runs first, so the Gamma update
    uses the x-projected U_latent.  Both designs are checked for full
    column rank before anything is written.
    """
    idx = state.index
    lat = idx.latent_slice
    sides = [(own, partner, fixed) for own, partner, fixed in
             ((state.U, state.V, idx.obs_slice),
              (state.V, state.U, idx.feat_slice)) if own[:, fixed].size]
    for own, _, fixed in sides:
        if np.linalg.matrix_rank(own[:, fixed]) < own[:, fixed].shape[1]:
            raise PostprocessError(
                "design matrix is rank deficient; cannot project it out")
    for own, partner, fixed in sides:
        design = own[:, fixed]
        coef = np.linalg.solve(design.T @ design, design.T @ own[:, lat])
        partner[:, fixed] += partner[:, lat] @ coef.T
        own[:, lat] -= design @ coef
    return state


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


def postprocess(state: ModelState):
    """Run projection, rotation, and ordering; returns (factors, loadings).

    Mutates the coefficient and latent blocks of ``state`` (projection),
    then derives the rotated, ordered factors from the projected blocks.
    """
    project_out_covariates(state)
    return order_factors(*rotate_factors(state.U_latent, state.V_latent))
