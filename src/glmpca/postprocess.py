"""Post-fit transformations that make the latent factors PCA-like.

Two steps, both of which leave the linear predictor R (and hence the
predicted means) unchanged:

1. projection  - move any component of the latent factors lying in the
   span of the covariates into the regression coefficients, so the
   factors become orthogonal to X and Z; runs in place on the model
   state, one covariate side at a time, by least squares, so it has an
   answer for every design, rank-deficient ones included;
2. rotation    - the truncated SVD of the latent product: orthonormal
   loadings, and orthogonal factors in decreasing norm (equivalently
   by variance once the means are zero).  It depends only on the
   product, not on how the fit split it between U and V, so an
   unpenalized Gaussian fit with an intercept returns PCA's own
   loadings and scores.  It takes and returns raw factor arrays.

No J x N matrix is ever formed here; the work is O((J + N) K^2), with
K = max(L, K_o, K_f).
"""

from __future__ import annotations

import numpy as np

from .model import ModelState, negligible


def project_out_covariates(state: ModelState) -> ModelState:
    """Apply the projection step in place; R is unchanged, and afterwards
    X' U_latent = 0 and Z' V_latent = 0.

    Each design D sits in one factor matrix ("own") and its coefficients
    C in the other ("partner"): X in U with A in V, then Z in V with
    Gamma in U.  With coef a least-squares solution of D coef = own_latent,

        C          <- C + partner_latent coef'
        own_latent <- own_latent - D coef

    so V U' keeps its value for any such coef, and D' own_latent = 0
    afterwards by the normal equations.  ``lstsq`` returns the
    minimum-norm solution, dropping the design's singular values that
    model.negligible calls rounding, the rank rule build_model applies
    to designs; on a full-rank design that is the unique solution.  The X
    side runs first, so the Gamma update uses the x-projected U_latent.
    """
    idx = state.index
    lat = idx.latent_slice
    for own, partner, fixed in ((state.U, state.V, idx.obs_slice),
                                (state.V, state.U, idx.feat_slice)):
        design = own[:, fixed]
        if not design.size:
            continue
        coef = np.linalg.lstsq(design, own[:, lat], rcond=None)[0]
        partner[:, fixed] += partner[:, lat] @ coef.T
        own[:, lat] -= design @ coef
    return state


def rotate_factors(u_latent: np.ndarray, v_latent: np.ndarray,
                   z: np.ndarray | None = None):
    """Rotation on raw arrays: the truncated SVD of V~ U~', without
    forming that J x N product.

    With thin QR factorizations U~ = Q_u R_u, V~ = Q_v R_v and the L x L
    SVD R_v R_u' = P diag(s) W', the loadings Vhat = Q_v P are
    orthonormal and the factors Uhat = Q_u W diag(s) orthogonal, in
    decreasing norm s, with Vhat Uhat' = V~ U~'.  Singular values that
    are rounding for the J x N product (model.negligible) are set to
    zero.  A zero singular value gives an all-zero factor column, which
    is legal and left to the caller to flag.  Its loading column, which
    Q_v P fills with any direction, is refilled from the QR of [z |
    other loadings | those columns], so it is orthogonal to the columns
    of ``z`` (Z, to which the projection made V~ orthogonal) and the
    loadings stay orthonormal.  Signs are fixed so each loading column's
    largest absolute entry is positive.
    """
    q_u, r_u = np.linalg.qr(u_latent)
    q_v, r_v = np.linalg.qr(v_latent)
    p_rot, sing, w_rot_t = np.linalg.svd(r_v @ r_u.T)
    zero = negligible(sing, len(v_latent), len(u_latent))
    sing[zero] = 0.0
    v_hat = q_v @ p_rot
    if zero.any():
        design = np.empty((len(v_hat), 0)) if z is None else z
        v_hat[:, zero] = np.linalg.qr(np.hstack(
            [design, v_hat[:, ~zero], v_hat[:, zero]]))[0][:, -zero.sum():]
    signs = np.sign(v_hat[np.argmax(np.abs(v_hat), axis=0),
                          np.arange(v_hat.shape[1])])
    return (q_u @ w_rot_t.T) * (sing * signs), v_hat * signs


def postprocess(state: ModelState):
    """Run projection, then rotation; returns (factors, loadings).

    Mutates the coefficient and latent blocks of ``state`` (projection),
    then derives the factors and loadings from the projected blocks.
    """
    project_out_covariates(state)
    return rotate_factors(state.U_latent, state.V_latent, state.Z)
