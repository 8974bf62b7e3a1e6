"""Tests for the projection and rotation pipeline."""

import copy
import tracemalloc

import numpy as np
import pytest

import glmpca as g
from glmpca import IndexSets, ModelState, model
from glmpca.postprocess import rotate_factors
import oracle

from conftest import (ALL_FAMILIES, advance, latent_cols, means, noise_start,
                      random_state)


class TestProjection:
    def test_intercept_projection_centers_factors(self):
        state = advance(random_state(g.poisson(), seed=3), 5)
        g.project_out_covariates(state)
        np.testing.assert_allclose(state.U_latent.mean(axis=0), 0.0,
                                   rtol=0, atol=1e-12)

    def test_no_covariates_leaves_state_unchanged(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(5, 11))
        state = noise_start(g.build_model(Y, n_latent=2, family=g.gaussian(),
                                          intercept=False), seed=1)
        u0, v0 = state.U.copy(), state.V.copy()
        g.project_out_covariates(state)
        np.testing.assert_array_equal(state.U, u0)
        np.testing.assert_array_equal(state.V, v0)

    def test_predictor_invariant_on_fitted_poisson_state(self):
        state = advance(random_state(g.poisson(), seed=7, n_feat=6, n_obs=9), 8)
        r_before = model.linear_predictor(state)
        g.project_out_covariates(state)
        r_after = model.linear_predictor(state)
        assert np.abs(r_before - r_after).max() <= 1e-10

    def test_factors_orthogonal_to_covariates(self):
        state = advance(random_state(g.gaussian(), seed=9), 5)
        g.project_out_covariates(state)
        assert np.abs(state.X.T @ state.U_latent).max() <= 1e-10
        assert np.abs(state.Z.T @ state.V_latent).max() <= 1e-10

    def test_idempotent(self):
        state = advance(random_state(g.poisson(), seed=11), 5)
        g.project_out_covariates(state)
        u1, v1 = state.U.copy(), state.V.copy()
        g.project_out_covariates(state)
        assert np.abs(state.U - u1).max() <= 1e-12
        assert np.abs(state.V - v1).max() <= 1e-12

    def test_rank_deficient_design_projects_by_min_norm_least_squares(self):
        # Z repeats a column: the projection still runs, and the
        # minimum-norm solution splits the Z coefficient evenly
        rng = np.random.default_rng(13)
        n_obs, n_feat = 9, 6
        x = np.column_stack([np.ones(n_obs), rng.normal(size=n_obs)])
        z = rng.normal(size=n_feat)
        U = np.hstack([x, rng.normal(size=(n_obs, 3))])
        V = np.hstack([rng.normal(size=(n_feat, 2)), np.column_stack([z, z]),
                       rng.normal(size=(n_feat, 1))])
        state = ModelState(Y=None, family=g.gaussian(), U=U.copy(),
                           V=V.copy(), delta=np.zeros(n_obs), penalty=0.0,
                           index=IndexSets(2, 2, 1))
        r_before = model.linear_predictor(state)
        v_lat = state.V_latent.copy()
        g.project_out_covariates(state)
        assert np.abs(model.linear_predictor(state) - r_before).max() <= 1e-12
        assert np.abs(state.X.T @ state.U_latent).max() <= 1e-12
        assert np.abs(state.Z.T @ state.V_latent).max() <= 1e-12
        # the X side leaves V_latent alone, so the Z side projects v_lat
        half = state.U_latent @ (v_lat.T @ z) / (2 * z @ z)
        gamma_step = state.Gamma - U[:, 2:4]
        np.testing.assert_allclose(gamma_step, np.column_stack([half, half]),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_full_rank_design_matches_normal_equations(self, family):
        state = advance(random_state(family, seed=19, n_obs=12), 5)
        # reference: the unique coef = (D'D)^{-1} D' own_latent of a
        # full-rank design, from the normal equations
        expected = copy.deepcopy(state)
        idx = state.index
        lat = idx.latent_slice
        for own, partner, fixed in ((expected.U, expected.V, idx.obs_slice),
                                    (expected.V, expected.U, idx.feat_slice)):
            design = own[:, fixed]
            coef = np.linalg.solve(design.T @ design, design.T @ own[:, lat])
            partner[:, fixed] += partner[:, lat] @ coef.T
            own[:, lat] -= design @ coef
        g.project_out_covariates(state)
        for got, want in ((state.U, expected.U), (state.V, expected.V)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestRotation:
    def test_orthonormal_and_reconstructing(self):
        rng = np.random.default_rng(11)
        u_til = rng.normal(size=(9, 3))
        v_til = rng.normal(size=(6, 3))
        u_hat, v_hat = rotate_factors(u_til, v_til)
        np.testing.assert_allclose(v_hat.T @ v_hat, np.eye(3), rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(v_hat @ u_hat.T, v_til @ u_til.T,
                                   rtol=0, atol=1e-10)

    def test_single_dimension_normalizes(self):
        rng = np.random.default_rng(13)
        u_til = rng.normal(size=(8, 1))
        v_til = rng.normal(size=(5, 1))
        u_hat, v_hat = rotate_factors(u_til, v_til)
        norm = np.linalg.norm(v_til)
        sign = np.sign(v_til[np.argmax(np.abs(v_til))])
        np.testing.assert_allclose(v_hat, sign * v_til / norm, atol=1e-12)
        np.testing.assert_allclose(u_hat, sign * u_til * norm, atol=1e-12)

    def test_orthonormal_loadings_keep_span_and_product(self):
        # with equal singular values the SVD basis is only determined up
        # to rotation, so assert the determined quantities: orthonormality,
        # span, and the reconstruction
        rng = np.random.default_rng(17)
        v_til = np.linalg.qr(rng.normal(size=(7, 3)))[0]
        u_til = rng.normal(size=(10, 3))
        u_hat, v_hat = rotate_factors(u_til, v_til)
        np.testing.assert_allclose(v_hat @ u_hat.T, v_til @ u_til.T,
                                   rtol=0, atol=1e-10)
        # same column span: projecting onto v_til reproduces v_hat
        np.testing.assert_allclose(v_til @ (v_til.T @ v_hat), v_hat,
                                   rtol=0, atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(23)
        u_hat, v_hat = rotate_factors(rng.normal(size=(9, 3)),
                                      rng.normal(size=(6, 3)))
        for col in range(3):
            peak = np.argmax(np.abs(v_hat[:, col]))
            assert v_hat[peak, col] > 0

    def test_rank_deficient_loadings_zero_out_a_dimension(self):
        rng = np.random.default_rng(29)
        col = rng.normal(size=(6, 1))
        v_til = np.hstack([col, 2.0 * col])  # rank 1
        u_til = rng.normal(size=(9, 2))
        u_hat, v_hat = rotate_factors(u_til, v_til)
        norms = np.linalg.norm(u_hat, axis=0)
        assert norms.min() == 0
        np.testing.assert_allclose(v_hat @ u_hat.T, v_til @ u_til.T,
                                   rtol=0, atol=1e-10)

    def test_centered_factors_stay_centered(self):
        rng = np.random.default_rng(31)
        u_til = rng.normal(size=(9, 3))
        u_til -= u_til.mean(axis=0)
        u_hat, _ = rotate_factors(u_til, rng.normal(size=(6, 3)))
        np.testing.assert_allclose(u_hat.mean(axis=0), 0.0, atol=1e-12)


class TestFullPipeline:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_means_invariant(self, family):
        for seed in range(5):
            state = advance(random_state(family, seed=300 + seed), 6)
            m_before = means(state)
            u_hat, v_hat = g.postprocess(state)
            r_after = (state.A @ state.X.T + state.Z @ state.Gamma.T
                       + v_hat @ u_hat.T + state.delta[None, :])
            m_after = oracle.cellwise(state.family, r_after)[0]
            assert np.abs(m_after - m_before).max() <= 1e-8

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_output_ignores_how_the_product_is_split(self, family):
        # U_l G, V_l G^-T leaves V_l U_l' and so every prediction as it
        # was; the output must not see the difference
        gauge = np.array([[2.0, 0.7, 0.0], [-0.3, 0.5, 0.2], [0.1, 0.0, 1.5]])
        for seed in range(5):
            state = advance(random_state(family, seed=700 + seed,
                                         n_latent=3), 6)
            moved = copy.deepcopy(state)
            lat = moved.index.latent_slice
            moved.U[:, lat] = state.U_latent @ gauge
            moved.V[:, lat] = state.V_latent @ np.linalg.inv(gauge).T
            u_hat, v_hat = g.postprocess(state)
            u_mov, v_mov = g.postprocess(moved)
            np.testing.assert_allclose(v_mov, v_hat, rtol=0, atol=1e-10)
            np.testing.assert_allclose(u_mov, u_hat, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_factors_are_orthogonal(self, family):
        for seed in range(5):
            state = advance(random_state(family, seed=700 + seed,
                                         n_latent=3), 6)
            u_hat, _ = g.postprocess(state)
            gram = u_hat.T @ u_hat
            off_diagonal = gram - np.diag(np.diag(gram))
            assert np.abs(off_diagonal).max() <= 1e-10 * np.diag(gram).min()

    def test_factors_orthogonal_to_covariates_after_pipeline(self):
        state = advance(random_state(g.poisson(), seed=43), 8)
        u_hat, v_hat = g.postprocess(state)
        x_norm = np.linalg.norm(state.X) * np.linalg.norm(u_hat)
        z_norm = np.linalg.norm(state.Z) * np.linalg.norm(v_hat)
        assert np.abs(state.X.T @ u_hat).max() <= 1e-8 * max(x_norm, 1.0)
        assert np.abs(state.Z.T @ v_hat).max() <= 1e-8 * max(z_norm, 1.0)
        np.testing.assert_allclose(u_hat.mean(axis=0), 0.0, atol=1e-10)

    def test_norm_order_equals_variance_order(self):
        state = advance(random_state(g.gaussian(), seed=47, n_latent=3,
                                     n_feat=7, n_obs=12), 6)
        g.project_out_covariates(state)
        u_hat, v_hat = rotate_factors(state.U_latent, state.V_latent)
        norms = np.linalg.norm(u_hat, axis=0)
        stds = u_hat.std(axis=0, ddof=1)
        np.testing.assert_array_equal(np.argsort(-norms, kind="stable"),
                                      np.argsort(-stds, kind="stable"))

    def test_zero_dimension_loading_orthogonal_to_feature_covariates(self):
        # a latent pair held at zero gives a zero singular value; its
        # loading column, which the QR of V_latent alone would complete
        # with any direction, must still be orthogonal to Z
        rng = np.random.default_rng(0)
        Y = rng.poisson(2.0, (12, 30)).astype(float)
        Z = rng.normal(size=(12, 1))
        state = noise_start(g.build_model(Y, n_latent=2, family=g.poisson(),
                                          feat_covariates=Z, penalty=0.0))
        k = latent_cols(state)[-1]
        state.U[:, k] = 0.0
        state.V[:, k] = 0.0
        result = g.fit(state, g.FitConfig(max_iters=20))
        assert not result.factors[:, 1].any() and result.factors[:, 0].any()
        np.testing.assert_allclose(Z.T @ result.loadings, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.loadings.T @ result.loadings,
                                   np.eye(2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            result.loadings @ result.factors.T,
            state.V_latent @ state.U_latent.T, rtol=0, atol=1e-12)

    def test_large_scale_pipeline_allocates_no_data_sized_matrix(self):
        # N = 1e5, J = 1e4, L = 10, two covariates each side: the factor
        # arrays total ~10 MB, while any J x N matrix would need 8 GB
        rng = np.random.default_rng(53)
        n_obs, n_feat, n_latent = 100_000, 10_000, 10
        X = np.column_stack([np.ones(n_obs), rng.normal(size=n_obs)])
        Z = np.column_stack([np.ones(n_feat), rng.normal(size=n_feat)])
        u_til = rng.normal(size=(n_obs, n_latent))
        v_til = rng.normal(size=(n_feat, n_latent))
        coef_a = rng.normal(size=(n_feat, 2))
        coef_g = rng.normal(size=(n_obs, 2))

        sample = rng.integers(0, [n_feat, n_obs], size=(300, 2))

        def predict(u, v, a, gam, rows, cols):
            return (np.sum(a[rows] * X[cols], axis=1)
                    + np.sum(Z[rows] * gam[cols], axis=1)
                    + np.sum(v[rows] * u[cols], axis=1))

        before = predict(u_til, v_til, coef_a, coef_g,
                         sample[:, 0], sample[:, 1])
        state = ModelState(Y=None, family=g.gaussian(),
                           U=np.hstack([X, coef_g, u_til]),
                           V=np.hstack([coef_a, Z, v_til]),
                           delta=np.zeros(n_obs), penalty=0.0,
                           index=IndexSets(2, 2, n_latent))
        tracemalloc.start()
        g.project_out_covariates(state)
        u_hat, v_hat = rotate_factors(state.U_latent, state.V_latent)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 200 * 1024 * 1024  # far below one J x N matrix
        after = predict(u_hat, v_hat, state.A, state.Gamma,
                        sample[:, 0], sample[:, 1])
        assert np.abs(after - before).max() <= 1e-8
        np.testing.assert_allclose(v_hat.T @ v_hat, np.eye(n_latent),
                                   rtol=0, atol=1e-10)
