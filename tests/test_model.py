"""Episode fitting and query prediction."""

import numpy as np
import pytest

from mdgpc import inference, kernels, model, tasks
from mdgpc.errors import InputError
from mdgpc.inference import InnerConfig
from mdgpc.seeding import derive_seed
from mdgpc.likelihood import normal_draws
from oracles import dense_moments, step_nodes


def make_kernel(c: int = 5, seed: int = 0, dim: int = 8) -> kernels.DeepKernel:
    fe = kernels.init_extractor([dim, 32, 32, 16], seed=derive_seed(seed, 99))
    base = kernels.BaseKernels.at_scales("RBF", c, length_scale=5.0, output_scale=4.0)
    return kernels.DeepKernel(extractor=fe, base=base)


def make_episode(seed: int, shots: int = 5):
    cfg = tasks.TaskGenConfig(n_classes=5, shots=shots, queries=6, dim=8)
    return tasks.gen_episode(cfg, seed=seed)


class TestPriorPredictive:
    def test_zero_sites_give_prior_variance(self):
        kern = make_kernel()
        ep = make_episode(1)
        fit = model.fit_episode(
            kern, ep.support_x, ep.support_y, InnerConfig(rho=1.0, steps=0), step_nodes(0, 64, 5)
        )
        mu, var = model.predict_latent(fit, ep.query_x)
        Zq, _ = kernels.extract(kern.extractor, ep.query_x)
        np.testing.assert_array_equal(mu, np.zeros_like(mu))
        prior_diag = kernels.gram_diag(kern.base, Zq)
        for c in range(5):
            np.testing.assert_allclose(var[c], prior_diag[c], atol=1e-10)

    def test_gd_state_also_starts_at_prior(self):
        kern = make_kernel()
        ep = make_episode(2)
        fit = model.fit_episode(
            kern,
            ep.support_x,
            ep.support_y,
            InnerConfig(rho=0.1, steps=0),
            step_nodes(0, 64, 5),
            method="GD",
        )
        mu, var = model.predict_latent(fit, ep.query_x)
        Zq, _ = kernels.extract(kern.extractor, ep.query_x)
        np.testing.assert_allclose(mu, np.zeros_like(mu), atol=1e-10)
        prior_diag = kernels.gram_diag(kern.base, Zq)
        for c in range(5):
            np.testing.assert_allclose(var[c], prior_diag[c], atol=1e-8)


class TestConditioning:
    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_site_form_matches_dense_formula(self, method):
        # mu* = k*' K^{-1} m,  var* = k** - k*' K^{-1} k* + k*' K^{-1} S K^{-1} k*
        # for either posterior representation, after steps have moved q
        kern = make_kernel()
        ep = make_episode(3)
        rho = 0.7 if method == "MD" else 0.05
        cfg = InnerConfig(rho=rho, steps=4, samples=64)
        fit = model.fit_episode(
            kern, ep.support_x, ep.support_y, cfg, step_nodes(5, cfg.samples, 5), method=method
        )
        assert not np.allclose(fit.state.m[0], 0.0)
        mu, var = model.predict_latent(fit, ep.query_x)
        Zq, _ = kernels.extract(kern.extractor, ep.query_x)
        Sigma = dense_moments(fit.state)[1]
        kxs = kernels.cross_gram(kern.base, Zq, fit.features, center=fit.grams.center)
        kdiags = kernels.gram_diag(kern.base, Zq)
        for c in range(5):
            kx, kdiag = kxs[c], kdiags[c]
            Kinv = np.linalg.inv(fit.grams.k_eff[c])
            mu_dense = kx @ Kinv @ fit.state.m[c]
            var_dense = (
                kdiag
                - np.einsum("ij,jk,ik->i", kx, Kinv, kx)
                + np.einsum("ij,jk,ik->i", kx @ Kinv, Sigma[c], kx @ Kinv)
            )
            np.testing.assert_allclose(mu[c], mu_dense, atol=1e-8)
            np.testing.assert_allclose(var[c], var_dense, atol=1e-8)

    def test_variances_stay_positive(self):
        kern = make_kernel()
        for s in range(3):
            ep = make_episode(10 + s)
            cfg = InnerConfig(rho=1.0, steps=6, samples=64)
            fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, step_nodes(s, 64, 5))
            _, var = model.predict_latent(fit, ep.query_x)
            assert np.all(var > 0.0)


class TestLabelProbs:
    def test_rows_sum_to_one_and_labels_argmax(self):
        kern = make_kernel()
        ep = make_episode(20)
        cfg = InnerConfig(rho=1.0, steps=3, samples=64)
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, step_nodes(7, 64, 5))
        probs = model.predict_labels(fit, ep.query_x, normal_draws(9, (256, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_fewer_than_one_sample_rejected(self):
        kern = make_kernel()
        ep = make_episode(22)
        cfg = InnerConfig(steps=1)
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, step_nodes(7, 64, 5))
        with pytest.raises(InputError, match="samples must be >= 1, got 0"):
            model.predict_labels(fit, ep.query_x, normal_draws(9, (0, 5)))

    def test_indistinguishable_classes_predict_uniform(self):
        # every class gets the same support rows, so the task carries no
        # label information and probabilities should be near 1/C
        rng = np.random.default_rng(21)
        c, shots, dim = 5, 4, 8
        block = rng.standard_normal((shots, dim))
        support_x = np.tile(block, (c, 1))
        support_y = np.repeat(np.eye(c), shots, axis=0)
        query_x = rng.standard_normal((6, dim))
        kern = make_kernel(c=c, seed=3, dim=dim)
        cfg = InnerConfig(rho=0.8, steps=5, samples=512)
        fit = model.fit_episode(kern, support_x, support_y, cfg, step_nodes(11, 512, c))
        probs = model.predict_labels(fit, query_x, normal_draws(13, (4096, c)))
        np.testing.assert_allclose(probs, 1.0 / c, atol=0.05)


class TestFitOptions:
    def test_fit_final_state_matches_run_inner(self):
        kern = make_kernel()
        ep = make_episode(30)
        cfg = InnerConfig(rho=0.6, steps=4, samples=32)
        nodes = step_nodes(3, 32, 5)
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, nodes)
        state, elbos = inference.run_inner(
            "MD", fit.grams, ep.support_y, cfg, nodes, normal_draws(3, (32, 5))
        )
        assert len(elbos) == 5
        np.testing.assert_array_equal(fit.state.alpha, state.alpha)
        np.testing.assert_array_equal(fit.state.beta, state.beta)

    @pytest.mark.parametrize("coarse_steps", [0, 20])
    def test_fit_records_the_steps_its_loop_took(self, coarse_steps):
        # a settled coarse stage ends early, so the loop may take fewer steps
        kern = make_kernel()
        ep = make_episode(32)
        cfg = InnerConfig(rho=0.5, steps=40, samples=512, coarse_steps=coarse_steps)
        nodes = step_nodes(4, 512, 5)
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, nodes)
        grams = kernels.gram(kern.base, kernels.extract(kern.extractor, ep.support_x)[0])
        states = inference.inner_states("MD", grams, ep.support_y, cfg, nodes)
        assert fit.steps == len(list(states)) - 1
        assert (fit.steps == cfg.steps) == (coarse_steps == 0)

    def test_label_shape_mismatch_rejected(self):
        kern = make_kernel()
        ep = make_episode(31)
        with pytest.raises(InputError, match="support labels shape"):
            model.fit_episode(
                kern, ep.support_x, ep.support_y[:, :3], InnerConfig(steps=0), step_nodes(0, 64, 5)
            )
