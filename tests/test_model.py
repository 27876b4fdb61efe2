"""Episode fitting and query prediction."""

import numpy as np
import pytest

from mdgpc import inference, kernels, model, tasks
from mdgpc.errors import InputError
from mdgpc.inference import InnerConfig
from mdgpc.likelihood import McConfig
from mdgpc.seeding import derive_seed


def make_kernel(c: int = 5, seed: int = 0, dim: int = 8) -> kernels.DeepKernel:
    fe = kernels.init_extractor([dim, 32, 32, 16], seed=derive_seed(seed, 99))
    base = [
        kernels.BaseKernelConfig(
            "RBF",
            length_scale_raw=float(kernels.softplus_inv(5.0)),
            output_scale_raw=float(kernels.softplus_inv(4.0)),
        )
        for _ in range(c)
    ]
    return kernels.DeepKernel(extractor=fe, base=base)


def make_episode(seed: int, shots: int = 5):
    cfg = tasks.TaskGenConfig(n_classes=5, shots=shots, queries=6, dim=8, seed=0)
    return tasks.gen_episode(cfg, seed=seed)


class TestPriorPredictive:
    def test_zero_sites_give_prior_variance(self):
        kern = make_kernel()
        ep = make_episode(1)
        fit = model.fit_episode(
            kern, ep.support_x, ep.support_y, InnerConfig(rho=1.0, steps=0)
        )
        mu, var = model.predict_latent(fit, ep.query_x)
        Zq, _ = kernels.extract(kern.extractor, ep.query_x)
        np.testing.assert_array_equal(mu, np.zeros_like(mu))
        for c in range(5):
            prior_diag = kernels.gram_diag(kern.base[c], Zq, center=fit.grams[c].center)
            np.testing.assert_allclose(var[:, c], prior_diag, atol=1e-10)

    def test_gd_state_also_starts_at_prior(self):
        kern = make_kernel()
        ep = make_episode(2)
        fit = model.fit_episode(
            kern, ep.support_x, ep.support_y, InnerConfig(rho=0.1, steps=0), method="GD"
        )
        mu, var = model.predict_latent(fit, ep.query_x)
        Zq, _ = kernels.extract(kern.extractor, ep.query_x)
        np.testing.assert_allclose(mu, np.zeros_like(mu), atol=1e-10)
        for c in range(5):
            prior_diag = kernels.gram_diag(kern.base[c], Zq, center=fit.grams[c].center)
            np.testing.assert_allclose(var[:, c], prior_diag, atol=1e-8)


class TestConditioning:
    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_site_form_matches_dense_formula(self, method):
        # mu* = k*' K^{-1} m,  var* = k** - k*' K^{-1} k* + k*' K^{-1} S K^{-1} k*
        # for either posterior representation, after steps have moved q
        kern = make_kernel()
        ep = make_episode(3)
        rho = 0.7 if method == "MD" else 0.05
        cfg = InnerConfig(rho=rho, steps=4, mc=McConfig(64, 5))
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, method=method)
        assert not np.allclose(fit.state.moments[0].m, 0.0)
        mu, var = model.predict_latent(fit, ep.query_x)
        Zq, _ = kernels.extract(kern.extractor, ep.query_x)
        for c in range(5):
            g = fit.grams[c]
            kx = kernels.cross_gram(kern.base[c], Zq, fit.features, center=g.center)
            kdiag = kernels.gram_diag(kern.base[c], Zq, center=g.center)
            Kinv = np.linalg.inv(g.k_eff)
            mom = fit.state.moments[c]
            mu_dense = kx @ Kinv @ mom.m
            var_dense = (
                kdiag
                - np.einsum("ij,jk,ik->i", kx, Kinv, kx)
                + np.einsum("ij,jk,ik->i", kx @ Kinv, mom.Sigma, kx @ Kinv)
            )
            np.testing.assert_allclose(mu[:, c], mu_dense, atol=1e-8)
            np.testing.assert_allclose(var[:, c], var_dense, atol=1e-8)

    def test_variances_stay_positive(self):
        kern = make_kernel()
        for s in range(3):
            ep = make_episode(10 + s)
            cfg = InnerConfig(rho=1.0, steps=6, mc=McConfig(64, s))
            fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg)
            _, var = model.predict_latent(fit, ep.query_x)
            assert np.all(var > 0.0)


class TestLabelProbs:
    def test_rows_sum_to_one_and_labels_argmax(self):
        kern = make_kernel()
        ep = make_episode(20)
        cfg = InnerConfig(rho=1.0, steps=3, mc=McConfig(64, 7))
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg)
        pred = model.predict_labels(fit, ep.query_x, McConfig(256, 9))
        np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(pred.labels, np.argmax(pred.probs, axis=1))

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
        cfg = InnerConfig(rho=0.8, steps=5, mc=McConfig(512, 11))
        fit = model.fit_episode(kern, support_x, support_y, cfg)
        pred = model.predict_labels(fit, query_x, McConfig(4096, 13))
        np.testing.assert_allclose(pred.probs, 1.0 / c, atol=0.05)


class TestFitOptions:
    def test_fit_final_state_matches_run_inner(self):
        kern = make_kernel()
        ep = make_episode(30)
        cfg = InnerConfig(rho=0.6, steps=4, mc=McConfig(32, 3))
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg)
        state, elbos = inference.run_inner("MD", fit.grams, ep.support_y, cfg)
        assert len(elbos) == 5
        np.testing.assert_array_equal(fit.state.alpha, state.alpha)
        np.testing.assert_array_equal(fit.state.beta, state.beta)

    def test_label_shape_mismatch_rejected(self):
        kern = make_kernel()
        ep = make_episode(31)
        with pytest.raises(InputError, match="support labels shape"):
            model.fit_episode(
                kern, ep.support_x, ep.support_y[:, :3], InnerConfig(steps=0)
            )
