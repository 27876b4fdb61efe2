"""Inner-loop inference: mirror descent in site form, GD baseline, verifier."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdgpc
from mdgpc import inference, kernels, likelihood, tasks
from mdgpc.errors import InputError
from mdgpc.inference import (
    InnerConfig,
    elbo,
    gd_init,
    gd_step,
    inner_states,
    md_init,
    md_step,
    posterior_from_sites,
    run_inner,
)
from mdgpc.likelihood import GaussianSiteLikelihood, McConfig, SoftmaxLikelihood
from mdgpc.seeding import derive_seed
from mdgpc.verify import ngd_verify, tiny_instance
from oracles import refresh_moments


def toy_grams(seed: int, n: int = 5, c: int = 3, kind: str = "RBF"):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 3))
    base = kernels.BaseKernelConfig(
        kind, length_scale_raw=float(kernels.softplus_inv(2.0))
    )
    return [kernels.gram(base, Z) for _ in range(c)]


def toy_labels(seed: int, n: int, c: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.eye(c)[rng.integers(0, c, size=n)]


def episode_grams(seed: int, shots: int = 5):
    cfg = tasks.TaskGenConfig(n_classes=5, shots=shots, queries=4, dim=8, seed=0)
    ep = tasks.gen_episode(cfg, seed=seed)
    fe = kernels.init_extractor([8, 32, 32, 16], seed=derive_seed(seed, 99))
    Z, _ = kernels.extract(fe, ep.support_x)
    base = kernels.BaseKernelConfig(
        "RBF",
        length_scale_raw=float(kernels.softplus_inv(5.0)),
        output_scale_raw=float(kernels.softplus_inv(4.0)),
    )
    return [kernels.gram(base, Z) for _ in range(5)], ep.support_y


def step_lik(mc: McConfig, t: int, n: int, c: int) -> SoftmaxLikelihood:
    """The draws `inner_states` gives step t of a loop seeded by mc."""
    return SoftmaxLikelihood.from_seed(McConfig(mc.samples, derive_seed(mc.seed, t)), n, c)


class TestInitAndCombine:
    def test_md_init_is_prior(self):
        grams = toy_grams(0)
        state = md_init(grams)
        for mom, g in zip(state.moments, grams):
            np.testing.assert_array_equal(mom.m, np.zeros(5))
            np.testing.assert_allclose(mom.Sigma, g.k_eff, atol=0)
        assert np.all(state.alpha == 0.0) and np.all(state.beta == 0.0)

    def test_built_covariances_are_bitwise_symmetric(self):
        # the precondition for skipping the public constructor's symmetry check
        grams = toy_grams(2)
        Y = toy_labels(2, 5, 3)
        md = md_init(grams)
        gd = gd_init(grams)
        lik = step_lik(McConfig(), 0, 5, 3)
        stepped = [md_step(md, Y, 0.5, lik), gd_step(gd, Y, 0.1, lik)]
        for state in [md, gd, *stepped]:
            for mom in state.moments:
                assert np.array_equal(mom.Sigma, mom.Sigma.T)

    def test_combine_identity_dense(self):
        # posterior precision = prior precision - 2 diag(beta),
        # posterior precision @ mean = alpha
        grams = toy_grams(1)
        Y = toy_labels(2, 5, 3)
        state = md_init(grams)
        cfg = InnerConfig(rho=0.7, steps=1, mc=McConfig(64, 3))
        for step in range(3):
            state = md_step(state, Y, cfg.rho, step_lik(cfg.mc, step, 5, 3))
        for i, g in enumerate(grams):
            prec = np.linalg.inv(g.k_eff) - 2.0 * np.diag(state.beta[i])
            np.testing.assert_allclose(
                prec @ state.moments[i].Sigma, np.eye(5), atol=1e-8
            )
            np.testing.assert_allclose(
                prec @ state.moments[i].m, state.alpha[i], atol=1e-8
            )

    def test_posterior_from_sites_zero_sites(self):
        g = toy_grams(4)[0]
        mom = posterior_from_sites(g, np.zeros(5), np.zeros(5))
        np.testing.assert_allclose(mom.Sigma, g.k_eff, atol=1e-12)
        np.testing.assert_array_equal(mom.m, np.zeros(5))

    def test_beta_stays_nonpositive(self):
        grams = toy_grams(5)
        Y = toy_labels(6, 5, 3)
        state = md_init(grams)
        cfg = InnerConfig(rho=1.0, steps=1, mc=McConfig(32, 7))
        for step in range(10):
            state = md_step(state, Y, cfg.rho, step_lik(cfg.mc, step, 5, 3))
            assert np.all(state.beta <= 0.0)

    def test_refresh_moments_matches_cache(self):
        grams = toy_grams(8)
        Y = toy_labels(9, 5, 3)
        state = md_init(grams)
        cfg = InnerConfig(rho=0.9, steps=1, mc=McConfig(64, 11))
        for step in range(4):
            state = md_step(state, Y, cfg.rho, step_lik(cfg.mc, step, 5, 3))
        refreshed = refresh_moments(state)
        for a, b in zip(state.moments, refreshed.moments):
            np.testing.assert_allclose(a.m, b.m, atol=1e-10)
            np.testing.assert_allclose(a.Sigma, b.Sigma, atol=1e-10)

    def test_bad_labels_rejected(self):
        grams = toy_grams(10)
        cfg = InnerConfig(rho=1.0, steps=1, mc=McConfig(8, 0))
        with pytest.raises(InputError, match="one-hot"):
            next(inner_states("MD", grams, np.full((5, 3), 0.5), cfg))


class TestConjugateLimit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_full_step_lands_on_conjugate_posterior(self, seed):
        rng = np.random.default_rng(seed)
        grams = toy_grams(seed, n=4, c=2)
        a = rng.standard_normal((4, 2))
        b = -0.1 - 0.5 * rng.random((4, 2))
        lik = GaussianSiteLikelihood(a, b)
        Y = toy_labels(seed, 4, 2)
        state = md_step(md_init(grams), Y, 1.0, lik)
        for i, g in enumerate(grams):
            prec = np.linalg.inv(g.k_eff) - 2.0 * np.diag(b[:, i])
            sigma = np.linalg.inv(prec)
            np.testing.assert_allclose(state.moments[i].Sigma, sigma, atol=1e-8)
            np.testing.assert_allclose(state.moments[i].m, sigma @ a[:, i], atol=1e-8)

    def test_fixed_point_once_converged(self):
        # with constant mean-parameter gradients the conjugate posterior is
        # a fixed point for every rate
        rng = np.random.default_rng(3)
        grams = toy_grams(3, n=4, c=2)
        lik = GaussianSiteLikelihood(
            rng.standard_normal((4, 2)), -0.2 - rng.random((4, 2))
        )
        Y = toy_labels(3, 4, 2)
        state = md_step(md_init(grams), Y, 1.0, lik)
        again = md_step(state, Y, 0.3, lik)
        for a, b in zip(state.moments, again.moments):
            np.testing.assert_allclose(a.m, b.m, atol=1e-10)
            np.testing.assert_allclose(a.Sigma, b.Sigma, atol=1e-10)


class TestGdBaseline:
    def test_gd_init_is_prior(self):
        grams = toy_grams(11)
        state = gd_init(grams)
        for mom, g in zip(state.moments, grams):
            np.testing.assert_array_equal(mom.m, np.zeros(5))
            np.testing.assert_allclose(mom.Sigma, g.k_eff, atol=1e-10)

    def test_gd_step_follows_elbo_gradient(self):
        # recover the implied gradient from one small step and compare with
        # central finite differences of the deterministic objective
        rng = np.random.default_rng(12)
        n, c = 4, 2
        grams = toy_grams(12, n=n, c=c)
        lik = GaussianSiteLikelihood(
            rng.standard_normal((n, c)), -0.1 - rng.random((n, c))
        )
        Y = toy_labels(12, n, c)
        lr = 1e-7
        state = gd_init(grams)
        # move off the prior first so gradients are nonzero
        for _ in range(2):
            state = gd_step(state, Y, 0.05, lik)
        stepped = gd_step(state, Y, lr, lik)

        def objective(m_list, chol_list):
            trial = inference.GdState(
                m_list=[m.copy() for m in m_list],
                chol_list=[L.copy() for L in chol_list],
                prior=state.prior,
            )
            return elbo(trial.moments, trial.prior, Y, lik)

        h = 1e-5
        for i in range(c):
            g_m = (stepped.m_list[i] - state.m_list[i]) / lr
            for j in range(n):
                up = [m.copy() for m in state.m_list]
                dn = [m.copy() for m in state.m_list]
                up[i][j] += h
                dn[i][j] -= h
                fd = (
                    objective(up, state.chol_list) - objective(dn, state.chol_list)
                ) / (2 * h)
                assert g_m[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)
            L = state.chol_list[i]
            L2 = stepped.chol_list[i]
            for r in range(n):
                for s in range(r + 1):
                    if r == s:
                        implied = np.log(L2[r, r] / L[r, r]) / lr
                    else:
                        implied = (L2[r, s] - L[r, s]) / lr
                    up = [M.copy() for M in state.chol_list]
                    dn = [M.copy() for M in state.chol_list]
                    if r == s:
                        up[i][r, r] = L[r, r] * np.exp(h)
                        dn[i][r, r] = L[r, r] * np.exp(-h)
                    else:
                        up[i][r, s] += h
                        dn[i][r, s] -= h
                    fd = (
                        objective(state.m_list, up) - objective(state.m_list, dn)
                    ) / (2 * h)
                    assert implied == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestRunInner:
    def test_trace_structure(self):
        grams, Y = episode_grams(100)
        cfg = InnerConfig(rho=0.5, steps=6, mc=McConfig(32, 5))
        state, elbos = run_inner("MD", grams, Y, cfg)
        lik = SoftmaxLikelihood.from_seed(cfg.mc, *Y.shape)
        assert len(elbos) == 7
        assert all(isinstance(v, float) and np.isfinite(v) for v in elbos)
        assert elbos[0] == elbo(md_init(grams).moments, grams, Y, lik)
        assert elbos[-1] == elbo(state.moments, grams, Y, lik)

    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_draw_schedule(self, method):
        # step t draws from derive_seed(mc.seed, t); the ELBOs share the draws of mc
        grams, Y = episode_grams(104)
        cfg = InnerConfig(rho=0.05, steps=4, mc=McConfig(32, 13))
        n, c = Y.shape
        step_fn = md_step if method == "MD" else gd_step
        states = list(inner_states(method, grams, Y, cfg))
        assert len(states) == cfg.steps + 1
        for t in range(1, cfg.steps + 1):
            want = step_fn(states[t - 1], Y, cfg.rho, step_lik(cfg.mc, t, n, c))
            got = states[t]
            if method == "MD":
                np.testing.assert_array_equal(got.alpha, want.alpha)
                np.testing.assert_array_equal(got.beta, want.beta)
            else:
                for a, b in zip(got.chol_list + got.m_list, want.chol_list + want.m_list):
                    np.testing.assert_array_equal(a, b)
            for a, b in zip(got.moments, want.moments):
                np.testing.assert_array_equal(a.m, b.m)
                np.testing.assert_array_equal(a.Sigma, b.Sigma)
        _, elbos = run_inner(method, grams, Y, cfg)
        lik = SoftmaxLikelihood.from_seed(cfg.mc, n, c)
        assert elbos == [elbo(st.moments, grams, Y, lik) for st in states]

    def test_unknown_method(self):
        grams, Y = episode_grams(101)
        with pytest.raises(InputError, match="unknown inner method"):
            run_inner("SGD", grams, Y, InnerConfig(rho=0.5, steps=1, mc=McConfig(8, 0)))

    def test_deterministic(self):
        grams, Y = episode_grams(102)
        cfg = InnerConfig(rho=0.5, steps=4, mc=McConfig(32, 9))
        _, t1 = run_inner("MD", grams, Y, cfg)
        _, t2 = run_inner("MD", grams, Y, cfg)
        assert t1 == t2

    def test_elbo_at_prior_has_zero_kl(self):
        grams, Y = episode_grams(103)
        state = md_init(grams)
        mc = McConfig(64, 3)
        lik = likelihood.SoftmaxLikelihood.from_seed(mc, Y.shape[0], Y.shape[1])
        m, v = inference.marginal_mats(state.moments)
        assert elbo(state.moments, grams, Y, lik) == pytest.approx(
            lik.expected_loglik(m, v, Y), abs=1e-10
        )

    def test_elbo_monotone_under_small_rate_and_many_samples(self):
        # statistical property: with rho = 0.5 and 2048 draws the trace is
        # nondecreasing up to the sampling noise floor on >= 90% of episodes
        ok = 0
        for s in range(20):
            grams, Y = episode_grams(4000 + s)
            cfg = InnerConfig(
                rho=0.5, steps=15, mc=McConfig(2048, derive_seed(11, 4000 + s))
            )
            _, elbos = run_inner("MD", grams, Y, cfg)
            diffs = np.diff(elbos)
            ok += bool(np.all(diffs >= -5e-3))
        assert ok >= 18


class TestNgdEquivalence:
    def test_direction_matches_fisher_preconditioned_gradient(self):
        worst = 0.0
        for i in range(5):
            grams, Y = tiny_instance(200 + i)
            report = ngd_verify(grams, Y)
            worst = max(worst, report["deviation"])
        assert worst <= 1e-3

    def test_direction_invariant_to_rate(self):
        grams, Y = tiny_instance(300)
        report = ngd_verify(grams, Y)
        assert report["rho_deviation"] <= 1e-9

    def test_multiclass_requires_explicit_likelihood(self):
        grams = toy_grams(301, n=3, c=3)
        Y = toy_labels(301, 3, 3)
        with pytest.raises(InputError, match="binary case only"):
            ngd_verify(grams, Y)

    def test_gaussian_likelihood_direction_reaches_conjugate_target(self):
        # with constant site gradients, the natural-gradient direction from
        # the prior is exactly the conjugate site target
        rng = np.random.default_rng(302)
        grams = toy_grams(302, n=3, c=2)
        a = rng.standard_normal((3, 2))
        b = -0.2 - 0.3 * rng.random((3, 2))
        lik = GaussianSiteLikelihood(a, b)
        Y = toy_labels(302, 3, 2)
        report = ngd_verify(grams, Y, lik=lik, warmup_steps=0)
        assert report["deviation"] <= 1e-3


def test_runtime_modules_do_not_import_verify():
    # the verification layer sits on top of the runtime core, never inside it
    code = (
        "import sys, mdgpc.inference, mdgpc.model, mdgpc.meta; "
        "assert 'mdgpc.verify' not in sys.modules"
    )
    src = str(Path(mdgpc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
