"""Inner-loop inference: mirror descent in site form, GD baseline, verifier."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdgpc
import mdgpc.cli
from mdgpc import inference, kernels, likelihood, model, tasks
from mdgpc.errors import InputError
from mdgpc.expfam import spd_cholesky
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
from mdgpc.likelihood import SoftmaxLikelihood, normal_draws
from mdgpc.seeding import derive_seed
from mdgpc.verify import GaussianSiteLikelihood, chol_solve, ngd_verify, tiny_instance
from oracles import (
    dense_moments,
    scipy_factor_kl,
    scipy_gd_step,
    scipy_spd_cholesky,
    stack_priors,
    step_nodes,
)


def toy_grams(seed: int, n: int = 5, c: int = 3, kind: str = "RBF"):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, 3))
    return kernels.gram(kernels.BaseKernels.at_scales(kind, c, length_scale=2.0), Z)


def toy_labels(seed: int, n: int, c: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.eye(c)[rng.integers(0, c, size=n)]


def episode_grams(seed: int, shots: int = 5, output_scale: float = 4.0):
    cfg = tasks.TaskGenConfig(n_classes=5, shots=shots, queries=4, dim=8)
    ep = tasks.gen_episode(cfg, seed=seed)
    fe = kernels.init_extractor([8, 32, 32, 16], seed=derive_seed(seed, 99))
    Z, _ = kernels.extract(fe, ep.support_x)
    base = kernels.BaseKernels.at_scales("RBF", 5, length_scale=5.0, output_scale=output_scale)
    return kernels.gram(base, Z), ep.support_y


def seeded_lik(samples: int, seed: int, t: int, c: int) -> SoftmaxLikelihood:
    """The `samples`-node set of seed derive_seed(seed, t). Every step of an
    inner loop at draw seed `seed` reads the set of t = 1 (`step_nodes`)."""
    return SoftmaxLikelihood(normal_draws(derive_seed(seed, t), (samples, c)))


def run_seeded(method: str, grams, Y: np.ndarray, cfg: InnerConfig, seed: int):
    """run_inner on the step set and the scoring set of draw seed `seed`, as
    meta.compare_inner draws them."""
    c = Y.shape[1]
    score_nodes = normal_draws(seed, (cfg.samples, c))
    return run_inner(method, grams, Y, cfg, step_nodes(seed, cfg.samples, c), score_nodes)


class TestInitAndCombine:
    def test_md_init_is_prior(self):
        grams = toy_grams(0)
        state = md_init(grams)
        for m, v, K in zip(state.m, state.v, grams.k_eff):
            np.testing.assert_array_equal(m, np.zeros(5))
            np.testing.assert_allclose(v, np.diag(K), atol=0)
        np.testing.assert_array_equal(state.kl, np.zeros(3))
        np.testing.assert_array_equal(state.u, np.zeros((3, 5)))
        np.testing.assert_array_equal(state.binv, np.broadcast_to(np.eye(5), (3, 5, 5)))
        assert np.all(state.alpha == 0.0) and np.all(state.beta == 0.0)

    def test_combine_identity_dense(self):
        # posterior precision = prior precision - 2 diag(beta),
        # posterior precision @ mean = alpha
        grams = toy_grams(1)
        Y = toy_labels(2, 5, 3)
        state = md_init(grams)
        cfg = InnerConfig(rho=0.7, steps=1, samples=64)
        for step in range(3):
            state = md_step(state, Y, cfg.rho, seeded_lik(cfg.samples, 3, step, 3))
        _, core = state.kinv_terms()
        for i, K in enumerate(grams.k_eff):
            prec = np.linalg.inv(K) - 2.0 * np.diag(state.beta[i])
            Sigma = K - K @ core[i] @ K
            np.testing.assert_allclose(prec @ Sigma, np.eye(5), atol=1e-8)
            np.testing.assert_allclose(np.diag(Sigma), state.v[i], atol=1e-8)
            np.testing.assert_allclose(prec @ state.m[i], state.alpha[i], atol=1e-8)

    def test_posterior_from_sites_zero_sites(self):
        K = toy_grams(4).k_eff
        m, v, u, b, binv = posterior_from_sites(K, np.zeros((3, 5)), np.zeros((3, 5)))
        np.testing.assert_allclose(v, np.diagonal(K, axis1=1, axis2=2), atol=1e-12)
        np.testing.assert_array_equal(m, np.zeros((3, 5)))
        np.testing.assert_array_equal(u, np.zeros((3, 5)))
        np.testing.assert_array_equal(b, np.broadcast_to(np.eye(5), (3, 5, 5)))
        np.testing.assert_array_equal(binv, np.broadcast_to(np.eye(5), (3, 5, 5)))

    def test_kinv_terms_reads_the_last_factor(self, monkeypatch):
        # kinv_terms neither factors nor solves: core is W B^{-1} W from the
        # inverse of B the last step kept (the step factors nothing either),
        # bit for bit what inverting B again gives, and u from that step
        # agrees with a solve with B for K^{-1} m
        grams, Y = episode_grams(123)
        cfg = InnerConfig(rho=0.7, steps=3, samples=64)
        *_, state = inner_states("MD", grams, Y, cfg, step_nodes(5, cfg.samples, 5))
        W = np.sqrt(-2.0 * state.beta)
        B = np.eye(25) + (W[:, :, None] * state.k_eff) * W[:, None, :]
        calls = []
        monkeypatch.setattr(inference, "spd_cholesky", lambda *a: calls.append(a))
        u, core = state.kinv_terms()
        assert calls == []
        np.testing.assert_array_equal(core, W[:, :, None] * np.linalg.inv(B) * W[:, None, :])
        rhs = W * np.einsum("cij,cj->ci", state.k_eff, state.alpha)
        want = state.alpha - W * np.linalg.solve(B, rhs[:, :, None])[:, :, 0]
        assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))

    def test_beta_stays_nonpositive(self):
        grams = toy_grams(5)
        Y = toy_labels(6, 5, 3)
        state = md_init(grams)
        cfg = InnerConfig(rho=1.0, steps=1, samples=32)
        for step in range(10):
            state = md_step(state, Y, cfg.rho, seeded_lik(cfg.samples, 7, step, 3))
            assert np.all(state.beta <= 0.0)

    def test_refresh_moments_matches_cache(self):
        grams = toy_grams(8)
        Y = toy_labels(9, 5, 3)
        state = md_init(grams)
        cfg = InnerConfig(rho=0.9, steps=1, samples=64)
        for step in range(4):
            state = md_step(state, Y, cfg.rho, seeded_lik(cfg.samples, 11, step, 3))
        m, Sigma = dense_moments(state)
        np.testing.assert_allclose(state.m, m, atol=1e-10)
        np.testing.assert_allclose(state.v, np.diagonal(Sigma, axis1=1, axis2=2), atol=1e-10)

    @pytest.mark.parametrize(
        "seed, output_scale",
        [
            pytest.param(120, None, id="120"),
            pytest.param(121, None, id="121"),
            pytest.param(122, None, id="122"),
            pytest.param(120, 1.0, id="sites-scale-1"),
            pytest.param(121, 1e2, id="sites-scale-1e2"),
            pytest.param(122, 1e4, id="sites-scale-1e4"),
        ],
    )
    def test_site_form_matches_dense_oracle(self, seed, output_scale):
        # m, v and the KL to the prior in site form agree with dense solves
        # and a dense KL, relative to each quantity's scale, after four
        # softmax steps. After one full-rate step onto strong Gaussian sites
        # (|b| up to 50) under priors of output scale 1 to 1e4 only the KL
        # is checked: at 1e4 the site form's m and v are 6e-10 off a 50-digit
        # solve (the dense ones 3e-16), and its KL, which does not read v,
        # is 1.2e-14 off, where tr(K^{-1} Sigma) = N - sum_i W_i^2 v_i would
        # put it 1.6e-10 off
        if output_scale is None:
            grams, Y = episode_grams(seed)
            state = md_init(grams)
            cfg = InnerConfig(rho=0.7, steps=1, samples=64)
            for step in range(4):
                state = md_step(state, Y, cfg.rho, seeded_lik(cfg.samples, seed, step, 5))
        else:
            grams, Y = episode_grams(seed, output_scale=output_scale)
            rng = np.random.default_rng(seed)
            a, b = rng.standard_normal(Y.T.shape), -50.0 * rng.random(Y.T.shape)
            state = md_step(md_init(grams), Y, 1.0, GaussianSiteLikelihood(a, b))
        m, Sigma = dense_moments(state)
        kl = [scipy_factor_kl(m[c], scipy_spd_cholesky(Sigma[c])[0], L) for c, L in enumerate(grams.chol)]
        checks = [(state.kl, np.array(kl))]
        if output_scale is None:
            checks += [
                (state.m, m),
                (state.v, np.diagonal(Sigma, axis1=1, axis2=2)),
                (state.u, state.alpha + 2.0 * state.beta * m),  # K^{-1} m = alpha - W^2 m
            ]
        for got, want in checks:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mirror_step_factors_nothing(self, monkeypatch):
        # a step inverts B and factors nothing; reading the KL factors B
        # once; fitting at eval's inner settings factors only the Grams
        grams, Y = episode_grams(150)
        ep = tasks.gen_episode(tasks.TaskGenConfig(n_classes=5, shots=5, queries=4, dim=8), seed=150)
        kern = kernels.DeepKernel(
            kernels.init_extractor([8, 32, 32, 16], seed=1), kernels.BaseKernels.at_scales("RBF", 5)
        )
        ev = mdgpc.cli.default_config()["eval_inner"]
        cfg = InnerConfig(ev["rho"], ev["steps"], ev["mc_samples"], ev["steps"] // 2)
        calls = []
        original = inference.spd_cholesky

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        for module in (inference, kernels):
            monkeypatch.setattr(module, "spd_cholesky", counting)
        state = md_step(md_init(grams), Y, 0.5, seeded_lik(64, 3, 1, 5))
        assert calls == []
        assert state.kl.shape == (5,) and calls == [(5, 25, 25)]
        calls.clear()
        model.fit_episode(kern, ep.support_x, ep.support_y, cfg, step_nodes(0, cfg.samples, 5))
        assert calls == [(5, 25, 25)]

    def test_gd_step_inverts_solves_and_factors_nothing(self, monkeypatch):
        # Sigma^{-1} L = L^{-T}, so a GD step and the ELBO of its state read
        # no inverse; gd_init inverts the prior factors once, for K^{-1}
        grams, Y = episode_grams(151)
        lik = seeded_lik(64, 3, 1, 5)
        calls = []
        for name in ("inv", "solve", "cholesky"):
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        state = gd_init(grams)
        assert calls == ["inv"]
        calls.clear()
        state = gd_step(state, Y, 0.005, lik)
        assert calls == []
        assert np.isfinite(elbo(state, Y, lik)) and calls == []

    def test_bad_labels_rejected(self):
        grams = toy_grams(10)
        cfg = InnerConfig(rho=1.0, steps=1, samples=8)
        with pytest.raises(InputError, match="one-hot"):
            next(inner_states("MD", grams, np.full((5, 3), 0.5), cfg, step_nodes(0, 8, 3)))

    def test_fewer_than_one_sample_rejected(self):
        with pytest.raises(InputError, match="samples must be >= 1, got 0"):
            InnerConfig(samples=0)


class TestOncePerSetAndState:
    """What a loop reads many times is built once: a likelihood lays its node
    set out at construction, an MD state keeps the B its step built, and a GD
    state computes its marginal variances when it is made."""

    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_one_layout_per_likelihood(self, method, monkeypatch):
        # compare-inner's loop: 30 steps, each state scored; the loop builds
        # a likelihood on the step set and on its coarse head, run_inner one
        # on the scoring set, and each lays its nodes out once
        layouts, liks = [], []
        original = likelihood._node_layout

        def counting(eps):
            layouts.append(np.shape(eps))
            return original(eps)

        class Counted(SoftmaxLikelihood):
            def __init__(self, *args, **kwargs):
                liks.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(likelihood, "_node_layout", counting)
        monkeypatch.setattr(inference, "SoftmaxLikelihood", Counted)
        ci = mdgpc.cli.default_config()["compare_inner"]
        cfg = InnerConfig(ci["rate"], ci["steps"], ci["mc_samples"])
        grams, Y = episode_grams(160)
        _, elbos = run_seeded(method, grams, Y, cfg, 21)
        assert cfg.steps == 30 and len(elbos) == 31
        assert len(liks) == 3 and len(layouts) == 3

    def test_gd_variances_follow_every_new_state(self):
        # v is a field set when a state is made: after each step and each
        # replace it is the row sums of L o L of that state's L
        grams, Y = episode_grams(161)
        lik = seeded_lik(64, 5, 1, 5)

        def check(state):
            assert np.array_equal(state.v, np.sum(state.chol * state.chol, axis=2))

        state = gd_init(grams)
        check(state)
        for _ in range(30):
            state = gd_step(state, Y, 0.005, lik)
            check(state)
            check(dataclasses.replace(state, chol=1.5 * state.chol))
            check(dataclasses.replace(state, m=state.m + 1.0))

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_md_kl_reads_the_kept_b(self, rho):
        # each state's KL equals the KL from B = I + W K W rebuilt from its
        # sites and factored again, bit for bit, and the kept B is that B
        grams, Y = episode_grams(162)
        cfg = InnerConfig(rho, 10, 64)
        n = Y.shape[0]
        for state in inner_states("MD", grams, Y, cfg, step_nodes(8, cfg.samples, 5)):
            W = np.sqrt(-2.0 * np.minimum(state.beta, 0.0))
            B = np.eye(n) + (W[:, :, None] * state.k_eff) * W[:, None, :]
            LB, _ = spd_cholesky(B)
            wx = W * np.einsum("cij,cij->ci", state.binv, state.k_eff * W[:, None, :])
            half_logdet = np.sum(np.log(np.diagonal(LB, axis1=1, axis2=2)), axis=1)
            want = 0.5 * np.sum(state.m * state.u - wx, axis=1) + half_logdet
            assert np.array_equal(state.b, B)
            assert np.array_equal(state.kl, want)


class TestConjugateLimit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_full_step_lands_on_conjugate_posterior(self, seed):
        rng = np.random.default_rng(seed)
        grams = toy_grams(seed, n=4, c=2)
        a = rng.standard_normal((4, 2))
        b = -0.1 - 0.5 * rng.random((4, 2))
        lik = GaussianSiteLikelihood(a.T, b.T)
        Y = toy_labels(seed, 4, 2)
        state = md_step(md_init(grams), Y, 1.0, lik)
        _, core = state.kinv_terms()
        for i, K in enumerate(grams.k_eff):
            prec = np.linalg.inv(K) - 2.0 * np.diag(b[:, i])
            sigma = np.linalg.inv(prec)
            np.testing.assert_allclose(K - K @ core[i] @ K, sigma, atol=1e-8)
            np.testing.assert_allclose(state.v[i], np.diag(sigma), atol=1e-8)
            np.testing.assert_allclose(state.m[i], sigma @ a[:, i], atol=1e-8)

    def test_fixed_point_once_converged(self):
        # with constant mean-parameter gradients the conjugate posterior is
        # a fixed point for every rate
        rng = np.random.default_rng(3)
        grams = toy_grams(3, n=4, c=2)
        lik = GaussianSiteLikelihood(
            rng.standard_normal((4, 2)).T, (-0.2 - rng.random((4, 2))).T
        )
        Y = toy_labels(3, 4, 2)
        state = md_step(md_init(grams), Y, 1.0, lik)
        again = md_step(state, Y, 0.3, lik)
        np.testing.assert_allclose(state.m, again.m, atol=1e-10)
        np.testing.assert_allclose(state.v, again.v, atol=1e-10)
        np.testing.assert_allclose(state.beta, again.beta, atol=1e-10)


class TestGdBaseline:
    def test_gd_init_is_prior(self):
        grams = toy_grams(11)
        state = gd_init(grams)
        for m, Sigma, K in zip(*dense_moments(state), grams.k_eff):
            np.testing.assert_array_equal(m, np.zeros(5))
            np.testing.assert_allclose(Sigma, K, atol=1e-10)
        np.testing.assert_allclose(state.kl, np.zeros(3), atol=1e-10)

    def test_kl_from_factor_matches_refactored_covariance(self):
        # the KL that GD reads from its factor L equals the scipy KL of
        # Sigma = L L' factored again
        grams, Y = episode_grams(108)
        cfg = InnerConfig(rho=0.05, steps=3, samples=32)
        *_, state = inner_states("GD", grams, Y, cfg, step_nodes(29, cfg.samples, 5))
        m, Sigma = dense_moments(state)
        for c, L in enumerate(grams.chol):
            want = scipy_factor_kl(m[c], scipy_spd_cholesky(Sigma[c])[0], L)
            assert state.kl[c] == pytest.approx(want, rel=1e-12)

    def test_gd_init_kinv_is_per_class_solve(self):
        # one solve with the stacked factors equals each class's own solve bit
        # for bit; COS on 6 points in 2 dims takes jitter
        Z = np.random.default_rng(13).standard_normal((6, 2))
        grams = stack_priors(
            kernels.gram(kernels.BaseKernels.at_scales(k, 1), Z) for k in ("COS", "RBF", "POL2")
        )
        kinv = gd_init(grams).kinv
        for c, L in enumerate(grams.chol):
            assert np.array_equal(kinv[c], chol_solve(L, np.eye(6)))

    def test_steps_and_kl_match_per_class_scipy_solves(self):
        # K^{-1} m from the stored K^{-1}, the L step from Sigma^{-1} L = L^{-T}
        # and the KL from the inverted prior factors agree with per-class
        # scipy solves, from each state of compare-inner's default loop.
        # The KL is a difference of terms of size N, so its bound is 1e-12 N.
        # Measured: 2.1e-16 in m, 1.2e-16 in L, 3.6e-15 in the KL
        ci = mdgpc.cli.default_config()["compare_inner"]
        grams, Y = episode_grams(141)
        lik = seeded_lik(ci["mc_samples"], 0, 1, Y.shape[1])
        state = gd_init(grams)

        def rel(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        for _ in range(ci["steps"]):
            m, chol = scipy_gd_step(state, grams, Y, ci["rate"], lik)
            state = gd_step(state, Y, ci["rate"], lik)
            assert rel(state.m, m) <= 1e-12 and rel(state.chol, chol) <= 1e-12
            want = [scipy_factor_kl(*args) for args in zip(state.m, state.chol, grams.chol)]
            assert np.max(np.abs(state.kl - want)) <= 1e-12 * Y.shape[0]

    def test_gd_step_follows_elbo_gradient(self):
        # recover the implied gradient from one small step and compare with
        # central finite differences of the deterministic objective
        rng = np.random.default_rng(12)
        n, c = 4, 2
        grams = toy_grams(12, n=n, c=c)
        lik = GaussianSiteLikelihood(
            rng.standard_normal((n, c)).T, (-0.1 - rng.random((n, c))).T
        )
        Y = toy_labels(12, n, c)
        lr = 1e-7
        state = gd_init(grams)
        # move off the prior first so gradients are nonzero
        for _ in range(2):
            state = gd_step(state, Y, 0.05, lik)
        stepped = gd_step(state, Y, lr, lik)

        def objective(m, chol):
            trial = dataclasses.replace(state, m=m.copy(), chol=chol.copy())
            return elbo(trial, Y, lik)

        h = 1e-5
        for i in range(c):
            g_m = (stepped.m[i] - state.m[i]) / lr
            for j in range(n):
                up, dn = state.m.copy(), state.m.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (objective(up, state.chol) - objective(dn, state.chol)) / (2 * h)
                assert g_m[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)
            L = state.chol[i]
            L2 = stepped.chol[i]
            for r in range(n):
                for s in range(r + 1):
                    if r == s:
                        implied = np.log(L2[r, r] / L[r, r]) / lr
                    else:
                        implied = (L2[r, s] - L[r, s]) / lr
                    up, dn = state.chol.copy(), state.chol.copy()
                    if r == s:
                        up[i, r, r] = L[r, r] * np.exp(h)
                        dn[i, r, r] = L[r, r] * np.exp(-h)
                    else:
                        up[i, r, s] += h
                        dn[i, r, s] -= h
                    fd = (objective(state.m, up) - objective(state.m, dn)) / (2 * h)
                    assert implied == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestRunInner:
    def test_trace_structure(self):
        grams, Y = episode_grams(100)
        cfg = InnerConfig(rho=0.5, steps=6, samples=32)
        state, elbos = run_seeded("MD", grams, Y, cfg, 5)
        lik = SoftmaxLikelihood(normal_draws(5, (cfg.samples, Y.shape[1])))
        assert len(elbos) == 7
        assert all(isinstance(v, float) and np.isfinite(v) for v in elbos)
        prior = md_init(grams)
        assert elbos[0] == elbo(prior, Y, lik)
        assert elbos[-1] == elbo(state, Y, lik)

    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_draw_schedule(self, method):
        # every step t >= 1 reads the one step set it is given, that of
        # derive_seed(seed, 1); the ELBOs share the scoring set, that of seed
        grams, Y = episode_grams(104)
        cfg, seed = InnerConfig(rho=0.05, steps=4, samples=32), 13
        c = Y.shape[1]
        step_fn = md_step if method == "MD" else gd_step
        states = list(inner_states(method, grams, Y, cfg, step_nodes(seed, cfg.samples, c)))
        assert len(states) == cfg.steps + 1
        lik = seeded_lik(cfg.samples, seed, 1, c)
        for t in range(1, cfg.steps + 1):
            want = step_fn(states[t - 1], Y, cfg.rho, lik)
            got = states[t]
            if method == "MD":
                np.testing.assert_array_equal(got.alpha, want.alpha)
                np.testing.assert_array_equal(got.beta, want.beta)
            else:
                np.testing.assert_array_equal(got.chol, want.chol)
            np.testing.assert_array_equal(got.m, want.m)
            np.testing.assert_array_equal(got.v, want.v)
            np.testing.assert_array_equal(got.kl, want.kl)
        _, elbos = run_seeded(method, grams, Y, cfg, seed)
        lik = SoftmaxLikelihood(normal_draws(seed, (cfg.samples, c)))
        assert elbos == [elbo(st, Y, lik) for st in states]

    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_first_step_keeps_its_draws(self, method):
        # step 1 reads the step set it is given, that of seed
        # derive_seed(seed, 1), built here without the helper, so the first
        # state after the prior is pinned bit for bit
        grams, Y = episode_grams(106)
        nodes = normal_draws(derive_seed(19, 1), (64, Y.shape[1]))
        lik = SoftmaxLikelihood(nodes)
        cfg = InnerConfig(rho=0.5, steps=1, samples=64)
        prior, first = inner_states(method, grams, Y, cfg, nodes)
        want = (md_step if method == "MD" else gd_step)(prior, Y, cfg.rho, lik)
        np.testing.assert_array_equal(first.m, want.m)
        np.testing.assert_array_equal(first.v, want.v)

    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_steps_leave_earlier_states_unchanged(self, method):
        # a step builds fresh arrays; it never writes into the state it read,
        # nor into the prior's zero arrays or stacked factors
        grams, Y = episode_grams(105)
        cfg = InnerConfig(rho=0.05, steps=3, samples=32)
        names = ("m", "v") + (("alpha", "beta", "kl") if method == "MD" else ("chol",))
        states = inner_states(method, grams, Y, cfg, step_nodes(17, cfg.samples, 5))
        earlier = [next(states), next(states)]  # states 0 and 1
        kept = [{name: getattr(st, name).copy() for name in names} for st in earlier]
        assert len(list(states)) == 2  # two more steps
        for st, copies in zip(earlier, kept):
            for name in names:
                np.testing.assert_array_equal(getattr(st, name), copies[name])

    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_empty_class_list_rejected(self, method):
        cfg = InnerConfig(rho=0.5, steps=1, samples=8)
        with pytest.raises(InputError, match="need at least one class"):
            next(inner_states(method, toy_grams(0, c=0), np.zeros((5, 0)), cfg, np.zeros((8, 0))))

    def test_unknown_method(self):
        grams, Y = episode_grams(101)
        with pytest.raises(InputError, match="unknown inner method"):
            run_seeded("SGD", grams, Y, InnerConfig(rho=0.5, steps=1, samples=8), 0)

    def test_deterministic(self):
        grams, Y = episode_grams(102)
        cfg = InnerConfig(rho=0.5, steps=4, samples=32)
        _, t1 = run_seeded("MD", grams, Y, cfg, 9)
        _, t2 = run_seeded("MD", grams, Y, cfg, 9)
        assert t1 == t2

    def test_elbo_at_prior_has_zero_kl(self):
        grams, Y = episode_grams(103)
        state = md_init(grams)
        lik = SoftmaxLikelihood(normal_draws(3, (64, Y.shape[1])))
        assert elbo(state, Y, lik) == pytest.approx(
            lik.expected_loglik(state.m, state.v, Y), abs=1e-10
        )

    def test_elbo_monotone_under_small_rate_and_many_samples(self):
        # statistical property: with rho = 0.5 and 2048 draws the trace is
        # nondecreasing up to the sampling noise floor on >= 90% of episodes
        ok = 0
        for s in range(20):
            grams, Y = episode_grams(4000 + s)
            cfg = InnerConfig(rho=0.5, steps=15, samples=2048)
            _, elbos = run_seeded("MD", grams, Y, cfg, derive_seed(11, 4000 + s))
            diffs = np.diff(elbos)
            ok += bool(np.all(diffs >= -5e-3))
        assert ok >= 18


class TestEvalNodeCount:
    @staticmethod
    def fixed_point(samples: int, coarse_steps: int):
        # one fixed 5-way 5-shot episode fitted at eval's default rate and steps
        ev = mdgpc.cli.default_config()["eval_inner"]
        grams, Y = episode_grams(130)
        cfg = InnerConfig(ev["rho"], ev["steps"], samples, coarse_steps)
        *_, state = inner_states("MD", grams, Y, cfg, step_nodes(0, samples, 5))
        return state

    @classmethod
    def eval_fit(cls, samples: int):
        # as meta.evaluate fits: a coarse stage of at most half of the steps
        return cls.fixed_point(samples, mdgpc.cli.default_config()["eval_inner"]["steps"] // 2)

    def test_default_fit_is_near_the_reference(self):
        # eval's default node count against S = 4096. Measured: 3.8e-3 in m
        # and 4.6e-3 in v (S = 64: 2.9e-2 and 3.9e-2, which fails)
        ref = self.fixed_point(4096, 0)
        got = self.eval_fit(mdgpc.cli.default_config()["eval_inner"]["mc_samples"])
        assert np.max(np.abs(got.m - ref.m)) <= 1.5e-2 * np.max(np.abs(ref.m))
        assert np.max(np.abs(got.v - ref.v) / ref.v) <= 1.5e-2

    def test_coarse_steps_end_at_the_fixed_point_of_the_whole_set(self):
        # the coarse stage moves eval's fit by much less than the node count
        # does. Measured: 5.4e-6 in m and 2.3e-6 in v, after 14 coarse steps
        # (the stage run to its cap of 25: 7.9e-6 and 3.0e-6; every step
        # coarse: 2.9e-2 and 3.9e-2; coarse nodes 8 instead of 64: 3.3e-5
        # and 1.3e-5; both fail)
        samples = mdgpc.cli.default_config()["eval_inner"]["mc_samples"]
        ref, got = self.fixed_point(samples, 0), self.eval_fit(samples)
        assert np.max(np.abs(got.m - ref.m)) <= 2.5e-5 * np.max(np.abs(ref.m))
        assert np.max(np.abs(got.v - ref.v) / ref.v) <= 1e-5

    def test_coarse_steps_read_the_first_nodes_of_the_set(self):
        grams, Y = episode_grams(131)
        full = seeded_lik(512, 3, 1, 5)
        coarse = SoftmaxLikelihood(step_nodes(3, 512, 5)[: inference.COARSE_NODES])
        cfg = InnerConfig(0.5, 3, 512, coarse_steps=2)
        states = list(inner_states("MD", grams, Y, cfg, step_nodes(3, 512, 5)))
        want = md_init(grams)
        for t, lik in enumerate([coarse, coarse, full], start=1):
            want = md_step(want, Y, 0.5, lik)
            np.testing.assert_array_equal(states[t].m, want.m)
            np.testing.assert_array_equal(states[t].v, want.v)


class TestCoarseStage:
    """The coarse stage ends at its first step that moves every mean by less
    than SWITCH_TOL posterior sds and every marginal variance by less than
    SWITCH_TOL of itself, or at its cap; the full-set steps keep their count."""

    @staticmethod
    def hand_driven(grams, Y, cfg: InnerConfig, seed: int, coarse_steps: int) -> list:
        # k coarse steps, then steps - coarse_steps full-set steps, by md_step
        nodes = step_nodes(seed, cfg.samples, Y.shape[1])
        full, coarse = SoftmaxLikelihood(nodes), SoftmaxLikelihood(nodes[: inference.COARSE_NODES])
        states = [md_init(grams)]
        for lik in [coarse] * coarse_steps + [full] * (cfg.steps - cfg.coarse_steps):
            states.append(md_step(states[-1], Y, cfg.rho, lik))
        return states

    @staticmethod
    def moved(a, b) -> float:
        return max(np.max(np.abs(b.m - a.m) / np.sqrt(b.v)), np.max(np.abs(b.v - a.v) / b.v))

    def assert_same_states(self, got: list, want: list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.m, w.m)
            np.testing.assert_array_equal(g.v, w.v)

    def test_settled_stage_switches_early(self):
        # eval's default rate, steps and node count
        ev = mdgpc.cli.default_config()["eval_inner"]
        grams, Y = episode_grams(132)
        cfg = InnerConfig(ev["rho"], ev["steps"], ev["mc_samples"], ev["steps"] // 2)
        got = list(inner_states("MD", grams, Y, cfg, step_nodes(5, cfg.samples, 5)))
        k = len(got) - 1 - (cfg.steps - cfg.coarse_steps)
        assert 0 < k < cfg.coarse_steps
        want = self.hand_driven(grams, Y, cfg, 5, k)
        self.assert_same_states(got, want)
        moved = [self.moved(a, b) for a, b in zip(want[:k], want[1:k + 1])]
        assert moved[-1] < inference.SWITCH_TOL <= min(moved[:-1])

    def test_unsettled_stage_keeps_the_fixed_schedule(self):
        # at rate 0.1 no coarse step moves the fit that little: the loop takes
        # the cap, then the full-set steps, as a loop without the test does
        ev = mdgpc.cli.default_config()["eval_inner"]
        grams, Y = episode_grams(133)
        cfg = InnerConfig(0.1, ev["steps"], ev["mc_samples"], ev["steps"] // 2)
        got = list(inner_states("MD", grams, Y, cfg, step_nodes(6, cfg.samples, 5)))
        self.assert_same_states(got, self.hand_driven(grams, Y, cfg, 6, cfg.coarse_steps))

    def test_full_set_steps_keep_their_count(self):
        # a loop without a coarse stage takes every step, though its last
        # steps move the fit by far less than SWITCH_TOL
        grams, Y = episode_grams(134)
        cfg = InnerConfig(0.5, 60, 128)
        got = list(inner_states("MD", grams, Y, cfg, step_nodes(7, cfg.samples, 5)))
        assert len(got) == cfg.steps + 1
        assert self.moved(got[-2], got[-1]) < inference.SWITCH_TOL
        self.assert_same_states(got, self.hand_driven(grams, Y, cfg, 7, 0))


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
        lik = GaussianSiteLikelihood(a.T, b.T)
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
