"""Outer loop: hyper flattening, episode gradient, Adam, training, evaluation."""

import warnings

import numpy as np
import pytest

from mdgpc import kernels, meta, model, tasks
from mdgpc.errors import InputError, NumericalError
from mdgpc.inference import InnerConfig
from mdgpc.seeding import derive_seed
from oracles import dense_moments, scipy_gaussian_kl

ADAM_EPS = 1e-8


def small_kernel(seed: int = 0, c: int = 3, dim: int = 4) -> kernels.DeepKernel:
    fe = kernels.init_extractor([dim, 8, 6], seed=derive_seed(seed, 99))
    base = kernels.BaseKernels.at_scales("RBF", c, length_scale=1.5, output_scale=2.0)
    return kernels.DeepKernel(extractor=fe, base=base)


def small_source(seed: int) -> tasks.Episode:
    """A draw(seed) episode source: a 3-way, 2-shot, 4-query task."""
    cfg = tasks.TaskGenConfig(n_classes=3, shots=2, queries=4, dim=4)
    return tasks.gen_episode(cfg, seed)


def prior_term(flat, template, support_x, m, Sigma):
    """Sum of -KL(q_c || prior_c) with q fixed; the eta-dependent objective."""
    kern = meta.unflatten_hypers(flat, template)
    Z, _ = kernels.extract(kern.extractor, support_x)
    total = 0.0
    g = kernels.gram(kern.base, Z)
    for c in range(kern.base.n_classes):
        total -= scipy_gaussian_kl((m[c], Sigma[c]), (np.zeros_like(m[c]), g.k_eff[c]))
    return total


class TestFlatten:
    def test_roundtrip_bijection(self):
        kern = small_kernel(1)
        flat = meta.flatten_hypers(kern)
        rebuilt = meta.unflatten_hypers(flat, kern)
        np.testing.assert_array_equal(meta.flatten_hypers(rebuilt), flat)
        perturbed = flat + 0.01 * np.arange(flat.shape[0])
        again = meta.flatten_hypers(meta.unflatten_hypers(perturbed, kern))
        np.testing.assert_array_equal(again, perturbed)

    def test_wrong_length_rejected(self):
        kern = small_kernel(2)
        flat = meta.flatten_hypers(kern)
        with pytest.raises(InputError, match="flat vector has"):
            meta.unflatten_hypers(flat[:-1], kern)

    def test_layout_net_first_then_raws(self):
        kern = small_kernel(3)
        flat = meta.flatten_hypers(kern)
        n_net = meta.net_param_count(kern.extractor)
        raws = flat[n_net:]
        assert raws.shape[0] == 3 * len(kern.base.raw_names())
        assert raws[0] == kern.base.length_scale_raw[0]


class TestOuterGrad:
    def test_exactly_zero_at_prior(self):
        kern = small_kernel(4)
        ep = small_source(derive_seed(4, 1))
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, InnerConfig(steps=0), 0)
        np.testing.assert_array_equal(meta.outer_grad(fit), 0.0)

    def test_near_zero_at_prior_gd(self):
        kern = small_kernel(5)
        ep = small_source(derive_seed(5, 1))
        fit = model.fit_episode(
            kern, ep.support_x, ep.support_y, InnerConfig(rho=0.1, steps=0), 0, method="GD"
        )
        np.testing.assert_allclose(meta.outer_grad(fit), 0.0, atol=1e-8)

    @pytest.mark.parametrize("method", ["MD", "GD"])
    def test_matches_finite_differences(self, method):
        kern = small_kernel(6)
        ep = small_source(derive_seed(6, 1))
        cfg = InnerConfig(rho=0.8 if method == "MD" else 0.05, steps=3, samples=64)
        fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, 5, method=method)
        assert fit.grams.k_eff is fit.grams.K
        grad = meta.outer_grad(fit)
        flat = meta.flatten_hypers(kern)
        m, Sigma = fit.state.m, dense_moments(fit.state)[1]
        fd = np.zeros_like(flat)
        h = 1e-5
        for k in range(flat.shape[0]):
            up, dn = flat.copy(), flat.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (
                prior_term(up, kern, ep.support_x, m, Sigma)
                - prior_term(dn, kern, ep.support_x, m, Sigma)
            ) / (2 * h)
        deviation = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(grad)))
        assert deviation <= 1e-3


class TestAdam:
    def test_first_step_oracle(self):
        rng = np.random.default_rng(7)
        flat = rng.standard_normal(6)
        grad = rng.standard_normal(6)
        lr = np.full(6, 0.01)
        new, st = meta.adam_step(flat, grad, meta.AdamState.zeros(6), lr)
        expected = flat + lr * grad / (np.abs(grad) + ADAM_EPS)
        np.testing.assert_allclose(new, expected, atol=1e-12)
        assert st.t == 1

    def test_second_step_manual(self):
        rng = np.random.default_rng(8)
        flat = rng.standard_normal(4)
        g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
        lr = np.full(4, 0.05)
        x1, st = meta.adam_step(flat, g1, meta.AdamState.zeros(4), lr)
        x2, st = meta.adam_step(x1, g2, st, lr)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1**2) + 0.001 * g2**2
        mhat = m / (1 - 0.9**2)
        vhat = v / (1 - 0.999**2)
        np.testing.assert_allclose(
            x2, x1 + lr * mhat / (np.sqrt(vhat) + ADAM_EPS), atol=1e-12
        )
        assert st.t == 2

    def test_shape_mismatch(self):
        with pytest.raises(InputError, match="adam operands"):
            meta.adam_step(
                np.zeros(3), np.zeros(4), meta.AdamState.zeros(3), np.full(3, 0.1)
            )


class TestTrain:
    def cfg(self, episodes=3, lr=1e-3):
        return meta.TrainConfig(
            episodes=episodes,
            lr_net=lr,
            lr_kernel=lr / 10,
            inner=InnerConfig(rho=1.0, steps=2, samples=32),
            pred_samples=64,
            seed=11,
        )

    def test_deterministic(self):
        k1, h1 = meta.train(small_kernel, small_source, self.cfg())
        k2, h2 = meta.train(small_kernel, small_source, self.cfg())
        np.testing.assert_array_equal(
            meta.flatten_hypers(k1), meta.flatten_hypers(k2)
        )
        assert h1 == h2

    def test_zero_epochs_leaves_kernel_unchanged(self):
        kern = small_kernel(11)
        trained, history = meta.train(lambda _: kern, small_source, self.cfg(episodes=0))
        np.testing.assert_array_equal(
            meta.flatten_hypers(trained), meta.flatten_hypers(kern)
        )
        assert history == []

    def test_history_rows_and_keys(self):
        _, history = meta.train(small_kernel, small_source, self.cfg(episodes=6))
        assert len(history) == 6
        assert [row["iter"] for row in history] == [1, 2, 3, 4, 5, 6]
        assert set(history[0]) == {"iter", "objective", "query_ce", "query_acc"}

    def test_objective_improves_on_repeated_episode(self):
        # training on a single repeated episode should raise its ELBO
        kern = small_kernel(13)
        ep = small_source(derive_seed(13, 1))
        src = lambda _: ep
        cfg = meta.TrainConfig(
            episodes=40,
            lr_net=1e-3,
            lr_kernel=1e-3,
            inner=InnerConfig(rho=1.0, steps=2, samples=64),
            pred_samples=32,
            seed=0,
        )
        _, history = meta.train(lambda _: kern, src, cfg)
        first = np.mean([r["objective"] for r in history[:5]])
        last = np.mean([r["objective"] for r in history[-5:]])
        assert last > first

    def test_negative_episode_count_rejected(self):
        with pytest.raises(InputError, match="episodes must be >= 0"):
            meta.TrainConfig(episodes=-1)

    def test_fewer_than_one_prediction_sample_rejected(self):
        with pytest.raises(InputError, match="pred_samples must be >= 1, got 0"):
            meta.TrainConfig(pred_samples=0)

    def test_overflowing_adam_rate_names_the_episode(self):
        # a rate near the float maximum moves the hyperparameters by about
        # 1e308 in the first step, so the fit of episode 2 overflows; the
        # error names that episode, and no numpy warning is printed first
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="^MD episode 2: "):
                meta.train(small_kernel, small_source, self.cfg(lr=1e308))
        assert not caught


class TestEvaluate:
    def test_parallel_matches_sequential(self):
        kern = small_kernel(20)
        inner = InnerConfig(rho=1.0, steps=2, samples=32)
        seq = meta.evaluate(kern, small_source, 6, inner, 64, seed=3, n_jobs=1)
        par = meta.evaluate(kern, small_source, 6, inner, 64, seed=3, n_jobs=2)
        np.testing.assert_array_equal(seq.accuracies, par.accuracies)
        np.testing.assert_array_equal(seq.probs, par.probs)
        np.testing.assert_array_equal(seq.y_true, par.y_true)

    def test_aggregates(self):
        kern = small_kernel(21)
        inner = InnerConfig(rho=1.0, steps=1, samples=16)
        res = meta.evaluate(kern, small_source, 4, inner, 32)
        assert res.accuracies.shape == (4,)
        assert res.probs.shape == (48, 3)  # 4 episodes x (4 queries per class x 3)
        assert res.y_true.shape == (48,)
        assert 0.0 <= res.accuracy_mean <= 1.0
        single = meta.evaluate(kern, small_source, 1, inner, 32)
        assert single.accuracies.shape == (1,)

    def test_fewer_than_one_prediction_sample_rejected(self):
        inner = InnerConfig(rho=1.0, steps=1, samples=16)
        with pytest.raises(InputError, match="samples must be >= 1, got 0"):
            meta.evaluate(small_kernel(21), small_source, 2, inner, 0)

    def test_first_half_of_the_steps_is_coarse(self, monkeypatch):
        fit_episode, seen = model.fit_episode, []

        def record(kernel, x, y, cfg, *args):
            seen.append(cfg)
            return fit_episode(kernel, x, y, cfg, *args)

        monkeypatch.setattr(model, "fit_episode", record)
        inner = InnerConfig(rho=0.5, steps=5, samples=128)
        meta.evaluate(small_kernel(22), small_source, 2, inner, 32)
        assert [(cfg.steps, cfg.coarse_steps, cfg.samples) for cfg in seen] == [(5, 2, 128)] * 2

    def test_steps_are_each_fits_steps(self, monkeypatch):
        fit_episode, fits = model.fit_episode, []

        def record(*args):
            fits.append(fit_episode(*args))
            return fits[-1]

        monkeypatch.setattr(model, "fit_episode", record)
        inner = InnerConfig(rho=0.5, steps=40, samples=512)
        res = meta.evaluate(small_kernel(23), small_source, 3, inner, 32)
        assert res.steps.tolist() == [fit.steps for fit in fits]
        assert len(fits) == 3 and max(res.steps) < 40  # every coarse stage settled early


class TestCompareOuter:
    def test_row_structure_and_determinism(self):
        kern = small_kernel(30)
        cfg = meta.TrainConfig(
            episodes=2,
            lr_net=1e-3,
            lr_kernel=1e-3,
            inner=InnerConfig(rho=0.05, steps=2, samples=16),
            pred_samples=32,
            seed=5,
        )
        rows = meta.compare_outer(lambda _: kern, small_source, small_source, cfg, 2, 1)[0]
        assert len(rows) == 2 * (cfg.episodes + 1)
        assert [r["method"] for r in rows] == ["MD"] * 3 + ["GD"] * 3
        assert [r["iter"] for r in rows] == [0, 1, 2, 0, 1, 2]
        # both variants start from the same initialization but monitor with
        # method-specific refits, so iter-0 rows can differ between methods
        again = meta.compare_outer(lambda _: kern, small_source, small_source, cfg, 2, 1)[0]
        assert rows == again

    def test_monitor_bank_is_drawn_once_per_seed(self):
        # both methods at every iteration refit one bank, drawn once per run
        seeds = []

        def draw_monitor(seed: int) -> tasks.Episode:
            seeds.append(seed)
            return small_source(seed)

        cfg = meta.TrainConfig(
            episodes=2,
            lr_net=1e-3,
            lr_kernel=1e-3,
            inner=InnerConfig(rho=0.05, steps=1, samples=8),
            pred_samples=16,
            seed=5,
        )
        meta.compare_outer(small_kernel, small_source, draw_monitor, cfg, 3, 2)
        assert len(seeds) == 2 * 3 and len(set(seeds)) == 2 * 3

    def test_empty_monitor_bank_rejected(self):
        with pytest.raises(InputError, match="monitor_episodes must be >= 1"):
            meta.compare_outer(small_kernel, small_source, small_source, meta.TrainConfig(), 0, 1)


class TestUnitsDependOnTheirIndexAlone:
    """The first k results of a run of n > k units equal a run of k units."""

    def test_compare_inner_episodes(self):
        inner = InnerConfig(rho=0.05, steps=2, samples=16)
        run = lambda n: meta.compare_inner(small_kernel, small_source, inner, n, seed=4)
        assert run(3)[:2] == run(2)

    def test_compare_outer_seeds(self):
        cfg = meta.TrainConfig(
            episodes=1,
            lr_net=1e-3,
            lr_kernel=1e-3,
            inner=InnerConfig(rho=0.05, steps=1, samples=8),
            pred_samples=16,
            seed=6,
        )
        run = lambda n: meta.compare_outer(small_kernel, small_source, small_source, cfg, 1, n)
        assert run(3)[:2] == run(2)

    def test_evaluate_episodes(self):
        inner = InnerConfig(rho=1.0, steps=2, samples=16)
        run = lambda n: meta.evaluate(small_kernel(23), small_source, n, inner, 32)
        np.testing.assert_array_equal(run(3).accuracies[:2], run(2).accuracies)

    def test_train_episodes(self):
        cfg = lambda n: meta.TrainConfig(
            episodes=n,
            lr_net=1e-3,
            lr_kernel=1e-4,
            inner=InnerConfig(rho=1.0, steps=2, samples=16),
            pred_samples=32,
            seed=7,
        )
        run = lambda n: meta.train(small_kernel, small_source, cfg(n))[1]
        assert run(3)[:2] == run(2)
