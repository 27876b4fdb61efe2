"""Softmax expected log-likelihood estimators, their gradients and draws."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import oracles
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from mdgpc import likelihood, model
from mdgpc.errors import InputError
from mdgpc.inference import _validate_labels
from mdgpc.likelihood import (
    SoftmaxLikelihood,
    batch_expected_loglik,
    batch_grads_mv,
    normal_draws,
)
from mdgpc.verify import GaussianSiteLikelihood, gauss_hermite_draws
from oracles import grad_mean_params, log_softmax_lik, point_grads, point_loglik

LOGLIK_10_0_0 = -9.079573746717529e-05  # log softmax at f = (10, 0, 0), class 0


def one_hot(idx: int, c: int) -> np.ndarray:
    y = np.zeros(c)
    y[idx] = 1.0
    return y


class TestPointEvaluations:
    def test_log_softmax_frozen(self):
        f = np.array([10.0, 0.0, 0.0])
        assert log_softmax_lik(one_hot(0, 3), f) == pytest.approx(
            LOGLIK_10_0_0, rel=1e-12
        )

    def test_log_softmax_shift_invariance(self):
        f = np.array([2.0, -1.0, 0.5])
        a = log_softmax_lik(one_hot(1, 3), f)
        b = log_softmax_lik(one_hot(1, 3), f + 123.0)
        assert a == pytest.approx(b, abs=1e-10)

    def test_log_softmax_extreme_no_overflow(self):
        f = np.array([1000.0, 0.0])
        assert np.isfinite(log_softmax_lik(one_hot(1, 2), f))

    def test_check_one_hot_rejects(self):
        # a fractional, an empty and a doubled row
        for row in ([0.5, 0.5], [0.0, 0.0], [2.0, 0.0]):
            with pytest.raises(InputError, match="one-hot"):
                _validate_labels(np.array([row]), 1, 2)


class TestDraws:
    def test_normal_draws_deterministic(self):
        a = normal_draws(7, (4, 3))
        b = normal_draws(7, (4, 3))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (4, 3)

    @pytest.mark.parametrize("n,d", [(8, 10), (64, 5), (512, 5), (1024, 40), (64, 1000)])
    def test_net_is_scipy_sobol(self, n, d):
        # past n = 8 the points depend on the recurrence's polynomial bits
        want = qmc.Sobol(d, scramble=False, bits=52).random(n) * 2.0**52
        got = likelihood._sobol_net(n, d)
        assert got.dtype == np.uint64 and not got.flags.writeable
        np.testing.assert_array_equal(got, want.astype(np.uint64))

    def test_quantile_matches_ndtri(self):
        p = np.concatenate(
            [
                np.linspace(1e-6, 1.0 - 1e-6, 20001),
                np.logspace(-300, -1, 600),
                1.0 - np.logspace(-16, -1, 300),
                [1e-300, 1.0 - 1e-16, 2.0**-53, 1.0 - 2.0**-53],
            ]
        )
        want = ndtri(p)
        got = likelihood._norm_quantile(p)
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))

    @pytest.mark.parametrize("shape", [(64, 5), (512, 5), (33, 3)])
    def test_quantile_matches_three_rational_oracle(self, shape):
        # the node sets of 200 seeds, bit for bit, as normal_draws maps them
        net = likelihood._sobol_net(*shape)
        for seed in range(200):
            shift = np.random.default_rng(seed).integers(1 << 52, size=shape[1], dtype=np.uint64)
            p = ((net ^ shift) + 0.5) * 2.0**-52
            got = likelihood._norm_quantile(p)
            assert np.array_equal(got, oracles.as241_quantile(p))
            assert np.array_equal(normal_draws(seed, shape), got)

    def test_quantile_matches_oracle_at_branch_edges(self):
        # the extremes, both sides of r = 5 (p = e^-25) and of |q| = 0.425,
        # and the centre, each alone (so the far tail runs or is skipped
        # alone) and all together
        edge = np.exp(-25.0)
        p = np.array([
            1e-300, 2.0**-53, 1.0 - 2.0**-53,
            np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), 1.3888e-11, 1.3887e-11,
            np.nextafter(0.075, 0.0), 0.075, np.nextafter(0.075, 1.0),
            np.nextafter(0.925, 0.0), 0.925, np.nextafter(0.925, 1.0),
            0.5,
        ])
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        assert np.any(r[3:8] <= 5.0) and np.any(r[3:8] > 5.0)
        central = np.abs(p[8:14] - 0.5) <= 0.425
        assert np.any(central[:3]) and not np.all(central[:3])
        assert np.any(central[3:]) and not np.all(central[3:])
        assert np.array_equal(likelihood._norm_quantile(p), oracles.as241_quantile(p))
        for x in p:
            x = np.array([x])
            assert np.array_equal(likelihood._norm_quantile(x), oracles.as241_quantile(x))

    def test_nodes_finite_for_many_seeds(self):
        for seed in range(200):
            assert np.isfinite(normal_draws(seed, (512, 5))).all()

    def test_too_many_dimensions_rejected(self):
        with pytest.raises(InputError, match="at most 21201 dimensions, got 21202"):
            normal_draws(0, (8, 21202))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_fewer_than_one_node_rejected(self, samples):
        with pytest.raises(InputError, match=f"samples must be >= 1, got {samples}"):
            normal_draws(0, (samples, 3))

    def test_qmc_beats_iid_on_fixed_instance(self):
        # N = 25 points, C = 5, means ~ N(0, 4), variances U(0.3, 4); the
        # reference is a 10^5-node Gauss-Hermite rule, about 4e-5 from 12^5
        rng = np.random.default_rng(0)
        n, c, s = 25, 5, 64
        m = 2.0 * rng.standard_normal((n, c))
        v = rng.uniform(0.3, 4.0, (n, c))
        Y = np.eye(c)[rng.integers(0, c, size=n)]
        eps_gh, w_gh = gauss_hermite_draws(10, c)

        def package(m, v, Y, eps, w=None):
            """The package's g_m, (N, C) like the oracle's, from (C, N) marginals."""
            return SoftmaxLikelihood(eps, w).grads_mv(m.T, v.T, Y)[0].T

        ref = np.concatenate(
            [package(m[i : i + 1], v[i : i + 1], Y[i : i + 1], eps_gh, w_gh) for i in range(n)]
        )

        def rmse(g_m, draws):
            errs = [g_m(m, v, Y, draws(seed)) - ref for seed in range(40)]
            return float(np.sqrt(np.mean(np.square(errs))))

        # the package takes one node set for all points; the iid side draws
        # per point, (S, N, C), which only the last-axis oracle formulas take
        assert rmse(package, lambda seed: normal_draws(seed, (s, c))) < rmse(
            lambda *args: oracles.batch_grads_mv(*args)[0],
            lambda seed: oracles.iid_draws(seed, (s, n, c)),
        )

    def test_net_cache_filled_from_threads(self):
        # concurrent first calls for one (S, C) must all give the serial sets
        likelihood._sobol_net.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda seed: normal_draws(seed, (256, 7)), range(32)))
        finally:
            sys.setswitchinterval(interval)
        for seed, eps in enumerate(got):
            np.testing.assert_array_equal(eps, normal_draws(seed, (256, 7)))

    def test_net_is_read_by_one_thread_at_a_time(self, monkeypatch):
        # threads that miss the cache together wait for the first one's read,
        # so the table is read once per (S, C)
        likelihood._sobol_net.cache_clear()
        inside, overlaps, reads, read = [0], [], [], likelihood._npy_columns
        count_lock = threading.Lock()

        def slow_read(*args):
            with count_lock:
                inside[0] += 1
                overlaps.append(inside[0] > 1)
                reads.append(args[1])
            time.sleep(0.02)
            with count_lock:
                inside[0] -= 1
            return read(*args)

        monkeypatch.setattr(likelihood, "_npy_columns", slow_read)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda seed: normal_draws(seed, (128, 6)), range(8)))
        finally:
            likelihood._sobol_net.cache_clear()
        assert not any(overlaps)
        assert reads == ["poly.npy", "vinit.npy"]

    def test_cli_import_loads_no_scipy_stats_or_special(self):
        code = (
            "import sys, mdgpc.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special', 'scipy.linalg') "
            "if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(likelihood.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "[]"

    def test_gauss_hermite_moments(self):
        eps, w = gauss_hermite_draws(16, 2)
        assert eps.shape == (256, 2)
        # quadrature integrates low moments of the standard normal exactly
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w @ eps, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(w @ (eps**2), [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(w @ (eps**4), [3.0, 3.0], atol=1e-8)


class TestEstimator:
    def test_mc_close_to_quadrature(self):
        # the MC average over draws must agree with the dense quadrature
        # value within a few standard errors
        rng = np.random.default_rng(0)
        c = 2
        m = rng.standard_normal(c)
        v = 0.5 + rng.random(c)
        y = one_hot(0, c)
        eps_q, w_q = gauss_hermite_draws(60, c)
        exact = point_loglik(m, v, y, eps_q, w_q)
        s = 200_000
        draws = normal_draws(3, (s, c))
        est = point_loglik(m, v, y, draws)
        f = m + np.sqrt(v) * draws
        per = f[:, 0] - np.log(np.sum(np.exp(f - f.max(axis=1, keepdims=True)), axis=1)) - f.max(axis=1)
        stderr = float(np.std(per, ddof=1) / np.sqrt(s))
        assert abs(est - exact) < 4 * stderr + 1e-12

    def test_batch_matches_per_point_sum(self):
        rng = np.random.default_rng(1)
        n, c = 4, 3
        m = rng.standard_normal((n, c))
        v = 0.5 + rng.random((n, c))
        Y = np.eye(c)[rng.integers(0, c, size=n)]
        eps = oracles.iid_draws(9, (64, c))
        lik = SoftmaxLikelihood(eps)
        total = lik.expected_loglik(m.T, v.T, Y)
        parts = sum(
            lik.expected_loglik(m[i : i + 1].T, v[i : i + 1].T, Y[i : i + 1])
            for i in range(n)
        )
        assert total == pytest.approx(parts, rel=1e-12)


class TestGradients:
    def test_bounds_hold_on_random_inputs(self):
        # 1e5 evaluations: g_m rows lie in [-1, 1], g_v in [-1/8, 0]
        rng = np.random.default_rng(2)
        n, c = 100_000, 5
        m = 3.0 * rng.standard_normal((n, c))
        v = 0.01 + 3.0 * rng.random((n, c))
        Y = np.eye(c)[rng.integers(0, c, size=n)]
        eps = oracles.iid_draws(11, (8, c))
        g_m, g_v = SoftmaxLikelihood(eps).grads_mv(m.T, v.T, Y)
        assert g_m.shape == (c, n) and g_v.shape == (c, n)
        assert np.all(g_m >= -1.0 - 1e-12) and np.all(g_m <= 1.0 + 1e-12)
        assert np.all(g_v >= -0.125 - 1e-12) and np.all(g_v <= 0.0 + 1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_mv_fd_common_draws(self, seed):
        # finite differences with the same fixed quadrature node set
        rng = np.random.default_rng(seed)
        c = 3
        m = rng.standard_normal(c)
        v = 0.5 + rng.random(c)
        y = one_hot(int(rng.integers(0, c)), c)
        eps, w = gauss_hermite_draws(16, c)
        g_m, g_v = point_grads(m, v, y, eps, w)
        h = 1e-4
        for j in range(c):
            for which in ("m", "v"):
                vals = []
                for sgn in (1.0, -1.0):
                    mm, vv = m.copy(), v.copy()
                    if which == "m":
                        mm[j] += sgn * h
                    else:
                        vv[j] += sgn * h
                    vals.append(point_loglik(mm, vv, y, eps, w))
                fd = (vals[0] - vals[1]) / (2 * h)
                exact = g_m[j] if which == "m" else g_v[j]
                assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))

    def test_grad_mean_params_chain(self):
        rng = np.random.default_rng(5)
        c = 4
        m = rng.standard_normal(c)
        v = 0.5 + rng.random(c)
        y = one_hot(2, c)
        eps, w = gauss_hermite_draws(10, c)
        g_m, g_v = point_grads(m, v, y, eps, w)
        d1, d2 = grad_mean_params(m, v, y, eps, w)
        np.testing.assert_allclose(d1, g_m - 2.0 * g_v * m, atol=1e-12)
        np.testing.assert_allclose(d2, g_v, atol=0)

    def test_grad_mean_params_fd_common_draws(self):
        # direct finite differences in (mu1, mu2) coordinates
        rng = np.random.default_rng(6)
        c = 3
        m = rng.standard_normal(c)
        v = 0.5 + rng.random(c)
        mu1, mu2 = m, v + m * m
        y = one_hot(0, c)
        eps, w = gauss_hermite_draws(16, c)
        d1, d2 = grad_mean_params(m, v, y, eps, w)
        h = 1e-5
        for j in range(c):
            for which, exact in (("mu1", d1[j]), ("mu2", d2[j])):
                vals = []
                for sgn in (1.0, -1.0):
                    a, b = mu1.copy(), mu2.copy()
                    if which == "mu1":
                        a[j] += sgn * h
                    else:
                        b[j] += sgn * h
                    vals.append(point_loglik(a, b - a**2, y, eps, w))
                fd = (vals[0] - vals[1]) / (2 * h)
                assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))


class TestClassLeadingKernel:
    """The (C, N, S) softmax kernel against the last-axis (S, N, C) formulas
    of `oracles`. The layouts sum the nodes and form p in different orders
    (a pairwise last-axis sum, p = e / sum), so they agree to rounding. Each
    bound is under 10x the worst deviation over these 15 cases: g_m 6.7e-16
    and g_v 4.5e-15 absolute (both on the Gauss-Hermite set, where
    E[p^2] - E[p] cancels), log-likelihood 2.9e-16 relative, label
    probabilities 6.7e-16 absolute. The independent draws are per point,
    (S, N, C); the package takes each point alone on its own draws. The
    package's marginals and gradients are (C, N), the oracles' (N, C)."""

    GM_ATOL = 5e-15
    GV_ATOL = 4e-14
    LL_RTOL = 2e-15
    PROBS_ATOL = 5e-15

    @staticmethod
    def case(c: int, n: int):
        rng = np.random.default_rng(100 + c)
        s = 33
        # per-point scales from 1e-2 to 1e3, so logits reach about +-1e3
        m = rng.uniform(-1.0, 1.0, (n, c)) * 10.0 ** rng.integers(-2, 4, (n, 1))
        v = rng.random((n, c)) * 10.0 ** rng.integers(-3, 3, (n, 1))
        Y = np.eye(c)[rng.integers(0, c, size=n)]
        eps = oracles.iid_draws(c, (s, n, c))
        w = rng.random(s)
        nodes = max(1, int(1024 ** (1.0 / c)))
        eps_gh, w_gh = gauss_hermite_draws(nodes, c)
        draw_sets = [(eps, None), (eps, w / w.sum()), (eps_gh, w_gh)]
        return m, v, Y, draw_sets

    @classmethod
    def package(cls, m, v, Y, eps, w):
        """The package's (g_m, g_v, summed log-likelihood), the gradients
        (N, C) like the oracles'. Per-point draws (S, N, C) go in one point
        at a time, each point's draws its node set."""
        if eps.ndim == 2:
            lik = SoftmaxLikelihood(eps, w)
            g_m, g_v = lik.grads_mv(m.T, v.T, Y)
            return g_m.T, g_v.T, lik.expected_loglik(m.T, v.T, Y)
        g_m, g_v, ll = zip(
            *(cls.package(m[i : i + 1], v[i : i + 1], Y[i : i + 1], eps[:, i], w) for i in range(len(m)))
        )
        return np.concatenate(g_m), np.concatenate(g_v), sum(ll)

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("c", [2, 5, 8, 10, 20])
    def test_grads_and_loglik_match(self, c, n):
        m, v, Y, draw_sets = self.case(c, n)
        for eps, w in draw_sets:
            g_m, g_v, got = self.package(m, v, Y, eps, w)
            want = oracles.batch_grads_mv(m, v, Y, eps, w)
            np.testing.assert_allclose(g_m, want[0], rtol=0, atol=self.GM_ATOL)
            np.testing.assert_allclose(g_v, want[1], rtol=0, atol=self.GV_ATOL)
            want = oracles.batch_expected_loglik(m, v, Y, eps, w)
            assert got == pytest.approx(want, rel=self.LL_RTOL, abs=0)

    @pytest.mark.parametrize("c", [2, 5, 8, 10, 20])
    def test_label_probs_match(self, c, monkeypatch):
        m, v, _, _ = self.case(c, 7)
        var = v - 0.1  # some negative predictive variances, clamped to 0
        monkeypatch.setattr(model, "predict_latent", lambda fit, x: (m.T, var.T))
        probs = model.predict_labels(None, None, normal_draws(4, (33, c)))
        eps = normal_draws(4, (33, c))[:, None, :]
        want = oracles.label_probs(m, var, eps)
        np.testing.assert_allclose(probs, want, rtol=0, atol=self.PROBS_ATOL)


def elementwise_logits(m, v, eps):
    """f - max_c f for f = m + sqrt(v) * eps, (C, N, S), by broadcasting."""
    f = m[:, :, None] + np.sqrt(v)[:, :, None] * eps.T[:, None, :]
    return f - np.maximum.reduce(f, axis=0)


def product_logits(m, v, eps):
    """The package's logits, the batched product of `_stable_logits`."""
    return likelihood._stable_logits(m, np.sqrt(v), likelihood._node_layout(eps))


class TestLogitsProduct:
    """The logits as [sd, m] @ [eps; 1] against the elementwise m + sd * eps.
    With two terms the product rounds sd * eps, then its sum with m, as the
    elementwise form does, so the two are equal bit for bit; every default
    artifact rests on that."""

    @staticmethod
    def marginals(c, n, s, seed=0):
        rng = np.random.default_rng(seed)
        m = 3.0 * rng.standard_normal((c, n))
        v = 4.0 * rng.random((c, n))
        return m, v, normal_draws(seed, (s, c))

    @pytest.mark.parametrize(
        "c, n, s", [(5, 25, 64), (5, 25, 512), (5, 80, 512), (10, 100, 512), (3, 4, 33)]
    )
    def test_equals_elementwise(self, c, n, s):
        m, v, eps = self.marginals(c, n, s)
        assert np.array_equal(product_logits(m, v, eps), elementwise_logits(m, v, eps))

    @pytest.mark.parametrize("c", [2, 5, 8, 10, 20])
    def test_equals_elementwise_at_large_logits(self, c):
        m, v, _, draw_sets = TestClassLeadingKernel.case(c, 7)
        for eps in (draw_sets[0][0][:, 0], draw_sets[2][0]):  # (S, C) sets
            assert np.array_equal(product_logits(m.T, v.T, eps), elementwise_logits(m.T, v.T, eps))

    @pytest.mark.parametrize("c, n, s", [(5, 1, 64), (10, 1, 512), (5, 25, 1), (10, 100, 1)])
    def test_matrix_vector_within_one_rounding(self, c, n, s):
        # At N = 1 or S = 1 the product may take a matrix-vector kernel that
        # fuses the multiply-add: each logit then moves by at most one
        # rounding at a = |sd * eps| + |m|, and each side's max shift rounds
        # once at up to twice the class-max scale.
        m, v, eps = self.marginals(c, n, s, seed=c + n)
        a = np.abs(np.sqrt(v)[:, :, None] * eps.T[:, None, :]) + np.abs(m)[:, :, None]
        err = np.abs(product_logits(m, v, eps) - elementwise_logits(m, v, eps))
        assert np.all(err <= 4.0 * np.spacing(np.maximum.reduce(a, axis=0)))


class TestMemory:
    """tracemalloc peaks of the estimators at (C, N, S) = (10, 100, 512), in
    units of one (C, N, S) float64 buffer, so that no new temporary of that
    size slips in. The node layout is built once per node set, before the
    count. Measured: 1.11 for the gradients (the logits buffer and p^2 in
    place and the node means) and 1.30 for the log-likelihood (its (N, S)
    rows on top)."""

    @pytest.mark.parametrize(
        "estimator, bound", [(batch_grads_mv, 1.2), (batch_expected_loglik, 1.4)]
    )
    def test_peak_is_one_logits_buffer(self, estimator, bound):
        c, n, s = 10, 100, 512
        m, v, eps = TestLogitsProduct.marginals(c, n, s)
        Y = np.eye(c)[np.arange(n) % c]
        nodes = SoftmaxLikelihood(eps).nodes  # laid out once, before the count
        estimator(m, v, Y, nodes)  # any first-call allocation is not counted
        tracemalloc.start()
        try:
            estimator(m, v, Y, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * c * n * s * 8


class TestLikelihoodObjects:
    def test_softmax_likelihood_deterministic(self):
        rng = np.random.default_rng(7)
        n, c = 5, 3
        m = rng.standard_normal((n, c))
        v = 0.5 + rng.random((n, c))
        Y = np.eye(c)[rng.integers(0, c, size=n)]
        lik1 = SoftmaxLikelihood(normal_draws(13, (32, c)))
        lik2 = SoftmaxLikelihood(normal_draws(13, (32, c)))
        assert lik1.expected_loglik(m.T, v.T, Y) == lik2.expected_loglik(m.T, v.T, Y)

    def test_gaussian_site_likelihood(self):
        rng = np.random.default_rng(8)
        n, c = 4, 2
        a = rng.standard_normal((n, c))
        b = -rng.random((n, c))
        m = rng.standard_normal((n, c))
        v = 0.5 + rng.random((n, c))
        lik = GaussianSiteLikelihood(a, b)
        manual = float(np.sum(a * m + b * (v + m * m)))
        assert lik.expected_loglik(m, v, None) == pytest.approx(manual, rel=1e-12)
        g_m, g_v = lik.grads_mv(m, v, None)
        np.testing.assert_allclose(g_m, a + 2 * b * m, atol=0)
        np.testing.assert_allclose(g_v, np.broadcast_to(b, m.shape), atol=0)

    def test_gaussian_site_rejects_positive_quadratic(self):
        with pytest.raises(InputError, match="coefficients must be <= 0"):
            GaussianSiteLikelihood(np.zeros((2, 2)), np.full((2, 2), 0.1))

    def test_gaussian_site_shape_mismatch(self):
        with pytest.raises(InputError, match="must both be"):
            GaussianSiteLikelihood(np.zeros((2, 2)), np.zeros((3, 2)))
