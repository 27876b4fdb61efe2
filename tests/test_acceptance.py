"""Acceptance suite: one test per shipped claim, tolerances stated inline.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; ``-s`` additionally prints the measured quantities. The CLI
criteria exercise the installed entry points end to end and are the slow
part of the suite (a few minutes total).
"""

import json
import time

import numpy as np
import oracles
import pytest

from mdgpc import cli, inference, kernels, likelihood, meta, metrics, model, tasks, verify
from mdgpc.inference import InnerConfig
from mdgpc.seeding import derive_seed
from mdgpc.verify import GaussianSiteLikelihood, random_moments, tiny_instance
from oracles import dense_moments, dual_coords_to_mean, moments_kl, point_grads, point_loglik
from oracles import scipy_gaussian_kl, stack_priors, step_nodes


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_01_mirror_step_equals_natural_gradient_step(tmp_path):
    """Max relative deviation <= 1e-3 on 10 tiny instances, under 30 s."""
    start = time.monotonic()
    worst = 0.0
    for i in range(10):
        grams, Y = tiny_instance(200 + i)
        report = verify.ngd_verify(grams, Y)
        worst = max(worst, report["deviation"])
    elapsed = time.monotonic() - start
    print(f"criterion 1: max deviation {worst:.3e} (tol 1e-3), {elapsed:.1f} s (limit 30 s)")
    assert worst <= 1e-3
    assert elapsed < 30.0


def test_criterion_02_full_rate_step_is_exact_conjugate_update():
    """With Gaussian sites, one rho = 1 step matches the closed form to 1e-8."""
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, c = 4, 2
        # each class on its own features
        base = kernels.BaseKernels.at_scales("RBF", 1, length_scale=2.0)
        grams = stack_priors(kernels.gram(base, rng.standard_normal((n, 3))) for _ in range(c))
        a = rng.standard_normal((n, c))
        b = -0.1 - 0.5 * rng.random((n, c))
        lik = GaussianSiteLikelihood(a.T, b.T)
        Y = np.eye(c)[rng.integers(0, c, size=n)]
        state = inference.md_step(inference.md_init(grams), Y, 1.0, lik)
        _, core = state.kinv_terms()
        for i, K in enumerate(grams.k_eff):
            prec = np.linalg.inv(K) - 2.0 * np.diag(b[:, i])
            sigma = np.linalg.inv(prec)
            Sigma = K - K @ core[i] @ K
            worst = max(worst, np.max(np.abs(Sigma - sigma)))
            worst = max(worst, np.max(np.abs(state.v[i] - np.diag(sigma))))
            worst = max(worst, np.max(np.abs(state.m[i] - sigma @ a[:, i])))
    print(f"criterion 2: max deviation from closed form {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_03_likelihood_gradient_identities():
    """Gradient bounds hold on 1e5 random evals; common-draw finite
    differences agree with the analytic forms to 1e-4."""
    # (a) bounds: g_m in [-1, 1], g_v in [-1/8, 0]
    rng = np.random.default_rng(0)
    checked = 0
    for chunk in range(10):
        n, c = 10_000, 5
        m = 3.0 * rng.standard_normal((n, c))
        v = rng.gamma(2.0, 1.0, (n, c))
        Y = np.eye(c)[rng.integers(0, c, size=n)]
        eps = rng.standard_normal((8, c))  # one node set for all points
        g_m, g_v = likelihood.SoftmaxLikelihood(eps).grads_mv(m.T, v.T, Y)
        assert np.all(g_m >= -1.0) and np.all(g_m <= 1.0)
        assert np.all(g_v >= -0.125) and np.all(g_v <= 0.0)
        checked += n
    assert checked == 100_000

    # (b) finite differences of the estimator itself, common GH node set
    eps, w = verify.gauss_hermite_draws(16, 3)
    worst = 0.0
    for seed in range(3):
        r = np.random.default_rng(100 + seed)
        m = r.standard_normal(3)
        v = 0.5 + r.random(3)
        y = np.eye(3)[seed % 3]
        g_m, g_v = point_grads(m, v, y, eps, w)
        h = 1e-5
        for k in range(3):
            for target, grad in (("m", g_m), ("v", g_v)):
                up, dn = m.copy(), m.copy()
                uv, dv = v.copy(), v.copy()
                if target == "m":
                    up[k] += h
                    dn[k] -= h
                else:
                    uv[k] += h
                    dv[k] -= h
                fd = (
                    point_loglik(up, uv, y, eps, w) - point_loglik(dn, dv, y, eps, w)
                ) / (2 * h)
                worst = max(worst, abs(grad[k] - fd))
        # (c) mean-parameter chain identity, exact, plus direct FD in (mu1, mu2)
        d1, d2 = oracles.grad_mean_params(m, v, y, eps, w)
        np.testing.assert_array_equal(d1, g_m - 2.0 * g_v * m)
        np.testing.assert_array_equal(d2, g_v)
        for k in range(3):
            for which in (1, 2):
                mu1, mu2 = m.copy(), v + m**2
                nu1, nu2 = m.copy(), v + m**2
                if which == 1:
                    mu1[k] += h
                    nu1[k] -= h
                else:
                    mu2[k] += h
                    nu2[k] -= h
                fd = (
                    point_loglik(mu1, mu2 - mu1**2, y, eps, w)
                    - point_loglik(nu1, nu2 - nu1**2, y, eps, w)
                ) / (2 * h)
                grad = d1[k] if which == 1 else d2[k]
                worst = max(worst, abs(grad - fd))
    print(f"criterion 3: max FD deviation {worst:.3e} (tol 1e-4); bounds held on 1e5 evals")
    assert worst <= 1e-4


@pytest.mark.parametrize("shots", [5, 1], ids=["5shot", "1shot"])
def test_criterion_04_inner_loop_elbo_ordering(tmp_path, shots):
    """At a matched small rate (0.005, 30 steps) mirror descent reaches a
    final ELBO >= gradient descent on >= 90% of 20 episodes, under 2 min."""
    start = time.monotonic()
    out = tmp_path / f"ci{shots}"
    rc = cli.main(
        [
            "compare-inner",
            "--set",
            f"output_dir={out}",
            "--set",
            f"task.L={shots}",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "inner_trace.csv")
    finals = {
        (r["method"], int(r["episode"])): float(r["elbo"])
        for r in rows
        if int(r["step"]) == 30
    }
    wins = sum(finals[("MD", i)] >= finals[("GD", i)] for i in range(1, 21))
    elapsed = time.monotonic() - start
    print(
        f"criterion 4 ({shots}-shot): MD >= GD on {wins}/20 episodes "
        f"(need >= 18), {elapsed:.1f} s (limit 120 s)"
    )
    assert wins >= 18
    assert elapsed < 120.0


def test_criterion_05_outer_loop_convergence_ordering(tmp_path):
    """Meta-training with the MD inner loop reaches a final monitored query
    cross-entropy <= the GD-inner variant on >= 70% of 10 seeds, under 10 min."""
    start = time.monotonic()
    out = tmp_path / "co"
    rc = cli.main(["compare-outer", "--set", f"output_dir={out}"])
    assert rc == 0
    rows = read_csv(out / "outer_compare.csv")
    finals = {
        (r["method"], int(r["seed"])): float(r["query_ce"])
        for r in rows
        if int(r["iter"]) == 30
    }
    wins = sum(finals[("MD", s)] <= finals[("GD", s)] for s in range(1, 11))
    elapsed = time.monotonic() - start
    print(
        f"criterion 5: MD-inner <= GD-inner on {wins}/10 seeds (need >= 7), "
        f"{elapsed:.1f} s (limit 600 s)"
    )
    assert wins >= 7
    assert elapsed < 600.0


def test_criterion_06_outer_gradient_matches_finite_differences():
    """Hyperparameter gradient matches central FD to 1e-3 relative; exactly
    zero at the prior."""
    fe = kernels.init_extractor([4, 8, 6], seed=derive_seed(6, 99))
    base = kernels.BaseKernels.at_scales("RBF", 3, length_scale=1.5, output_scale=2.0)
    kern = kernels.DeepKernel(extractor=fe, base=base)
    ep = tasks.gen_episode(
        tasks.TaskGenConfig(n_classes=3, shots=2, queries=2, dim=4), seed=6
    )

    at_prior = model.fit_episode(
        kern, ep.support_x, ep.support_y, InnerConfig(steps=0), step_nodes(0, 64, 3)
    )
    np.testing.assert_array_equal(meta.outer_grad(at_prior), 0.0)

    cfg = InnerConfig(rho=0.8, steps=3, samples=64)
    fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, step_nodes(5, 64, 3))
    assert fit.grams.k_eff is fit.grams.K
    grad = meta.outer_grad(fit)
    flat = meta.flatten_hypers(kern)
    m, Sigma = fit.state.m, dense_moments(fit.state)[1]

    def objective(x):
        k2 = meta.unflatten_hypers(x, kern)
        Z, _ = kernels.extract(k2.extractor, ep.support_x)
        total = 0.0
        g = kernels.gram(k2.base, Z)
        for c in range(3):
            total -= scipy_gaussian_kl((m[c], Sigma[c]), (np.zeros_like(m[c]), g.k_eff[c]))
        return total

    fd = np.zeros_like(flat)
    h = 1e-5
    for k in range(flat.shape[0]):
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        fd[k] = (objective(up) - objective(dn)) / (2 * h)
    deviation = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(grad)))
    print(f"criterion 6: FD deviation {deviation:.3e} (tol 1e-3); zero at prior exact")
    assert deviation <= 1e-3


def test_criterion_07_exponential_family_identities():
    """Conversions invert to 1e-8, Fenchel and Bregman-KL identities hold to
    1e-8, potential gradients match FD to 1e-4."""
    worst_inv, worst_id, worst_fd = 0.0, 0.0, 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 2
        m, Sigma = random_moments(rng, n)
        m_back, Sigma_back = verify.natural_to_moments(*verify.moments_to_natural(m, Sigma))
        worst_inv = max(worst_inv, np.max(np.abs(Sigma_back - Sigma)))
        worst_inv = max(worst_inv, np.max(np.abs(m_back - m)))
        mu1, Mu2 = verify.moments_to_mean(m, Sigma)
        worst_inv = max(worst_inv, np.max(np.abs((Mu2 - np.outer(mu1, mu1)) - Sigma)))

        nat = verify.moments_to_natural(m, Sigma)
        mu = (mu1, Mu2)
        fenchel = verify.log_partition(*nat) + verify.neg_entropy(*mu) - verify.pairing(*nat, *mu)
        worst_id = max(worst_id, abs(fenchel))

        other = random_moments(rng, n)
        gap = verify.bregman_h(*mu, *verify.moments_to_mean(*other)) - moments_kl(
            (m, Sigma), other
        )
        worst_id = max(worst_id, abs(gap))

        t0 = verify.natural_to_coords(*nat)
        dual = verify.mean_to_dual_coords(*mu)
        p = t0.shape[0]
        h = 1e-6
        for k in range(p):
            up, dn = t0.copy(), t0.copy()
            up[k] += h
            dn[k] -= h
            fd = (
                verify.log_partition(*verify.coords_to_natural(up, n))
                - verify.log_partition(*verify.coords_to_natural(dn, n))
            ) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - dual[k]) / max(1.0, abs(dual[k])))
        s0 = dual
        for k in range(p):
            up, dn = s0.copy(), s0.copy()
            up[k] += h
            dn[k] -= h
            fd = (
                verify.neg_entropy(*dual_coords_to_mean(up, n))
                - verify.neg_entropy(*dual_coords_to_mean(dn, n))
            ) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - t0[k]) / max(1.0, abs(t0[k])))
    print(
        f"criterion 7: inversion {worst_inv:.3e} and identities {worst_id:.3e} "
        f"(tol 1e-8), potential-gradient FD {worst_fd:.3e} (tol 1e-4)"
    )
    assert worst_inv <= 1e-8
    assert worst_id <= 1e-8
    assert worst_fd <= 1e-4


def test_criterion_08_predictive_consistency():
    """Zero sites reproduce the prior predictive to 1e-10; fitted sites match
    the dense conditioning formula to 1e-8."""
    fe = kernels.init_extractor([8, 32, 32, 16], seed=derive_seed(8, 99))
    base = kernels.BaseKernels.at_scales("RBF", 5, length_scale=5.0, output_scale=4.0)
    kern = kernels.DeepKernel(extractor=fe, base=base)
    ep = tasks.gen_episode(tasks.TaskGenConfig(), seed=8)

    at_prior = model.fit_episode(
        kern, ep.support_x, ep.support_y, InnerConfig(steps=0), step_nodes(0, 64, 5)
    )
    mu0, var0 = model.predict_latent(at_prior, ep.query_x)
    Zq, _ = kernels.extract(kern.extractor, ep.query_x)
    worst_prior = np.max(np.abs(mu0))
    prior_diag = kernels.gram_diag(kern.base, Zq)
    for c in range(5):
        worst_prior = max(worst_prior, np.max(np.abs(var0[c] - prior_diag[c])))

    cfg = InnerConfig(rho=0.7, steps=4, samples=64)
    fit = model.fit_episode(kern, ep.support_x, ep.support_y, cfg, step_nodes(5, 64, 5))
    mu, var = model.predict_latent(fit, ep.query_x)
    Sigma = dense_moments(fit.state)[1]
    worst_dense = 0.0
    kxs = kernels.cross_gram(kern.base, Zq, fit.features, center=fit.grams.center)
    kdiags = kernels.gram_diag(kern.base, Zq)
    for c in range(5):
        kx, kdiag = kxs[c], kdiags[c]
        Kinv = np.linalg.inv(fit.grams.k_eff[c])
        mu_dense = kx @ Kinv @ fit.state.m[c]
        KiK = kx @ Kinv
        var_dense = kdiag - np.einsum("ij,ij->i", KiK, kx) + np.einsum(
            "ij,jk,ik->i", KiK, Sigma[c], KiK
        )
        worst_dense = max(worst_dense, np.max(np.abs(mu[c] - mu_dense)))
        worst_dense = max(worst_dense, np.max(np.abs(var[c] - var_dense)))
    print(
        f"criterion 8: prior reproduction {worst_prior:.3e} (tol 1e-10), "
        f"dense cross-check {worst_dense:.3e} (tol 1e-8)"
    )
    assert worst_prior <= 1e-10
    assert worst_dense <= 1e-8
    assert np.all(var > 0.0)


def test_criterion_09_calibration_and_training_efficacy(tmp_path):
    """Crafted reliability cases score exactly; an untrained kernel predicts
    at chance (20% +- 5 points) and 30 meta-training epochs lift held-out
    accuracy to >= 90%."""
    probs = np.array([[0.75, 0.25]] * 4)
    assert metrics.ece(probs, np.array([0, 0, 0, 1]), bins=10) == 0.0
    two_bin_p = np.array([[0.6, 0.4]] * 5 + [[0.9, 0.1]] * 5)
    two_bin_y = np.array([0, 0, 0, 1, 1, 0, 0, 0, 1, 1])
    assert metrics.ece(two_bin_p, two_bin_y, bins=10) == pytest.approx(0.15, abs=1e-12)
    assert metrics.mce(two_bin_p, two_bin_y, bins=10) == pytest.approx(0.30, abs=1e-12)

    def run_and_eval(epochs: int, tag: str) -> float:
        train_dir = tmp_path / f"train_{tag}"
        eval_dir = tmp_path / f"eval_{tag}"
        rc = cli.main(
            [
                "train",
                "--set",
                f"output_dir={train_dir}",
                "--set",
                "seed=42",
                "--set",
                "kernel.init_scales.weight_std=0.1",
                "--set",
                f"outer.epochs={epochs}",
            ]
        )
        assert rc == 0
        rc = cli.main(
            [
                "eval",
                "--checkpoint",
                str(train_dir / "checkpoint.json"),
                "--parallel-episodes",
                "4",
                "--set",
                f"output_dir={eval_dir}",
                "--set",
                "seed=42",
            ]
        )
        assert rc == 0
        return json.loads((eval_dir / "metrics.json").read_text())["accuracy_mean"]

    untrained = run_and_eval(0, "untrained")
    trained = run_and_eval(30, "trained")
    print(
        f"criterion 9: untrained accuracy {untrained:.4f} (need 0.20 +- 0.05), "
        f"trained accuracy {trained:.4f} (need >= 0.90); crafted ECE/MCE exact"
    )
    assert abs(untrained - 0.2) <= 0.05
    assert trained >= 0.90


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    """Every experiment artifact is reproduced byte for byte on a rerun."""
    cfg = {
        "seed": 3,
        "task": {"C": 3, "L": 2, "M": 2, "D": 4},
        "kernel": {"net_dims": [4, 8, 6]},
        "inner": {"steps": 2, "mc_samples": 16},
        "eval_inner": {"steps": 2, "mc_samples": 8},
        "outer": {"epochs": 1, "episodes_per_epoch": 2},
        "eval": {"episodes": 2, "batches": 1, "bins": 5, "pred_samples": 16},
        "compare_inner": {"episodes": 2, "steps": 2, "mc_samples": 8},
        "compare_outer": {
            "seeds": 1,
            "iterations": 1,
            "monitor_episodes": 2,
            "mc_samples": 8,
            "pred_samples": 8,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    artifacts = {
        "train": ["outer_trace.csv", "checkpoint.json"],
        "compare-inner": ["inner_trace.csv"],
        "compare-outer": ["outer_compare.csv"],
    }
    for cmd, files in artifacts.items():
        out = tmp_path / cmd
        argv = [cmd, "--config", str(cfg_path), "--set", f"output_dir={out}"]
        assert cli.main(list(argv)) == 0
        first = {f: (out / f).read_bytes() for f in files}
        assert cli.main(list(argv)) == 0
        for f in files:
            assert (out / f).read_bytes() == first[f], f"{cmd}/{f} changed on rerun"
    print("criterion 10: train, compare-inner and compare-outer reruns byte-identical")
