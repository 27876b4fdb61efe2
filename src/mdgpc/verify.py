"""Numerical identity checks behind ``mdgpc verify``.

This module alone knows which identities are checked, on which instances
and within which tolerance; the runtime modules import nothing from it.
:func:`run` measures the exponential-family identities (round trip, Fenchel
equality, Bregman divergence = KL, grad A = dual coordinates), the softmax
likelihood gradients against finite differences, the full-rate mirror step
on Gaussian sites against the conjugate posterior, and the mirror step
against the natural-gradient step (:func:`ngd_verify`) and across rates.
Each check runs under :func:`~mdgpc.errors.named_failures`, so a numerical
failure names the check and the instance and prints no numpy warning.

Minimal coordinates: Theta2 is symmetric, so the natural coordinates t are
theta1 and the entries of Theta2 on and above the diagonal; the dual mean
coordinates s satisfy <theta, mu> = t . s, which doubles the off-diagonal
entries of Mu2. The finite-difference Fisher is built on them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import expfam, kernels, seeding, tasks
from .errors import InputError, NumericalError, named_failures
from .expfam import FullMeanParams, GaussianMoments, GaussianNatural, chol_solve, spd_cholesky
from .inference import _validate_labels, elbo, md_init, md_step
from .likelihood import GaussianSiteLikelihood, McConfig, SoftmaxLikelihood, gauss_hermite_draws
from .likelihood import batch_expected_loglik, batch_grads_mv, normal_draws
from .seeding import derive_seed, rng_for

__all__ = [
    "run", "ngd_verify", "central_diff", "random_moments", "tiny_instance",
    "sym_coord_count", "natural_to_coords", "coords_to_natural", "mean_to_dual_coords",
    "PointMeanParams", "check_one_hot", "mc_expected_loglik", "grad_mv",
]


def sym_coord_count(n: int) -> int:
    """Number of minimal coordinates for dimension n: n + n(n+1)/2."""
    return n + (n * (n + 1)) // 2


def natural_to_coords(nat: GaussianNatural) -> np.ndarray:
    """Stack (theta1, upper-triangle of Theta2) into a coordinate vector."""
    return np.concatenate([nat.theta1, nat.Theta2[np.triu_indices(nat.dim)]])


def coords_to_natural(t: np.ndarray, n: int) -> GaussianNatural:
    """Inverse of :func:`natural_to_coords` for dimension n."""
    t = np.asarray(t, dtype=float)
    if t.shape[0] != sym_coord_count(n):
        raise InputError(
            f"expected {sym_coord_count(n)} coordinates for n={n}, got {t.shape[0]}"
        )
    theta1 = t[:n]
    Theta2 = np.zeros((n, n))
    Theta2[np.triu_indices(n)] = t[n:]
    Theta2 = Theta2 + np.triu(Theta2, 1).T
    return GaussianNatural(theta1=theta1, Theta2=Theta2)


def mean_to_dual_coords(mu: FullMeanParams) -> np.ndarray:
    """Dual coordinates s with <theta, mu> = t . s (off-diagonals doubled)."""
    scaled = 2.0 * mu.Mu2 - np.diag(np.diag(mu.Mu2))
    return np.concatenate([mu.mu1, scaled[np.triu_indices(mu.dim)]])


@dataclass(frozen=True)
class PointMeanParams:
    """Per-point diagonal mean parameters mu1 = m_n, mu2 = v_n + m_n^2.

    Holds elementwise arrays; entries are independent scalar-Gaussian
    mean parameters, one per (point, class) pair.
    """

    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        mu1 = np.asarray(self.mu1, dtype=float)
        mu2 = np.asarray(self.mu2, dtype=float)
        if mu1.shape != mu2.shape:
            raise InputError(f"mu1 shape {mu1.shape} != mu2 shape {mu2.shape}")
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)

    @property
    def mean(self) -> np.ndarray:
        return self.mu1

    @property
    def variance(self) -> np.ndarray:
        return self.mu2 - self.mu1**2


def check_one_hot(y: np.ndarray) -> np.ndarray:
    """Validate a one-hot label vector (entries in {0,1}, exactly one 1)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InputError(f"label must be a vector, got shape {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)) or int(np.sum(y)) != 1:
        raise InputError(f"not a one-hot vector: {y!r}")
    return y


def _point_eps(pm, mc: McConfig, eps):
    return normal_draws(mc.seed, (mc.samples, pm.mean.shape[0])) if eps is None else eps


def mc_expected_loglik(pm, y: np.ndarray, mc: McConfig, eps=None, weights=None) -> float:
    """Estimated E[log p(y | f)] for a single point marginal.

    pm carries per-class mean and variance vectors (see
    :class:`PointMeanParams`); draws come from mc.seed unless an explicit
    (S, C) node set eps (with optional weights) is given.
    """
    y = check_one_hot(y)
    eps = _point_eps(pm, mc, eps)
    return batch_expected_loglik(
        pm.mean[None, :], pm.variance[None, :], y[None, :], eps[:, None, :], weights
    )


def grad_mv(pm, y: np.ndarray, mc: McConfig, eps=None, weights=None):
    """Estimated (g_m, g_v) for a single point, common draws with
    :func:`mc_expected_loglik` when given the same eps or mc."""
    y = check_one_hot(y)
    eps = _point_eps(pm, mc, eps)
    g_m, g_v = batch_grads_mv(
        pm.mean[None, :], pm.variance[None, :], y[None, :], eps[:, None, :], weights
    )
    return g_m[0], g_v[0]


def central_diff(fun, x0: np.ndarray, fd_step: float) -> np.ndarray:
    """Central differences (fun(x + h) - fun(x - h)) / 2h, one per coordinate
    of x0 with h = fd_step * max(1, |x0_k|), stacked on the last axis."""
    cols = []
    for k in range(x0.shape[0]):
        h = fd_step * max(1.0, abs(x0[k]))
        up, dn = x0.copy(), x0.copy()
        up[k] += h
        dn[k] -= h
        cols.append((fun(up) - fun(dn)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _state_coords(state) -> np.ndarray:
    """Natural coordinates of the full per-class posterior, concatenated."""
    parts = []
    for i, g in enumerate(state.prior):
        Kinv = 0.5 * (g.kinv + g.kinv.T)
        nat = GaussianNatural(
            theta1=state.alpha[i],
            Theta2=-0.5 * Kinv + np.diag(state.beta[i]),
        )
        parts.append(natural_to_coords(nat))
    return np.concatenate(parts)


def _md_direction(state, Y, lik, rho: float) -> np.ndarray:
    stepped = md_step(state, Y, rho, lik)
    return (_state_coords(stepped) - _state_coords(state)) / rho


def _objective_at(coords, state, Y, lik, n, c):
    p = sym_coord_count(n)
    moments = [
        expfam.natural_to_moments(coords_to_natural(coords[i * p : (i + 1) * p], n))
        for i in range(c)
    ]
    m = np.stack([mom.m for mom in moments])
    Sigma = np.stack([mom.Sigma for mom in moments])
    return elbo(m, Sigma, state.prior, Y, lik)


def ngd_verify(
    prior_grams: list, Y: np.ndarray, lik=None, warmup_steps=2, fd_step=1e-4, gh_nodes=40
) -> dict:
    """Check that the mirror step equals the natural-gradient step.

    After `warmup_steps` mirror steps at rate 0.5, computes (a) the
    mirror-descent direction (theta_{t+1} - theta_t) / rho in minimal
    natural coordinates and (b) [grad^2 A]^{-1} grad_theta ELBO with the
    gradient by central finite differences of the ELBO and the Fisher by
    central finite differences of the map theta -> mu. Returns the maximum
    componentwise deviation relative to the direction scale (`deviation`)
    and that of the rate-1 direction from the rate-0.1 one
    (`rho_deviation`). Both sides evaluate the same expected-log-likelihood
    functional on a common deterministic node set (Gauss-Hermite; binary
    case), so the deviation reflects finite-difference error only.

    Intended for tiny instances (N <= 3 per class, C = 2).
    """
    n, c = prior_grams[0].K.shape[0], len(prior_grams)
    Y = _validate_labels(Y, n, c)
    if lik is None:
        if c != 2:
            raise InputError("default node set covers the binary case only")
        lik = SoftmaxLikelihood(*gauss_hermite_draws(gh_nodes, c))

    state = md_init(prior_grams)
    for t in range(warmup_steps):
        state = md_step(state, Y, 0.5, lik)

    md_dir = _md_direction(state, Y, lik, rho=1.0)
    md_dir_small = _md_direction(state, Y, lik, rho=0.1)
    scale = max(np.max(np.abs(md_dir)), 1e-12)
    rho_deviation = float(np.max(np.abs(md_dir - md_dir_small)) / scale)

    coords0 = _state_coords(state)
    p = sym_coord_count(n)
    grad_theta = central_diff(lambda x: _objective_at(x, state, Y, lik, n, c), coords0, fd_step)

    def dual_of(t):
        mom = expfam.natural_to_moments(coords_to_natural(t, n))
        return mean_to_dual_coords(expfam.moments_to_mean(mom))

    ngd_dir = np.zeros_like(grad_theta)
    for i in range(c):
        block = slice(i * p, (i + 1) * p)
        fisher = central_diff(dual_of, coords0[block], fd_step)
        fisher = 0.5 * (fisher + fisher.T)
        try:
            Lf, _ = spd_cholesky(fisher)
        except NumericalError as exc:
            raise NumericalError(f"finite-difference Fisher for class {i} not factorizable") from exc
        cond = (np.max(np.diag(Lf)) / max(np.min(np.diag(Lf)), 1e-300)) ** 2
        if not math.isfinite(cond) or cond > 1e14:
            raise NumericalError(f"finite-difference Fisher for class {i} too ill-conditioned")
        ngd_dir[block] = chol_solve(Lf, grad_theta[block])

    denom = max(np.max(np.abs(md_dir)), np.max(np.abs(ngd_dir)), 1e-12)
    deviation = float(np.max(np.abs(md_dir - ngd_dir)) / denom)
    return {"deviation": deviation, "rho_deviation": rho_deviation}


def random_moments(rng, n: int) -> GaussianMoments:
    """A Gaussian with standard-normal mean and a well-conditioned covariance."""
    a = rng.standard_normal((n, n))
    sigma = a @ a.T + 0.5 * n * np.eye(n)
    return GaussianMoments(rng.standard_normal(n), sigma)


def tiny_instance(seed: int):
    """(grams, labels) of a binary one-shot episode: two points, two classes."""
    gen_cfg = tasks.TaskGenConfig(n_classes=2, shots=1, queries=1, dim=2, seed=seed)
    episode = tasks.gen_episode(gen_cfg, seed=seed)
    base = kernels.BaseKernelConfig(
        "RBF", length_scale_raw=float(kernels.softplus_inv(3.0))
    )
    grams = [kernels.gram(base, episode.support_x) for _ in range(2)]
    return grams, episode.support_y


def _check_roundtrip(seed: int) -> float:
    worst = 0.0
    for i in range(5):
        mom = random_moments(rng_for(seed, seeding.STREAM_VERIFY, 1, i), 4)
        back = expfam.natural_to_moments(expfam.moments_to_natural(mom))
        worst = max(
            worst,
            float(np.max(np.abs(back.m - mom.m))),
            float(np.max(np.abs(back.Sigma - mom.Sigma))),
        )
    return worst


def _check_fenchel(seed: int) -> float:
    worst = 0.0
    for i in range(5):
        mom = random_moments(rng_for(seed, seeding.STREAM_VERIFY, 2, i), 4)
        nat = expfam.moments_to_natural(mom)
        mu = expfam.moments_to_mean(mom)
        gap = expfam.log_partition(nat) + expfam.neg_entropy(mu) - expfam.pairing(nat, mu)
        worst = max(worst, abs(gap))
    return worst


def _check_bregman_kl(seed: int) -> float:
    worst = 0.0
    for i in range(5):
        rng = rng_for(seed, seeding.STREAM_VERIFY, 3, i)
        q, p = random_moments(rng, 3), random_moments(rng, 3)
        breg = expfam.bregman_h(expfam.moments_to_mean(q), expfam.moments_to_mean(p))
        kl = expfam.gaussian_kl(q.m, q.Sigma, spd_cholesky(p.Sigma)[0], p.m)
        worst = max(worst, abs(breg - kl))
    return worst


def _check_log_partition_grad(seed: int, fd_step: float) -> float:
    """Central FD of A over minimal natural coordinates vs dual coordinates."""
    worst = 0.0
    for i in range(3):
        mom = random_moments(rng_for(seed, seeding.STREAM_VERIFY, 4, i), 3)
        n = mom.dim
        grad_fd = central_diff(
            lambda t: expfam.log_partition(coords_to_natural(t, n)),
            natural_to_coords(expfam.moments_to_natural(mom)),
            fd_step,
        )
        exact = mean_to_dual_coords(expfam.moments_to_mean(mom))
        rel = np.max(np.abs(grad_fd - exact)) / max(1.0, float(np.max(np.abs(exact))))
        worst = max(worst, float(rel))
    return worst


def _check_likelihood_grads(seed: int, fd_step: float) -> float:
    """CRN finite differences of the expected log-likelihood vs (g_m, g_v).

    Uses a fixed Gauss-Hermite node set as the common draws so both sides
    are exact quadratures of the same smooth expectation; plain Monte Carlo
    draws would leave an O(1/sqrt(S)) gap between the pathwise difference
    quotient and the analytic integrand forms. The step is fd_step itself,
    not scaled by the coordinate.
    """
    rng = rng_for(seed, seeding.STREAM_VERIFY, 5)
    c = 3
    m = rng.standard_normal(c)
    v = 0.5 + rng.random(c)
    y = np.zeros(c)
    y[0] = 1.0
    pm = PointMeanParams(mu1=m, mu2=v + m * m)
    eps, weights = gauss_hermite_draws(16, c)
    mc = McConfig(samples=eps.shape[0], seed=0)
    g_m, g_v = grad_mv(pm, y, mc, eps=eps, weights=weights)
    worst = 0.0
    for j in range(c):
        for which in ("m", "v"):
            mm, vv = m.copy(), v.copy()
            vals = []
            for sgn in (1.0, -1.0):
                if which == "m":
                    mm[j] = m[j] + sgn * fd_step
                else:
                    vv[j] = v[j] + sgn * fd_step
                shifted = PointMeanParams(mu1=mm, mu2=vv + mm * mm)
                vals.append(mc_expected_loglik(shifted, y, mc, eps=eps, weights=weights))
            fd = (vals[0] - vals[1]) / (2.0 * fd_step)
            exact = g_m[j] if which == "m" else g_v[j]
            worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    return worst


def _check_conjugate_step(seed: int) -> float:
    rng = rng_for(seed, seeding.STREAM_VERIFY, 7)
    n, c = 3, 2
    Z = rng.standard_normal((n, 2))
    base = kernels.BaseKernelConfig("RBF")
    grams = [kernels.gram(base, Z) for _ in range(c)]
    a = rng.standard_normal((n, c))
    b = -0.1 - 0.4 * rng.random((n, c))
    Y = np.zeros((n, c))
    Y[:, 0] = 1.0
    stepped = md_step(md_init(grams), Y, 1.0, GaussianSiteLikelihood(a, b))
    worst = 0.0
    for i, g in enumerate(grams):
        prec = np.linalg.inv(g.k_eff) - 2.0 * np.diag(b[:, i])
        sigma = np.linalg.inv(prec)
        mean = sigma @ a[:, i]
        worst = max(
            worst,
            float(np.max(np.abs(stepped.Sigma[i] - sigma))),
            float(np.max(np.abs(stepped.m[i] - mean))),
        )
    return worst


def _check_ngd(seed: int, instances: int, fd_step: float, gh_nodes: int) -> tuple:
    worst_dev, worst_rho = 0.0, 0.0
    for i in range(instances):
        with named_failures(f"ngd_equivalence instance {i}"):
            grams, Y = tiny_instance(derive_seed(seed, seeding.STREAM_VERIFY, 8, i))
            report = ngd_verify(grams, Y, fd_step=fd_step, gh_nodes=gh_nodes)
        worst_dev = max(worst_dev, report["deviation"])
        worst_rho = max(worst_rho, report["rho_deviation"])
    return worst_dev, worst_rho


def run(seed: int, instances: int, fd_step: float, gh_nodes: int, tolerance: float) -> list:
    """Measure every check: [(name, deviation, tolerance), ...] in report order.

    `instances`, `fd_step` and `gh_nodes` set up the natural-gradient check,
    whose bound is `tolerance`; every other bound is fixed here. A check
    passes when its deviation is at most its tolerance.
    """
    ngd_dev, rho_dev = _check_ngd(seed, instances, fd_step, gh_nodes)
    checks = [
        ("expfam_roundtrip", lambda: _check_roundtrip(seed), 1e-8),
        ("fenchel_equality", lambda: _check_fenchel(seed), 1e-8),
        ("bregman_equals_kl", lambda: _check_bregman_kl(seed), 1e-8),
        ("log_partition_grad_fd", lambda: _check_log_partition_grad(seed, fd_step), 1e-4),
        ("likelihood_grads_fd", lambda: _check_likelihood_grads(seed, fd_step), 1e-4),
        ("conjugate_step_exact", lambda: _check_conjugate_step(seed), 1e-8),
    ]
    report = []
    for name, check, tol in checks:
        with named_failures(name):
            report.append((name, check(), tol))
    return report + [("ngd_equivalence", ngd_dev, tolerance), ("rate_invariance", rho_dev, 1e-9)]
