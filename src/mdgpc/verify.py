"""Numerical identity checks behind ``mdgpc verify``.

This module alone knows which identities are checked, on which instances
and within which tolerance; the runtime modules import nothing from it.
:func:`run` measures the exponential-family identities (round trip, Fenchel
equality, Bregman divergence = KL, grad A = dual coordinates), the softmax
likelihood gradients against finite differences, the full-rate mirror step
on Gaussian sites against the conjugate posterior, and the mirror step
against the natural-gradient step (:func:`ngd_verify`) and across rates.
Each check runs under :func:`~mdgpc.errors.named_failures`, so a numerical
failure names the check and the instance and prints no numpy warning. Its
solves go through :func:`chol_solve`, which no runtime step needs.

A multivariate Gaussian over f in R^N is written in exponential form

    q(f) = exp( theta1 . f + f' Theta2 f - A(theta) ),

with natural parameters

    theta1 = Sigma^{-1} m,        Theta2 = -1/2 Sigma^{-1},

mean parameters

    mu1 = E[f] = m,               Mu2 = E[f f'] = Sigma + m m',

log-partition function

    A(theta) = 1/2 m' Sigma^{-1} m + 1/2 log|Sigma| + N/2 log(2 pi),

and negative entropy (the convex conjugate of A up to the pairing)

    H(mu) = -N/2 log(2 pi e) - 1/2 log|Sigma|.

The constant in H is kept so the Fenchel identity A(theta) + H(mu) =
<theta, mu> holds exactly, with the pairing

    <theta, mu> = theta1 . mu1 + tr(Theta2 Mu2).

The Bregman divergence of H equals the Kullback-Leibler divergence between
the corresponding members of the family,

    B_H(mu, mu') = H(mu) - H(mu') - <grad H(mu'), mu - mu'> = KL(q_mu || q_mu'),

which is the identity that lets mirror descent on mean parameters act as
natural-gradient descent on natural parameters. Each parameterization is a
pair of plain arrays, a vector and a symmetric matrix: (m, Sigma),
(theta1, Theta2) or (mu1, Mu2).

Minimal coordinates: Theta2 is symmetric, so the natural coordinates t are
theta1 and the entries of Theta2 on and above the diagonal; the dual mean
coordinates s satisfy <theta, mu> = t . s, which doubles the off-diagonal
entries of Mu2. The finite-difference Fisher is built on them.
"""

import math

import numpy as np

from . import kernels, seeding, tasks
from .errors import InputError, NumericalError, named_failures
from .expfam import _check_finite, gaussian_kl, spd_cholesky
from .inference import _validate_labels, md_init, md_step
from .likelihood import SoftmaxLikelihood, batch_expected_loglik, batch_grads_mv
from .seeding import derive_seed, rng_for

__all__ = [
    "run", "ngd_verify", "central_diff", "random_moments", "tiny_instance",
    "moments_to_natural", "natural_to_moments", "moments_to_mean", "log_partition",
    "neg_entropy", "pairing", "bregman_h", "sym_coord_count", "natural_to_coords",
    "coords_to_natural", "mean_to_dual_coords", "gauss_hermite_draws", "chol_solve",
    "chol_logdet", "GaussianSiteLikelihood",
]


def chol_solve(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor of A; for a (C, N, N)
    stack of factors, b is (C, N) or (C, N, K), one right-hand side each.
    numpy has no triangular solve, so it inverts the factor."""
    b = np.asarray(b, dtype=float)
    if b.shape[: chol_lower.ndim - 1] != chol_lower.shape[:-1]:
        raise InputError(f"factor of shape {chol_lower.shape} and right-hand side {b.shape}")
    _check_finite(chol_lower, "Cholesky factor")
    _check_finite(b, "right-hand side")
    try:
        inv = np.linalg.inv(chol_lower)
    except np.linalg.LinAlgError:
        raise NumericalError(f"Cholesky factor of shape {chol_lower.shape} is singular") from None
    column = b.ndim < chol_lower.ndim
    x = inv.swapaxes(-1, -2) @ (inv @ (b[..., None] if column else b))
    return x[..., 0] if column else x


def chol_logdet(chol_lower: np.ndarray) -> float:
    """log-determinant of A from its lower Cholesky factor."""
    return float(2.0 * np.sum(np.log(np.diag(chol_lower))))


def moments_to_natural(m: np.ndarray, Sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, Sigma) -> (theta1, Theta2) = (Sigma^{-1} m, -1/2 Sigma^{-1})."""
    L, _ = spd_cholesky(Sigma)
    prec = chol_solve(L, np.eye(m.shape[0]))
    prec = 0.5 * (prec + prec.T)
    return prec @ m, -0.5 * prec


def natural_to_moments(theta1: np.ndarray, Theta2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta1, Theta2) -> (m, Sigma) with Sigma = (-2 Theta2)^{-1}."""
    L, _ = spd_cholesky(-2.0 * Theta2)
    Sigma = chol_solve(L, np.eye(theta1.shape[0]))
    return chol_solve(L, theta1), 0.5 * (Sigma + Sigma.T)


def moments_to_mean(m: np.ndarray, Sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, Sigma) -> (mu1, Mu2) = (m, Sigma + m m')."""
    return m, Sigma + np.outer(m, m)


def log_partition(theta1: np.ndarray, Theta2: np.ndarray) -> float:
    """A(theta) = 1/2 m' Sigma^{-1} m + 1/2 log|Sigma| + N/2 log(2 pi)."""
    L, _ = spd_cholesky(-2.0 * Theta2)
    # m' Sigma^{-1} m = theta1' Sigma theta1, with Sigma = prec^{-1}
    half_quad = 0.5 * float(theta1 @ chol_solve(L, theta1))
    # log|Sigma| = -log|prec|
    return half_quad - 0.5 * chol_logdet(L) + 0.5 * theta1.shape[0] * np.log(2.0 * np.pi)


def neg_entropy(mu1: np.ndarray, Mu2: np.ndarray) -> float:
    """H(mu) = -N/2 log(2 pi e) - 1/2 log|Sigma| at Sigma = Mu2 - mu1 mu1'."""
    L, _ = spd_cholesky(Mu2 - np.outer(mu1, mu1))
    return -0.5 * mu1.shape[0] * np.log(2.0 * np.pi * np.e) - 0.5 * chol_logdet(L)


def pairing(theta1: np.ndarray, Theta2: np.ndarray, mu1: np.ndarray, Mu2: np.ndarray) -> float:
    """<theta, mu> = theta1 . mu1 + tr(Theta2 Mu2)."""
    return float(theta1 @ mu1 + np.sum(Theta2 * Mu2))


def bregman_h(mu1: np.ndarray, Mu2: np.ndarray, nu1: np.ndarray, Nu2: np.ndarray) -> float:
    """Bregman divergence of H: B_H(mu, nu) = KL(q_mu || q_nu).

    Computed from the defining expansion H(mu) - H(nu) - <theta_nu, mu - nu>,
    using grad H(nu) = theta_nu.
    """
    theta1, Theta2 = moments_to_natural(nu1, Nu2 - np.outer(nu1, nu1))
    return (
        neg_entropy(mu1, Mu2)
        - neg_entropy(nu1, Nu2)
        - pairing(theta1, Theta2, mu1 - nu1, Mu2 - Nu2)
    )


def sym_coord_count(n: int) -> int:
    """Number of minimal coordinates for dimension n: n + n(n+1)/2."""
    return n + (n * (n + 1)) // 2


def natural_to_coords(theta1: np.ndarray, Theta2: np.ndarray) -> np.ndarray:
    """Stack (theta1, upper-triangle of Theta2) into a coordinate vector; for
    stacks (C, N) and (C, N, N), one such row per class."""
    rows, cols = np.triu_indices(theta1.shape[-1])
    return np.concatenate([theta1, Theta2[..., rows, cols]], axis=-1)


def coords_to_natural(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`natural_to_coords` for dimension n."""
    t = np.asarray(t, dtype=float)
    if t.shape[0] != sym_coord_count(n):
        raise InputError(
            f"expected {sym_coord_count(n)} coordinates for n={n}, got {t.shape[0]}"
        )
    Theta2 = np.zeros((n, n))
    Theta2[np.triu_indices(n)] = t[n:]
    return t[:n], Theta2 + np.triu(Theta2, 1).T


def mean_to_dual_coords(mu1: np.ndarray, Mu2: np.ndarray) -> np.ndarray:
    """Dual coordinates s with <theta, mu> = t . s (off-diagonals doubled)."""
    scaled = 2.0 * Mu2 - np.diag(np.diag(Mu2))
    return np.concatenate([mu1, scaled[np.triu_indices(mu1.shape[0])]])


def gauss_hermite_draws(n_nodes: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite node set for E[g(eps)], eps ~ N(0, I_C).

    Returns (eps, weights) with eps of shape (n_nodes**C, C) and weights
    summing to 1. The estimators of :mod:`mdgpc.likelihood` take it as a
    weighted draw set, the deterministic common draws of the binary-case
    checks; the node count grows as n_nodes**C.
    """
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    w = w / np.sqrt(2.0 * np.pi)
    grids = np.meshgrid(*([x] * n_classes), indexing="ij")
    eps = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * n_classes), indexing="ij")
    weights = np.ones(eps.shape[0])
    for g in wgrids:
        weights = weights * g.reshape(-1)
    return eps, weights


class GaussianSiteLikelihood:
    """Synthetic log-likelihood sum_n (a_n . f_n + b_n . f_n^2), b <= 0.

    Its mean-parameter gradients are the constants (a, b), so a single
    mirror step with rho = 1 must land exactly on the conjugate posterior
    with site naturals (a, b), both (C, N) like the marginals.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape or a.ndim != 2:
            raise InputError("a, b must both be (C, N)")
        if np.any(b > 0.0):
            raise InputError("quadratic site coefficients must be <= 0")
        self.a = a
        self.b = b

    def expected_loglik(self, m, v, Y) -> float:
        # E[a f + b f^2] = a mu1 + b mu2 with mu2 = v + m^2
        return float(np.sum(self.a * m + self.b * (v + m * m)))

    def grads_mv(self, m, v, Y):
        return self.a + 2.0 * self.b * m, np.broadcast_to(self.b, np.shape(m)).copy()


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


def _state_coords(state, prior) -> np.ndarray:
    """Natural coordinates of the full per-class posterior, concatenated."""
    n = prior.chol.shape[1]
    Kinv = chol_solve(prior.chol, np.broadcast_to(np.eye(n), prior.chol.shape))
    Theta2 = -0.5 * (0.5 * (Kinv + Kinv.swapaxes(1, 2)))
    d = np.arange(n)
    Theta2[:, d, d] += state.beta
    return natural_to_coords(state.alpha, Theta2).ravel()


def _md_direction(state, prior, Y, lik, rho: float) -> np.ndarray:
    stepped = md_step(state, Y, rho, lik)
    return (_state_coords(stepped, prior) - _state_coords(state, prior)) / rho


def _objective_at(coords, prior, Y, lik, n, c):
    """The ELBO at natural coordinates, from each class's dense mean and
    covariance rather than from a state's site form."""
    p = sym_coord_count(n)
    means, covs = zip(
        *(natural_to_moments(*coords_to_natural(coords[i * p : (i + 1) * p], n)) for i in range(c))
    )
    means, covs = np.stack(means), np.stack(covs)
    variances = np.diagonal(covs, axis1=1, axis2=2)
    prior_chol_inv = np.linalg.inv(prior.chol)
    kl = gaussian_kl(means, spd_cholesky(covs)[0], prior_chol_inv)
    return float(lik.expected_loglik(means, variances, Y) - np.sum(kl))


def ngd_verify(
    prior: kernels.GramResult, Y: np.ndarray, lik=None, warmup_steps=2, fd_step=1e-4, gh_nodes=40
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
    c, n, _ = prior.K.shape
    Y = _validate_labels(Y, n, c)
    if lik is None:
        if c != 2:
            raise InputError("default node set covers the binary case only")
        lik = SoftmaxLikelihood(*gauss_hermite_draws(gh_nodes, c))

    state = md_init(prior)
    for t in range(warmup_steps):
        state = md_step(state, Y, 0.5, lik)

    md_dir = _md_direction(state, prior, Y, lik, rho=1.0)
    md_dir_small = _md_direction(state, prior, Y, lik, rho=0.1)
    scale = max(np.max(np.abs(md_dir)), 1e-12)
    rho_deviation = float(np.max(np.abs(md_dir - md_dir_small)) / scale)

    coords0 = _state_coords(state, prior)
    p = sym_coord_count(n)
    grad_theta = central_diff(
        lambda x: _objective_at(x, prior, Y, lik, n, c), coords0, fd_step
    )

    def dual_of(t):
        return mean_to_dual_coords(*moments_to_mean(*natural_to_moments(*coords_to_natural(t, n))))

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


def random_moments(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, Sigma) of a Gaussian with standard-normal mean and a well-conditioned
    covariance."""
    a = rng.standard_normal((n, n))
    sigma = a @ a.T + 0.5 * n * np.eye(n)
    return rng.standard_normal(n), sigma


def tiny_instance(seed: int):
    """(stacked Grams, labels) of a binary one-shot episode: two points, two
    classes."""
    gen_cfg = tasks.TaskGenConfig(n_classes=2, shots=1, queries=1, dim=2)
    episode = tasks.gen_episode(gen_cfg, seed=seed)
    base = kernels.BaseKernels.at_scales("RBF", 2, length_scale=3.0)
    return kernels.gram(base, episode.support_x), episode.support_y


def _check_roundtrip(seed: int) -> float:
    worst = 0.0
    for i in range(5):
        m, Sigma = random_moments(rng_for(seed, seeding.STREAM_VERIFY, 1, i), 4)
        m_back, Sigma_back = natural_to_moments(*moments_to_natural(m, Sigma))
        worst = max(
            worst,
            float(np.max(np.abs(m_back - m))),
            float(np.max(np.abs(Sigma_back - Sigma))),
        )
    return worst


def _check_fenchel(seed: int) -> float:
    worst = 0.0
    for i in range(5):
        mom = random_moments(rng_for(seed, seeding.STREAM_VERIFY, 2, i), 4)
        nat, mu = moments_to_natural(*mom), moments_to_mean(*mom)
        gap = log_partition(*nat) + neg_entropy(*mu) - pairing(*nat, *mu)
        worst = max(worst, abs(gap))
    return worst


def _check_bregman_kl(seed: int) -> float:
    worst = 0.0
    for i in range(5):
        rng = rng_for(seed, seeding.STREAM_VERIFY, 3, i)
        (m_q, S_q), (m_p, S_p) = random_moments(rng, 3), random_moments(rng, 3)
        breg = bregman_h(*moments_to_mean(m_q, S_q), *moments_to_mean(m_p, S_p))
        kl = gaussian_kl(m_q - m_p, spd_cholesky(S_q)[0], np.linalg.inv(spd_cholesky(S_p)[0]))
        worst = max(worst, abs(breg - kl))
    return worst


def _check_log_partition_grad(seed: int, fd_step: float) -> float:
    """Central FD of A over minimal natural coordinates vs dual coordinates."""
    worst = 0.0
    for i in range(3):
        m, Sigma = random_moments(rng_for(seed, seeding.STREAM_VERIFY, 4, i), 3)
        n = m.shape[0]
        grad_fd = central_diff(
            lambda t: log_partition(*coords_to_natural(t, n)),
            natural_to_coords(*moments_to_natural(m, Sigma)),
            fd_step,
        )
        exact = mean_to_dual_coords(*moments_to_mean(m, Sigma))
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
    Y = np.zeros((1, c))
    Y[0, 0] = 1.0
    eps, weights = gauss_hermite_draws(16, c)

    def marginals(mm, vv):
        """The point's (C, 1) mean and variance, the variance taken back from
        the mean parameter mu2 = v + m^2."""
        return mm[:, None], ((vv + mm * mm) - mm**2)[:, None]

    g_m, g_v = batch_grads_mv(*marginals(m, v), Y, eps, weights)
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
                vals.append(batch_expected_loglik(*marginals(mm, vv), Y, eps, weights))
            fd = (vals[0] - vals[1]) / (2.0 * fd_step)
            exact = g_m[j, 0] if which == "m" else g_v[j, 0]
            worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    return worst


def _check_conjugate_step(seed: int) -> float:
    rng = rng_for(seed, seeding.STREAM_VERIFY, 7)
    n, c = 3, 2
    Z = rng.standard_normal((n, 2))
    prior = kernels.gram(kernels.BaseKernels.at_scales("RBF", c), Z)
    a = rng.standard_normal((n, c)).T  # (C, N), drawn point by point
    b = (-0.1 - 0.4 * rng.random((n, c))).T
    Y = np.zeros((n, c))
    Y[:, 0] = 1.0
    stepped = md_step(md_init(prior), Y, 1.0, GaussianSiteLikelihood(a, b))
    _, core = stepped.kinv_terms()
    K, d = prior.k_eff, np.arange(n)
    prec = np.linalg.inv(K)
    prec[:, d, d] -= 2.0 * b
    sigma = np.linalg.inv(prec)
    mean = (sigma @ a[:, :, None])[:, :, 0]
    return max(
        float(np.max(np.abs(K - K @ core @ K - sigma))),
        float(np.max(np.abs(stepped.m - mean))),
    )


def _check_ngd(seed: int, instances: int, fd_step: float, gh_nodes: int) -> tuple:
    worst_dev, worst_rho = 0.0, 0.0
    for i in range(instances):
        with named_failures(f"ngd_equivalence instance {i}"):
            prior, Y = tiny_instance(derive_seed(seed, seeding.STREAM_VERIFY, 8, i))
            report = ngd_verify(prior, Y, fd_step=fd_step, gh_nodes=gh_nodes)
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
