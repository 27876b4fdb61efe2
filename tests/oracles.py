"""Reference formulas and draws that only the tests use.

The softmax formulas reduce over a last class axis, (S, N, C), the way the
package computed them before its class-leading kernel. That kernel lays the
logits out (C, N, S) and forms p as e / sum, so the tests hold it to these
formulas within rounding, not bit for bit. `point_loglik` and `point_grads`
evaluate the package's estimators at one point, and `grad_mean_params` chains its
gradients to the point's mean parameters. `dense_moments` gives a state's
means and full covariances: a mirror-descent state's by dense solves from
its sites, independent of the site-form path, a gradient-ascent state's as
L L'. `moments_kl` is `gaussian_kl` between two (m, Sigma) pairs, both
covariances factored first. `dual_coords_to_mean` inverts the dual
minimal coordinates of :mod:`mdgpc.verify`. `scipy_spd_cholesky`,
`scipy_chol_solve`, `scipy_factor_kl` and `scipy_gaussian_kl` are the
package's SPD kernels as written on ``scipy.linalg``, with triangular solves
where the package, on numpy alone, inverts; the tests hold the numpy kernels
to them within rounding. `scipy_gd_step` is the gradient-ascent step on
those solves, one class at a time: K^{-1} m by a solve with the prior factor
and Sigma^{-1} by a solve with L. `iid_draws` gives tests their own
independent normal draws of any shape; the package's estimators take one
node set (S, C) for all points, and only the last-axis formulas here also
take per-point draws (S, N, C). `as241_quantile` is the package's AS241
normal quantile as it was first written, all three rationals on every node,
each numerator and denominator a Horner loop of its own, which the package
must match bit for bit. `step_nodes` is the step set that
:mod:`mdgpc.meta` draws for an inner loop at a draw seed, for tests that
drive the loop at that seed without meta.

`OneKernel` is one class's base kernel alone, its raws as floats, and
`one_gram`, `one_gram_backward`, `one_cross_gram` and `one_gram_diag` are
the base-kernel formulas for it as the package computed them class by class
before it stacked the classes: the tests hold each slice of the stacked
results to them bit for bit. `stack_priors` stacks the Grams of separate
calls into one prior, for tests whose classes have different kinds or
features.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from mdgpc import kernels, likelihood
from mdgpc.errors import InputError, NumericalError
from mdgpc.expfam import JITTER_INITIAL, JITTER_MAX, gaussian_kl, spd_cholesky
from mdgpc.inference import VariationalState
from mdgpc.kernels import GramResult, _cos_normalize, _pairwise_sqdist, _sigmoid, softplus
from mdgpc.seeding import derive_seed
from mdgpc.verify import chol_logdet, chol_solve


def iid_draws(seed: int, shape: tuple) -> np.ndarray:
    """Independent standard normal draws of any shape from a seeded generator."""
    return np.random.default_rng(seed).standard_normal(shape)


def step_nodes(seed: int, samples: int, n_classes: int) -> np.ndarray:
    """The (S, C) node set that every step of an inner loop at draw seed
    `seed` reads: the set of seed derive_seed(seed, 1)."""
    return likelihood.normal_draws(derive_seed(seed, 1), (samples, n_classes))


def _as241_rational(coeffs, r):
    """num(r) / den(r) for one AS241 pair, each by Horner's rule as written."""
    num, den = (np.full_like(r, c[0]) for c in coeffs)
    for a, b in zip(*(c[1:] for c in coeffs)):
        num = num * r + a
        den = den * r + b
    return num / den


def as241_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of p in (0, 1) by AS241, on the package's
    coefficient table, every rational evaluated on every node."""
    rational = likelihood._AS241
    q = p - 0.5
    central = q * _as241_rational(rational[0], 0.180625 - q * q)
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    tail = np.where(
        r <= 5.0, _as241_rational(rational[1], r - 1.6), _as241_rational(rational[2], r - 5.0)
    )
    return np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail))


def last_axis_log_softmax(f: np.ndarray) -> np.ndarray:
    fmax = np.max(f, axis=-1, keepdims=True)
    stable = f - fmax
    return stable - np.log(np.sum(np.exp(stable), axis=-1, keepdims=True))


def log_softmax_lik(y: np.ndarray, f: np.ndarray) -> float:
    """log p(y | f) = y . f - logsumexp(f) for a one-hot y."""
    y = np.asarray(y, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != y.shape:
        raise InputError(f"f shape {f.shape} != y shape {y.shape}")
    return float(np.sum(y * last_axis_log_softmax(f)))


def _per_point(eps) -> np.ndarray:
    """Draws as (S, N or 1, C). A shared node set (S, C) gains a point axis,
    its memory laid out (C, 1, S) as the package lays it out: the layout
    sets the order of the node sums, and so their rounding."""
    eps = np.asarray(eps, dtype=float)
    return np.ascontiguousarray(eps.T[:, None, :]).T if eps.ndim == 2 else eps


def batch_expected_loglik(m, v, Y, eps, weights=None) -> float:
    eps = _per_point(eps)
    f = m[None, :, :] + np.sqrt(v)[None, :, :] * eps
    ll = np.sum(np.asarray(Y, dtype=float)[None, :, :] * last_axis_log_softmax(f), axis=2)
    if weights is None:
        return float(np.sum(np.mean(ll, axis=0)))
    return float(np.sum(np.asarray(weights, dtype=float) @ ll))


def batch_grads_mv(m, v, Y, eps, weights=None):
    eps = _per_point(eps)
    f = m[None, :, :] + np.sqrt(v)[None, :, :] * eps
    p = np.exp(last_axis_log_softmax(f))
    Y = np.asarray(Y, dtype=float)
    if weights is None:
        return Y - np.mean(p, axis=0), 0.5 * np.mean(p * p - p, axis=0)
    w = np.asarray(weights, dtype=float)
    return Y - np.einsum("s,snc->nc", w, p), 0.5 * np.einsum("s,snc->nc", w, p * p - p)


def label_probs(mu, var, eps) -> np.ndarray:
    """Monte Carlo softmax probabilities, (M, C), as predict_labels defines them."""
    f = mu[None] + np.sqrt(np.maximum(var, 0.0))[None] * eps
    e = np.exp(f - f.max(axis=2, keepdims=True))
    return np.mean(e / e.sum(axis=2, keepdims=True), axis=0)


def point_loglik(m, v, y, eps, weights=None) -> float:
    """The package's estimate of E[log p(y | f)] at one point with (C,)
    marginal means m and variances v, over an (S, C) node set."""
    return likelihood.SoftmaxLikelihood(eps, weights).expected_loglik(m[:, None], v[:, None], y[None])


def point_grads(m, v, y, eps, weights=None):
    """The package's (g_m, g_v) at one point, each of shape (C,)."""
    g_m, g_v = likelihood.SoftmaxLikelihood(eps, weights).grads_mv(m[:, None], v[:, None], y[None])
    return g_m[:, 0], g_v[:, 0]


def grad_mean_params(m, v, y, eps, weights=None):
    """Gradients w.r.t. per-point mean parameters (mu1, mu2).

    d_mu1 = g_m - 2 g_v * m and d_mu2 = g_v; the inverse chain rule of
    (m, v) -> (mu1, mu2) = (m, v + m^2).
    """
    g_m, g_v = point_grads(m, v, y, eps, weights)
    return g_m - 2.0 * g_v * m, g_v


def dense_moments(state) -> tuple:
    """(m, Sigma), (C, N) and (C, N, N), of a state's posterior. For a
    mirror-descent state both come from (alpha, beta, k_eff) by direct dense
    solves, m = (K^{-1} - 2 diag(beta))^{-1} alpha; for a gradient-ascent
    state they are its m and L L'."""
    if not isinstance(state, VariationalState):
        return state.m, state.chol @ state.chol.swapaxes(1, 2)
    means, covs = [], []
    for i, K in enumerate(state.k_eff):
        prec = chol_solve(spd_cholesky(K)[0], np.eye(K.shape[0]))
        prec = prec - 2.0 * np.diag(state.beta[i])
        Lp, _ = spd_cholesky(0.5 * (prec + prec.T))
        Sigma = chol_solve(Lp, np.eye(K.shape[0]))
        means.append(chol_solve(Lp, state.alpha[i]))
        covs.append(0.5 * (Sigma + Sigma.T))
    return np.stack(means), np.stack(covs)


def moments_kl(q, p) -> float:
    """KL(q || p) of two (m, Sigma) pairs, both covariances factored by
    spd_cholesky first."""
    (m_q, S_q), (m_p, S_p) = q, p
    return gaussian_kl(m_q - m_p, spd_cholesky(S_q)[0], np.linalg.inv(spd_cholesky(S_p)[0]))


def dual_coords_to_mean(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of mean_to_dual_coords: off-diagonal entries are halved."""
    mu1 = t[:n]
    mat = np.zeros((n, n))
    iu = np.triu_indices(n)
    mat[iu] = t[n:]
    mu2 = 0.5 * (mat + mat.T)
    mu2[np.diag_indices(n)] = np.diag(mat)
    return mu1, mu2


def scipy_spd_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected square matrix, got shape {a.shape}")
    jitter = 0.0
    while True:
        try:
            target = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return scipy.linalg.cholesky(target, lower=True), jitter
        except scipy.linalg.LinAlgError:
            jitter = JITTER_INITIAL if jitter == 0.0 else 2.0 * jitter
            if jitter > JITTER_MAX:
                raise NumericalError("jitter ladder exhausted") from None


def scipy_chol_solve(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve((chol_lower, True), b)


def scipy_factor_kl(m_q: np.ndarray, Lq: np.ndarray, Lp: np.ndarray) -> float:
    """KL( N(m_q, Lq Lq') || N(0, Lp Lp') ) by triangular solves with Lp."""
    n = m_q.shape[0]
    sol = scipy.linalg.solve_triangular(Lp, m_q, lower=True)
    w = scipy.linalg.solve_triangular(Lp, Lq, lower=True)
    trace_term = float(np.sum(w * w))
    return 0.5 * (
        trace_term + float(sol @ sol) - n + chol_logdet(Lp) - chol_logdet(Lq)
    )


def scipy_gaussian_kl(q, p) -> float:
    """KL(q || p) of two (m, Sigma) pairs, both covariances factored by
    scipy_spd_cholesky."""
    (m_q, S_q), (m_p, S_p) = q, p
    return scipy_factor_kl(m_q - m_p, scipy_spd_cholesky(S_q)[0], scipy_spd_cholesky(S_p)[0])


def scipy_gd_step(state, prior: GramResult, Y: np.ndarray, lr: float, lik):
    """(m, chol) after one gradient-ascent step, class by class on scipy
    solves with the prior factors of `prior` and with L."""
    g_m, g_v = lik.grads_mv(state.m, state.v, Y)
    means, factors = [], []
    for c, (m, L, Lk) in enumerate(zip(state.m, state.chol, prior.chol)):
        eye = np.eye(m.shape[0])
        GSig = np.diag(g_v[c]) - 0.5 * (scipy_chol_solve(Lk, eye) - scipy_chol_solve(L, eye))
        GL = np.tril(2.0 * (0.5 * (GSig + GSig.T)) @ L)
        Lnew = L + lr * np.tril(GL, -1)
        d = np.diag_indices(m.shape[0])
        Lnew[d] = L[d] * np.exp(lr * GL[d] * L[d])
        means.append(m + lr * (g_m[c] - scipy_chol_solve(Lk, m)))
        factors.append(Lnew)
    return np.stack(means), np.stack(factors)


def stack_priors(priors) -> GramResult:
    """One stacked prior from the GramResults of separate `kernels.gram`
    calls, their classes in order."""
    priors = list(priors)
    return GramResult(*(np.concatenate([getattr(p, f) for p in priors]) for f in ("K", "k_eff", "chol")))


@dataclass
class OneKernel:
    """Class c's base kernel alone: kind plus raw (pre-softplus) floats."""

    kind: str
    length_scale_raw: float
    offset_raw: float
    output_scale_raw: float

    @classmethod
    def of(cls, base: kernels.BaseKernels, c: int) -> "OneKernel":
        return cls(
            base.kind,
            float(base.length_scale_raw[c]),
            float(base.offset_raw[c]),
            float(base.output_scale_raw[c]),
        )

    @property
    def length_scale(self) -> float:
        return softplus(self.length_scale_raw)

    @property
    def offset(self) -> float:
        return softplus(self.offset_raw)

    @property
    def output_scale(self) -> float:
        return softplus(self.output_scale_raw)

    @property
    def degree(self) -> int:
        return {"POL1": 1, "POL2": 2}.get(self.kind, 0)


def one_gram(base: OneKernel, Z: np.ndarray) -> GramResult:
    """Gram matrix of one base kernel on feature rows Z, plus its factor."""
    s = base.output_scale
    center = None
    if base.kind == "COS":
        center = Z.mean(axis=0)
        U, _ = _cos_normalize(Z - center)
        K = s * (U @ U.T)
    elif base.kind == "RBF":
        l2 = base.length_scale**2
        K = s * np.exp(-_pairwise_sqdist(Z, Z) / (2.0 * l2))
    else:
        K = s * (Z @ Z.T + base.offset) ** base.degree
    K = 0.5 * (K + K.T)
    L, jitter = spd_cholesky(K)
    k_eff = K + jitter * np.eye(K.shape[0]) if jitter else K
    return GramResult(K=K, k_eff=k_eff, chol=L, center=center)


def one_gram_backward(base: OneKernel, Z: np.ndarray, res: GramResult, dK: np.ndarray):
    """(dL/dZ, {raw name: dL/d raw}) of one base kernel from dL/dK."""
    G = 0.5 * (dK + dK.T)
    s = base.output_scale
    grads = {}
    if base.kind == "COS":
        U, norms = _cos_normalize(Z - res.center)
        Ktil = U @ U.T
        grads["output_scale_raw"] = float(np.sum(G * Ktil)) * _sigmoid(base.output_scale_raw)
        dU = 2.0 * s * (G @ U)
        dZc = (dU - np.sum(dU * U, axis=1)[:, None] * U) / norms[:, None]
        dZ = dZc - dZc.mean(axis=0)
    elif base.kind == "RBF":
        l = base.length_scale
        D2 = _pairwise_sqdist(Z, Z)
        Ktil = np.exp(-D2 / (2.0 * l * l))
        grads["output_scale_raw"] = float(np.sum(G * Ktil)) * _sigmoid(base.output_scale_raw)
        W = s * G * Ktil
        grads["length_scale_raw"] = float(np.sum(W * D2) / l**3) * _sigmoid(base.length_scale_raw)
        dZ = (-2.0 / (l * l)) * (W.sum(axis=1)[:, None] * Z - W @ Z)
    else:
        c, d = base.offset, base.degree
        P = Z @ Z.T + c
        Pm1 = P ** (d - 1)
        Ktil = Pm1 * P
        grads["output_scale_raw"] = float(np.sum(G * Ktil)) * _sigmoid(base.output_scale_raw)
        grads["offset_raw"] = float(s * d * np.sum(G * Pm1)) * _sigmoid(base.offset_raw)
        M = s * d * (G * Pm1)
        dZ = 2.0 * (M @ Z)
    return dZ, grads


def one_cross_gram(base: OneKernel, Zq: np.ndarray, Zs: np.ndarray, center=None) -> np.ndarray:
    """k(query, support) of one base kernel; COS centers both sides with center."""
    s = base.output_scale
    if base.kind == "COS":
        Uq, _ = _cos_normalize(Zq - center)
        Us, _ = _cos_normalize(Zs - center)
        return s * (Uq @ Us.T)
    if base.kind == "RBF":
        l2 = base.length_scale**2
        return s * np.exp(-_pairwise_sqdist(Zq, Zs) / (2.0 * l2))
    return s * (Zq @ Zs.T + base.offset) ** base.degree


def one_gram_diag(base: OneKernel, Zq: np.ndarray) -> np.ndarray:
    """Diagonal k(z, z) of one base kernel for query rows."""
    s = base.output_scale
    if base.kind in ("COS", "RBF"):
        return np.full(Zq.shape[0], s)
    return s * (np.sum(Zq * Zq, axis=1) + base.offset) ** base.degree
