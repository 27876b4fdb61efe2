"""Softmax likelihood expectations under factorized Gaussian marginals.

For a point with per-class marginals f_c ~ N(m_c, v_c) (independent across
classes) and one-hot label y, the expected log-likelihood

    E_q[ log p(y | f) ] = E_q[ y . f - logsumexp(f) ]

has no closed form; it is estimated by Monte Carlo with the
reparameterization f^(s) = m + sqrt(v) * eps^(s). The gradients with respect
to the marginal mean and variance use the Gaussian expectation identities

    g_m = E[ y - softmax(f) ],
    g_v = 1/2 E[ softmax(f)^2 - softmax(f) ]   (elementwise),

i.e. first and (diagonal) second derivatives of the integrand, so
g_m in [-1, 1] and g_v in [-1/8, 0] always. The chain rule to per-point
mean parameters (mu1, mu2) = (m, v + m^2) gives

    d_mu1 = g_m - 2 g_v * m,      d_mu2 = g_v.

Estimators accept explicit draws ``eps`` and optional ``weights`` so tests
and the checks of :mod:`mdgpc.verify` can substitute deterministic weighted
node sets (its Gauss-Hermite rule) for seeded Monte Carlo draws; both then
evaluate the same functional on common numbers.

Every Monte Carlo softmax (these estimators and the label probabilities of
:func:`~mdgpc.model.predict_labels`) goes through `_softmax_terms`, which
lays the logits out (S, C, N): each class is an (S, N) slice, so reductions
over the few classes are elementwise operations on whole slices instead of
many short last-axis reductions, and the mean over draws still reduces a
leading axis. numpy reduces the class axis, which is not the innermost,
as one running sum, the order its last-axis sum uses below 8 terms, so for
fewer than 8 classes the results equal the (S, N, C) formulas bit for bit;
with more they differ by rounding.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "McConfig",
    "batch_expected_loglik",
    "batch_grads_mv",
    "normal_draws",
    "SoftmaxLikelihood",
]


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: S draws from a seeded generator."""

    samples: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise InputError(f"samples must be >= 1, got {self.samples}")


def normal_draws(seed: int, shape: tuple) -> np.ndarray:
    """Standard normal draws from a fresh seeded generator."""
    return np.random.default_rng(seed).standard_normal(shape)


def _prepare_batch(m, v, eps):
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    if m.shape != v.shape or m.ndim != 2:
        raise InputError(
            f"marginals must be (N, C) arrays, got {m.shape} and {v.shape}"
        )
    if np.any(v < 0.0):
        raise InputError("negative marginal variance")
    eps = np.asarray(eps, dtype=float)
    if eps.ndim == 2:  # shared node set (S, C) broadcast over points
        eps = eps[:, None, :]
    if eps.ndim != 3 or eps.shape[2] != m.shape[1]:
        raise InputError(f"draws shape {eps.shape} incompatible with {m.shape}")
    return m, v, eps


def _softmax_terms(m, sd, eps):
    """Softmax pieces of f = m + sd * eps, laid out (S, C, N).

    m, sd: (N, C); eps: (S, N, C), or (S, 1, C) for one node set shared by
    all points. Returns (stable, e, total): stable = f - max_c f and
    e = exp(stable), both (S, C, N) and fresh, so callers may overwrite them
    in place, and total = sum_c e, (S, 1, N). In-place updates keep the
    number of fresh (S, C, N) buffers, and the page faults of filling them,
    low.
    """
    stable = np.empty((eps.shape[0],) + m.T.shape)
    np.multiply(sd.T, eps.swapaxes(1, 2), out=stable)
    stable += m.T
    stable -= np.maximum.reduce(stable, axis=1, keepdims=True)
    e = np.exp(stable)
    return stable, e, np.add.reduce(e, axis=1, keepdims=True)


def batch_expected_loglik(m, v, Y, eps, weights=None) -> float:
    """Sum over points of the estimated E[log p(y_n | f_n)].

    m, v, Y: (N, C); eps: (S, N, C) or (S, C); weights: (S,) or None
    (uniform). With weights, the estimate is sum_s w_s log p(y | f^(s)).
    """
    m, v, eps = _prepare_batch(m, v, eps)
    log_p, _, total = _softmax_terms(m, np.sqrt(v), eps)
    log_p -= np.log(total)
    log_p *= np.asarray(Y, dtype=float).T
    ll = np.add.reduce(log_p, axis=1)  # (S, N)
    if weights is None:
        return float(np.sum(np.mean(ll, axis=0)))
    return float(np.sum(np.asarray(weights, dtype=float) @ ll))


def batch_grads_mv(m, v, Y, eps, weights=None):
    """Estimated (g_m, g_v) for every point at once; each of shape (N, C)."""
    m, v, eps = _prepare_batch(m, v, eps)
    p, q, total = _softmax_terms(m, np.sqrt(v), eps)
    p -= np.log(total)
    np.exp(p, out=p)  # softmax as exp(log-softmax)
    np.multiply(p, p, out=q)
    q -= p
    if weights is None:
        p_bar = np.mean(p, axis=0)
        q_bar = np.mean(q, axis=0)
    else:
        w = np.asarray(weights, dtype=float)
        p_bar = np.einsum("s,scn->cn", w, p)
        q_bar = np.einsum("s,scn->cn", w, q)
    g_m = np.asarray(Y, dtype=float) - p_bar.T
    # row-major (N, C), like the (S, N, C) formulas return, so downstream BLAS calls
    # see the same strides
    return np.ascontiguousarray(g_m), np.ascontiguousarray(0.5 * q_bar.T)


class SoftmaxLikelihood:
    """Softmax expected log-likelihood bound to a fixed draw set.

    Bundling the draws makes the object a deterministic functional of the
    marginals, which is what both the inner-loop steps and the
    finite-difference checks evaluate.
    """

    def __init__(self, eps: np.ndarray, weights=None):
        self.eps = np.asarray(eps, dtype=float)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)

    @classmethod
    def from_seed(cls, mc: McConfig, n_points: int, n_classes: int):
        return cls(normal_draws(mc.seed, (mc.samples, n_points, n_classes)))

    def expected_loglik(self, m, v, Y) -> float:
        return batch_expected_loglik(m, v, Y, self.eps, self.weights)

    def grads_mv(self, m, v, Y):
        return batch_grads_mv(m, v, Y, self.eps, self.weights)
