"""Reference formulas that only the tests use.

The softmax formulas reduce over a last class axis, (S, N, C), the way the
package computed them before its class-leading kernel; the tests hold the
package to these bit for bit. `refresh_moments` recomputes a mirror-descent
state's moments by dense solves, independent of the Woodbury path.
`dual_coords_to_mean` inverts the dual minimal coordinates of
:mod:`mdgpc.verify`. `scipy_spd_cholesky`, `scipy_chol_solve` and
`scipy_gaussian_kl` are the package's SPD kernels as written on
``scipy.linalg`` before they called LAPACK directly; the tests hold the
direct calls to them bit for bit.
"""

import numpy as np
import scipy.linalg

from mdgpc.errors import InputError, NumericalError
from mdgpc.expfam import JITTER_INITIAL, JITTER_MAX, chol_logdet
from mdgpc.expfam import FullMeanParams, GaussianMoments, chol_solve, spd_cholesky
from mdgpc.inference import VariationalState
from mdgpc.likelihood import _prepare_batch
from mdgpc.verify import check_one_hot, grad_mv


def last_axis_log_softmax(f: np.ndarray) -> np.ndarray:
    fmax = np.max(f, axis=-1, keepdims=True)
    stable = f - fmax
    return stable - np.log(np.sum(np.exp(stable), axis=-1, keepdims=True))


def log_softmax_lik(y: np.ndarray, f: np.ndarray) -> float:
    """log p(y | f) = y . f - logsumexp(f) for a one-hot y."""
    y = check_one_hot(y)
    f = np.asarray(f, dtype=float)
    if f.shape != y.shape:
        raise InputError(f"f shape {f.shape} != y shape {y.shape}")
    return float(np.sum(y * last_axis_log_softmax(f)))


def batch_expected_loglik(m, v, Y, eps, weights=None) -> float:
    m, v, eps = _prepare_batch(m, v, eps)
    f = m[None, :, :] + np.sqrt(v)[None, :, :] * eps
    ll = np.sum(np.asarray(Y, dtype=float)[None, :, :] * last_axis_log_softmax(f), axis=2)
    if weights is None:
        return float(np.sum(np.mean(ll, axis=0)))
    return float(np.sum(np.asarray(weights, dtype=float) @ ll))


def batch_grads_mv(m, v, Y, eps, weights=None):
    m, v, eps = _prepare_batch(m, v, eps)
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


def grad_mean_params(pm, y: np.ndarray, mc, eps=None, weights=None):
    """Gradients w.r.t. per-point mean parameters (mu1, mu2).

    d_mu1 = g_m - 2 g_v * m and d_mu2 = g_v; the inverse chain rule of
    (m, v) -> (mu1, mu2) = (m, v + m^2).
    """
    g_m, g_v = grad_mv(pm, y, mc, eps=eps, weights=weights)
    return g_m - 2.0 * g_v * pm.mean, g_v


def refresh_moments(state: VariationalState) -> VariationalState:
    """Recompute cached moments from the naturals by direct dense solves."""
    moments = []
    for i, g in enumerate(state.prior):
        K = g.k_eff
        prec = chol_solve(spd_cholesky(K)[0], np.eye(K.shape[0]))
        prec = prec - 2.0 * np.diag(state.beta[i])
        Lp, _ = spd_cholesky(0.5 * (prec + prec.T))
        Sigma = chol_solve(Lp, np.eye(K.shape[0]))
        moments.append(
            GaussianMoments(chol_solve(Lp, state.alpha[i]), 0.5 * (Sigma + Sigma.T))
        )
    return VariationalState(
        alpha=state.alpha, beta=state.beta, moments=moments, prior=state.prior
    )


def dual_coords_to_mean(t: np.ndarray, n: int) -> FullMeanParams:
    """Inverse of mean_to_dual_coords: off-diagonal entries are halved."""
    mu1 = t[:n]
    mat = np.zeros((n, n))
    iu = np.triu_indices(n)
    mat[iu] = t[n:]
    mu2 = 0.5 * (mat + mat.T)
    mu2[np.diag_indices(n)] = np.diag(mat)
    return FullMeanParams(mu1, mu2)


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


def scipy_gaussian_kl(q: GaussianMoments, p: GaussianMoments) -> float:
    n = q.dim
    Lp, _ = scipy_spd_cholesky(p.Sigma)
    Lq, _ = scipy_spd_cholesky(q.Sigma)
    sol = scipy.linalg.solve_triangular(Lp, q.m - p.m, lower=True)
    w = scipy.linalg.solve_triangular(Lp, Lq, lower=True)
    trace_term = float(np.sum(w * w))
    return 0.5 * (
        trace_term + float(sol @ sol) - n + chol_logdet(Lp) - chol_logdet(Lq)
    )
