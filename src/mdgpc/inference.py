"""Non-conjugate variational inference by mirror descent in conjugate form.

The variational posterior factorizes over classes, q(f) = prod_c N(m^c, Sigma^c),
with the GP prior N(0, K^c) per class. Writing the ELBO as a function of the
mean parameters mu and taking a mirror step with the negative-entropy mirror
map is equivalent to natural-gradient ascent on natural parameters (the
Bregman divergence of H is the KL within the family). Because the prior is
conjugate in natural form, the step reduces to an update of per-point
diagonal Gaussian sites:

    theta~_t = (1 - rho) theta~_{t-1} + rho * grad_mu E_q[log p(y | f)],
    theta_{t+1} = theta~_t + eta_prior,        theta~_0 = 0,

where the site naturals are alpha (linear) and beta (quadratic, beta <= 0).
The posterior for each class is recovered from the sites with one SPD solve:

    Sigma^c = (K^{c-1} - 2 diag(beta^c))^{-1},     m^c = Sigma^c alpha^c,

implemented in the Woodbury form Sigma = K - K W B^{-1} W K with
W = sqrt(-2 beta) and B = I + W K W, which never inverts K and yields the
prior exactly at zero sites.

A plain gradient-ascent baseline on (m, L) with Sigma = L L' (log-diagonal
storage for L) optimizes the same ELBO for the convergence comparisons.
Both states reduce q to the per-class terms (K^{-1} m, K^{-1} - K^{-1} Sigma
K^{-1}) that prediction and the outer gradient use.

Every step has one contract: ``md_step(state, Y, rho, lik)`` and
``gd_step(state, Y, lr, lik)`` take checked one-hot labels, a rate and the
likelihood whose gradients drive the update, and do only the update.
`inner_states` is the one driver: it checks the labels once, before its
first state, and drives every step with one likelihood on one draw set (seed
derive_seed(mc.seed, 1)), so the draw schedule is written only there.
``elbo(m, Sigma, prior_grams, Y, lik)`` scores a posterior under a given
likelihood; `run_inner` scores every state with one fixed draw set.

Every state holds its posterior one way: the means stacked as a (C, N)
array ``m`` and the covariances as a (C, N, N) array ``Sigma``, row or
slice c being class c. The mirror-descent state adds its (C, N) site
naturals ``alpha`` and ``beta``, the gradient-ascent state its (C, N, N)
Cholesky factors ``chol``. The marginals the likelihood reads are views of
these arrays. The step arithmetic is written once for all classes, with
batched ``@`` on the stacks; only the SPD factorizations and solves of
:mod:`mdgpc.expfam` run slice by slice, each as it would for one class.

The prior is fixed for a whole episode, so :func:`mdgpc.kernels.gram`
computes K + jitter I and its Cholesky factor once. `md_init` and `gd_init`
stack what their steps read, once per episode, into the state: K + jitter I
for mirror descent, the factors and K^{-1} (one stacked solve) for gradient
ascent. The steps, `kinv_terms` and the ELBO's KL to the prior never factor
or invert K again.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, NumericalError, named_failures
from .expfam import chol_solve, gaussian_kl, spd_cholesky
from .likelihood import McConfig, SoftmaxLikelihood
from .seeding import derive_seed

__all__ = [
    "VariationalState",
    "GdState",
    "InnerConfig",
    "md_init",
    "md_step",
    "gd_init",
    "gd_step",
    "elbo",
    "inner_states",
    "run_inner",
    "site_factor",
    "posterior_from_sites",
    "marginal_mats",
]


@dataclass
class VariationalState:
    """Mirror-descent state: per-point site naturals and the posterior they give."""

    alpha: np.ndarray  # (C, N) linear site naturals; rows are classes
    beta: np.ndarray  # (C, N) quadratic site naturals, <= 0
    m: np.ndarray  # (C, N) posterior means
    Sigma: np.ndarray  # (C, N, N) posterior covariances
    k_eff: np.ndarray  # (C, N, N) prior covariances, stacked once by md_init

    def kinv_terms(self) -> tuple:
        """(u, core) = (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}), (C, N) and (C, N, N).

        Woodbury form: core = W B^{-1} W and u = alpha - W B^{-1} W (K alpha).
        """
        W, LB = site_factor(self.k_eff, self.beta)
        core = W[:, :, None] * chol_solve(LB, W[:, :, None] * np.eye(W.shape[1]))
        u = self.alpha - W * chol_solve(LB, W * _matvec(self.k_eff, self.alpha))
        return u, core


@dataclass
class GdState:
    """Gradient-ascent state: per-class mean and Cholesky factor of Sigma.

    The covariances Sigma = L L' are built once, with the state.
    """

    m: np.ndarray  # (C, N) posterior means
    chol: np.ndarray  # (C, N, N) lower-triangular factors
    prior_chol: np.ndarray  # (C, N, N) prior factors, stacked once by gd_init
    kinv: np.ndarray  # (C, N, N) prior inverses, stacked once by gd_init
    Sigma: np.ndarray = field(init=False)  # (C, N, N) posterior covariances

    def __post_init__(self):
        self.Sigma = _symmetrize(self.chol @ self.chol.swapaxes(1, 2))

    def kinv_terms(self) -> tuple:
        """(u, core) = (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}), dense."""
        Kinv = _symmetrize(self.kinv)
        return _matvec(Kinv, self.m), Kinv - Kinv @ self.Sigma @ Kinv


@dataclass(frozen=True)
class InnerConfig:
    """Inner-loop settings; rho is the mirror rate or the GD step size."""

    rho: float = 1.0
    steps: int = 3
    mc: McConfig = McConfig()

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise InputError(f"rho must be in (0, 1], got {self.rho}")
        if self.steps < 0:
            raise InputError(f"steps must be >= 0, got {self.steps}")


def _validate_labels(Y: np.ndarray, n_points: int, n_classes: int) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (n_points, n_classes):
        raise InputError(f"labels shape {Y.shape}, expected {(n_points, n_classes)}")
    if not np.all((Y == 0.0) | (Y == 1.0)) or not np.all(Y.sum(axis=1) == 1.0):
        raise InputError("label rows must be one-hot")
    return Y


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A[c] @ x[c] for every class c: (C, N, N) and (C, N) give (C, N)."""
    return (A @ x[:, :, None])[:, :, 0]


def site_factor(K: np.ndarray, beta: np.ndarray):
    """W = sqrt(-2 beta) and the Cholesky factors of B = I + W K W, for the
    (C, N, N) prior covariances K and the (C, N) sites beta."""
    W = np.sqrt(-2.0 * np.minimum(beta, 0.0))
    B = np.eye(K.shape[1]) + (W[:, :, None] * K) * W[:, None, :]
    LB, _ = spd_cholesky(B)
    return W, LB


def posterior_from_sites(K: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """(m, Sigma) = ((K^{-1} - 2 diag(beta))^{-1} alpha, same inverse), stacked.

    Woodbury form; exact prior at zero sites and SPD by construction.
    """
    W, LB = site_factor(K, beta)
    KW = K * W[:, None, :]
    Sigma = _symmetrize(K - KW @ chol_solve(LB, KW.swapaxes(1, 2)))
    return _matvec(Sigma, alpha), Sigma


def marginal_mats(m: np.ndarray, Sigma: np.ndarray):
    """Per-point marginal means and variances as (N, C) views of m and Sigma."""
    v_mat = np.diagonal(Sigma, axis1=1, axis2=2).T
    if np.any(v_mat <= 0.0):
        raise NumericalError("non-positive marginal variance in state")
    return m.T, v_mat


def md_init(prior_grams: list) -> VariationalState:
    """Zero sites; the posterior starts at the prior."""
    if not prior_grams:
        raise InputError("need at least one class")
    k_eff = np.stack([g.k_eff for g in prior_grams])
    zeros = np.zeros(k_eff.shape[:2])
    return VariationalState(alpha=zeros, beta=zeros, m=zeros, Sigma=k_eff, k_eff=k_eff)


def md_step(state: VariationalState, Y: np.ndarray, rho: float, lik) -> VariationalState:
    """One mirror-descent step in conjugate (site) form at rate rho.

    Y must be checked (N, C) one-hot labels; `lik` supplies the gradients.
    """
    m_mat, v_mat = marginal_mats(state.m, state.Sigma)
    g_m, g_v = lik.grads_mv(m_mat, v_mat, Y)
    d1 = (g_m - 2.0 * g_v * m_mat).T  # (C, N) mean-parameter gradients
    d2 = g_v.T
    alpha = (1.0 - rho) * state.alpha + rho * d1
    beta = np.minimum((1.0 - rho) * state.beta + rho * d2, 0.0)
    m, Sigma = posterior_from_sites(state.k_eff, alpha, beta)
    return replace(state, alpha=alpha, beta=beta, m=m, Sigma=Sigma)


def gd_init(prior_grams: list) -> GdState:
    """Start at the prior: m = 0, L = chol(K)."""
    if not prior_grams:
        raise InputError("need at least one class")
    chol = np.stack([g.chol for g in prior_grams])
    kinv = chol_solve(chol, np.broadcast_to(np.eye(chol.shape[1]), chol.shape))
    return GdState(m=np.zeros(chol.shape[:2]), chol=chol, prior_chol=chol, kinv=kinv)


def gd_step(state: GdState, Y: np.ndarray, lr: float, lik) -> GdState:
    """One gradient-ascent step with step size lr on the ELBO in (m, L) with
    Sigma = L L'. Y must be checked (N, C) one-hot labels; `lik` supplies the
    gradients.

    Off-diagonal entries of L are stored directly, diagonal entries as logs,
    so the ascent update is taken in those coordinates:

        dELBO/dm = g_m - K^{-1} m
        dELBO/dSigma = diag(g_v) - 1/2 (K^{-1} - Sigma^{-1})
        dELBO/dL = 2 sym(dELBO/dSigma) L  (lower triangle)
    """
    m_mat, v_mat = marginal_mats(state.m, state.Sigma)
    g_m, g_v = lik.grads_mv(m_mat, v_mat, Y)
    m, L = state.m, state.chol
    d = np.arange(m.shape[1])  # diagonal entries are [:, d, d]
    grad_m = g_m.T - chol_solve(state.prior_chol, m)
    Sinv = chol_solve(L, np.broadcast_to(np.eye(d.size), L.shape))
    GSig = np.zeros_like(Sinv)
    GSig[:, d, d] = g_v.T
    GSig -= 0.5 * (state.kinv - Sinv)
    GL = np.tril(2.0 * _symmetrize(GSig) @ L)
    # ascent in (off-diagonal L, log-diagonal L, m)
    Lnew = L + lr * np.tril(GL, -1)
    Lnew[:, d, d] = L[:, d, d] * np.exp(lr * GL[:, d, d] * L[:, d, d])
    return replace(state, m=m + lr * grad_m, chol=Lnew)


def elbo(m: np.ndarray, Sigma: np.ndarray, prior_grams: list, Y: np.ndarray, lik) -> float:
    """sum_n E_q[log p(y_n | f_n)] - sum_c KL(q^c || prior^c) under `lik`.

    m is (C, N) and Sigma (C, N, N), as every state holds them.
    """
    m_mat, v_mat = marginal_mats(m, Sigma)
    total = lik.expected_loglik(m_mat, v_mat, Y)
    for m_c, Sigma_c, g in zip(m, Sigma, prior_grams):
        total -= gaussian_kl(m_c, Sigma_c, g.chol)
    return float(total)


def inner_states(method: str, prior_grams: list, Y: np.ndarray, cfg: InnerConfig):
    """Yield the prior state, then the state after each of `steps` updates.

    The labels are checked once, before the prior state. Every step reads one
    draw set, of seed derive_seed(cfg.mc.seed, 1), drawn at step 1 (so a loop
    of no steps draws nothing): the loop is a deterministic fixed-point
    iteration on one sample-average surrogate of the ELBO. A step that fails
    numerically or leaves non-finite moments raises NumericalError naming the
    method and the step; numpy's floating-point warnings are silenced inside
    the step, since this check reports the failure.
    """
    method = method.upper()
    if method not in ("MD", "GD"):
        raise InputError(f"unknown inner method {method!r}")
    state = md_init(prior_grams) if method == "MD" else gd_init(prior_grams)
    step_fn = md_step if method == "MD" else gd_step
    n, c = prior_grams[0].K.shape[0], len(prior_grams)
    Y = _validate_labels(Y, n, c)
    yield state
    lik = None
    for t in range(1, cfg.steps + 1):
        with named_failures(f"{method} step {t}"):
            if lik is None:
                step_mc = McConfig(cfg.mc.samples, derive_seed(cfg.mc.seed, 1))
                lik = SoftmaxLikelihood.from_seed(step_mc, c)
            state = step_fn(state, Y, cfg.rho, lik)
            if not (np.isfinite(state.m).all() and np.isfinite(state.Sigma).all()):
                raise NumericalError("non-finite posterior moments")
        yield state


def run_inner(method: str, prior_grams: list, Y: np.ndarray, cfg: InnerConfig):
    """Run the inner loop, recording the ELBO of every state it visits.

    The ELBO is evaluated with one fixed draw set (seed cfg.mc.seed) so
    successive values are comparable; a failure while scoring the state of
    step t names the method and t, as `inner_states` does for the step.
    Returns (final_state, elbos) with steps + 1 values, the first at the prior.
    """
    eval_lik = SoftmaxLikelihood.from_seed(cfg.mc, len(prior_grams))
    elbos = []
    for t, state in enumerate(inner_states(method, prior_grams, Y, cfg)):
        with named_failures(f"{method.upper()} step {t}"):
            elbos.append(elbo(state.m, state.Sigma, prior_grams, Y, eval_lik))
    return state, elbos
