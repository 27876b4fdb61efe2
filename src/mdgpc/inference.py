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
first state, and builds step t's likelihood from its own draw set (seed
derive_seed(mc.seed, t)), so the draw schedule is written only there.
``elbo(m, Sigma, prior_grams, Y, lik)`` scores a posterior under a given
likelihood; `run_inner` scores every state with one fixed draw set.

Every state holds its posterior one way: the means stacked as a (C, N)
array ``m`` and the covariances as a (C, N, N) array ``Sigma``, row or
slice c being class c. The mirror-descent state adds its (C, N) site
naturals ``alpha`` and ``beta``, the gradient-ascent state its (C, N, N)
Cholesky factors ``chol``. The marginals the likelihood reads are views of
these arrays, and the per-class factorizations run slice by slice.

The prior is fixed for a whole episode, so :func:`mdgpc.kernels.gram`
computes everything that depends on it alone once: K + jitter I, its
Cholesky factor and K^{-1}. The steps, the ELBO's KL to the prior and
`kinv_terms` read these read-only arrays instead of factoring or inverting
K again.
"""

from dataclasses import dataclass, field

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
    prior: list  # list[GramResult], one per class

    def kinv_terms(self) -> list:
        """Per class (u, core) = (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}).

        Woodbury form: core = W B^{-1} W and u = alpha - W B^{-1} W (K alpha).
        """
        terms = []
        for g, alpha, beta in zip(self.prior, self.alpha, self.beta):
            W, LB, K = site_factor(g, beta)
            core = W[:, None] * chol_solve(LB, np.diag(W))
            u = alpha - W * chol_solve(LB, W * (K @ alpha))
            terms.append((u, core))
        return terms


@dataclass
class GdState:
    """Gradient-ascent state: per-class mean and Cholesky factor of Sigma.

    The covariances Sigma = L L' are built once, with the state.
    """

    m: np.ndarray  # (C, N) posterior means
    chol: np.ndarray  # (C, N, N) lower-triangular factors
    prior: list
    Sigma: np.ndarray = field(init=False)  # (C, N, N) posterior covariances

    def __post_init__(self):
        self.Sigma = np.stack([_symmetrize(L @ L.T) for L in self.chol])

    def kinv_terms(self) -> list:
        """Per class (u, core) = (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}), dense."""
        terms = []
        for g, m, Sigma in zip(self.prior, self.m, self.Sigma):
            Kinv = _symmetrize(g.kinv)
            terms.append((Kinv @ m, Kinv - Kinv @ Sigma @ Kinv))
        return terms


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
    return 0.5 * (a + a.T)


def site_factor(gram_res, beta_c: np.ndarray):
    """W = sqrt(-2 beta) and the Cholesky factor of B = I + W K W."""
    K = gram_res.k_eff
    W = np.sqrt(-2.0 * np.minimum(beta_c, 0.0))
    B = np.eye(K.shape[0]) + (W[:, None] * K) * W[None, :]
    LB, _ = spd_cholesky(B)
    return W, LB, K


def posterior_from_sites(gram_res, alpha_c: np.ndarray, beta_c: np.ndarray):
    """(m, Sigma) = ((K^{-1} - 2 diag(beta))^{-1} alpha, same inverse) of one class.

    Woodbury form; exact prior at zero sites and SPD by construction.
    """
    W, LB, K = site_factor(gram_res, beta_c)
    KW = K * W[None, :]
    Sigma = K - KW @ chol_solve(LB, KW.T)
    Sigma = 0.5 * (Sigma + Sigma.T)
    return Sigma @ alpha_c, Sigma


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
    c, n = len(prior_grams), prior_grams[0].K.shape[0]
    return VariationalState(
        alpha=np.zeros((c, n)),
        beta=np.zeros((c, n)),
        m=np.zeros((c, n)),
        Sigma=np.stack([g.k_eff for g in prior_grams]),
        prior=list(prior_grams),
    )


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
    m, Sigma = zip(*(posterior_from_sites(g, a, b) for g, a, b in zip(state.prior, alpha, beta)))
    return VariationalState(
        alpha=alpha, beta=beta, m=np.stack(m), Sigma=np.stack(Sigma), prior=state.prior
    )


def gd_init(prior_grams: list) -> GdState:
    """Start at the prior: m = 0, L = chol(K)."""
    if not prior_grams:
        raise InputError("need at least one class")
    c, n = len(prior_grams), prior_grams[0].K.shape[0]
    return GdState(
        m=np.zeros((c, n)), chol=np.stack([g.chol for g in prior_grams]), prior=list(prior_grams)
    )


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
    eye = np.eye(m_mat.shape[0])
    new_m, new_chol = np.empty_like(state.m), np.empty_like(state.chol)
    for i, g in enumerate(state.prior):
        m, L = state.m[i], state.chol[i]
        grad_m = g_m[:, i] - chol_solve(g.chol, m)
        Sinv = chol_solve(L, eye)
        GSig = np.diag(g_v[:, i]) - 0.5 * (g.kinv - Sinv)
        GSig = 0.5 * (GSig + GSig.T)
        GL = np.tril(2.0 * GSig @ L)
        # ascent in (off-diagonal L, log-diagonal L, m)
        diag = np.diag(L) * np.exp(lr * np.diag(GL) * np.diag(L))
        Lnew = L + lr * np.tril(GL, -1)
        np.fill_diagonal(Lnew, diag)
        new_m[i] = m + lr * grad_m
        new_chol[i] = Lnew
    return GdState(m=new_m, chol=new_chol, prior=state.prior)


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

    The labels are checked once, before the prior state. Gradient draws are
    fresh per step: step t uses the draw set of seed derive_seed(cfg.mc.seed,
    t), so the sequence is deterministic in its inputs. A step that fails
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
    for t in range(1, cfg.steps + 1):
        with named_failures(f"{method} step {t}"):
            step_mc = McConfig(cfg.mc.samples, derive_seed(cfg.mc.seed, t))
            state = step_fn(state, Y, cfg.rho, SoftmaxLikelihood.from_seed(step_mc, n, c))
            if not (np.isfinite(state.m).all() and np.isfinite(state.Sigma).all()):
                raise NumericalError("non-finite posterior moments")
        yield state


def run_inner(method: str, prior_grams: list, Y: np.ndarray, cfg: InnerConfig):
    """Run the inner loop, recording the ELBO of every state it visits.

    The ELBO is evaluated with one fixed draw set (seed cfg.mc.seed) so
    successive values are comparable. Returns (final_state, elbos) with
    steps + 1 values, the first at the prior.
    """
    n, c = prior_grams[0].K.shape[0], len(prior_grams)
    eval_lik = SoftmaxLikelihood.from_seed(cfg.mc, n, c)
    elbos = []
    for state in inner_states(method, prior_grams, Y, cfg):
        elbos.append(elbo(state.m, state.Sigma, prior_grams, Y, eval_lik))
    return state, elbos
