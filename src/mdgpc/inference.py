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
`inner_states` drives either update, and both states reduce q to the per-class
terms (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}) that prediction and the outer
gradient use.

The prior is fixed for a whole episode, so :func:`mdgpc.kernels.gram`
computes everything that depends on it alone once: K + jitter I, its
Cholesky factor and K^{-1}. The steps, the ELBO's KL to the prior and
`kinv_terms` read these read-only arrays instead of factoring or inverting
K again. Moments the package builds itself are symmetric bit for bit and
skip the public constructor's symmetry check.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expfam
from .errors import InputError, NumericalError, named_failures
from .expfam import GaussianMoments, chol_solve, spd_cholesky
from .likelihood import McConfig, SoftmaxLikelihood
from .seeding import derive_seed

__all__ = [
    "SiteParams",
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


@dataclass(frozen=True)
class SiteParams:
    """Per-class, per-point diagonal site naturals; rows are classes."""

    alpha: np.ndarray  # (C, N)
    beta: np.ndarray  # (C, N), <= 0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != beta.shape or alpha.ndim != 2:
            raise InputError(f"alpha shape {alpha.shape}, beta shape {beta.shape}")
        if np.any(beta > 0.0):
            raise InputError("site beta must be <= 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass
class VariationalState:
    """Mirror-descent state: sites plus cached per-class moments."""

    sites: SiteParams
    moments: list  # list[GaussianMoments], one per class
    prior: list  # list[GramResult], one per class

    @property
    def n_classes(self) -> int:
        return len(self.prior)

    @property
    def n_points(self) -> int:
        return self.sites.alpha.shape[1]

    def kinv_terms(self) -> list:
        """Per class (u, core) = (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}).

        Woodbury form: core = W B^{-1} W and u = alpha - W B^{-1} W (K alpha).
        """
        terms = []
        for g, alpha, beta in zip(self.prior, self.sites.alpha, self.sites.beta):
            W, LB, K = site_factor(g, beta)
            core = W[:, None] * chol_solve(LB, np.diag(W))
            u = alpha - W * chol_solve(LB, W * (K @ alpha))
            terms.append((u, core))
        return terms


@dataclass
class GdState:
    """Gradient-ascent state: per-class mean and Cholesky factor of Sigma.

    The per-class moments (m, L L') are built once, with the state.
    """

    m_list: list  # list of (N,) arrays
    chol_list: list  # list of (N, N) lower-triangular factors
    prior: list
    moments: list = field(init=False)  # list[GaussianMoments], one per class

    def __post_init__(self):
        self.moments = [
            GaussianMoments._symmetric(m, _symmetrize(L @ L.T))
            for m, L in zip(self.m_list, self.chol_list)
        ]

    def kinv_terms(self) -> list:
        """Per class (u, core) = (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}), dense."""
        terms = []
        for g, mom in zip(self.prior, self.moments):
            Kinv = _symmetrize(g.kinv)
            terms.append((Kinv @ mom.m, Kinv - Kinv @ mom.Sigma @ Kinv))
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
    """(m, Sigma) = ((K^{-1} - 2 diag(beta))^{-1} alpha, same inverse).

    Woodbury form; exact prior at zero sites and SPD by construction.
    """
    W, LB, K = site_factor(gram_res, beta_c)
    KW = K * W[None, :]
    Sigma = K - KW @ expfam.chol_solve(LB, KW.T)
    Sigma = 0.5 * (Sigma + Sigma.T)
    m = Sigma @ alpha_c
    return GaussianMoments._symmetric(m, Sigma)


def marginal_mats(moments: list):
    """Per-point marginal means and variances stacked as (N, C) arrays."""
    m_mat = np.stack([mom.m for mom in moments], axis=1)
    v_mat = np.stack([np.diag(mom.Sigma) for mom in moments], axis=1)
    if np.any(v_mat <= 0.0):
        raise NumericalError("non-positive marginal variance in state")
    return m_mat, v_mat


def md_init(prior_grams: list) -> VariationalState:
    """Zero sites; the posterior starts at the prior."""
    if not prior_grams:
        raise InputError("need at least one class")
    n = prior_grams[0].K.shape[0]
    c = len(prior_grams)
    sites = SiteParams(alpha=np.zeros((c, n)), beta=np.zeros((c, n)))
    moments = [GaussianMoments._symmetric(np.zeros(n), g.k_eff) for g in prior_grams]
    return VariationalState(sites=sites, moments=moments, prior=list(prior_grams))


def _default_lik(state_n, state_c, mc: McConfig, step_index: int) -> SoftmaxLikelihood:
    step_mc = McConfig(samples=mc.samples, seed=derive_seed(mc.seed, step_index))
    return SoftmaxLikelihood.from_seed(step_mc, state_n, state_c)


def md_step(
    state: VariationalState, Y: np.ndarray, cfg: InnerConfig, lik=None, step_index: int = 0
) -> VariationalState:
    """One mirror-descent step in conjugate (site) form."""
    n, c = state.n_points, state.n_classes
    Y = _validate_labels(Y, n, c)
    if lik is None:
        lik = _default_lik(n, c, cfg.mc, step_index)
    m_mat, v_mat = marginal_mats(state.moments)
    g_m, g_v = lik.grads_mv(m_mat, v_mat, Y)
    d1 = (g_m - 2.0 * g_v * m_mat).T  # (C, N) mean-parameter gradients
    d2 = g_v.T
    rho = cfg.rho
    alpha = (1.0 - rho) * state.sites.alpha + rho * d1
    beta = np.minimum((1.0 - rho) * state.sites.beta + rho * d2, 0.0)
    sites = SiteParams(alpha=alpha, beta=beta)
    moments = [
        posterior_from_sites(g, alpha[i], beta[i]) for i, g in enumerate(state.prior)
    ]
    return VariationalState(sites=sites, moments=moments, prior=state.prior)


def gd_init(prior_grams: list) -> GdState:
    """Start at the prior: m = 0, L = chol(K)."""
    m_list = [np.zeros(g.chol.shape[0]) for g in prior_grams]
    chol_list = [g.chol for g in prior_grams]
    return GdState(m_list=m_list, chol_list=chol_list, prior=list(prior_grams))


def gd_step(
    state: GdState, Y: np.ndarray, cfg: InnerConfig, lik=None, step_index: int = 0
) -> GdState:
    """One gradient-ascent step on the ELBO in (m, L) with Sigma = L L'.

    Off-diagonal entries of L are stored directly, diagonal entries as logs,
    so the ascent update is taken in those coordinates:

        dELBO/dm = g_m - K^{-1} m
        dELBO/dSigma = diag(g_v) - 1/2 (K^{-1} - Sigma^{-1})
        dELBO/dL = 2 sym(dELBO/dSigma) L  (lower triangle)
    """
    n, c = state.m_list[0].shape[0], len(state.prior)
    Y = _validate_labels(Y, n, c)
    if lik is None:
        lik = _default_lik(n, c, cfg.mc, step_index)
    moments = state.moments
    m_mat, v_mat = marginal_mats(moments)
    g_m, g_v = lik.grads_mv(m_mat, v_mat, Y)
    lr = cfg.rho
    eye = np.eye(n)
    new_m, new_chol = [], []
    for i, g in enumerate(state.prior):
        m, L = state.m_list[i], state.chol_list[i]
        grad_m = g_m[:, i] - chol_solve(g.chol, m)
        Sinv = chol_solve(L, eye)
        GSig = np.diag(g_v[:, i]) - 0.5 * (g.kinv - Sinv)
        GSig = 0.5 * (GSig + GSig.T)
        GL = np.tril(2.0 * GSig @ L)
        # ascent in (off-diagonal L, log-diagonal L, m)
        diag = np.diag(L) * np.exp(lr * np.diag(GL) * np.diag(L))
        Lnew = L + lr * np.tril(GL, -1)
        np.fill_diagonal(Lnew, diag)
        new_m.append(m + lr * grad_m)
        new_chol.append(Lnew)
    return GdState(m_list=new_m, chol_list=new_chol, prior=state.prior)


def _elbo_of(moments: list, prior_grams: list, Y: np.ndarray, lik) -> float:
    """sum_n E_q[log p(y_n | f_n)] - sum_c KL(q^c || prior^c) under `lik`."""
    m_mat, v_mat = marginal_mats(moments)
    total = lik.expected_loglik(m_mat, v_mat, Y)
    for mom, g in zip(moments, prior_grams):
        total -= expfam.gaussian_kl(mom, p_chol=g.chol)
    return float(total)


def elbo(state, Y: np.ndarray, mc: McConfig, lik=None) -> float:
    """ELBO estimate: sum_n E_q[log p(y_n | f_n)] - sum_c KL(q^c || prior^c)."""
    moments = state.moments
    n, c = moments[0].dim, len(moments)
    Y = _validate_labels(Y, n, c)
    if lik is None:
        lik = SoftmaxLikelihood.from_seed(mc, n, c)
    return _elbo_of(moments, state.prior, Y, lik)


def inner_states(method: str, prior_grams: list, Y: np.ndarray, cfg: InnerConfig):
    """Yield the prior state, then the state after each of `steps` updates.

    Gradient draws are fresh per step (seeded by cfg.mc.seed and the step
    index), so the sequence is deterministic in its inputs. A step that
    fails numerically or leaves non-finite moments raises NumericalError
    naming the method and the step; numpy's floating-point warnings are
    silenced inside the step, since this check reports the failure.
    """
    method = method.upper()
    if method not in ("MD", "GD"):
        raise InputError(f"unknown inner method {method!r}")
    state = md_init(prior_grams) if method == "MD" else gd_init(prior_grams)
    step_fn = md_step if method == "MD" else gd_step
    yield state
    for t in range(1, cfg.steps + 1):
        with named_failures(f"{method} step {t}"):
            state = step_fn(state, Y, cfg, step_index=t)
            if not all(
                np.isfinite(mom.m).all() and np.isfinite(mom.Sigma).all()
                for mom in state.moments
            ):
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
        elbos.append(elbo(state, Y, cfg.mc, lik=eval_lik))
    return state, elbos
