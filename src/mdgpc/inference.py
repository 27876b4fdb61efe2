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

where the site naturals are alpha (linear) and beta (quadratic, beta <= 0),
so Sigma^c = (K^{c-1} - 2 diag(beta^c))^{-1} and m^c = Sigma^c alpha^c. With
W = sqrt(-2 beta), B = I + W K W and X = B^{-1} W K, a step reads only what
`posterior_from_sites` takes from B^{-1} and X; the KL, which only the ELBO
reads, adds the factor L_B L_B' = B (Rasmussen & Williams 2006, Sec. 3.4):

    u = K^{-1} m = alpha - W X alpha,     m = K u,
    v = diag K - rowsum(K W o X'),
    KL(q || prior) = 1/2 (m' u - sum_i W_i X_ii) + sum log diag L_B.

Nothing inverts K or forms Sigma, and zero sites give the prior exactly.

A plain gradient-ascent baseline on (m, L) with Sigma = L L' (log-diagonal
storage for L) optimizes the same ELBO for the convergence comparisons; its
marginal variances are the row sums of L o L, its KL comes from L, and its
step reads Sigma^{-1} only as Sigma^{-1} L = L^{-T}, so it inverts nothing.

Every state gives the same three things: means ``m`` and marginal variances
``v``, both (C, N) with row c for class c, the per-class KL to the prior
``kl`` (C,), and the per-class terms (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1})
that prediction and the outer gradient use, from ``kinv_terms``. The
mirror-descent state holds its (C, N) site naturals ``alpha`` and ``beta``,
and the ``u`` and inverse ``binv`` of B its last step computed, so
``kinv_terms`` is the elementwise product W B^{-1} W and neither factors
nor solves; the gradient-ascent state holds its (C, N, N) Cholesky factors
``chol``. Each state derives ``kl`` when it is read, from what it holds.
``elbo(state, Y, lik)`` reads only ``m``, ``v`` and ``kl``; it and the steps
hand ``m`` and ``v`` to the likelihood in this layout, untransposed. The step
arithmetic is written once for all classes, with batched ``@`` on the
stacks, and the SPD kernels of :mod:`mdgpc.expfam` take the stacks whole.

Every step has one contract: ``md_step(state, Y, rho, lik)`` and
``gd_step(state, Y, lr, lik)`` take checked one-hot labels, a rate and the
likelihood whose gradients drive the update, and do only the update.
`inner_states` is the one driver: it checks the labels once, before its
first state, and drives every step with one likelihood on one draw set (seed
derive_seed(seed, STREAM_STEP_DRAWS) of its draw seed argument), or on its
first COARSE_NODES nodes in a coarse stage of at most ``coarse_steps`` steps
that ends once a step moves the posterior by less than SWITCH_TOL, so the
draw schedule and the step count are written only there.
`run_inner` scores every state with one fixed draw set, of seed ``seed``.

The prior is fixed for a whole episode, so :func:`mdgpc.kernels.gram`
computes the stacked K + jitter I and its Cholesky factors once, as one
:class:`~mdgpc.kernels.GramResult` that `inner_states`, `md_init` and
`gd_init` take whole. The inits put what the steps read into the state:
K + jitter I for mirror descent; for gradient ascent the inverses of the
prior factors, which its KL reads, and the symmetric K^{-1} formed from
them. Neither factors anything else: the only factorizations at run time
are those of the Grams, and of B when an MD state's KL is read. B's
eigenvalues are at least 1, so a mirror step inverts B itself and factors
nothing; a gradient-ascent step inverts, solves and factors nothing.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalError, named_failures
from .expfam import gaussian_kl, spd_cholesky
from .kernels import GramResult
from .likelihood import SoftmaxLikelihood
from .seeding import STREAM_STEP_DRAWS, derive_seed

__all__ = [
    "VariationalState", "GdState", "InnerConfig", "md_init", "md_step", "gd_init", "gd_step",
    "elbo", "inner_states", "run_inner", "posterior_from_sites",
]


@dataclass
class VariationalState:
    """Mirror-descent state: per-point site naturals and the posterior they give."""

    alpha: np.ndarray  # (C, N) linear site naturals; rows are classes
    beta: np.ndarray  # (C, N) quadratic site naturals, <= 0
    m: np.ndarray  # (C, N) posterior means
    v: np.ndarray  # (C, N) posterior marginal variances
    u: np.ndarray  # (C, N) K^{-1} m
    binv: np.ndarray  # (C, N, N) inverses of B = I + W K W
    k_eff: np.ndarray  # (C, N, N) prior covariances, from the prior's GramResult

    @property
    def kl(self) -> np.ndarray:
        """(C,) KL(q^c || prior^c), 1/2 (m' u - sum_i W_i X_ii) + sum log diag L_B,
        with X_ii from the kept inverse of B and L_B from B factored here."""
        W = _site_scale(self.beta)
        LB, _ = spd_cholesky(_site_b(self.k_eff, W))
        wx = W * np.einsum("cij,cij->ci", self.binv, self.k_eff * W[:, None, :])
        half_logdet_b = np.sum(np.log(np.diagonal(LB, axis1=1, axis2=2)), axis=1)
        return 0.5 * np.sum(self.m * self.u - wx, axis=1) + half_logdet_b

    def kinv_terms(self) -> tuple:
        """(u, core) = (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}), (C, N) and (C, N, N).

        Woodbury form: core = W B^{-1} W, from the inverse of B the last step kept.
        """
        W = _site_scale(self.beta)
        return self.u, W[:, :, None] * self.binv * W[:, None, :]


@dataclass
class GdState:
    """Gradient-ascent state: per-class mean and Cholesky factor L of Sigma = L L'."""

    m: np.ndarray  # (C, N) posterior means
    chol: np.ndarray  # (C, N, N) lower-triangular factors
    prior_chol_inv: np.ndarray  # (C, N, N) inverses of the prior factors, from gd_init
    kinv: np.ndarray  # (C, N, N) symmetric prior inverses, from gd_init

    @property
    def v(self) -> np.ndarray:
        """(C, N) marginal variances diag(L L'), the row sums of L o L."""
        return np.sum(self.chol * self.chol, axis=2)

    @property
    def kl(self) -> np.ndarray:
        """(C,) KL(q^c || prior^c) from L and the inverses of the prior factors."""
        return gaussian_kl(self.m, self.chol, self.prior_chol_inv)

    def kinv_terms(self) -> tuple:
        """(u, core) = (K^{-1} m, K^{-1} - (K^{-1} L)(K^{-1} L)'), dense."""
        KiL = self.kinv @ self.chol
        return _matvec(self.kinv, self.m), self.kinv - KiL @ KiL.swapaxes(1, 2)


# The first 2^6 points of a Sobol set are a balanced net of their own.
COARSE_NODES = 64
# A coarse step that moves every mean by less than this many posterior sds,
# and every marginal variance by less than this share of itself, ends the
# coarse stage. It is ten times below the 64-node set's own error in the fit
# (2.9e-2). A step moves about rho times the distance left, so at 1e-2 the
# stage ended early at rates 0.1 and 0.2, before it had settled.
SWITCH_TOL = 1e-3


@dataclass(frozen=True)
class InnerConfig:
    """Inner-loop settings; rho is the mirror rate or the GD step size, and
    every draw set has `samples` nodes. A coarse stage of at most
    `coarse_steps` steps reads only the first COARSE_NODES nodes of the draw
    set and ends early once it settles; then steps - coarse_steps steps read
    all of it, so `steps` is a cap. The draw seed is an argument, not a setting."""

    rho: float = 1.0
    steps: int = 3
    samples: int = 64
    coarse_steps: int = 0

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise InputError(f"rho must be in (0, 1], got {self.rho}")
        if self.steps < 0:
            raise InputError(f"steps must be >= 0, got {self.steps}")
        if self.samples < 1:
            raise InputError(f"samples must be >= 1, got {self.samples}")


def _validate_labels(Y: np.ndarray, n_points: int, n_classes: int) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (n_points, n_classes):
        raise InputError(f"labels shape {Y.shape}, expected {(n_points, n_classes)}")
    if not np.all((Y == 0.0) | (Y == 1.0)) or not np.all(Y.sum(axis=1) == 1.0):
        raise InputError("label rows must be one-hot")
    return Y


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A[c] @ x[c] for every class c: (C, N, N) and (C, N) give (C, N)."""
    return (A @ x[:, :, None])[:, :, 0]


def _site_scale(beta: np.ndarray) -> np.ndarray:
    """W = sqrt(-2 beta), the square roots of the site precisions."""
    return np.sqrt(-2.0 * np.minimum(beta, 0.0))


def _site_b(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """B = I + W K W for every class."""
    return np.eye(K.shape[1]) + (W[:, :, None] * K) * W[:, None, :]


def _moved(m: np.ndarray, v: np.ndarray, m0: np.ndarray, v0: np.ndarray) -> float:
    """max(|m - m0| / sqrt(v), |v - v0| / v): how far a step from (m0, v0)
    to (m, v) moved the posterior, in its own sds and variances."""
    return float(max(np.max(np.abs(m - m0) / np.sqrt(v)), np.max(np.abs(v - v0) / v)))


def posterior_from_sites(K: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """(m, v, u, binv): the means and marginal variances of the posterior
    N((K^{-1} - 2 diag(beta))^{-1} alpha, same inverse) under the prior
    N(0, K), stacked by class, from the inverse binv of B = I + W K W alone,
    with W = sqrt(-2 beta) and X = B^{-1} W K. B's eigenvalues are at least
    1, so the inverse is well conditioned; u = K^{-1} m and binv are kept
    for `kinv_terms` and the state's KL. Nothing is factored.
    """
    W = _site_scale(beta)
    binv = np.linalg.inv(_site_b(K, W))
    KW = K * W[:, None, :]
    X = binv @ KW.swapaxes(1, 2)
    u = alpha - W * _matvec(X, alpha)  # K^{-1} m
    m = _matvec(K, u)
    v = np.diagonal(K, axis1=1, axis2=2) - np.einsum("cij,cji->ci", KW, X)
    return m, v, u, binv


def md_init(prior: GramResult) -> VariationalState:
    """Zero sites; the posterior starts at the prior, where B = I and u = 0."""
    k_eff = prior.k_eff
    zeros, v = np.zeros(k_eff.shape[:2]), np.diagonal(k_eff, axis1=1, axis2=2)
    binv = np.broadcast_to(np.eye(k_eff.shape[1]), k_eff.shape)
    return VariationalState(alpha=zeros, beta=zeros, m=zeros, v=v, u=zeros, binv=binv, k_eff=k_eff)


def md_step(state: VariationalState, Y: np.ndarray, rho: float, lik) -> VariationalState:
    """One mirror-descent step in conjugate (site) form at rate rho.

    Y must be checked (N, C) one-hot labels; `lik` supplies the gradients.
    """
    g_m, g_v = lik.grads_mv(state.m, state.v, Y)
    # toward the mean-parameter gradients (g_m - 2 g_v m, g_v)
    alpha = (1.0 - rho) * state.alpha + rho * (g_m - 2.0 * g_v * state.m)
    beta = np.minimum((1.0 - rho) * state.beta + rho * g_v, 0.0)
    m, v, u, binv = posterior_from_sites(state.k_eff, alpha, beta)
    return replace(state, alpha=alpha, beta=beta, m=m, v=v, u=u, binv=binv)


def gd_init(prior: GramResult) -> GdState:
    """Start at the prior: m = 0, L = chol(K)."""
    chol = prior.chol
    chol_inv = np.linalg.inv(chol)
    kinv = chol_inv.swapaxes(1, 2) @ chol_inv
    kinv = 0.5 * (kinv + kinv.swapaxes(1, 2))
    return GdState(m=np.zeros(chol.shape[:2]), chol=chol, prior_chol_inv=chol_inv, kinv=kinv)


def gd_step(state: GdState, Y: np.ndarray, lr: float, lik) -> GdState:
    """One gradient-ascent step with step size lr on the ELBO in (m, L) with
    Sigma = L L'. Y must be checked (N, C) one-hot labels; `lik` supplies the
    gradients.

    Off-diagonal entries of L are stored directly, diagonal entries as logs,
    so the ascent update is taken in those coordinates:

        dELBO/dm = g_m - K^{-1} m
        dELBO/dSigma = diag(g_v) - 1/2 (K^{-1} - Sigma^{-1})
        dELBO/dL = tril(2 diag(g_v) L - K^{-1} L) + diag(1/L_ii)
    """
    g_m, g_v = lik.grads_mv(state.m, state.v, Y)
    m, L = state.m, state.chol
    d = np.arange(m.shape[1])  # diagonal entries are [:, d, d]
    grad_m = g_m - _matvec(state.kinv, m)
    # 2 dELBO/dSigma L; Sigma^{-1} L = L^{-T}, whose lower triangle is diag(1/L_ii)
    GL = np.tril(2.0 * g_v[:, :, None] * L - state.kinv @ L)
    GL[:, d, d] += 1.0 / L[:, d, d]
    # ascent in (off-diagonal L, log-diagonal L, m)
    Lnew = L + lr * np.tril(GL, -1)
    Lnew[:, d, d] = L[:, d, d] * np.exp(lr * GL[:, d, d] * L[:, d, d])
    return replace(state, m=m + lr * grad_m, chol=Lnew)


def elbo(state, Y: np.ndarray, lik) -> float:
    """sum_n E_q[log p(y_n | f_n)] - sum_c KL(q^c || prior^c) under `lik`,
    from the marginals and KLs the state gives."""
    return float(lik.expected_loglik(state.m, state.v, Y) - np.sum(state.kl))


def inner_states(method: str, prior: GramResult, Y: np.ndarray, cfg: InnerConfig, seed: int):
    """Yield the prior state, then the state after each update: `steps` of
    them, or fewer when a coarse stage settles early.

    The labels are checked once, before the prior state. Every step reads one
    draw set, the cfg.samples nodes of seed derive_seed(seed,
    STREAM_STEP_DRAWS), drawn at step 1 (so a loop of no steps draws nothing):
    the loop is a deterministic fixed-point iteration on one sample-average
    surrogate of the ELBO. A coarse stage of at most cfg.coarse_steps steps
    reads only its first COARSE_NODES nodes, a cheaper surrogate whose fixed
    point lies near the full set's. It ends at its first step that moves every
    mean by less than SWITCH_TOL posterior sds and every marginal variance by
    less than SWITCH_TOL of itself (`_moved`), or at its cap; exactly steps -
    coarse_steps steps on the whole set follow, from close to where they
    converge. With coarse_steps = 0 every step reads the whole set. A step
    that fails numerically or leaves a non-finite mean or a marginal variance
    outside (0, inf) raises NumericalError naming the method and the step;
    numpy's floating-point warnings are silenced inside the step, since this
    check reports the failure.
    """
    method = method.upper()
    if method not in ("MD", "GD"):
        raise InputError(f"unknown inner method {method!r}")
    state = md_init(prior) if method == "MD" else gd_init(prior)
    step_fn = md_step if method == "MD" else gd_step
    c, n, _ = prior.K.shape
    Y = _validate_labels(Y, n, c)
    yield state
    lik = None
    coarse_end, last = min(cfg.coarse_steps, cfg.steps), cfg.steps  # the last coarse step
    t = 0
    while t < last:
        t += 1
        with named_failures(f"{method} step {t}"):
            if lik is None:
                step_seed = derive_seed(seed, STREAM_STEP_DRAWS)
                lik = SoftmaxLikelihood.from_seed(step_seed, cfg.samples, c)
                coarse = SoftmaxLikelihood(lik.eps[:COARSE_NODES])
            before = (state.m, state.v) if t <= coarse_end else None
            state = step_fn(state, Y, cfg.rho, lik if before is None else coarse)
            m, v = state.m, state.v
            if not (np.isfinite(m).all() and ((0.0 < v) & (v < np.inf)).all()):
                raise NumericalError("non-finite posterior mean or variance outside (0, inf)")
            if before is not None and _moved(m, v, *before) < SWITCH_TOL:
                last -= coarse_end - t  # the coarse steps not taken
                coarse_end = t
        yield state


def run_inner(method: str, prior: GramResult, Y: np.ndarray, cfg: InnerConfig, seed: int):
    """Run the inner loop, recording the ELBO of every state it visits.

    The ELBO is evaluated with one fixed draw set (the cfg.samples nodes of
    `seed`) so successive values are comparable; a failure while scoring the
    state of step t names the method and t, as `inner_states` does for the step.
    Returns (final_state, elbos) with steps + 1 values, the first at the prior.
    """
    eval_lik = SoftmaxLikelihood.from_seed(seed, cfg.samples, len(prior.K))
    elbos = []
    for t, state in enumerate(inner_states(method, prior, Y, cfg, seed)):
        with named_failures(f"{method.upper()} step {t}"):
            elbos.append(elbo(state, Y, eval_lik))
    return state, elbos
