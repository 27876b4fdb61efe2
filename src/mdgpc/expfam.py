"""Gaussian exponential-family parameterizations and Bregman geometry.

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
natural-gradient descent on natural parameters.

The inner loop does not use the dataclasses below: its states hold their
posteriors as stacked arrays, means (C, N) and covariances (C, N, N) (see
:mod:`mdgpc.inference`). :class:`GaussianMoments` and the other checked
types are the public types of the conversions here and of the verification
layer. :func:`gaussian_kl` takes plain arrays, ``gaussian_kl(m_q, S_q, L_p,
m_p=None)``, where L_p is the lower Cholesky factor of the second
covariance, so a caller that holds the factor of a GP prior (the ELBO's KL
term) never factors the prior again.

All SPD factorizations in the package go through :func:`spd_cholesky`, which
escalates a diagonal jitter from 1e-8 by doubling up to 1e-2 before raising
:class:`~mdgpc.errors.NumericalError`.

The three SPD kernels call LAPACK directly: ``dpotrf`` factors, ``dpotrs``
solves with a factor and ``dtrtrs`` does the triangular solves of
:func:`gaussian_kl`. These are the routines behind ``scipy.linalg.cholesky``,
``cho_solve`` and ``solve_triangular``, so the results are bit for bit the
same, without scipy's per-call wrapper cost. The finite checks that scipy's
``check_finite`` made live here instead: :func:`spd_cholesky` tests its
input, :func:`chol_solve` both operands and :func:`gaussian_kl` the mean
difference (its factors come from :func:`spd_cholesky`). A non-finite
operand raises :class:`~mdgpc.errors.NumericalError`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import InputError, NumericalError

JITTER_INITIAL = 1e-8
JITTER_MAX = 1e-2

_SYMMETRY_TOL = 1e-10


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise NumericalError(f"{name} of shape {x.shape} has non-finite entries")


def spd_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of an SPD matrix with a jitter ladder.

    Tries ``a`` as given first (jitter 0), then adds ``eps * I`` with eps
    doubling from 1e-8 to 1e-2. Returns ``(L, jitter_used)`` where
    ``L @ L.T = a + jitter_used * I``.

    Raises
    ------
    NumericalError
        If ``a`` has a non-finite entry, or no jitter in the ladder yields a
        successful factorization.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected square matrix, got shape {a.shape}")
    _check_finite(a, "matrix")
    jitter = 0.0
    while True:
        target = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
        L, info = dpotrf(target, lower=1, clean=1)
        if info == 0:
            return L, jitter
        if info < 0:
            raise NumericalError(f"dpotrf rejected argument {-info} for shape {a.shape}")
        jitter = JITTER_INITIAL if jitter == 0.0 else 2.0 * jitter
        if jitter > JITTER_MAX:
            raise NumericalError(
                f"matrix of shape {a.shape} not positive definite "
                f"(jitter ladder exhausted at {JITTER_MAX:g})"
            )


def chol_logdet(chol_lower: np.ndarray) -> float:
    """log-determinant of A from its lower Cholesky factor."""
    return float(2.0 * np.sum(np.log(np.diag(chol_lower))))


def chol_solve(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor of A."""
    b = np.asarray(b, dtype=float)
    if b.shape[:1] != chol_lower.shape[:1]:
        raise InputError(f"factor of shape {chol_lower.shape} and right-hand side {b.shape}")
    _check_finite(chol_lower, "Cholesky factor")
    _check_finite(b, "right-hand side")
    x, info = dpotrs(chol_lower, b, lower=1)
    if info != 0:
        raise NumericalError(f"dpotrs rejected argument {-info}")
    return x


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} b for lower-triangular L, as scipy's solve_triangular orders it."""
    if L.flags.f_contiguous:
        x, info = dtrtrs(L, b, lower=1)
    else:  # dtrtrs reads Fortran order: solve the transposed system
        x, info = dtrtrs(L.T, b, lower=0, trans=1)
    if info != 0:
        raise NumericalError(f"dtrtrs failed with info {info}")
    return x


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if dev > _SYMMETRY_TOL * max(1.0, float(np.max(np.abs(a))) if a.size else 1.0):
        raise InputError(f"{name} not symmetric (max asymmetry {dev:.3e})")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class GaussianMoments:
    """Moment parameterization (m, Sigma) of a Gaussian over R^N."""

    m: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).reshape(-1)
        Sigma = _check_symmetric(self.Sigma, "Sigma")
        if Sigma.shape[0] != m.shape[0]:
            raise InputError(f"m has length {m.shape[0]} but Sigma is {Sigma.shape}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "Sigma", Sigma)

    @property
    def dim(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class GaussianNatural:
    """Natural parameterization (theta1, Theta2), Theta2 = -1/2 Sigma^{-1}."""

    theta1: np.ndarray
    Theta2: np.ndarray

    def __post_init__(self):
        theta1 = np.asarray(self.theta1, dtype=float).reshape(-1)
        Theta2 = _check_symmetric(self.Theta2, "Theta2")
        if Theta2.shape[0] != theta1.shape[0]:
            raise InputError(
                f"theta1 has length {theta1.shape[0]} but Theta2 is {Theta2.shape}"
            )
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "Theta2", Theta2)

    @property
    def dim(self) -> int:
        return self.theta1.shape[0]


@dataclass(frozen=True)
class FullMeanParams:
    """Mean parameterization (mu1, Mu2) with Mu2 = Sigma + m m'."""

    mu1: np.ndarray
    Mu2: np.ndarray

    def __post_init__(self):
        mu1 = np.asarray(self.mu1, dtype=float).reshape(-1)
        Mu2 = _check_symmetric(self.Mu2, "Mu2")
        if Mu2.shape[0] != mu1.shape[0]:
            raise InputError(f"mu1 has length {mu1.shape[0]} but Mu2 is {Mu2.shape}")
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "Mu2", Mu2)

    @property
    def dim(self) -> int:
        return self.mu1.shape[0]


def moments_to_natural(mom: GaussianMoments) -> GaussianNatural:
    """(m, Sigma) -> (Sigma^{-1} m, -1/2 Sigma^{-1})."""
    L, _ = spd_cholesky(mom.Sigma)
    prec = chol_solve(L, np.eye(mom.dim))
    prec = 0.5 * (prec + prec.T)
    return GaussianNatural(theta1=prec @ mom.m, Theta2=-0.5 * prec)


def natural_to_moments(nat: GaussianNatural) -> GaussianMoments:
    """(theta1, Theta2) -> (m, Sigma) with Sigma = (-2 Theta2)^{-1}."""
    prec = -2.0 * nat.Theta2
    L, _ = spd_cholesky(prec)
    Sigma = chol_solve(L, np.eye(nat.dim))
    Sigma = 0.5 * (Sigma + Sigma.T)
    m = chol_solve(L, nat.theta1)
    return GaussianMoments(m=m, Sigma=Sigma)


def moments_to_mean(mom: GaussianMoments) -> FullMeanParams:
    """(m, Sigma) -> (m, Sigma + m m')."""
    return FullMeanParams(mu1=mom.m, Mu2=mom.Sigma + np.outer(mom.m, mom.m))


def mean_to_moments(mu: FullMeanParams) -> GaussianMoments:
    """(mu1, Mu2) -> (mu1, Mu2 - mu1 mu1')."""
    return GaussianMoments(m=mu.mu1, Sigma=mu.Mu2 - np.outer(mu.mu1, mu.mu1))


def log_partition(nat: GaussianNatural) -> float:
    """A(theta) = 1/2 m' Sigma^{-1} m + 1/2 log|Sigma| + N/2 log(2 pi)."""
    prec = -2.0 * nat.Theta2
    L, _ = spd_cholesky(prec)
    # m' Sigma^{-1} m = theta1' Sigma theta1, with Sigma = prec^{-1}
    half_quad = 0.5 * float(nat.theta1 @ chol_solve(L, nat.theta1))
    # log|Sigma| = -log|prec|
    return half_quad - 0.5 * chol_logdet(L) + 0.5 * nat.dim * np.log(2.0 * np.pi)


def neg_entropy(mu: FullMeanParams) -> float:
    """H(mu) = -N/2 log(2 pi e) - 1/2 log|Sigma| at Sigma = Mu2 - mu1 mu1'."""
    Sigma = mu.Mu2 - np.outer(mu.mu1, mu.mu1)
    L, _ = spd_cholesky(Sigma)
    n = mu.dim
    return -0.5 * n * np.log(2.0 * np.pi * np.e) - 0.5 * chol_logdet(L)


def pairing(nat: GaussianNatural, mu: FullMeanParams) -> float:
    """<theta, mu> = theta1 . mu1 + tr(Theta2 Mu2)."""
    return float(nat.theta1 @ mu.mu1 + np.sum(nat.Theta2 * mu.Mu2))


def bregman_h(mu: FullMeanParams, mu_prime: FullMeanParams) -> float:
    """Bregman divergence of H: B_H(mu, mu') = KL(q_mu || q_mu').

    Computed from the defining expansion H(mu) - H(mu') - <theta', mu - mu'>,
    using grad H(mu') = theta'.
    """
    nat_prime = moments_to_natural(mean_to_moments(mu_prime))
    return (
        neg_entropy(mu)
        - neg_entropy(mu_prime)
        - pairing(nat_prime, FullMeanParams(mu.mu1 - mu_prime.mu1, mu.Mu2 - mu_prime.Mu2))
    )


def gaussian_kl(
    m_q: np.ndarray, S_q: np.ndarray, L_p: np.ndarray, m_p: np.ndarray | None = None
) -> float:
    """KL( N(m_q, S_q) || N(m_p, S_p) ) via Cholesky factors of S_p, S_q.

    L_p is the lower factor that :func:`spd_cholesky` returned for S_p, which
    is not factored again; m_p = None is a zero mean.
    """
    n = m_q.shape[0]
    if S_q.shape != (n, n) or L_p.shape != (n, n):
        raise InputError(f"dimension mismatch: m_q {m_q.shape}, S_q {S_q.shape}, L_p {L_p.shape}")
    Lq, _ = spd_cholesky(S_q)
    diff = m_q if m_p is None else m_q - m_p
    _check_finite(diff, "mean difference")
    sol = _solve_lower(L_p, diff)
    # tr(S_p^{-1} S_q) = || L_p^{-1} L_q ||_F^2
    w = _solve_lower(L_p, Lq)
    trace_term = float(np.sum(w * w))
    return 0.5 * (
        trace_term + float(sol @ sol) - n + chol_logdet(L_p) - chol_logdet(Lq)
    )
