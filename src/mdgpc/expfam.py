"""SPD kernels: jittered Cholesky factors, solves, log-determinants and the KL.

All SPD factorizations in the package go through :func:`spd_cholesky`, which
escalates a diagonal jitter from 1e-8 by doubling up to 1e-2 before raising
:class:`~mdgpc.errors.NumericalError`. :func:`gaussian_kl` takes plain
arrays, ``gaussian_kl(m_q, L_q, L_p)``, where m_q is the first mean measured
from the second and L_q and L_p are the lower Cholesky factors of the two
covariances, so it factors nothing: a caller holds the factor of its
posterior and of its zero-mean GP prior.

The kernels call LAPACK directly: ``dpotrf`` factors, ``dpotrs`` solves
with a factor and ``dtrtrs`` does the triangular solves of
:func:`gaussian_kl`. These are the routines behind ``scipy.linalg.cholesky``,
``cho_solve`` and ``solve_triangular``, so the results are bit for bit the
same, without scipy's per-call wrapper cost. The finite checks that scipy's
``check_finite`` made live here instead: :func:`spd_cholesky` tests its
input, :func:`chol_solve` both operands and :func:`gaussian_kl` the mean
difference and q's factor (p's comes from :func:`spd_cholesky`). A
non-finite operand raises :class:`~mdgpc.errors.NumericalError`.

:func:`spd_cholesky` and :func:`chol_solve` also take a (C, N, N) stack, with
one right-hand side per factor. They check the stack once, then call LAPACK
slice by slice (scipy has no batched form), so each slice is bit for bit the
result for that matrix alone, jitter ladder included.

The exponential-family identities these kernels serve (natural and mean
parameters, the log-partition function and its Fenchel conjugate, the
Bregman divergence) are checked by :mod:`mdgpc.verify`.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import InputError, NumericalError

JITTER_INITIAL = 1e-8
JITTER_MAX = 1e-2


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise NumericalError(f"{name} of shape {x.shape} has non-finite entries")


def spd_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of an SPD matrix with a jitter ladder.

    Tries ``a`` as given first (jitter 0), then adds ``eps * I`` with eps
    doubling from 1e-8 to 1e-2. Returns ``(L, jitter_used)`` where
    ``L @ L.T = a + jitter_used * I``. For a stack (C, N, N) each slice is
    factored on its own ladder; L is the stack of factors and jitter_used
    the largest jitter any slice needed.

    Raises
    ------
    NumericalError
        If ``a`` has a non-finite entry, or no jitter in the ladder yields a
        successful factorization.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise InputError(f"expected square matrix, got shape {a.shape}")
    _check_finite(a, "matrix")
    if a.ndim == 2:
        return _jittered_cholesky(a)
    factors, jitters = zip(*map(_jittered_cholesky, a))
    return np.stack(factors), max(jitters)


def _jittered_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
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
    """Solve A x = b given the lower Cholesky factor of A; for a (C, N, N)
    stack of factors, b is (C, N) or (C, N, K), one right-hand side each."""
    b = np.asarray(b, dtype=float)
    if b.shape[: chol_lower.ndim - 1] != chol_lower.shape[:-1]:
        raise InputError(f"factor of shape {chol_lower.shape} and right-hand side {b.shape}")
    _check_finite(chol_lower, "Cholesky factor")
    _check_finite(b, "right-hand side")
    if chol_lower.ndim == 2:
        return _potrs(chol_lower, b)
    return np.stack([_potrs(L, rhs) for L, rhs in zip(chol_lower, b)])


def _potrs(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def gaussian_kl(m_q: np.ndarray, L_q: np.ndarray, L_p: np.ndarray) -> float:
    """KL( N(m_q, L_q L_q') || N(0, L_p L_p') ) from the lower Cholesky factors.

    L_p is the factor that :func:`spd_cholesky` returned for S_p. The KL is
    translation-invariant, so against a mean m_p the caller passes m_q - m_p.
    """
    n = m_q.shape[0]
    if L_q.shape != (n, n) or L_p.shape != (n, n):
        raise InputError(f"dimension mismatch: m_q {m_q.shape}, L_q {L_q.shape}, L_p {L_p.shape}")
    _check_finite(m_q, "mean difference")
    _check_finite(L_q, "Cholesky factor")
    sol = _solve_lower(L_p, m_q)
    # tr(S_p^{-1} S_q) = || L_p^{-1} L_q ||_F^2
    w = _solve_lower(L_p, L_q)
    trace_term = float(np.sum(w * w))
    return 0.5 * (
        trace_term + float(sol @ sol) - n + chol_logdet(L_p) - chol_logdet(L_q)
    )
