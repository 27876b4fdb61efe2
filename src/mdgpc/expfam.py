"""SPD kernels on numpy: jittered Cholesky factors and the Gaussian KL.

All SPD factorizations in the package go through :func:`spd_cholesky`, which
escalates a diagonal jitter from 1e-8 by doubling up to 1e-2 before raising
:class:`~mdgpc.errors.NumericalError`. :func:`gaussian_kl` takes plain
arrays, ``gaussian_kl(m_q, L_q, Lp_inv)``, where m_q is the first mean
measured from the second, L_q is the lower Cholesky factor of the first
covariance and Lp_inv the inverse of the second's, so it neither factors nor
solves: a caller holds the factor of its posterior and inverts its zero-mean
GP prior's factor once.

Both kernels are written on ``np.linalg`` and take a single matrix or a
(C, N, N) stack, one mean per slice. Finite checks guard the operands:
:func:`spd_cholesky` tests its input and :func:`gaussian_kl` the mean
difference and q's factor (p's comes from :func:`spd_cholesky`). A
non-finite operand raises :class:`~mdgpc.errors.NumericalError`.

:func:`spd_cholesky` factors a stack in one call. Only if that call fails
does it run the jitter ladder, slice by slice, so each slice is bit for bit
the factor of that matrix alone, jitter included.

The exponential-family identities these kernels serve (natural and mean
parameters, the log-partition function and its Fenchel conjugate, the
Bregman divergence) are checked by :mod:`mdgpc.verify`, which also holds the
Cholesky solve those checks use.
"""

import numpy as np

from .errors import InputError, NumericalError

JITTER_INITIAL = 1e-8
JITTER_MAX = 1e-2


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise NumericalError(f"{name} of shape {x.shape} has non-finite entries")


def spd_cholesky(a: np.ndarray, slice_jitters=None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of an SPD matrix with a jitter ladder.

    Tries ``a`` as given first (jitter 0), then adds ``eps * I`` with eps
    doubling from 1e-8 to 1e-2. Returns ``(L, jitter_used)`` where
    ``L @ L.T = a + jitter_used * I``. For a stack (C, N, N) each slice is
    factored on its own ladder; L is the stack of factors and jitter_used
    the largest jitter any slice needed. A caller that needs each slice's
    own jitter passes a (C,) float array as ``slice_jitters``, which
    receives them.

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
    try:
        L, jitters = np.linalg.cholesky(a), (0.0,)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            return _jittered_cholesky(a)
        factors, jitters = zip(*map(_jittered_cholesky, a))
        L = np.stack(factors)
    if slice_jitters is not None:
        slice_jitters[...] = jitters
    return L, max(jitters)


def _jittered_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    jitter = 0.0
    while True:
        target = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
        try:
            return np.linalg.cholesky(target), jitter
        except np.linalg.LinAlgError:
            jitter = JITTER_INITIAL if jitter == 0.0 else 2.0 * jitter
        if jitter > JITTER_MAX:
            raise NumericalError(
                f"matrix of shape {a.shape} not positive definite "
                f"(jitter ladder exhausted at {JITTER_MAX:g})"
            )


def gaussian_kl(m_q: np.ndarray, L_q: np.ndarray, Lp_inv: np.ndarray) -> np.ndarray:
    """KL( N(m_q, L_q L_q') || N(0, S_p) ) from q's lower Cholesky factor L_q
    and the inverse Lp_inv of the lower Cholesky factor of S_p.

    Takes one Gaussian, m_q (N,), or a stack, m_q (C, N) with (C, N, N)
    factors, and returns the KL of each, () or (C,). The KL is
    translation-invariant, so against a mean m_p the caller passes m_q - m_p.
    """
    n = m_q.shape[-1]
    if L_q.shape != m_q.shape + (n,) or Lp_inv.shape != L_q.shape:
        raise InputError(
            f"dimension mismatch: m_q {m_q.shape}, L_q {L_q.shape}, Lp_inv {Lp_inv.shape}"
        )
    _check_finite(m_q, "mean difference")
    _check_finite(L_q, "Cholesky factor")
    sol = Lp_inv @ m_q[..., None]
    # tr(S_p^{-1} S_q) = || L_p^{-1} L_q ||_F^2
    w = Lp_inv @ L_q
    half_logdet_p = -np.sum(np.log(np.diagonal(Lp_inv, axis1=-2, axis2=-1)), axis=-1)
    half_logdet_q = np.sum(np.log(np.diagonal(L_q, axis1=-2, axis2=-1)), axis=-1)
    return (
        0.5 * (np.sum(w * w, axis=(-2, -1)) + np.sum(sol * sol, axis=(-2, -1)) - n)
        + half_logdet_p
        - half_logdet_q
    )
