"""Softmax likelihood expectations under factorized Gaussian marginals.

For a point with per-class marginals f_c ~ N(m_c, v_c) (independent across
classes) and one-hot label y, the expected log-likelihood

    E_q[ log p(y | f) ] = E_q[ y . f - logsumexp(f) ]

has no closed form; it is averaged over S standard normal nodes eps^(s)
with the reparameterization f^(s) = m + sqrt(v) * eps^(s). The gradients with respect
to the marginal mean and variance use the Gaussian expectation identities

    g_m = E[ y - softmax(f) ],
    g_v = 1/2 E[ softmax(f)^2 - softmax(f) ]   (elementwise),

i.e. first and (diagonal) second derivatives of the integrand, so
g_m in [-1, 1] and g_v in [-1/8, 0] always. The chain rule to per-point
mean parameters (mu1, mu2) = (m, v + m^2) gives

    d_mu1 = g_m - 2 g_v * m,      d_mu2 = g_v.

A `SoftmaxLikelihood` takes explicit draws ``eps`` and optional
``weights``, so tests and the checks of :mod:`mdgpc.verify` can substitute
deterministic weighted node sets (its Gauss-Hermite rule) for seeded draws;
both then evaluate the same functional on common numbers.

Each expectation is only C-dimensional, so the seeded draws are one
randomized quasi-Monte Carlo node set of shape (S, C) that every point
shares (Buchholz, Wenzel & Mandt, "Quasi-Monte Carlo Variational
Inference", ICML 2018): the first S points of the Sobol sequence, with Joe
& Kuo's direction numbers (SIAM J. Sci. Comput. 2008) as scipy ships them,
digitally shifted by a seeded 52-bit mask per dimension and mapped through
the standard normal quantile (Wichura's AS241). The quantile's central
and near-tail rationals run on every node, and the far-tail one only when
some node lies beyond r = 5; each numerator and denominator is one Horner
pass in place, with scalar coefficients, so every node takes the same
floating-point operations as when all three rationals ran on every node.
The unshifted net is built once per (S, C) and cached, under a lock, so
threads that ask for one net at once read the table once; a power-of-two S
keeps it balanced.

The marginals m, v and the gradients are (C, N), as every inner-loop state
holds them; the labels Y are (N, C) one-hot rows, as episodes give them.
Every Monte Carlo softmax (these estimators and the label probabilities of
:func:`~mdgpc.model.predict_labels`) lays the logits out (C, N, S), nodes
innermost and contiguous, from one node set (S, C) for all points, laid out
(C, 2, S): each class's nodes, then a row of ones. A `SoftmaxLikelihood`
checks its set and lays it out once, at construction, and its estimators
pass that layout to `batch_grads_mv` and `batch_expected_loglik`, so an
inner loop lays out each of its sets once however many steps it takes,
and each call checks only the marginals. The logits are one
batched product f = [sd, m] @ [eps; 1], (C, N, 2) @ (C, 2, S), written
straight into their buffer; with two terms it rounds sd * eps and then the
sum, as m + sd * eps does. The class max and the class sum are then
elementwise passes over whole (N, S) slices, the softmax is
exp(f - max) / sum in one buffer that every step updates in place, and the
mean over nodes is a last-axis reduction (or a product with the weights).
The results equal the last-axis (S, N, C) formulas to rounding, not bit for
bit.
"""

import functools
import threading
import zipfile
from pathlib import Path

import numpy as np
import scipy

from .errors import InputError

__all__ = [
    "batch_expected_loglik",
    "batch_grads_mv",
    "normal_draws",
    "SoftmaxLikelihood",
]


# Joe & Kuo's primitive polynomials and initial direction numbers, as scipy
# ships them: poly.npy (21201,) and vinit.npy (21201, 18), Fortran-ordered.
_DIRECTION_NUMBERS = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
_BITS = 52  # Sobol points as 52-bit integers, the resolution of a float in [0, 1)

# Wichura's AS241 rational approximations (numerator, denominator), highest
# power first: |q| <= 0.425 in r = 0.180625 - q^2, then the tails in
# r = sqrt(-log(min(p, 1 - p))) - 1.6 for r <= 5 and r - 5 beyond.
_AS241 = (
    (
        (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
         45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
         133.14166789178437745, 3.387132872796366608),
        (5226.495278852854561, 28729.085735721942674, 39307.89580009271061,
         21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
         42.313330701600911252, 1.0),
    ),
    (
        (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177,
         1.27045825245236838258, 3.64784832476320460504, 5.7694972214606914055,
         4.6303378461565452959, 1.42343711074968357734),
        (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966,
         0.14810397642748007459, 0.68976733498510000455, 1.6763848301838038494,
         2.05319162663775882187, 1.0),
    ),
    (
        (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386,
         0.026532189526576123093, 0.29656057182850489123, 1.7848265399172913358,
         5.4637849111641143699, 6.6579046435011037772),
        (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
         7.868691311456132591e-4, 0.0148753612908506148525, 0.13692988092273580531,
         0.59983220655588793769, 1.0),
    ),
)


def _horner(coeffs, r):
    """coeffs[0] r^7 + ... + coeffs[7] by Horner's rule as written,
    (coeffs[0] r + coeffs[1]) r + ..., in place on one buffer."""
    acc = r * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= r
        acc += c
    return acc


def _rational(pair, r):
    """num(r) / den(r) for one AS241 pair."""
    num, den = (_horner(coeffs, r) for coeffs in pair)
    num /= den
    return num


def _norm_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of p in (0, 1), by AS241 (Wichura, Applied
    Statistics 37, 1988), the method of ``statistics.NormalDist.inv_cdf``.
    The central and near-tail rationals are evaluated on every node, and the
    far-tail one only when some node has r > 5."""
    q = p - 0.5
    central = q * _rational(_AS241[0], 0.180625 - q * q)
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    near = r <= 5.0
    tail = _rational(_AS241[1], r - 1.6)
    if not near.all():
        tail = np.where(near, tail, _rational(_AS241[2], r - 5.0))
    return np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail))


def _npy_columns(archive: zipfile.ZipFile, name: str, rows: int, cols: int) -> np.ndarray:
    """The first `rows` entries of the first `cols` columns of an int64 .npy
    member, streamed one column at a time, so the table is never loaded."""
    with archive.open(name) as f:
        np.lib.format.read_magic(f)
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
        if dtype != np.int64 or (len(shape) > 1 and not fortran):
            raise InputError(f"unexpected layout of {name} in {_DIRECTION_NUMBERS}")
        if rows > shape[0]:
            raise InputError(f"a Sobol node set has at most {shape[0]} dimensions, got {rows}")
        out = np.empty((rows, cols), dtype=np.int64)
        for j in range(cols):
            out[:, j] = np.frombuffer(f.read(8 * shape[0]), dtype=dtype, count=rows)
    return out


# lru_cache lets two threads compute one missing entry at once; normal_draws
# holds this lock around the lookup, so each (n, dim) net is read once.
_NET_LOCK = threading.Lock()


@functools.lru_cache(maxsize=16)
def _sobol_net(n: int, dim: int) -> np.ndarray:
    """The first n points of the unscrambled Gray-code Sobol sequence in dim
    dimensions as 52-bit integers, (n, dim), the points of
    ``scipy.stats.qmc.Sobol(dim, scramble=False, bits=52)`` times 2^52.
    Read-only: every caller shares the cached array."""
    bits = max(1, (n - 1).bit_length())  # the first n Gray codes use this many
    with zipfile.ZipFile(_DIRECTION_NUMBERS) as archive:
        poly = _npy_columns(archive, "poly.npy", dim, 1)[:, 0].tolist()
        degrees = [p.bit_length() - 1 for p in poly]
        vinit = _npy_columns(archive, "vinit.npy", dim, max(degrees)).tolist()
    v = np.empty((dim, bits), dtype=np.uint64)
    for d, (p, s) in enumerate(zip(poly, degrees)):
        m = vinit[d][:s] if s else [1] * bits  # dimension 0 is van der Corput's
        for j in range(len(m), bits):  # Bratley & Fox's recurrence
            new = m[j - s]
            for k in range(1, s + 1):
                if (p >> (s - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[d] = [x << (_BITS - 1 - j) for j, x in enumerate(m[:bits])]
    i = np.arange(n, dtype=np.uint64)
    gray = i ^ (i >> 1)
    net = np.zeros((n, dim), dtype=np.uint64)
    for j in range(bits):
        net ^= ((gray >> j) & 1)[:, None] * v[:, j]
    net.flags.writeable = False
    return net


def normal_draws(seed: int, shape: tuple) -> np.ndarray:
    """The randomized Sobol node set of `seed`, shape (S, C), for all points.

    The cached net's dimensions are each XORed with a 52-bit mask from
    ``np.random.default_rng(seed)`` (a digital shift), and each integer x is
    mapped to u = (x + 1/2) 2^-52, never 0 or 1, and on to its normal
    quantile. Fewer than one node, or more than the 21201 dimensions of the
    direction-number table, raise InputError.
    """
    n, dim = (int(x) for x in shape)
    if n < 1:
        raise InputError(f"samples must be >= 1, got {n}")
    shift = np.random.default_rng(seed).integers(1 << _BITS, size=dim, dtype=np.uint64)
    with _NET_LOCK:
        net = _sobol_net(n, dim)
    return _norm_quantile(((net ^ shift) + 0.5) * 2.0**-_BITS)


def _node_layout(eps):
    """The node set (S, C) that all points share, checked and laid out as
    contiguous (C, 2, S) rows: each class's nodes, then a row of ones, the
    right factor of `_stable_logits`' product."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 2:
        raise InputError(f"draws must be an (S, C) array, got shape {eps.shape}")
    nodes = np.ones((eps.shape[1], 2, eps.shape[0]))
    nodes[:, 0, :] = eps.T
    return nodes


def _checked_marginals(m, v, nodes):
    """(C, N) marginals, checked against each other and against the classes
    of the (C, 2, S) node layout `nodes`."""
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    if m.shape != v.shape or m.ndim != 2:
        raise InputError(
            f"marginals must be (C, N) arrays, got {m.shape} and {v.shape}"
        )
    if np.any(v < 0.0):
        raise InputError("negative marginal variance")
    if nodes.shape[0] != m.shape[0]:
        draws = (nodes.shape[2], nodes.shape[0])
        raise InputError(f"draws shape {draws} incompatible with {m.shape}")
    return m, v


def _stable_logits(m, sd, nodes):
    """f - max_c f for f = m + sd * eps, in one fresh C-ordered (C, N, S) buffer.

    m, sd: (C, N); nodes: (C, 2, S) from `_node_layout`. f is the batched
    product [sd, m] @ [eps; 1], (C, N, 2) @ (C, 2, S), which rounds
    sd * eps and then its sum with m, as the elementwise form does (bit for
    bit, but where N or S is 1 and the matrix-vector kernel may fuse the
    multiply-add, moving f by at most one rounding). The nodes are the
    innermost, contiguous axis, so the class max here and the class sums of
    the callers are elementwise passes over (N, S) slices. Callers update
    the buffer in place; it is the only one of its size.
    """
    coef = np.empty(m.shape + (2,))
    coef[..., 0], coef[..., 1] = sd, m
    f = coef @ nodes
    f -= np.maximum.reduce(f, axis=0)
    return f


def _softmax(m, sd, nodes):
    """softmax(f) = exp(f - max) / sum_c exp(f - max), laid out (C, N, S)."""
    p = _stable_logits(m, sd, nodes)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=0)
    return p


def _node_mean(x, weights):
    """Mean of x over its last (node) axis, or x @ weights for a weighted set."""
    if weights is None:
        return np.mean(x, axis=-1)
    return x @ np.asarray(weights, dtype=float)


def batch_expected_loglik(m, v, Y, nodes, weights=None) -> float:
    """Sum over points of the estimated E[log p(y_n | f_n)].

    m, v: (C, N); Y: (N, C); nodes: one (S, C) node set for all points, laid
    out (C, 2, S) by `SoftmaxLikelihood`; weights: (S,) or None (uniform),
    else the estimate is sum_s w_s log p(y | f^(s)).
    """
    m, v = _checked_marginals(m, v, nodes)
    stable = _stable_logits(m, np.sqrt(v), nodes)
    # y . (f - max) - log sum_c exp(f - max), for one-hot y
    ll = np.einsum("cn,cns->ns", np.asarray(Y, dtype=float).T, stable)
    np.exp(stable, out=stable)
    ll -= np.log(np.add.reduce(stable, axis=0))
    return float(np.sum(_node_mean(ll, weights)))


def batch_grads_mv(m, v, Y, nodes, weights=None):
    """Estimated (g_m, g_v) for every point at once, each (C, N) like m and
    v, on a node layout as `batch_expected_loglik` takes it."""
    m, v = _checked_marginals(m, v, nodes)
    p = _softmax(m, np.sqrt(v), nodes)
    p_bar = _node_mean(p, weights)
    g_m = np.asarray(Y, dtype=float).T - p_bar
    p *= p
    g_v = 0.5 * (_node_mean(p, weights) - p_bar)  # E[p^2 - p] / 2
    return g_m, g_v


class SoftmaxLikelihood:
    """Softmax expected log-likelihood bound to a fixed draw set.

    Bundling the draws makes the object a deterministic functional of the
    marginals, which is what both the inner-loop steps and the
    finite-difference checks evaluate. The (S, C) set is checked and laid
    out (C, 2, S) once, here, and every evaluation reads that layout.
    """

    def __init__(self, eps: np.ndarray, weights=None):
        self.nodes = _node_layout(eps)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)

    def expected_loglik(self, m, v, Y) -> float:
        return batch_expected_loglik(m, v, Y, self.nodes, self.weights)

    def grads_mv(self, m, v, Y):
        return batch_grads_mv(m, v, Y, self.nodes, self.weights)
