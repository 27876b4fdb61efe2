"""Deep kernels: MLP feature extractor composed with simple base kernels.

Features z = phi_w(x) come from a fully connected network with ReLU hidden
layers and identity output. On extracted features the base kernel is one of

    COS:  k(z, z') = z~ . z~' / (|z~| |z~'|),   z~ = z - batch mean
    RBF:  k(z, z') = exp( -|z - z'|^2 / (2 l^2) )
    POL:  k(z, z') = (z . z' + c)^d,            d in {1, 2}

each multiplied by a trainable output scale. Positive quantities
(length scale, offset, output scale) are stored as unconstrained raw values
mapped through softplus; gradients returned by the backward passes are with
respect to the raw values.

The C classes' base kernels share one kind and one feature batch and
differ only in their scales, held as (C,) raw vectors. Each kind's formula
is written once, in `cross_gram`, which scales the feature-level term per
class into a (C, M, N) stack; `gram` is the cross_gram of the support with
itself, (C, N, N), and one `spd_cholesky` call factors that stack.

The extractor's forward pass caches the activations its backward pass
needs; the Gram's backward pass takes the features from its caller. The
backward passes implement exact reverse-mode calculus for the maps above,
including the batch-centering and row normalization of COS.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericalError
from .expfam import spd_cholesky

KERNEL_KINDS = ("COS", "RBF", "POL1", "POL2")

_NORM_FLOOR = 1e-12


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    # inverse of log(1 + e^x); y must be positive
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise InputError("softplus_inv requires positive input")
    return y + np.log(-np.expm1(-y))


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# feature extractor
# ---------------------------------------------------------------------------


@dataclass
class FeatureExtractor:
    """Fully connected ReLU network with identity output layer.

    weights[l] has shape (layer_dims[l], layer_dims[l+1]); features are
    row vectors, z = relu(... relu(x W_0 + b_0) ...) W_{L-1} + b_{L-1}.
    """

    layer_dims: list
    weights: list
    biases: list

    def __post_init__(self):
        _check_layer_dims(self.layer_dims)
        if len(self.weights) != self.n_layers or len(self.biases) != self.n_layers:
            raise InputError("weights/biases do not match layer_dims")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[l], self.layer_dims[l + 1])
            if w.shape != want or b.shape != (want[1],):
                raise InputError(
                    f"layer {l}: weight shape {w.shape}, bias shape {b.shape}, "
                    f"expected {want}"
                )

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1


def _check_layer_dims(layer_dims) -> None:
    if len(layer_dims) < 2 or min(layer_dims) < 1:
        raise InputError(f"layer dims {list(layer_dims)} need input and output sizes >= 1")


def init_extractor(layer_dims, seed: int, weight_std: float = 1.0) -> FeatureExtractor:
    """He-style initialization scaled by weight_std; zero biases."""
    _check_layer_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        std = weight_std * np.sqrt(2.0 / fan_in)
        weights.append(std * rng.standard_normal((fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return FeatureExtractor(list(layer_dims), weights, biases)


@dataclass
class ForwardCache:
    """Activations recorded by :func:`extract` for the backward pass."""

    layer_dims: list
    acts: list  # a_0 = X, ..., a_L = Z
    pres: list  # z_l = a_l W_l + b_l


def extract(fe: FeatureExtractor, X: np.ndarray):
    """Run the network on rows of X; returns (Z, cache)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InputError(f"X must be (N, D), got shape {X.shape}")
    if X.shape[0] == 0:
        raise InputError("no rows to extract features from")
    if X.shape[1] != fe.layer_dims[0]:
        raise InputError(
            f"input dim {X.shape[1]} != network input dim {fe.layer_dims[0]}"
        )
    acts, pres = [X], []
    h = X
    for l in range(fe.n_layers):
        z = h @ fe.weights[l] + fe.biases[l]
        pres.append(z)
        h = np.maximum(z, 0.0) if l < fe.n_layers - 1 else z
        acts.append(h)
    return h, ForwardCache(list(fe.layer_dims), acts, pres)


def extractor_backward(fe: FeatureExtractor, cache: ForwardCache, dZ: np.ndarray):
    """Backpropagate dZ = dL/dZ; returns (weight_grads, bias_grads)."""
    if cache.layer_dims != fe.layer_dims:
        raise InputError(
            f"cache built for dims {cache.layer_dims}, network has {fe.layer_dims}"
        )
    dZ = np.asarray(dZ, dtype=float)
    want = (cache.acts[0].shape[0], fe.layer_dims[-1])
    if dZ.shape != want:
        raise InputError(f"dZ shape {dZ.shape}, expected {want}")
    wgrads = [None] * fe.n_layers
    bgrads = [None] * fe.n_layers
    gz = dZ  # gradient w.r.t. pre-activation of the output layer
    for l in range(fe.n_layers - 1, -1, -1):
        wgrads[l] = cache.acts[l].T @ gz
        bgrads[l] = gz.sum(axis=0)
        if l > 0:
            gz = (gz @ fe.weights[l].T) * (cache.pres[l - 1] > 0.0)
    return wgrads, bgrads


# ---------------------------------------------------------------------------
# base kernels
# ---------------------------------------------------------------------------


@dataclass
class BaseKernels:
    """The C base kernels of a deep kernel: one kind, and per raw
    (pre-softplus) scalar a (C,) vector whose entry c is class c's.

    length_scale applies to RBF, offset to POL; output_scale to all kinds.
    The scales are numpy arrays: an overflowing power is inf, not
    OverflowError.
    """

    kind: str
    length_scale_raw: np.ndarray
    offset_raw: np.ndarray
    output_scale_raw: np.ndarray

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InputError(
                f"unknown kernel kind {self.kind!r}, expected one of {KERNEL_KINDS}"
            )
        for name in ("length_scale_raw", "offset_raw", "output_scale_raw"):
            setattr(self, name, np.array(getattr(self, name), dtype=float))
        if self.n_classes == 0:
            raise InputError("need at least one class")

    @classmethod
    def at_scales(cls, kind: str, n_classes: int, length_scale=1.0, offset=1.0, output_scale=1.0):
        """n_classes base kernels of one kind, every class at the same scales."""
        scales = (length_scale, offset, output_scale)
        return cls(kind, *(np.full(n_classes, float(softplus_inv(x))) for x in scales))

    @property
    def n_classes(self) -> int:
        return self.output_scale_raw.shape[0]

    @property
    def length_scale(self) -> np.ndarray:
        return softplus(self.length_scale_raw)

    @property
    def offset(self) -> np.ndarray:
        return softplus(self.offset_raw)

    @property
    def output_scale(self) -> np.ndarray:
        return softplus(self.output_scale_raw)

    @property
    def degree(self) -> int:
        return {"POL1": 1, "POL2": 2}.get(self.kind, 0)

    def raw_names(self) -> list:
        """Trainable raw parameters for this kind, in flattening order."""
        if self.kind == "COS":
            return ["output_scale_raw"]
        if self.kind == "RBF":
            return ["length_scale_raw", "output_scale_raw"]
        return ["offset_raw", "output_scale_raw"]


@dataclass
class DeepKernel:
    """Shared feature extractor plus the base kernels, one per class."""

    extractor: FeatureExtractor
    base: BaseKernels


@dataclass
class GramResult:
    """The C Gram matrices of a feature batch and the prior covariances
    factored from them, each stacked (C, N, N).

    K is the raw kernel stack; k_eff[c] = K[c] + jitter_c * I, with the
    jitter :func:`~mdgpc.expfam.spd_cholesky` needed for slice c, is the
    prior covariance the inner loops use (K itself when no slice needed
    jitter) and chol its lower Cholesky factors. They are computed once, since
    the prior is fixed for a whole episode, and are read-only, so no step can
    alter them for the steps after it. center is the feature mean used by COS
    centering (None for other kinds), reused for query points at prediction.
    """

    K: np.ndarray
    k_eff: np.ndarray
    chol: np.ndarray
    center: Optional[np.ndarray] = None


def _cos_normalize(Zc: np.ndarray):
    norms = np.sqrt(np.sum(Zc * Zc, axis=1))
    if np.any(norms < _NORM_FLOOR):
        raise NumericalError("zero-norm feature row after centering (COS kernel)")
    return Zc / norms[:, None], norms


def _pairwise_sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.maximum(d2, 0.0)


def _pow(x: np.ndarray, e: int) -> np.ndarray:
    """x ** e as float64 scalars take it, one per class (C's pow, inf on
    overflow): numpy's vectorized power can round the last bit differently,
    and a class's Gram must not depend on how many classes share its stack."""
    return np.array([v**e for v in x])


def gram(base: BaseKernels, Z: np.ndarray) -> GramResult:
    """The C Gram matrices of the base kernels on feature rows Z, plus their
    factors: the symmetrized cross_gram of Z with itself, centered at the
    feature mean for COS."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise InputError(f"Z must be (N, d), got shape {Z.shape}")
    if Z.shape[0] == 0:
        raise InputError("empty feature batch")
    center = Z.mean(axis=0) if base.kind == "COS" else None
    K = cross_gram(base, Z, Z, center)
    K = 0.5 * (K + K.swapaxes(1, 2))
    jitters = np.empty(base.n_classes)
    L, jitter = spd_cholesky(K, jitters)
    # each slice's sum spd_cholesky factored on its last try
    k_eff = K + jitters[:, None, None] * np.eye(K.shape[1]) if jitter else K
    for arr in (K, L, k_eff):
        arr.flags.writeable = False
    return GramResult(K=K, k_eff=k_eff, chol=L, center=center)


def gram_backward(base: BaseKernels, Z: np.ndarray, res: GramResult, dK: np.ndarray):
    """Reverse-mode map from the stack dL/dK (C, N, N) to (dL/dZ, dL/d raw
    params), for the result res of gram(base, Z). dL/dZ (N, d) sums the
    classes' terms, since they share Z; each raw gradient is a (C,) vector.

    dK is symmetrized first, consistent with K being used only through
    symmetric expressions. Raw-parameter gradients include the softplus
    chain factor.
    """
    dK = np.asarray(dK, dtype=float)
    if dK.shape != res.K.shape:
        raise InputError(f"dK shape {dK.shape} != K shape {res.K.shape}")
    G = 0.5 * (dK + dK.swapaxes(1, 2))
    s = base.output_scale
    grads = {}
    if base.kind == "COS":
        U, norms = _cos_normalize(Z - res.center)
        Ktil = U @ U.T
        dU = (2.0 * s)[:, None, None] * (G @ U)
        dZc = (dU - np.sum(dU * U, axis=2)[:, :, None] * U) / norms[:, None]
        dZ = dZc - dZc.mean(axis=1, keepdims=True)
    elif base.kind == "RBF":
        l = base.length_scale
        D2 = _pairwise_sqdist(Z, Z)
        Ktil = np.exp(-D2 / (2.0 * l * l)[:, None, None])
        W = s[:, None, None] * G * Ktil
        grads["length_scale_raw"] = (
            np.sum(W * D2, axis=(1, 2)) / _pow(l, 3) * _sigmoid(base.length_scale_raw)
        )
        dZ = (-2.0 / (l * l))[:, None, None] * (W.sum(axis=2)[:, :, None] * Z - W @ Z)
    else:
        d = base.degree
        P = Z @ Z.T + base.offset[:, None, None]
        Pm1 = P ** (d - 1)
        Ktil = Pm1 * P
        grads["offset_raw"] = s * d * np.sum(G * Pm1, axis=(1, 2)) * _sigmoid(base.offset_raw)
        M = (s * d)[:, None, None] * (G * Pm1)
        dZ = 2.0 * (M @ Z)
    # K = s Ktil for every kind
    grads["output_scale_raw"] = np.sum(G * Ktil, axis=(1, 2)) * _sigmoid(base.output_scale_raw)
    return dZ.sum(axis=0), grads


def cross_gram(base: BaseKernels, Zq: np.ndarray, Zs: np.ndarray, center=None) -> np.ndarray:
    """k(query, support) per class, (C, M, N); COS centers both sides with center."""
    Zq = np.asarray(Zq, dtype=float)
    Zs = np.asarray(Zs, dtype=float)
    s = base.output_scale[:, None, None]
    if base.kind == "COS":
        if center is None:
            raise InputError("COS cross_gram needs the support centering mean")
        Uq, _ = _cos_normalize(Zq - center)
        # one buffer for the support's own Gram, so U U' is one product's bits
        Us = Uq if Zs is Zq else _cos_normalize(Zs - center)[0]
        return s * (Uq @ Us.T)
    if base.kind == "RBF":
        two_l2 = 2.0 * _pow(base.length_scale, 2)
        return s * np.exp(-_pairwise_sqdist(Zq, Zs) / two_l2[:, None, None])
    return s * (Zq @ Zs.T + base.offset[:, None, None]) ** base.degree


def gram_diag(base: BaseKernels, Zq: np.ndarray) -> np.ndarray:
    """Diagonal k(z, z) per class for query rows, (C, M); row c equals class
    c's output scale for COS and RBF.

    A COS row that is degenerate after centering is not detected here: the
    cross_gram of the same rows raises on it.
    """
    Zq = np.asarray(Zq, dtype=float)
    s = base.output_scale[:, None]
    if base.kind in ("COS", "RBF"):
        return np.broadcast_to(s, (s.shape[0], Zq.shape[0]))
    return s * (np.sum(Zq * Zq, axis=1) + base.offset[:, None]) ** base.degree
