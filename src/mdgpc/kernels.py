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
class BaseKernelConfig:
    """One base kernel: kind plus raw (pre-softplus) scalar parameters.

    length_scale applies to RBF, offset to POL; output_scale to all kinds.
    Scales are numpy floats: an overflowing power is inf, not OverflowError.
    """

    kind: str
    length_scale_raw: float = float(softplus_inv(1.0))
    offset_raw: float = float(softplus_inv(1.0))
    output_scale_raw: float = float(softplus_inv(1.0))

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InputError(
                f"unknown kernel kind {self.kind!r}, expected one of {KERNEL_KINDS}"
            )

    @property
    def length_scale(self) -> float:
        return softplus(self.length_scale_raw)

    @property
    def offset(self) -> float:
        return softplus(self.offset_raw)

    @property
    def output_scale(self) -> float:
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
    """Shared feature extractor plus one base kernel per class."""

    extractor: FeatureExtractor
    base: list  # list[BaseKernelConfig], length C

    @property
    def n_classes(self) -> int:
        return len(self.base)


@dataclass
class GramResult:
    """Gram matrix and the prior covariance factored from it.

    K is the raw kernel matrix; k_eff = K + jitter * I, with the jitter
    :func:`~mdgpc.expfam.spd_cholesky` needed, is the prior covariance the
    inner loops use (K itself when no jitter was added) and chol its lower
    Cholesky factor. They are computed once per Gram, since the prior is
    fixed for a whole episode, and are read-only, so no step can alter them
    for the steps after it. center is the feature mean used by COS centering
    (None for other kinds) and is reused for query points at prediction.
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


def gram(base: BaseKernelConfig, Z: np.ndarray) -> GramResult:
    """Gram matrix of the base kernel on feature rows Z, plus its factor."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise InputError(f"Z must be (N, d), got shape {Z.shape}")
    if Z.shape[0] == 0:
        raise InputError("empty feature batch")
    s = base.output_scale
    center = None
    if base.kind == "COS":
        center = Z.mean(axis=0)
        U, _ = _cos_normalize(Z - center)
        K = s * (U @ U.T)
    elif base.kind == "RBF":
        l2 = base.length_scale**2
        K = s * np.exp(-_pairwise_sqdist(Z, Z) / (2.0 * l2))
    else:
        K = s * (Z @ Z.T + base.offset) ** base.degree
    K = 0.5 * (K + K.T)
    L, jitter = spd_cholesky(K)
    # the same sum spd_cholesky factored on its last try
    k_eff = K + jitter * np.eye(K.shape[0]) if jitter else K
    for arr in (K, L, k_eff):
        arr.flags.writeable = False
    return GramResult(K=K, k_eff=k_eff, chol=L, center=center)


def gram_backward(base: BaseKernelConfig, Z: np.ndarray, res: GramResult, dK: np.ndarray):
    """Reverse-mode map from dL/dK to (dL/dZ, dL/d raw params), for the
    result res of gram(base, Z).

    dK is symmetrized first, consistent with K being used only through
    symmetric expressions. Raw-parameter gradients include the softplus
    chain factor.
    """
    dK = np.asarray(dK, dtype=float)
    if dK.shape != res.K.shape:
        raise InputError(f"dK shape {dK.shape} != K shape {res.K.shape}")
    G = 0.5 * (dK + dK.T)
    s = base.output_scale
    grads = {}
    if base.kind == "COS":
        Zc = Z - res.center
        U, norms = _cos_normalize(Zc)
        Ktil = U @ U.T
        grads["output_scale_raw"] = float(np.sum(G * Ktil)) * _sigmoid(
            base.output_scale_raw
        )
        dU = 2.0 * s * (G @ U)
        dZc = (dU - np.sum(dU * U, axis=1)[:, None] * U) / norms[:, None]
        dZ = dZc - dZc.mean(axis=0)
    elif base.kind == "RBF":
        l = base.length_scale
        D2 = _pairwise_sqdist(Z, Z)
        Ktil = np.exp(-D2 / (2.0 * l * l))
        grads["output_scale_raw"] = float(np.sum(G * Ktil)) * _sigmoid(
            base.output_scale_raw
        )
        W = s * G * Ktil
        grads["length_scale_raw"] = float(np.sum(W * D2) / l**3) * _sigmoid(
            base.length_scale_raw
        )
        dZ = (-2.0 / (l * l)) * (W.sum(axis=1)[:, None] * Z - W @ Z)
    else:
        c, d = base.offset, base.degree
        P = Z @ Z.T + c
        Pm1 = P ** (d - 1)
        Ktil = Pm1 * P
        grads["output_scale_raw"] = float(np.sum(G * Ktil)) * _sigmoid(
            base.output_scale_raw
        )
        grads["offset_raw"] = float(s * d * np.sum(G * Pm1)) * _sigmoid(base.offset_raw)
        M = s * d * (G * Pm1)
        dZ = 2.0 * (M @ Z)
    return dZ, grads


def cross_gram(
    base: BaseKernelConfig, Zq: np.ndarray, Zs: np.ndarray, center=None
) -> np.ndarray:
    """k(query, support) matrix; COS centers both sides with the given mean."""
    Zq = np.asarray(Zq, dtype=float)
    Zs = np.asarray(Zs, dtype=float)
    s = base.output_scale
    if base.kind == "COS":
        if center is None:
            raise InputError("COS cross_gram needs the support centering mean")
        Uq, _ = _cos_normalize(Zq - center)
        Us, _ = _cos_normalize(Zs - center)
        return s * (Uq @ Us.T)
    if base.kind == "RBF":
        l2 = base.length_scale**2
        return s * np.exp(-_pairwise_sqdist(Zq, Zs) / (2.0 * l2))
    return s * (Zq @ Zs.T + base.offset) ** base.degree


def gram_diag(base: BaseKernelConfig, Zq: np.ndarray) -> np.ndarray:
    """Diagonal k(z, z) for query rows; equals output_scale for COS and RBF.

    A COS row that is degenerate after centering is not detected here: the
    cross_gram of the same rows raises on it.
    """
    Zq = np.asarray(Zq, dtype=float)
    s = base.output_scale
    if base.kind in ("COS", "RBF"):
        return np.full(Zq.shape[0], s)
    return s * (np.sum(Zq * Zq, axis=1) + base.offset) ** base.degree
