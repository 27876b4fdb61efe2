"""Episode-level model: fit the variational posterior, predict query labels.

Fitting builds the episode's C Gram matrices from the deep kernel in one
stack, runs the inner loop on the support set with that stacked prior, then
reduces the posterior q^c = N(m^c, Sigma^c) to the two terms every consumer
needs:

    u^c    = K^{-1} m^c
    core^c = K^{-1} - K^{-1} Sigma^c K^{-1}

Both are computed by the state itself (site form for mirror descent, dense
form for gradient descent), so prediction does not depend on how q was
reached. The GP posterior at a query point x* is then

    mu*^c   = k*' u^c
    sig*^2c = k** - k*' core^c k*

for all classes at once, as (C, M) stacks from the (C, M, N) stack of
cross-covariances, and zero sites (core = 0) give back the prior predictive
exactly. Class label probabilities average the softmax over independent
per-class predictive normals, on one node set (S, C) that every query
shares, as (M, C) rows. The caller draws both the inner loop's node set and
that one, so nothing here draws.
"""

from dataclasses import dataclass

import numpy as np

from . import inference, kernels
from .errors import InputError
from .inference import InnerConfig
from .likelihood import _checked_marginals, _node_layout, _softmax

__all__ = ["FittedEpisode", "fit_episode", "predict_latent", "predict_labels"]


@dataclass
class FittedEpisode:
    """Result of inner-loop fitting on one episode's support set."""

    kernel: kernels.DeepKernel
    state: object  # VariationalState or GdState
    grams: kernels.GramResult  # the stacked prior: (C, N, N) Grams on support features
    features: np.ndarray  # support features Z
    cache: kernels.ForwardCache
    terms: tuple  # (u, core) = (K^{-1} m, K^{-1} - K^{-1} Sigma K^{-1}), stacked by class
    steps: int  # the inner steps the loop took, at most cfg.steps


def fit_episode(
    kernel: kernels.DeepKernel,
    support_x: np.ndarray,
    support_y: np.ndarray,
    cfg: InnerConfig,
    nodes: np.ndarray,
    method: str = "MD",
) -> FittedEpisode:
    """Extract features, build the stacked Grams, run the inner loop on the
    (S, C) step set `nodes` and keep the final posterior's per-class (u, core)
    terms and its steps."""
    support_y = np.asarray(support_y, dtype=float)
    if support_y.ndim != 2 or support_y.shape[1] != kernel.base.n_classes:
        raise InputError(
            f"support labels shape {support_y.shape} does not match "
            f"{kernel.base.n_classes} kernel classes"
        )
    Z, cache = kernels.extract(kernel.extractor, support_x)
    grams = kernels.gram(kernel.base, Z)
    for steps, state in enumerate(inference.inner_states(method, grams, support_y, cfg, nodes)):
        pass
    return FittedEpisode(
        kernel=kernel,
        state=state,
        grams=grams,
        features=Z,
        cache=cache,
        terms=state.kinv_terms(),
        steps=steps,
    )


def predict_latent(fit: FittedEpisode, query_x: np.ndarray):
    """Latent predictive (mu*, var*) per class and query row, both (C, M)."""
    Zq, _ = kernels.extract(fit.kernel.extractor, query_x)
    base, (u, core) = fit.kernel.base, fit.terms
    kx = kernels.cross_gram(base, Zq, fit.features, center=fit.grams.center)
    mu = (kx @ u[:, :, None])[:, :, 0]
    var = kernels.gram_diag(base, Zq) - np.sum((kx @ core) * kx, axis=2)
    return mu, var


def predict_labels(fit: FittedEpisode, query_x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Softmax class probabilities from the latent predictive, averaged over
    the (S, C) node set `nodes`, which every query shares; (M, C) rows
    summing to 1, the one transpose of the predictive's (C, M) stacks."""
    mu, var = predict_latent(fit, query_x)
    nodes = _node_layout(nodes)
    mu, var = _checked_marginals(mu, np.maximum(var, 0.0), nodes)
    return np.ascontiguousarray(np.mean(_softmax(mu, np.sqrt(var), nodes), axis=-1).T)
