"""Bi-level meta-training of the deep kernel hyperparameters.

The outer objective is the episode ELBO viewed as a function of the kernel
hyperparameters eta with the fitted variational posterior held fixed
(stop-gradient through the inner loop). Only the prior expectation term
depends on eta, with exact gradient per class

    dL/dK^c = -1/2 ( K^{c-1} - K^{c-1} (Sigma^c + m^c m^c') K^{c-1} ),

which vanishes identically when the posterior equals the prior. The
gradient is chained through the Gram construction and the feature extractor
(feature gradients summed over classes) and applied with Adam, using
separate learning rates for network weights and base-kernel parameters.
"""

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from . import inference, kernels, metrics, model, seeding
from .errors import InputError, NumericalError, named_failures
from .inference import InnerConfig
from .kernels import DeepKernel, FeatureExtractor
from .likelihood import McConfig, SoftmaxLikelihood
from .seeding import with_draw_seed

__all__ = [
    "AdamState",
    "TrainConfig",
    "flatten_hypers",
    "unflatten_hypers",
    "net_param_count",
    "outer_grad",
    "adam_step",
    "outer_steps",
    "train",
    "evaluate",
    "compare_outer",
    "EvalResult",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def net_param_count(fe: FeatureExtractor) -> int:
    return sum(w.size + b.size for w, b in zip(fe.weights, fe.biases))


def flatten_hypers(kernel: DeepKernel) -> np.ndarray:
    """Flatten trainable scalars: network weights first, then kernel raws."""
    parts = []
    for w, b in zip(kernel.extractor.weights, kernel.extractor.biases):
        parts.append(w.reshape(-1))
        parts.append(b)
    for base in kernel.base:
        parts.append(np.array([getattr(base, name) for name in base.raw_names()]))
    return np.concatenate(parts)


def unflatten_hypers(flat: np.ndarray, template: DeepKernel) -> DeepKernel:
    """Rebuild a kernel with the same structure from a flat vector."""
    flat = np.asarray(flat, dtype=float)
    expected = flatten_hypers(template).shape[0]
    if flat.shape[0] != expected:
        raise InputError(f"flat vector has {flat.shape[0]} entries, expected {expected}")
    pos = 0
    weights, biases = [], []
    fe = template.extractor
    for w, b in zip(fe.weights, fe.biases):
        weights.append(flat[pos : pos + w.size].reshape(w.shape).copy())
        pos += w.size
        biases.append(flat[pos : pos + b.size].copy())
        pos += b.size
    new_fe = FeatureExtractor(list(fe.layer_dims), weights, biases)
    new_base = []
    for base in template.base:
        names = base.raw_names()
        vals = {name: float(flat[pos + i]) for i, name in enumerate(names)}
        pos += len(names)
        new_base.append(replace(base, **vals))
    return DeepKernel(extractor=new_fe, base=new_base)


def outer_grad(fit: model.FittedEpisode) -> np.ndarray:
    """Gradient of the eta-dependent ELBO term w.r.t. flattened hypers.

    The variational posterior (m, Sigma) is treated as a constant. Returned
    in ascent convention (apply with a maximizing optimizer).
    """
    kernel = fit.kernel
    dZ_total = np.zeros_like(fit.features)
    kernel_grads = []
    for c, (u, core) in enumerate(fit.terms):
        # dL/dK = -1/2 (K^{-1} - K^{-1} (Sigma + m m') K^{-1})
        G_K = -0.5 * (core - np.outer(u, u))
        G_K = 0.5 * (G_K + G_K.T)
        dZ, dparams = kernels.gram_backward(kernel.base[c], fit.grams[c], G_K)
        dZ_total += dZ
        kernel_grads.append(dparams)
    wgrads, bgrads = kernels.extractor_backward(kernel.extractor, fit.cache, dZ_total)
    parts = []
    for dw, db in zip(wgrads, bgrads):
        parts.append(dw.reshape(-1))
        parts.append(db)
    for c, base in enumerate(kernel.base):
        parts.append(np.array([kernel_grads[c][name] for name in base.raw_names()]))
    return np.concatenate(parts)


@dataclass
class AdamState:
    """First/second moment accumulators with bias correction."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of the outer loop: one Adam step per training episode."""

    episodes: int = 100
    lr_net: float = 1e-3
    lr_kernel: float = 1e-4
    inner: InnerConfig = InnerConfig(rho=1.0, steps=3)
    pred_mc: McConfig = McConfig(samples=512, seed=0)
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 0:
            raise InputError(f"episodes must be >= 0, got {self.episodes}")
        for name in ("lr_net", "lr_kernel"):
            if getattr(self, name) < 0.0:
                raise InputError(f"{name} must be >= 0, got {getattr(self, name)}")

    def inner_at(self, it: int) -> InnerConfig:
        """Inner-loop settings of training episode `it`, with its own draws."""
        return with_draw_seed(self.inner, self.seed, seeding.STREAM_INNER_MC, it)


def adam_step(
    flat: np.ndarray, grad: np.ndarray, st: AdamState, lr: np.ndarray
) -> tuple[np.ndarray, AdamState]:
    """One maximizing Adam update with per-coordinate learning rates."""
    if flat.shape != grad.shape or flat.shape != st.m.shape:
        raise InputError("adam operands disagree in shape")
    t = st.t + 1
    m = ADAM_BETA1 * st.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * st.v + (1.0 - ADAM_BETA2) * grad * grad
    mhat = m / (1.0 - ADAM_BETA1**t)
    vhat = v / (1.0 - ADAM_BETA2**t)
    new = flat + lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return new, AdamState(m=m, v=v, t=t)


def _query_probs(fit: model.FittedEpisode, episode, pred_mc: McConfig):
    """(class probabilities, true label indices) of the episode's queries."""
    pred = model.predict_labels(fit, episode.query_x, pred_mc)
    if not np.isfinite(pred.probs).all():
        raise NumericalError("non-finite query probabilities")
    return pred.probs, np.argmax(episode.query_y, axis=1)


def outer_steps(kernel: DeepKernel, task_source, cfg: TrainConfig, method: str):
    """The outer loop: yield (it, episode, fit, updated kernel) per episode.

    For it = 1..cfg.episodes: fit task_source(it) with the `method` inner
    loop and cfg.inner_at(it), then take one Adam step along the outer
    gradient. A failed fit, or a step to non-finite hyperparameters, raises
    NumericalError naming the method and the episode.
    """
    flat = flatten_hypers(kernel)
    st = AdamState.zeros(flat.shape[0])
    lr = np.full(flat.shape[0], cfg.lr_kernel)
    lr[: net_param_count(kernel.extractor)] = cfg.lr_net  # network weights come first
    for it in range(1, cfg.episodes + 1):
        episode, inner = task_source(it), cfg.inner_at(it)
        with named_failures(f"{method} episode {it}"):
            fit = model.fit_episode(kernel, episode.support_x, episode.support_y, inner, method)
            flat, st = adam_step(flat, outer_grad(fit), st, lr)
            if not np.isfinite(flat).all():
                raise NumericalError("outer step left non-finite hyperparameters")
        kernel = unflatten_hypers(flat, kernel)
        yield it, episode, fit, kernel


def train(kernel: DeepKernel, task_source, cfg: TrainConfig):
    """Meta-train with the mirror-descent inner loop.

    Returns the trained kernel and one history row per episode with the
    outer objective (episode ELBO at the fitted posterior) and query
    monitoring metrics.
    """
    history = []
    for it, episode, fit, kernel in outer_steps(kernel, task_source, cfg, "MD"):
        pred_mc = with_draw_seed(cfg.pred_mc, cfg.seed, seeding.STREAM_TRAIN_PRED, it)
        Y = episode.support_y
        with named_failures(f"MD episode {it}"):
            lik = SoftmaxLikelihood.from_seed(cfg.inner_at(it).mc, *Y.shape)
            objective = inference.elbo(fit.state.moments, fit.grams, Y, lik)
            probs, y_idx = _query_probs(fit, episode, pred_mc)
        ce, acc = metrics.nll(probs, y_idx), metrics.accuracy(probs, y_idx)
        history.append({"iter": it, "objective": objective, "query_ce": ce, "query_acc": acc})
    return kernel, history


def compare_outer(
    kernel: DeepKernel, task_source, monitor_source, cfg: TrainConfig, monitor_episodes: int
) -> list[dict]:
    """Meta-train twice from one initialization, inner loop MD then GD.

    Both variants see the same episode sequence, the same inner-loop draw
    seeds and the same Adam rates, so the only difference is the inner
    update rule. Progress is monitored with the predictive-likelihood loss:
    refit a fixed bank of `monitor_episodes` held-out episodes with the
    current hyperparameters (same inner settings as training) and average
    the query cross-entropy and accuracy. One row is emitted per variant per
    iteration, including iteration 0 at the shared initialization.
    """
    if monitor_episodes < 1:
        raise InputError(f"monitor_episodes must be >= 1, got {monitor_episodes}")

    def monitor(kern: DeepKernel, method: str, it: int) -> dict:
        ces, accs = [], []
        for j in range(1, monitor_episodes + 1):
            ep = monitor_source(j)
            inner = with_draw_seed(cfg.inner, cfg.seed, seeding.STREAM_MONITOR_INNER, j)
            pred_mc = with_draw_seed(cfg.pred_mc, cfg.seed, seeding.STREAM_MONITOR_PRED, j)
            with named_failures(f"{method} iteration {it}, monitor episode {j}"):
                fit = model.fit_episode(kern, ep.support_x, ep.support_y, inner, method)
                probs, y_idx = _query_probs(fit, ep, pred_mc)
            ces.append(metrics.nll(probs, y_idx))
            accs.append(metrics.accuracy(probs, y_idx))
        ce, acc = float(np.mean(ces)), float(np.mean(accs))
        return {"method": method, "iter": it, "query_ce": ce, "query_acc": acc}

    rows = []
    for method in ("MD", "GD"):
        rows.append(monitor(kernel, method, 0))
        for it, _, _, kern in outer_steps(kernel, task_source, cfg, method):
            rows.append(monitor(kern, method, it))
    return rows


@dataclass
class EvalResult:
    accuracies: np.ndarray  # per-episode query accuracy
    probs: np.ndarray  # all query probabilities, stacked
    y_true: np.ndarray  # all query labels, stacked

    @property
    def accuracy_mean(self) -> float:
        return float(np.mean(self.accuracies))


def evaluate(
    kernel: DeepKernel,
    task_source,
    n_episodes: int,
    inner_cfg: InnerConfig,
    pred_mc: McConfig,
    seed: int = 0,
    n_jobs: int = 1,
) -> EvalResult:
    """Fit and predict on held-out episodes; aggregates raw predictions.

    Episodes are independent and fully seeded by their index, so with
    n_jobs > 1 they are fitted on a thread pool and reassembled in index
    order; results match the sequential path.
    """

    def eval_one(i: int):
        episode = task_source(i)
        inner = with_draw_seed(inner_cfg, seed, seeding.STREAM_EVAL_INNER, i)
        eval_mc = with_draw_seed(pred_mc, seed, seeding.STREAM_EVAL_PRED, i)
        with named_failures(f"MD episode {i}"):
            fit = model.fit_episode(kernel, episode.support_x, episode.support_y, inner)
            probs, y_idx = _query_probs(fit, episode, eval_mc)
        return metrics.accuracy(probs, y_idx), probs, y_idx

    indices = range(1, n_episodes + 1)
    if n_jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(eval_one, indices))
    else:
        results = [eval_one(i) for i in indices]
    return EvalResult(
        accuracies=np.array([r[0] for r in results]),
        probs=np.concatenate([r[1] for r in results], axis=0),
        y_true=np.concatenate([r[2] for r in results], axis=0),
    )
