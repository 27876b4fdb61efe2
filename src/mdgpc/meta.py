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
from dataclasses import dataclass, field, replace

import numpy as np

from . import inference, kernels, metrics, model, seeding
from .errors import InputError
from .inference import InnerConfig
from .kernels import BaseKernelConfig, DeepKernel, FeatureExtractor
from .likelihood import McConfig
from .seeding import derive_seed

__all__ = [
    "AdamState",
    "TrainConfig",
    "CompareOuterConfig",
    "flatten_hypers",
    "unflatten_hypers",
    "net_param_count",
    "outer_grad",
    "adam_step",
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
    epochs: int = 1
    episodes_per_epoch: int = 100
    lr_net: float = 1e-3
    lr_kernel: float = 1e-4
    inner: InnerConfig = InnerConfig(rho=1.0, steps=3)
    pred_mc: McConfig = McConfig(samples=512, seed=0)
    inner_method: str = "MD"
    seed: int = 0

    def __post_init__(self):
        for name in ("lr_net", "lr_kernel"):
            if getattr(self, name) < 0.0:
                raise InputError(f"{name} must be >= 0, got {getattr(self, name)}")


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


def lr_vector(kernel: DeepKernel, lr_net: float, lr_kernel: float) -> np.ndarray:
    n_net = net_param_count(kernel.extractor)
    n_total = flatten_hypers(kernel).shape[0]
    lr = np.full(n_total, lr_kernel)
    lr[:n_net] = lr_net
    return lr


def train(kernel: DeepKernel, task_source, cfg: TrainConfig):
    """Episodic outer loop: fit, differentiate the prior term, Adam update.

    task_source(i) must return episode i (deterministic in i). Returns the
    trained kernel and one history row per episode with the outer objective
    (episode ELBO at the fitted posterior) and query monitoring metrics.
    """
    flat = flatten_hypers(kernel)
    st = AdamState.zeros(flat.shape[0])
    lr = lr_vector(kernel, cfg.lr_net, cfg.lr_kernel)
    history = []
    it = 0
    for _epoch in range(cfg.epochs):
        for _k in range(cfg.episodes_per_epoch):
            it += 1
            episode = task_source(it)
            inner_seed = derive_seed(cfg.seed, seeding.STREAM_INNER_MC, it)
            inner = replace(cfg.inner, mc=replace(cfg.inner.mc, seed=inner_seed))
            fit = model.fit_episode(
                kernel, episode.support_x, episode.support_y, inner, cfg.inner_method
            )
            objective = inference.elbo(fit.state, episode.support_y, inner.mc)
            pred_seed = derive_seed(cfg.seed, seeding.STREAM_TRAIN_PRED, it)
            pred = model.predict_labels(
                fit, episode.query_x, replace(cfg.pred_mc, seed=pred_seed)
            )
            y_idx = np.argmax(episode.query_y, axis=1)
            query_ce = metrics.nll(pred.probs, y_idx)
            query_acc = metrics.accuracy(pred.probs, y_idx)
            history.append(
                {
                    "iter": it,
                    "objective": objective,
                    "query_ce": query_ce,
                    "query_acc": query_acc,
                }
            )
            grad = outer_grad(fit)
            flat, st = adam_step(flat, grad, st, lr)
            kernel = unflatten_hypers(flat, kernel)
    return kernel, history


@dataclass(frozen=True)
class CompareOuterConfig:
    """Settings for the paired outer-loop convergence run."""

    iterations: int = 30
    inner_steps: int = 2
    inner_rate: float = 0.02
    outer_lr: float = 1e-3
    monitor_episodes: int = 8
    mc_samples: int = 64
    pred_samples: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0 or self.monitor_episodes < 1:
            raise InputError(
                f"need iterations >= 0 and monitor_episodes >= 1, "
                f"got {self.iterations} and {self.monitor_episodes}"
            )
        if self.outer_lr < 0.0:
            raise InputError(f"outer_lr must be >= 0, got {self.outer_lr}")
        McConfig(samples=self.pred_samples)  # fail here, not mid-run
        self.inner_config()

    def inner_config(self) -> InnerConfig:
        """Inner-loop settings of training and monitor fits (draw seed 0)."""
        return InnerConfig(self.inner_rate, self.inner_steps, McConfig(self.mc_samples))


def compare_outer(
    kernel: DeepKernel, task_source, monitor_source, cfg: CompareOuterConfig
) -> list[dict]:
    """Meta-train twice from one initialization, inner loop MD then GD.

    Both variants see the same episode sequence, the same inner-loop draw
    seeds and the same single Adam rate on every hyperparameter, so the only
    difference is the inner update rule. Progress is monitored with the
    predictive-likelihood loss: refit a fixed bank of held-out episodes with
    the current hyperparameters (same step count and rate as training) and
    average the query cross-entropy and accuracy. One row is emitted per
    variant per iteration, including iteration 0 at the shared
    initialization.
    """
    inner_tpl = cfg.inner_config()

    def monitor(kern: DeepKernel, method: str) -> tuple[float, float]:
        ces, accs = [], []
        for j in range(1, cfg.monitor_episodes + 1):
            ep = monitor_source(j)
            seed = derive_seed(cfg.seed, seeding.STREAM_MONITOR_INNER, j)
            inner = replace(inner_tpl, mc=replace(inner_tpl.mc, seed=seed))
            fit = model.fit_episode(kern, ep.support_x, ep.support_y, inner, method)
            pred_seed = derive_seed(cfg.seed, seeding.STREAM_MONITOR_PRED, j)
            pred = model.predict_labels(
                fit, ep.query_x, McConfig(samples=cfg.pred_samples, seed=pred_seed)
            )
            y_idx = np.argmax(ep.query_y, axis=1)
            ces.append(metrics.nll(pred.probs, y_idx))
            accs.append(metrics.accuracy(pred.probs, y_idx))
        return float(np.mean(ces)), float(np.mean(accs))

    rows = []
    for method in ("MD", "GD"):
        flat = flatten_hypers(kernel)
        st = AdamState.zeros(flat.shape[0])
        lr = np.full(flat.shape[0], cfg.outer_lr)
        kern = kernel
        ce, acc = monitor(kern, method)
        rows.append({"method": method, "iter": 0, "query_ce": ce, "query_acc": acc})
        for it in range(1, cfg.iterations + 1):
            ep = task_source(it)
            seed = derive_seed(cfg.seed, seeding.STREAM_INNER_MC, it)
            inner = replace(inner_tpl, mc=replace(inner_tpl.mc, seed=seed))
            fit = model.fit_episode(kern, ep.support_x, ep.support_y, inner, method)
            grad = outer_grad(fit)
            flat, st = adam_step(flat, grad, st, lr)
            kern = unflatten_hypers(flat, kern)
            ce, acc = monitor(kern, method)
            rows.append(
                {"method": method, "iter": it, "query_ce": ce, "query_acc": acc}
            )
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
        inner_seed = derive_seed(seed, seeding.STREAM_EVAL_INNER, i)
        inner = replace(inner_cfg, mc=replace(inner_cfg.mc, seed=inner_seed))
        fit = model.fit_episode(kernel, episode.support_x, episode.support_y, inner)
        pred = model.predict_labels(
            fit,
            episode.query_x,
            replace(pred_mc, seed=derive_seed(seed, seeding.STREAM_EVAL_PRED, i)),
        )
        y_idx = np.argmax(episode.query_y, axis=1)
        return metrics.accuracy(pred.probs, y_idx), pred.probs, y_idx

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
