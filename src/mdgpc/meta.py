"""Bi-level meta-training of the deep kernel hyperparameters.

The outer objective is the episode ELBO viewed as a function of the kernel
hyperparameters eta with the fitted variational posterior held fixed
(stop-gradient through the inner loop). Only the prior expectation term
depends on eta, with exact gradient per class

    dL/dK^c = -1/2 ( K^{c-1} - K^{c-1} (Sigma^c + m^c m^c') K^{c-1} ),

which vanishes identically when the posterior equals the prior. The C
gradients form one (C, N, N) stack, chained in one pass through the stacked
Gram construction and the feature extractor (feature gradients summed over
classes), and are applied with Adam, using separate learning rates for
network weights and base-kernel parameters.

Evaluation and the two MD/GD comparisons each map `_by_index` over units
seeded by their index alone. This module alone derives every experiment seed:
each extractor seed, each episode's task seed and each draw seed comes from
the run seed through a `seeding.STREAM_*` tag and is passed as an argument;
no config holds a seed but the run seed. Callers pass a kernel factory
new_kernel(extractor seed) and an episode source draw(task seed) -> Episode.
"""

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from . import inference, kernels, metrics, model, seeding
from .errors import InputError, NumericalError, named_failures
from .inference import InnerConfig
from .kernels import DeepKernel, FeatureExtractor
from .likelihood import SoftmaxLikelihood
from .seeding import derive_seed

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
    "compare_inner",
    "compare_outer",
    "EvalResult",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def net_param_count(fe: FeatureExtractor) -> int:
    return sum(w.size + b.size for w, b in zip(fe.weights, fe.biases))


def _flat(weights: list, biases: list, raws: list) -> np.ndarray:
    """One vector: each layer's weights then biases, then the (C,) kernel raws
    class by class, class 0's in raw_names order first."""
    layers = [x.ravel() for pair in zip(weights, biases) for x in pair]
    return np.concatenate(layers + [np.stack(raws, axis=1).ravel()])


def flatten_hypers(kernel: DeepKernel) -> np.ndarray:
    """Flatten trainable scalars: network weights first, then kernel raws."""
    fe, base = kernel.extractor, kernel.base
    return _flat(fe.weights, fe.biases, [getattr(base, name) for name in base.raw_names()])


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
    names = template.base.raw_names()
    raws = flat[pos:].reshape(template.base.n_classes, len(names))
    new_base = replace(template.base, **{name: raws[:, i] for i, name in enumerate(names)})
    return DeepKernel(extractor=new_fe, base=new_base)


def outer_grad(fit: model.FittedEpisode) -> np.ndarray:
    """Gradient of the eta-dependent ELBO term w.r.t. flattened hypers.

    The variational posterior (m, Sigma) is treated as a constant. Returned
    in ascent convention (apply with a maximizing optimizer).
    """
    kernel, (u, core) = fit.kernel, fit.terms
    # dL/dK = -1/2 (K^{-1} - K^{-1} (Sigma + m m') K^{-1}), stacked by class;
    # gram_backward symmetrizes it
    G_K = -0.5 * (core - u[:, :, None] * u[:, None, :])
    dZ, dparams = kernels.gram_backward(kernel.base, fit.features, fit.grams, G_K)
    wgrads, bgrads = kernels.extractor_backward(kernel.extractor, fit.cache, dZ)
    return _flat(wgrads, bgrads, [dparams[name] for name in kernel.base.raw_names()])


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
    pred_samples: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 0:
            raise InputError(f"episodes must be >= 0, got {self.episodes}")
        for name in ("lr_net", "lr_kernel"):
            if getattr(self, name) < 0.0:
                raise InputError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.pred_samples < 1:
            raise InputError(f"pred_samples must be >= 1, got {self.pred_samples}")

    def inner_at(self, it: int) -> int:
        """The inner-loop draw seed of training episode `it`."""
        return derive_seed(self.seed, seeding.STREAM_INNER_MC, it)


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


def _query_probs(fit: model.FittedEpisode, episode, samples: int, seed: int):
    """(class probabilities, true label indices) of the episode's queries."""
    probs = model.predict_labels(fit, episode.query_x, samples, seed)
    if not np.isfinite(probs).all():
        raise NumericalError("non-finite query probabilities")
    return probs, np.argmax(episode.query_y, axis=1)


def outer_steps(kernel: DeepKernel, draw, stream: int, cfg: TrainConfig, method: str):
    """The outer loop: yield (it, episode, fit, updated kernel) per episode.

    For it = 1..cfg.episodes: fit draw(derive_seed(cfg.seed, stream, it))
    with the `method` inner loop at draw seed cfg.inner_at(it), then take one
    Adam step along the outer gradient. A failed fit, or a step to non-finite
    hyperparameters, raises NumericalError naming the method and the episode.
    """
    flat = flatten_hypers(kernel)
    st = AdamState.zeros(flat.shape[0])
    lr = np.full(flat.shape[0], cfg.lr_kernel)
    lr[: net_param_count(kernel.extractor)] = cfg.lr_net  # network weights come first
    for it in range(1, cfg.episodes + 1):
        episode, inner_seed = draw(derive_seed(cfg.seed, stream, it)), cfg.inner_at(it)
        with named_failures(f"{method} episode {it}"):
            fit = model.fit_episode(
                kernel, episode.support_x, episode.support_y, cfg.inner, inner_seed, method
            )
            flat, st = adam_step(flat, outer_grad(fit), st, lr)
            if not np.isfinite(flat).all():
                raise NumericalError("outer step left non-finite hyperparameters")
        kernel = unflatten_hypers(flat, kernel)
        yield it, episode, fit, kernel


def train(new_kernel, draw, cfg: TrainConfig):
    """Meta-train with the mirror-descent inner loop.

    The kernel starts as new_kernel(extractor seed) and trains on the
    episodes draw(task seed), both seeds derived from cfg.seed. Returns the
    trained kernel and one history row per episode with the outer objective
    (episode ELBO at the fitted posterior) and query monitoring metrics.
    """
    kernel = new_kernel(derive_seed(cfg.seed, seeding.STREAM_TRAIN_EXTRACTOR))
    history = []
    for it, episode, fit, kernel in outer_steps(kernel, draw, seeding.STREAM_TRAIN_EP, cfg, "MD"):
        pred_seed = derive_seed(cfg.seed, seeding.STREAM_TRAIN_PRED, it)
        Y = episode.support_y
        with named_failures(f"MD episode {it}"):
            lik = SoftmaxLikelihood.from_seed(cfg.inner_at(it), cfg.inner.samples, Y.shape[1])
            objective = inference.elbo(fit.state, Y, lik)
            probs, y_idx = _query_probs(fit, episode, cfg.pred_samples, pred_seed)
        ce, acc = metrics.nll(probs, y_idx), metrics.accuracy(probs, y_idx)
        history.append({"iter": it, "objective": objective, "query_ce": ce, "query_acc": acc})
    return kernel, history


def _by_index(unit, n: int, n_jobs: int = 1) -> list:
    """[unit(1), ..., unit(n)], on n_jobs threads if n_jobs > 1; each unit
    depends on its index alone, so the results do not depend on n_jobs."""
    if n_jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(unit, range(1, n + 1)))
    return [unit(i) for i in range(1, n + 1)]


def compare_inner(new_kernel, draw, inner: InnerConfig, n_episodes: int, seed: int) -> list:
    """MD and GD inner loops on frozen hyperparameters, per episode.

    Episode i builds its kernel new_kernel(extractor seed), then its task
    draw(task seed), and fits it with both methods from the prior at the
    same settings and draws. Returns per episode each method's ELBO before
    and after every step, {"MD": [...], "GD": [...]}.
    """

    def unit(i: int) -> dict:
        kern = new_kernel(derive_seed(seed, seeding.STREAM_EXTRACTOR, i))
        ep = draw(derive_seed(seed, seeding.STREAM_COMPARE_EP, i))
        mc_seed = derive_seed(seed, seeding.STREAM_COMPARE_MC, i)
        with named_failures(f"episode {i}"):
            Z, _ = kernels.extract(kern.extractor, ep.support_x)
            prior = kernels.gram(kern.base, Z)
            Y = ep.support_y
            return {m: inference.run_inner(m, prior, Y, inner, mc_seed)[1] for m in ("MD", "GD")}

    return _by_index(unit, n_episodes)


def _compare_run(kernel: DeepKernel, draw, draw_monitor, cfg: TrainConfig, n_monitor: int):
    """The rows of one seed of `compare_outer`, at run seed cfg.seed."""
    # (episode, inner draw seed, prediction draw seed) per monitor episode,
    # built once per run and refitted by both methods at every iteration
    bank = [
        (
            draw_monitor(derive_seed(cfg.seed, seeding.STREAM_MONITOR_EP, j)),
            derive_seed(cfg.seed, seeding.STREAM_MONITOR_INNER, j),
            derive_seed(cfg.seed, seeding.STREAM_MONITOR_PRED, j),
        )
        for j in range(1, n_monitor + 1)
    ]

    def monitor(kern: DeepKernel, method: str, it: int) -> dict:
        ces, accs = [], []
        for j, (ep, inner_seed, pred_seed) in enumerate(bank, 1):
            with named_failures(f"{method} iteration {it}, monitor episode {j}"):
                fit = model.fit_episode(
                    kern, ep.support_x, ep.support_y, cfg.inner, inner_seed, method
                )
                probs, y_idx = _query_probs(fit, ep, cfg.pred_samples, pred_seed)
            ces.append(metrics.nll(probs, y_idx))
            accs.append(metrics.accuracy(probs, y_idx))
        ce, acc = float(np.mean(ces)), float(np.mean(accs))
        return {"method": method, "iter": it, "query_ce": ce, "query_acc": acc}

    rows = []
    for method in ("MD", "GD"):
        rows.append(monitor(kernel, method, 0))
        steps = outer_steps(kernel, draw, seeding.STREAM_COMPARE_OUTER_EP, cfg, method)
        rows.extend(monitor(kern, method, it) for it, _, _, kern in steps)
    return rows


def compare_outer(
    new_kernel, draw, draw_monitor, cfg: TrainConfig, monitor_episodes: int, seeds: int
) -> list:
    """Meta-train twice per seed from one initialization, inner loop MD then GD.

    Seed s derives a run seed from cfg.seed and s, and from it the kernel
    new_kernel(extractor seed), the episodes draw(task seed), the monitor
    bank draw_monitor(task seed) and all draws. Both
    variants see the same episode sequence, the same inner-loop draw seeds
    and the same Adam rates, so the only difference is the inner update
    rule. Progress is monitored with the predictive-likelihood loss: refit a
    fixed bank of `monitor_episodes` held-out episodes with the current
    hyperparameters (same inner settings as training) and average the query
    cross-entropy and accuracy. Returns per seed one row per variant per
    iteration, including iteration 0 at the shared initialization.
    """
    if monitor_episodes < 1:
        raise InputError(f"monitor_episodes must be >= 1, got {monitor_episodes}")

    def unit(s: int) -> list:
        run_seed = derive_seed(cfg.seed, seeding.STREAM_COMPARE_OUTER, s)
        kern = new_kernel(derive_seed(run_seed, seeding.STREAM_COMPARE_OUTER_EXTRACTOR))
        return _compare_run(kern, draw, draw_monitor, replace(cfg, seed=run_seed), monitor_episodes)

    return _by_index(unit, seeds)


@dataclass
class EvalResult:
    accuracies: np.ndarray  # per-episode query accuracy
    probs: np.ndarray  # all query probabilities, stacked
    y_true: np.ndarray  # all query labels, stacked
    steps: np.ndarray  # per-episode inner steps taken

    @property
    def accuracy_mean(self) -> float:
        return float(np.mean(self.accuracies))


def evaluate(
    kernel: DeepKernel,
    draw,
    n_episodes: int,
    inner_cfg: InnerConfig,
    pred_samples: int,
    seed: int = 0,
    n_jobs: int = 1,
) -> EvalResult:
    """Fit and predict on held-out episodes; aggregates raw predictions and
    the inner steps each fit took, each query predicted on `pred_samples` nodes.

    Each fit's coarse stage reads only the first COARSE_NODES nodes of its
    draw set, for at most half of inner_cfg.steps (`InnerConfig.coarse_steps`)
    and less once a coarse step no longer moves the posterior; the other half
    of the steps converge from there on the whole set, to its fixed point.
    So inner_cfg.steps is a cap. Episode i is draw(task seed), its task seed
    and draws derived from seed and i alone; n_jobs is the map's thread
    count, and the results do not depend on it.
    """
    inner_cfg = replace(inner_cfg, coarse_steps=inner_cfg.steps // 2)

    def eval_one(i: int):
        ep = draw(derive_seed(seed, seeding.STREAM_EVAL_EP, i))
        inner_seed = derive_seed(seed, seeding.STREAM_EVAL_INNER, i)
        pred_seed = derive_seed(seed, seeding.STREAM_EVAL_PRED, i)
        with named_failures(f"MD episode {i}"):
            fit = model.fit_episode(kernel, ep.support_x, ep.support_y, inner_cfg, inner_seed)
            probs, y_idx = _query_probs(fit, ep, pred_samples, pred_seed)
        return metrics.accuracy(probs, y_idx), probs, y_idx, fit.steps

    results = _by_index(eval_one, n_episodes, n_jobs)
    return EvalResult(
        accuracies=np.array([r[0] for r in results]),
        probs=np.concatenate([r[1] for r in results], axis=0),
        y_true=np.concatenate([r[2] for r in results], axis=0),
        steps=np.array([r[3] for r in results]),
    )
