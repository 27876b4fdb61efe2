"""Experiment runner: seeded subcommands over the library modules.

Every run resolves its configuration from built-in defaults, an optional
JSON file and ``--set`` dotted-path overrides, writes the resolved document
(`resolved_config.json`) next to its artifacts, and derives all randomness
from the single ``seed`` entry. Repeated invocations with the same inputs
therefore produce byte-identical outputs. Each key's default, type and rule
are one row of ``_TABLE``, checked as the key is merged; only checks that tie
keys to each other, to a data file or to a checkpoint live in the subcommands.
Subcommands:

    gen-data       write a synthetic labelled pool as CSV
    train          episodic meta-training of the deep kernel
    eval           fit held-out episodes from a checkpoint and score them
    compare-inner  mirror-descent vs gradient-descent ELBO traces at a
                   matched rate on frozen hyperparameters
    compare-outer  meta-training with mirror-descent vs gradient-descent
                   inner loops, monitored by query cross-entropy
    verify         numerical identity checks with measured deviations

Exit status: 0 success, 1 invalid input or usage (:class:`~mdgpc.errors.InputError`)
or out of memory, 2 numerical failure (:class:`~mdgpc.errors.NumericalError`),
3 verification failure, 141 (128 + SIGPIPE, as a shell reports a process the
signal ended) standard output closed by its reader, e.g. ``| head -1``.
"""

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import kernels, meta, metrics, seeding, tasks, verify
from .errors import InputError, NumericalError
from .inference import InnerConfig
from .seeding import derive_seed

__all__ = ["main", "default_config", "load_config", "apply_overrides"]

CHECKPOINT_FORMAT_VERSION = 1
EXIT_STDOUT_CLOSED = 141
# eval starts min(N, eval.episodes) threads for --parallel-episodes N at once
MAX_PARALLEL_EPISODES = 256


# Rules a config value must meet, by the name the table below gives them.
_PAIR = "null or a pair [angle_degrees, scale > 0]"
_PATH = "null or a path"
_KINDS = "one of " + ", ".join(kernels.KERNEL_KINDS)
_RULES = {
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "> 0": lambda x: x > 0,
    "in (0, 1]": lambda x: 0 < x <= 1,
    "in [2, 10^3]": lambda x: 2 <= x <= 10**3,
    "in [1, 10^3]": lambda x: 1 <= x <= 10**3,
    "in [1, 300]": lambda x: 1 <= x <= 300,
    "in [1, 10^4]": lambda x: 1 <= x <= 10**4,
    "in [2, 10^4]": lambda x: 2 <= x <= 10**4,
    "in [1, 10^5]": lambda x: 1 <= x <= 10**5,
    "in [0, 10^6]": lambda x: 0 <= x <= 10**6,
    "in [1, 10^6]": lambda x: 1 <= x <= 10**6,
    "in [1, 10^9]": lambda x: 1 <= x <= 10**9,
    "2+ sizes in [1, 10^5]": lambda x: len(x) >= 2 and min(x) >= 1 and max(x) <= 10**5,
    "distinct class ids": lambda x: len(set(x)) == len(x),
    "a plain file name": lambda x: x not in ("", "..") and "\0" not in x and Path(x).name == x,
    _KINDS: lambda x: x in kernels.KERNEL_KINDS,
    "a path": lambda x: "\0" not in x,
    _PAIR: lambda x: len(x) == 2 and x[1] > 0,
    _PATH: lambda x: "\0" not in x,
}

# One row per config key: (dotted key, default, rule). The default's type is
# the key's type (a list holds integers); a null default takes its type from
# its rule. This is the only place a key's type and range are written. The
# sizes' upper bounds keep every array a run allocates, the (C, N, N) class
# stacks included, below numpy's 2^63-byte limit, so a run too large for the
# host ends in MemoryError rather than in numpy's ValueError. The run counts
# (steps, epochs, episodes, seeds, iterations, instances) are bounded at 10^6
# too, so a huge count fails at once instead of running until stopped.
_TABLE = (
    ("seed", 0, ">= 0"),
    ("output_dir", "run_out", "a path"),
    ("task.C", 5, "in [2, 10^3]"),
    ("task.L", 5, "in [1, 10^3]"),
    ("task.M", 16, "in [1, 10^4]"),
    ("task.D", 8, "in [1, 10^5]"),
    ("task.tau", 3.0, ">= 0"),
    ("task.sigma_w", 0.5, ">= 0"),
    ("task.domain_shift", None, _PAIR),
    ("data.path", None, _PATH),
    ("data.splits.train", [], "distinct class ids"),
    ("data.splits.test", [], "distinct class ids"),
    ("kernel.kind", "RBF", _KINDS),
    ("kernel.net_dims", [8, 32, 32, 16], "2+ sizes in [1, 10^5]"),
    ("kernel.init_scales.weight_std", 1.0, "> 0"),
    ("kernel.init_scales.length_scale", 5.0, "> 0"),
    ("kernel.init_scales.output_scale", 4.0, "> 0"),
    ("kernel.init_scales.offset", 1.0, "> 0"),
    ("inner.rho", 1.0, "in (0, 1]"),
    ("inner.steps", 3, "in [0, 10^6]"),
    ("inner.mc_samples", 64, "in [1, 10^6]"),
    ("eval_inner.rho", 0.5, "in (0, 1]"),
    ("eval_inner.steps", 50, "in [0, 10^6]"),
    ("eval_inner.mc_samples", 512, "in [1, 10^6]"),
    ("outer.lr_net", 1e-3, ">= 0"),
    ("outer.lr_kernel", 1e-4, ">= 0"),
    ("outer.epochs", 1, "in [0, 10^6]"),
    ("outer.episodes_per_epoch", 100, "in [0, 10^6]"),
    ("eval.episodes", 100, "in [1, 10^6]"),
    ("eval.batches", 100, ">= 1"),
    ("eval.bins", 15, "in [1, 10^6]"),
    ("eval.pred_samples", 512, "in [1, 10^6]"),
    ("compare_inner.episodes", 20, "in [1, 10^6]"),
    ("compare_inner.rate", 0.005, "in (0, 1]"),
    ("compare_inner.steps", 30, "in [0, 10^6]"),
    ("compare_inner.mc_samples", 64, "in [1, 10^6]"),
    ("compare_outer.seeds", 10, "in [1, 10^6]"),
    ("compare_outer.iterations", 30, "in [0, 10^6]"),
    ("compare_outer.inner_steps", 2, "in [0, 10^6]"),
    ("compare_outer.inner_rate", 0.02, "in (0, 1]"),
    ("compare_outer.outer_lr", 1e-3, ">= 0"),
    ("compare_outer.monitor_episodes", 8, "in [1, 10^6]"),
    ("compare_outer.mc_samples", 64, "in [1, 10^6]"),
    ("compare_outer.pred_samples", 512, "in [1, 10^6]"),
    ("verify.instances", 10, "in [1, 10^6]"),
    ("verify.fd_step", 1e-4, "> 0"),
    ("verify.gh_nodes", 40, "in [1, 300]"),
    ("verify.tolerance", 1e-3, ">= 0"),
    ("gen_data.classes", 15, "in [2, 10^4]"),
    ("gen_data.rows_per_class", 50, "in [1, 10^9]"),
    ("gen_data.filename", "dataset.csv", "a plain file name"),
)
_ROWS = {key: (default, rule) for key, default, rule in _TABLE}


def default_config() -> dict:
    cfg = {}
    for key, default, _ in _TABLE:
        *sections, leaf = key.split(".")
        node = cfg
        for name in sections:
            node = node.setdefault(name, {})
        node[leaf] = copy.deepcopy(default)
    return cfg


def _finite_number(x) -> bool:
    """True for a number that is a finite float: not JSON's NaN or Infinity,
    and not an integer beyond the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _coerce_leaf(path: str, value):
    """value as the type of config key `path`, once it meets the key's rule."""
    default, rule = _ROWS[path]
    if value is None:
        if default is None:
            return None
        raise InputError(f"config key '{path}' may not be null")
    if isinstance(value, bool):
        raise InputError(f"config key '{path}' has no boolean form")
    form = {_PAIR: list, _PATH: str}.get(rule, type(default))
    if form is float:
        if not isinstance(value, (int, float)):
            raise InputError(f"config key '{path}' expects a number")
        if not _finite_number(value):
            shown = value if isinstance(value, float) else "an integer beyond the float range"
            raise InputError(f"config key '{path}' must be finite, got {shown}")
        value = float(value)
    elif form is list:
        if not isinstance(value, list):
            raise InputError(f"config key '{path}' expects a list")
        if not all(map(_finite_number, value)):
            raise InputError(f"config key '{path}' expects finite numeric entries")
        if rule == _PAIR:
            value = [float(x) for x in value]
        elif not all(isinstance(x, int) for x in value):
            raise InputError(f"config key '{path}' expects integer entries, got {value}")
    elif not isinstance(value, form):
        raise InputError(f"config key '{path}' expects {'an integer' if form is int else 'a string'}")
    if not _RULES[rule](value):
        raise InputError(f"config key '{path}' must be {rule}, got {value!r}")
    return value


def _merge_into(dst: dict, src, prefix: str = "") -> None:
    if not isinstance(src, dict):
        where = prefix[:-1] if prefix else "top level"
        raise InputError(f"config section '{where}' must be an object")
    for key, value in src.items():
        path = prefix + str(key)
        if key not in dst:
            raise InputError(f"unknown config key '{path}'")
        if isinstance(dst[key], dict):
            _merge_into(dst[key], value, path + ".")
        else:
            dst[key] = _coerce_leaf(path, value)


def load_config(path) -> dict:
    cfg = default_config()
    if path is not None:
        _merge_into(cfg, _read_json(path, "config file"))
    return cfg


def _read_json(path, what: str):
    """The JSON document in file `path`; `what` names the file in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # also bytes that are not UTF-8, integers too long for int()
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply ``--set section.key=value`` pairs; values parse as JSON with a
    bare-string fallback."""
    for item in overrides or []:
        if "=" not in item:
            raise InputError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if not key:
            raise InputError(f"override {item!r} has an empty key")
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer too long for int()
            value = raw
        patch = value
        for part in reversed(key.split(".")):
            patch = {part: patch}
        _merge_into(cfg, patch)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _prepare_output(cfg: dict, *artifacts: str) -> Path:
    """Make output_dir and write `resolved_config.json` there, once no
    artifact name the run will write is held by a directory, so a path that
    cannot be written ends the run before its work, not after."""
    out = Path(cfg["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output dir {out}: {exc}") from exc
    for name in artifacts:
        if (out / name).is_dir():
            raise InputError(f"cannot write {out / name}: is a directory")
    _write_json(out / "resolved_config.json", cfg)
    return out


def _check_net_dims(cfg: dict) -> None:
    inputs, dim = cfg["kernel"]["net_dims"][0], cfg["task"]["D"]
    if inputs != dim:
        raise InputError(f"kernel.net_dims[0] = {inputs} must equal task.D = {dim}")


def _build_kernel(cfg: dict, extractor_seed: int) -> kernels.DeepKernel:
    """The deep kernel at its initial scales; `_check_net_dims` has passed."""
    kc = cfg["kernel"]
    sc = kc["init_scales"]
    fe = kernels.init_extractor(kc["net_dims"], seed=extractor_seed, weight_std=sc["weight_std"])
    base = kernels.BaseKernels.at_scales(
        kc["kind"], cfg["task"]["C"], sc["length_scale"], sc["offset"], sc["output_scale"]
    )
    return kernels.DeepKernel(extractor=fe, base=base)


def _episode_sources(cfg: dict, *splits):
    """Check the task and data config, loading data.path once, and return one
    draw(seed) -> Episode per split: synthetic unless data.path is set, else
    sampled from the split's checked class pool. `meta` derives every seed."""
    t = cfg["task"]
    shift = t["domain_shift"]
    gen_cfg = tasks.TaskGenConfig(
        n_classes=t["C"],
        shots=t["L"],
        queries=t["M"],
        dim=t["D"],
        prototype_scale=t["tau"],
        within_scale=t["sigma_w"],
        domain_shift=None if shift is None else (shift[0], shift[1]),
    )
    if cfg["data"]["path"] is None:
        return [lambda seed: tasks.gen_episode(gen_cfg, seed)] * len(splits)
    ds = tasks.load_csv_dataset(cfg["data"]["path"])
    pools = cfg["data"]["splits"]
    tasks.check_disjoint_splits(pools["train"], pools["test"])
    for split in splits:
        if not pools[split]:
            raise InputError(f"data.splits.{split} is empty")
        if ds.X.shape[1] != t["D"]:
            raise InputError(f"dataset has {ds.X.shape[1]} features but task.D = {t['D']}")
        tasks.check_class_pool(ds, pools[split], t["C"], t["L"] + t["M"])
    return [
        lambda seed, pool=pools[split]: tasks.sample_episode_from_dataset(
            ds, pool, t["C"], t["L"], t["M"], seed
        )
        for split in splits
    ]


def _checkpoint_dict(kernel: kernels.DeepKernel, cfg: dict) -> dict:
    fe, base = kernel.extractor, kernel.base
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_dims": [int(d) for d in fe.layer_dims],
        "weights": [w.reshape(-1).tolist() for w in fe.weights],
        "biases": [b.tolist() for b in fe.biases],
        "kernels": [
            {
                "kind": base.kind,
                "raws": {name: float(getattr(base, name)[c]) for name in base.raw_names()},
            }
            for c in range(base.n_classes)
        ],
        "config": cfg,
    }


def _checkpoint_arrays(doc: dict, key: str, sizes: list) -> list:
    """doc[key] as one float array per entry of sizes, or an InputError
    naming the key."""
    items = doc.get(key)
    if not (
        isinstance(items, list)
        and len(items) == len(sizes)
        and all(isinstance(v, list) and len(v) == n for v, n in zip(items, sizes))
        and all(_finite_number(x) for v in items for x in v)
    ):
        raise InputError(f"checkpoint key '{key}' must hold lists of {sizes} finite numbers")
    return [np.asarray(v, dtype=float) for v in items]


def _kernel_from_checkpoint(doc) -> kernels.DeepKernel:
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise InputError(
            f"checkpoint format_version {version!r} unsupported, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    dims = doc.get("layer_dims")
    if not isinstance(dims, list) or len(dims) < 2 or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
    ):
        raise InputError("checkpoint key 'layer_dims' must list >= 2 positive integers")
    shapes = list(zip(dims[:-1], dims[1:]))
    flat = _checkpoint_arrays(doc, "weights", [a * b for a, b in shapes])
    weights = [w.reshape(shape) for w, shape in zip(flat, shapes)]
    biases = _checkpoint_arrays(doc, "biases", [b for _, b in shapes])
    fe = kernels.FeatureExtractor(layer_dims=dims, weights=weights, biases=biases)
    entries = doc.get("kernels")
    if not isinstance(entries, list) or not entries:
        raise InputError("checkpoint key 'kernels' must be a non-empty list")
    entries = [entry if isinstance(entry, dict) else {} for entry in entries]
    base = kernels.BaseKernels.at_scales(entries[0].get("kind"), len(entries))
    names = base.raw_names()
    for i, entry in enumerate(entries):  # every class has entry 0's kind
        raws = entry.get("raws")
        if not (
            entry.get("kind") == base.kind
            and isinstance(raws, dict)
            and sorted(raws) == sorted(names)
            and all(map(_finite_number, raws.values()))
        ):
            need = f"kind {base.kind!r} and raws {names}"
            raise InputError(f"checkpoint key 'kernels' entry {i} needs {need}")
    raws = {name: [entry["raws"][name] for entry in entries] for name in names}
    return kernels.DeepKernel(extractor=fe, base=replace(base, **raws))


def cmd_gen_data(cfg: dict) -> int:
    g = cfg["gen_data"]
    t = cfg["task"]
    X, labels = tasks.gen_dataset(
        g["classes"],
        g["rows_per_class"],
        t["D"],
        t["tau"],
        t["sigma_w"],
        seed=derive_seed(cfg["seed"], seeding.STREAM_GEN_DATA),
    )
    out = _prepare_output(cfg, g["filename"])
    path = out / g["filename"]
    tasks.save_csv_dataset(path, X, labels)
    print(f"wrote {path} ({X.shape[0]} rows, {g['classes']} classes)")
    return 0


def cmd_train(cfg: dict) -> int:
    o = cfg["outer"]
    inn = cfg["inner"]
    _check_net_dims(cfg)
    draw = _episode_sources(cfg, "train")[0]
    train_cfg = meta.TrainConfig(
        episodes=o["epochs"] * o["episodes_per_epoch"],
        lr_net=o["lr_net"],
        lr_kernel=o["lr_kernel"],
        inner=InnerConfig(inn["rho"], inn["steps"], inn["mc_samples"]),
        pred_samples=cfg["eval"]["pred_samples"],
        seed=cfg["seed"],
    )
    out = _prepare_output(cfg, "outer_trace.csv", "checkpoint.json")
    kern, history = meta.train(lambda seed: _build_kernel(cfg, seed), draw, train_cfg)
    _write_csv(
        out / "outer_trace.csv",
        ["iter", "objective", "query_ce", "query_acc"],
        [
            [h["iter"], float(h["objective"]), float(h["query_ce"]), float(h["query_acc"])]
            for h in history
        ],
    )
    _write_json(out / "checkpoint.json", _checkpoint_dict(kern, cfg))
    n = len(history)
    tail = history[-1]["query_acc"] if history else float("nan")
    print(f"trained {n} episodes; final episode query accuracy {tail:.4f}")
    print(f"wrote {out / 'outer_trace.csv'} and {out / 'checkpoint.json'}")
    return 0


def cmd_eval(cfg: dict, checkpoint_path, n_jobs: int) -> int:
    kern = _kernel_from_checkpoint(_read_json(checkpoint_path, "checkpoint"))
    if kern.base.n_classes != cfg["task"]["C"]:
        raise InputError(
            f"checkpoint holds {kern.base.n_classes} per-class kernels "
            f"but task.C = {cfg['task']['C']}"
        )
    if kern.extractor.layer_dims[0] != cfg["task"]["D"]:
        raise InputError(
            f"checkpoint network takes {kern.extractor.layer_dims[0]} inputs "
            f"but task.D = {cfg['task']['D']}"
        )
    ev = cfg["eval"]
    einn = cfg["eval_inner"]
    if ev["episodes"] % ev["batches"] != 0:
        raise InputError(
            f"eval.batches = {ev['batches']} must divide eval.episodes = "
            f"{ev['episodes']}"
        )
    draw = _episode_sources(cfg, "test")[0]
    inner = InnerConfig(einn["rho"], einn["steps"], einn["mc_samples"])
    out = _prepare_output(cfg, "metrics.json", "calibration.csv")
    result = meta.evaluate(
        kern, draw, ev["episodes"], inner, ev["pred_samples"], seed=cfg["seed"], n_jobs=n_jobs
    )
    groups = result.accuracies.reshape(ev["batches"], -1).mean(axis=1)
    if ev["batches"] > 1:
        stderr = float(np.std(groups, ddof=1) / np.sqrt(ev["batches"]))
    else:
        stderr = 0.0
    table = metrics.reliability_table(result.probs, result.y_true, ev["bins"])
    report = {
        "accuracy_mean": result.accuracy_mean,
        "accuracy_stderr": stderr,
        "nll": metrics.nll(result.probs, result.y_true),
        "ece": metrics.ece(result.probs, result.y_true, ev["bins"]),
        "mce": metrics.mce(result.probs, result.y_true, ev["bins"]),
    }
    _write_json(out / "metrics.json", report)
    _write_csv(
        out / "calibration.csv",
        ["bin", "lower", "upper", "count", "confidence", "accuracy"],
        [
            [
                b + 1,
                float(table.lower[b]),
                float(table.upper[b]),
                int(table.count[b]),
                float(table.confidence[b]),
                float(table.accuracy[b]),
            ]
            for b in range(table.n_bins)
        ],
    )
    print(
        f"accuracy {report['accuracy_mean']:.4f} +- {report['accuracy_stderr']:.4f}, "
        f"nll {report['nll']:.4f}, ece {report['ece']:.4f}, mce {report['mce']:.4f}"
    )
    steps = result.steps
    print(
        f"inner steps per episode: mean {steps.mean():.1f}, min {steps.min()}, "
        f"max {steps.max()} of at most {inner.steps}"
    )
    print(f"wrote {out / 'metrics.json'} and {out / 'calibration.csv'}")
    return 0


def cmd_compare_inner(cfg: dict) -> int:
    ci = cfg["compare_inner"]
    _check_net_dims(cfg)
    draw = _episode_sources(cfg, "train")[0]
    inner = InnerConfig(ci["rate"], ci["steps"], ci["mc_samples"])
    out = _prepare_output(cfg, "inner_trace.csv")
    new_kernel = lambda seed: _build_kernel(cfg, seed)
    traces = meta.compare_inner(new_kernel, draw, inner, ci["episodes"], cfg["seed"])
    rows = [
        [method, i, step, value]
        for i, trace in enumerate(traces, 1)
        for method, elbos in trace.items()
        for step, value in enumerate(elbos)
    ]
    _write_csv(out / "inner_trace.csv", ["method", "episode", "step", "elbo"], rows)
    wins = sum(trace["MD"][-1] >= trace["GD"][-1] for trace in traces)
    print(f"final ELBO: mirror descent >= gradient descent on {wins}/{ci['episodes']} episodes")
    print(f"wrote {out / 'inner_trace.csv'}")
    return 0


def cmd_compare_outer(cfg: dict) -> int:
    co = cfg["compare_outer"]
    _check_net_dims(cfg)
    sources = _episode_sources(cfg, "train", "test")
    train_cfg = meta.TrainConfig(
        episodes=co["iterations"],
        lr_net=co["outer_lr"],
        lr_kernel=co["outer_lr"],
        inner=InnerConfig(co["inner_rate"], co["inner_steps"], co["mc_samples"]),
        pred_samples=co["pred_samples"],
        seed=cfg["seed"],
    )
    out = _prepare_output(cfg, "outer_compare.csv")
    new_kernel = lambda seed: _build_kernel(cfg, seed)
    runs = meta.compare_outer(new_kernel, *sources, train_cfg, co["monitor_episodes"], co["seeds"])
    rows = [
        [r["method"], s, r["iter"], float(r["query_ce"]), float(r["query_acc"])]
        for s, run in enumerate(runs, 1)
        for r in run
    ]
    _write_csv(out / "outer_compare.csv", ["method", "seed", "iter", "query_ce", "query_acc"], rows)
    # each method's last row in a run is its final iteration
    finals = [{r["method"]: r["query_ce"] for r in run} for run in runs]
    wins = sum(f["MD"] <= f["GD"] for f in finals)
    print(
        f"final cross-entropy: mirror-descent inner <= gradient-descent inner "
        f"on {wins}/{co['seeds']} seeds"
    )
    print(f"wrote {out / 'outer_compare.csv'}")
    return 0


def cmd_verify(cfg: dict) -> int:
    v = cfg["verify"]
    out = _prepare_output(cfg, "verification.json")
    checks = verify.run(cfg["seed"], v["instances"], v["fd_step"], v["gh_nodes"], v["tolerance"])
    report = []
    all_ok = True
    for name, deviation, tol in checks:
        ok = bool(deviation <= tol)
        all_ok &= ok
        report.append(
            {
                "name": name,
                "deviation": float(deviation),
                "tolerance": float(tol),
                "passed": ok,
            }
        )
        print(f"{'PASS' if ok else 'FAIL'} {name}: deviation {deviation:.3e} (tol {tol:.0e})")
    _write_json(out / "verification.json", {"checks": report, "passed": all_ok})
    print(f"wrote {out / 'verification.json'}")
    return 0 if all_ok else 3


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 and one `error: ...` line."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mdgpc",
        description="Few-shot Gaussian-process classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("gen-data", "write a synthetic labelled pool as CSV"),
        ("train", "episodic meta-training of the deep kernel"),
        ("eval", "evaluate a checkpoint on held-out episodes"),
        ("compare-inner", "MD vs GD inner-loop ELBO traces"),
        ("compare-outer", "MD-inner vs GD-inner meta-training"),
        ("verify", "numerical identity checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry by dotted path",
        )
        if name == "eval":
            p.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
            p.add_argument(
                "--parallel-episodes",
                type=int,
                default=1,
                metavar="N",
                help=f"fit evaluation episodes on N threads, 1 <= N <= {MAX_PARALLEL_EPISODES}",
            )
    return parser


# Every character str.splitlines breaks at, mapped to its escape sequence.
_LINE_BREAKS = {ord(ch): repr(ch)[1:-1] for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    try:
        rc = _run(argv)
        sys.stdout.flush()  # buffered output meets a closed pipe here
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so the flush at exit
        # cannot fail again (the recipe of Python's note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    return rc


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = apply_overrides(load_config(args.config), args.set)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            if not 1 <= args.parallel_episodes <= MAX_PARALLEL_EPISODES:
                raise InputError(f"--parallel-episodes must be in [1, {MAX_PARALLEL_EPISODES}]")
            return cmd_eval(cfg, args.checkpoint, args.parallel_episodes)
        if args.command == "compare-inner":
            return cmd_compare_inner(cfg)
        if args.command == "compare-outer":
            return cmd_compare_outer(cfg)
        return cmd_verify(cfg)
    except InputError as exc:
        rc, message = 1, f"error: {exc}"
    except NumericalError as exc:
        rc, message = 2, f"numerical failure: {exc}"
    except MemoryError as exc:
        rc, message = 1, f"error: out of memory: {exc}"
    # a message may quote user text (a key, a path); escape its line breaks
    print(message.translate(_LINE_BREAKS), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
