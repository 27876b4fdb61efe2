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

Exit status: 0 success, 1 invalid input (:class:`~mdgpc.errors.InputError`)
or out of memory, 2 numerical failure (:class:`~mdgpc.errors.NumericalError`),
3 verification failure.
"""

import argparse
import copy
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import inference, kernels, meta, metrics, seeding, tasks, verify
from .errors import InputError, NumericalError, named_failures
from .inference import InnerConfig
from .likelihood import McConfig
from .seeding import derive_seed, with_draw_seed

__all__ = ["main", "default_config", "load_config", "apply_overrides"]

CHECKPOINT_FORMAT_VERSION = 1


# Rules a config value must meet, by the name the table below gives them.
_PAIR = "null or a pair [angle_degrees, scale > 0]"
_PATH = "null or a path"
_KINDS = "one of " + ", ".join(kernels.KERNEL_KINDS)
_RULES = {
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    ">= 2": lambda x: x >= 2,
    "> 0": lambda x: x > 0,
    "in (0, 1]": lambda x: 0 < x <= 1,
    "2+ sizes >= 1": lambda x: len(x) >= 2 and min(x) >= 1,
    "distinct class ids": lambda x: len(set(x)) == len(x),
    "a plain file name": lambda x: x not in ("", "..") and "\0" not in x and Path(x).name == x,
    _KINDS: lambda x: x in kernels.KERNEL_KINDS,
    "a path": lambda x: "\0" not in x,
    _PAIR: lambda x: len(x) == 2 and x[1] > 0,
    _PATH: lambda x: "\0" not in x,
}

# One row per config key: (dotted key, default, rule). The default's type is
# the key's type (a list holds integers); a null default takes its type from
# its rule. This is the only place a key's type and range are written.
_TABLE = (
    ("seed", 0, ">= 0"),
    ("output_dir", "run_out", "a path"),
    ("task.C", 5, ">= 2"),
    ("task.L", 5, ">= 1"),
    ("task.M", 16, ">= 1"),
    ("task.D", 8, ">= 1"),
    ("task.tau", 3.0, ">= 0"),
    ("task.sigma_w", 0.5, ">= 0"),
    ("task.domain_shift", None, _PAIR),
    ("data.path", None, _PATH),
    ("data.splits.train", [], "distinct class ids"),
    ("data.splits.test", [], "distinct class ids"),
    ("kernel.kind", "RBF", _KINDS),
    ("kernel.net_dims", [8, 32, 32, 16], "2+ sizes >= 1"),
    ("kernel.init_scales.weight_std", 1.0, "> 0"),
    ("kernel.init_scales.length_scale", 5.0, "> 0"),
    ("kernel.init_scales.output_scale", 4.0, "> 0"),
    ("kernel.init_scales.offset", 1.0, "> 0"),
    ("inner.rho", 1.0, "in (0, 1]"),
    ("inner.steps", 3, ">= 0"),
    ("inner.mc_samples", 64, ">= 1"),
    ("eval_inner.rho", 0.5, "in (0, 1]"),
    ("eval_inner.steps", 50, ">= 0"),
    ("eval_inner.mc_samples", 512, ">= 1"),
    ("outer.lr_net", 1e-3, ">= 0"),
    ("outer.lr_kernel", 1e-4, ">= 0"),
    ("outer.epochs", 1, ">= 0"),
    ("outer.episodes_per_epoch", 100, ">= 0"),
    ("eval.episodes", 100, ">= 1"),
    ("eval.batches", 100, ">= 1"),
    ("eval.bins", 15, ">= 1"),
    ("eval.pred_samples", 512, ">= 1"),
    ("compare_inner.episodes", 20, ">= 1"),
    ("compare_inner.rate", 0.005, "in (0, 1]"),
    ("compare_inner.steps", 30, ">= 0"),
    ("compare_inner.mc_samples", 64, ">= 1"),
    ("compare_outer.seeds", 10, ">= 1"),
    ("compare_outer.iterations", 30, ">= 0"),
    ("compare_outer.inner_steps", 2, ">= 0"),
    ("compare_outer.inner_rate", 0.02, "in (0, 1]"),
    ("compare_outer.outer_lr", 1e-3, ">= 0"),
    ("compare_outer.monitor_episodes", 8, ">= 1"),
    ("compare_outer.mc_samples", 64, ">= 1"),
    ("compare_outer.pred_samples", 512, ">= 1"),
    ("verify.instances", 10, ">= 1"),
    ("verify.fd_step", 1e-4, "> 0"),
    ("verify.gh_nodes", 40, ">= 1"),
    ("verify.tolerance", 1e-3, ">= 0"),
    ("gen_data.classes", 15, ">= 2"),
    ("gen_data.rows_per_class", 50, ">= 1"),
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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read config file {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also integers too long for int()
            raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
        _merge_into(cfg, doc)
    return cfg


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


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _prepare_output(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output dir {out}: {exc}") from exc
    _write_json(out / "resolved_config.json", cfg)
    return out


def _build_kernel(cfg: dict, extractor_seed: int) -> kernels.DeepKernel:
    kc = cfg["kernel"]
    sc = kc["init_scales"]
    dims = kc["net_dims"]
    fe = kernels.init_extractor(dims, seed=extractor_seed, weight_std=sc["weight_std"])
    if dims[0] != cfg["task"]["D"]:
        raise InputError(
            f"kernel.net_dims[0] = {dims[0]} must equal task.D = {cfg['task']['D']}"
        )
    base = [
        kernels.BaseKernelConfig(
            kc["kind"],
            length_scale_raw=float(kernels.softplus_inv(sc["length_scale"])),
            offset_raw=float(kernels.softplus_inv(sc["offset"])),
            output_scale_raw=float(kernels.softplus_inv(sc["output_scale"])),
        )
        for _ in range(cfg["task"]["C"])
    ]
    return kernels.DeepKernel(extractor=fe, base=base)


def _episode_sources(cfg: dict, split: str):
    """Check the task and data config (loading data.path once) and return
    make(stream, seed): an episode factory keyed by index, synthetic unless
    data.path is set."""
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
        seed=cfg["seed"],
    )
    if cfg["data"]["path"] is not None:
        ds = tasks.load_csv_dataset(cfg["data"]["path"])
        splits = cfg["data"]["splits"]
        tasks.check_disjoint_splits(splits["train"], splits["test"])
        pool = splits[split]
        if not pool:
            raise InputError(f"data.splits.{split} is empty")
        if ds.X.shape[1] != t["D"]:
            raise InputError(
                f"dataset has {ds.X.shape[1]} features but task.D = {t['D']}"
            )
        return lambda stream, seed: lambda i: tasks.sample_episode_from_dataset(
            ds, pool, t["C"], t["L"], t["M"], seed=derive_seed(seed, stream, i)
        )
    return lambda stream, seed: lambda i: tasks.gen_episode(
        gen_cfg, seed=derive_seed(seed, stream, i)
    )


def _checkpoint_dict(kernel: kernels.DeepKernel, cfg: dict) -> dict:
    fe = kernel.extractor
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_dims": [int(d) for d in fe.layer_dims],
        "weights": [w.reshape(-1).tolist() for w in fe.weights],
        "biases": [b.tolist() for b in fe.biases],
        "kernels": [
            {
                "kind": b.kind,
                "raws": {name: float(getattr(b, name)) for name in b.raw_names()},
            }
            for b in kernel.base
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
    base = []
    for i, entry in enumerate(entries):
        entry = entry if isinstance(entry, dict) else {}
        b = kernels.BaseKernelConfig(entry.get("kind"))
        raws = entry.get("raws")
        if not (
            isinstance(raws, dict)
            and sorted(raws) == sorted(b.raw_names())
            and all(map(_finite_number, raws.values()))
        ):
            raise InputError(f"checkpoint key 'kernels' entry {i} needs raws {b.raw_names()}")
        base.append(replace(b, **{k: float(v) for k, v in raws.items()}))
    return kernels.DeepKernel(extractor=fe, base=base)


def _load_checkpoint(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"checkpoint {path} is not valid JSON: {exc}") from exc


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
    out = _prepare_output(cfg)
    path = out / g["filename"]
    tasks.save_csv_dataset(path, X, labels)
    print(f"wrote {path} ({X.shape[0]} rows, {g['classes']} classes)")
    return 0


def cmd_train(cfg: dict) -> int:
    o = cfg["outer"]
    inn = cfg["inner"]
    kern = _build_kernel(cfg, derive_seed(cfg["seed"], seeding.STREAM_TRAIN_EXTRACTOR))
    source = _episode_sources(cfg, "train")(seeding.STREAM_TRAIN_EP, cfg["seed"])
    train_cfg = meta.TrainConfig(
        episodes=o["epochs"] * o["episodes_per_epoch"],
        lr_net=o["lr_net"],
        lr_kernel=o["lr_kernel"],
        inner=InnerConfig(inn["rho"], inn["steps"], McConfig(inn["mc_samples"])),
        pred_mc=McConfig(samples=cfg["eval"]["pred_samples"], seed=0),
        seed=cfg["seed"],
    )
    out = _prepare_output(cfg)
    kern, history = meta.train(kern, source, train_cfg)
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
    kern = _kernel_from_checkpoint(_load_checkpoint(checkpoint_path))
    if kern.n_classes != cfg["task"]["C"]:
        raise InputError(
            f"checkpoint holds {kern.n_classes} per-class kernels "
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
    source = _episode_sources(cfg, "test")(seeding.STREAM_EVAL_EP, cfg["seed"])
    inner = InnerConfig(einn["rho"], einn["steps"], McConfig(einn["mc_samples"]))
    pred_mc = McConfig(samples=ev["pred_samples"], seed=0)
    out = _prepare_output(cfg)
    result = meta.evaluate(
        kern, source, ev["episodes"], inner, pred_mc, seed=cfg["seed"], n_jobs=n_jobs
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
    print(f"wrote {out / 'metrics.json'} and {out / 'calibration.csv'}")
    return 0


def cmd_compare_inner(cfg: dict) -> int:
    ci = cfg["compare_inner"]
    source = _episode_sources(cfg, "train")(seeding.STREAM_COMPARE_EP, cfg["seed"])
    kerns = [
        _build_kernel(cfg, derive_seed(cfg["seed"], seeding.STREAM_EXTRACTOR, i))
        for i in range(1, ci["episodes"] + 1)
    ]
    inner_tpl = InnerConfig(
        rho=ci["rate"], steps=ci["steps"], mc=McConfig(samples=ci["mc_samples"])
    )
    out = _prepare_output(cfg)
    rows = []
    wins = 0
    for i, kern in enumerate(kerns, start=1):
        episode = source(i)
        inner = with_draw_seed(inner_tpl, cfg["seed"], seeding.STREAM_COMPARE_MC, i)
        finals = {}
        with named_failures(f"episode {i}"):
            Z, _ = kernels.extract(kern.extractor, episode.support_x)
            grams = [kernels.gram(b, Z) for b in kern.base]
            for method in ("MD", "GD"):
                _, elbos = inference.run_inner(method, grams, episode.support_y, inner)
                rows.extend([method, i, step, value] for step, value in enumerate(elbos))
                finals[method] = elbos[-1]
        wins += finals["MD"] >= finals["GD"]
    _write_csv(out / "inner_trace.csv", ["method", "episode", "step", "elbo"], rows)
    print(
        f"final ELBO: mirror descent >= gradient descent on "
        f"{wins}/{ci['episodes']} episodes"
    )
    print(f"wrote {out / 'inner_trace.csv'}")
    return 0


def cmd_compare_outer(cfg: dict) -> int:
    co = cfg["compare_outer"]
    train_sources = _episode_sources(cfg, "train")
    monitor_sources = _episode_sources(cfg, "test")
    runs = []
    for s in range(1, co["seeds"] + 1):
        run_seed = derive_seed(cfg["seed"], seeding.STREAM_COMPARE_OUTER, s)
        kern_seed = derive_seed(run_seed, seeding.STREAM_COMPARE_OUTER_EXTRACTOR)
        kern = _build_kernel(cfg, kern_seed)
        train_src = train_sources(seeding.STREAM_COMPARE_OUTER_EP, run_seed)
        monitor_src = monitor_sources(seeding.STREAM_MONITOR_EP, run_seed)
        run_cfg = meta.TrainConfig(
            episodes=co["iterations"],
            lr_net=co["outer_lr"],
            lr_kernel=co["outer_lr"],
            inner=InnerConfig(co["inner_rate"], co["inner_steps"], McConfig(co["mc_samples"])),
            pred_mc=McConfig(co["pred_samples"]),
            seed=run_seed,
        )
        runs.append((kern, train_src, monitor_src, run_cfg))
    out = _prepare_output(cfg)
    rows = []
    wins = 0
    for s, (kern, train_src, monitor_src, run_cfg) in enumerate(runs, start=1):
        run_rows = meta.compare_outer(kern, train_src, monitor_src, run_cfg, co["monitor_episodes"])
        rows.extend(
            [r["method"], s, r["iter"], float(r["query_ce"]), float(r["query_acc"])]
            for r in run_rows
        )
        finals = {
            r["method"]: r["query_ce"]
            for r in run_rows
            if r["iter"] == co["iterations"]
        }
        wins += finals["MD"] <= finals["GD"]
    _write_csv(
        out / "outer_compare.csv",
        ["method", "seed", "iter", "query_ce", "query_acc"],
        rows,
    )
    print(
        f"final cross-entropy: mirror-descent inner <= gradient-descent inner "
        f"on {wins}/{co['seeds']} seeds"
    )
    print(f"wrote {out / 'outer_compare.csv'}")
    return 0


def cmd_verify(cfg: dict) -> int:
    v = cfg["verify"]
    checks = verify.run(cfg["seed"], v["instances"], v["fd_step"], v["gh_nodes"], v["tolerance"])
    out = _prepare_output(cfg)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                help="fit evaluation episodes on N threads",
            )
    return parser


# Every character str.splitlines breaks at, mapped to its escape sequence.
_LINE_BREAKS = {ord(ch): repr(ch)[1:-1] for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args.set)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            if args.parallel_episodes < 1:
                raise InputError("--parallel-episodes must be >= 1")
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
