"""The benchmark's workloads: CLI arguments, artifact checks and quality numbers.

All three run one 5-way 5-shot episode shape (16 queries per class, D = 8,
RBF deep kernel, so N = C * L = 25 support points) at the CLI defaults;
only the seed and the output directory are set. They exercise different
layers, so a gain in one module cannot hide a loss in another:

- eval-5w5s: 100 episodes of 50 mirror-descent steps with 512 MC samples.
  The inner loop is nearly all of the time (MC softmax gradients, normal
  draws, Woodbury site recombination); no ELBO, outer gradient or GD runs.
- train-5w5s: 100 episodes of 3 MD steps with 64 samples, then 512-sample
  query monitoring, the outer gradient and an Adam step per episode.
  Prediction, Gram backward and the meta layer dominate.
- compare-inner-5w5s: 20 episodes fitted with MD and with GD for 30 steps
  each, with an ELBO after every step. Dense GD steps, ELBO and Gaussian KL
  dominate.

Each checker reads a run's output directory, raises `CheckFailed` on any
missing, unparsable or inconsistent artifact, and returns the workload's
quality numbers.
"""

import csv
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    pass


# name -> (unit, better)
QUALITY_METRICS = {
    "accuracy": ("fraction", "higher"),
    "nll": ("nats", "lower"),
    "ece": ("fraction", "lower"),
    "query_ce": ("nats", "lower"),
    "md_final_elbo": ("nats", "higher"),
    "md_win_frac": ("fraction", "higher"),
}


def _json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _csv(path: Path, header):
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if not rows or rows[0] != list(header):
        raise CheckFailed(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _eval_quality(out: Path, cfg: dict) -> dict:
    report = _json(out / "metrics.json")
    _expect(
        isinstance(report, dict)
        and set(report) == {"accuracy_mean", "accuracy_stderr", "nll", "ece", "mce"},
        "metrics.json keys differ from the documented set",
    )
    bins = _csv(out / "calibration.csv", ["bin", "lower", "upper", "count", "confidence", "accuracy"])
    _expect(len(bins) == cfg["eval"]["bins"], "calibration.csv has the wrong number of bins")
    t = cfg["task"]
    n_queries = cfg["eval"]["episodes"] * t["C"] * t["M"]
    _expect(sum(int(r[3]) for r in bins) == n_queries, "calibration counts do not sum to the query count")
    return {"accuracy": report["accuracy_mean"], "nll": report["nll"], "ece": report["ece"]}


def _train_quality(out: Path, cfg: dict) -> dict:
    rows = _csv(out / "outer_trace.csv", ["iter", "objective", "query_ce", "query_acc"])
    _expect(len(rows) == train_episodes(cfg), "outer_trace.csv has the wrong number of rows")
    doc = _json(out / "checkpoint.json")
    _expect(isinstance(doc, dict) and doc.get("format_version") == 1, "checkpoint.json has no format_version 1")
    return {"query_ce": sum(float(r[2]) for r in rows) / len(rows)}


def _compare_inner_quality(out: Path, cfg: dict) -> dict:
    ci = cfg["compare_inner"]
    rows = _csv(out / "inner_trace.csv", ["method", "episode", "step", "elbo"])
    _expect(len(rows) == 2 * ci["episodes"] * (ci["steps"] + 1), "inner_trace.csv has the wrong number of rows")
    final = {(r[0], int(r[1])): float(r[3]) for r in rows if int(r[2]) == ci["steps"]}
    episodes = range(1, ci["episodes"] + 1)
    _expect(all(("MD", i) in final and ("GD", i) in final for i in episodes), "inner_trace.csv lacks final steps")
    return {
        "md_final_elbo": sum(final["MD", i] for i in episodes) / len(episodes),
        "md_win_frac": sum(final["MD", i] >= final["GD", i] for i in episodes) / len(episodes),
    }


def train_episodes(cfg: dict) -> int:
    return cfg["outer"]["epochs"] * cfg["outer"]["episodes_per_epoch"]


WORKLOADS = {
    "eval-5w5s": {
        "subcommand": "eval",
        "episodes": lambda cfg: cfg["eval"]["episodes"],
        "quality": _eval_quality,
    },
    "train-5w5s": {
        "subcommand": "train",
        "episodes": train_episodes,
        "quality": _train_quality,
    },
    "compare-inner-5w5s": {
        "subcommand": "compare-inner",
        "episodes": lambda cfg: cfg["compare_inner"]["episodes"],
        "quality": _compare_inner_quality,
    },
}


def cli_overrides(seed: int, out_dir, extra=()) -> list:
    """The ``--set`` values of a workload run: its seed and output directory."""
    return [f"seed={seed}", f"output_dir={out_dir}", *extra]


def cli_argv(name: str, seed: int, out_dir, checkpoint=None, extra=()) -> list:
    argv = [WORKLOADS[name]["subcommand"]]
    for item in cli_overrides(seed, out_dir, extra):
        argv += ["--set", item]
    if checkpoint is not None:
        argv += ["--checkpoint", str(checkpoint), "--parallel-episodes", "1"]
    return argv


def check_outputs(name: str, out: Path) -> tuple:
    """(resolved config, quality numbers) of one run; raises CheckFailed."""
    cfg = _json(out / "resolved_config.json")
    quality = WORKLOADS[name]["quality"](out, cfg)
    for key, value in quality.items():
        _expect(isinstance(value, (int, float)) and math.isfinite(value), f"{key} is not finite")
    return cfg, quality


def artifact_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
