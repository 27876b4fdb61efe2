"""Digest every artifact of a fixed set of CLI runs, for byte-identity checks.

Usage, from the root of a checkout:

    python3 tools/artifact_digests.py > digests.txt

The runs use the ``src/`` of the checkout this script sits in, and run in a
fresh temporary directory with relative output paths, so nothing is written
into the checkout and two checkouts give comparable output. The run set is
every subcommand at the default config (compare-outer at ``seeds=1``,
``iterations=5``) and at the ``BASE`` config of ``tests/test_cli.py``, with
eval at ``--parallel-episodes`` 1 and 2 (on the checkpoint of the same
config's train run) and verify at seeds 0 and 7, plus eval at the default
config with ``eval_inner.rho=0.1``, where every coarse stage of the inner
loop runs to its cap, so the fixed schedule is pinned too: 17 runs. Then
``BASE`` with ``task.C=10`` runs train, eval at ``--parallel-episodes`` 1
and 2 and compare-inner, so the class sums of 8 or more terms are covered
too, and the threads are pinned at the class count where they pay: 21 runs.
Then ``BASE`` with ``kernel.kind`` COS, POL2 and POL1 each runs train and
eval at ``--parallel-episodes`` 1 on that checkpoint, so the COS and POL
branches of the Gram, its diagonal and its backward pass are covered too,
POL1's degree-1 power ``P ** 0`` included: 27 runs. Then compare-inner at
the default config with ``kernel.kind`` POL1, POL2 and COS, whose GD
baseline fails on a singular prior (POL1, COS) or an ill-conditioned one
(POL2), so the step and message of each failure are pinned too: 30 runs.
Then gen-data at ``BASE`` writes a pool, and train, eval at
``--parallel-episodes`` 1, compare-inner and compare-outer sample it with
``data.path`` set and classes 0-2 for training, 3-5 for testing, so the
data-file branch of the episode sources is covered too: 35 runs. Last,
``BASE`` with every Monte Carlo sample count set to 33 runs train, eval at
``--parallel-episodes`` 1 and compare-inner, so the softmax's batched
logits product is pinned at a node count that is not a power of two: 38
runs. Last, compare-inner at the default config with
``compare_inner.steps=0``, where both methods stay at the prior, so the line
it prints in place of a win count is pinned too: 39 runs.

For each run the output holds one ``sha256  run/file`` line per file the run
wrote, then its exit code, stdout and stderr. A refactor that must not move
artifact bytes passes when ``diff`` finds nothing between the outputs of the
parent and of the change.

    python3 tools/artifact_digests.py --compare ../parent > changes.txt

runs the same set on the ``src/`` of a second checkout too (here
``../parent``, read as the old side) and prints, for each run, file and
numeric column (CSV) or key (JSON), the largest absolute and relative
difference between the two sides, or ``identical``. JSON keys are dotted
paths; list entries count as one key, ``[]``, or ``[name]`` for entries
that carry a ``name``. Text that differs prints ``differs``, and a run
whose exit code or stderr differs says so, with both sides. A change that
moves artifacts by rounding reports its largest moves from this output.
"""

import argparse
import ast
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def base_config() -> dict:
    """The BASE literal of tests/test_cli.py, read without importing the tests."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BASE"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_cli.py defines no BASE config")


def run_set() -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments) in the order they run; eval follows its train."""
    runs = []
    for label, config in (("defaults", []), ("base", ["--config", "base.json"])):
        def add(name, *args):
            runs.append((f"{label}-{name}", [*args, *config, "--set", f"output_dir=out/{label}-{name}"]))

        add("gen-data", "gen-data")
        add("train", "train")
        ckpt = f"out/{label}-train/checkpoint.json"
        for jobs in (1, 2):
            add(f"eval-p{jobs}", "eval", "--checkpoint", ckpt, "--parallel-episodes", str(jobs))
        if label == "defaults":  # a coarse stage that runs to its cap
            add("eval-rho01", "eval", "--checkpoint", ckpt, "--set", "eval_inner.rho=0.1")
        add("compare-inner", "compare-inner")
        outer = ["--set", "compare_outer.seeds=1", "--set", "compare_outer.iterations=5"]
        add("compare-outer", "compare-outer", *(outer if label == "defaults" else []))
        for seed in (0, 7):
            add(f"verify-s{seed}", "verify", "--set", f"seed={seed}")
    base = ["--config", "base.json"]
    pool = ["data.path=out/base-csv-gen-data/dataset.csv",
            "data.splits.train=[0,1,2]", "data.splits.test=[3,4,5]"]
    odd_s = [f"{key}=33" for key in (
        "inner.mc_samples", "eval_inner.mc_samples", "eval.pred_samples",
        "compare_inner.mc_samples", "compare_outer.mc_samples", "compare_outer.pred_samples",
    )]
    for label, config, settings, names in (
        ("base-c10", base, ["task.C=10"], ("train", "eval-p1", "eval-p2", "compare-inner")),
        ("base-cos", base, ["kernel.kind=COS"], ("train", "eval-p1")),
        ("base-pol2", base, ["kernel.kind=POL2"], ("train", "eval-p1")),
        ("base-pol1", base, ["kernel.kind=POL1"], ("train", "eval-p1")),
        ("defaults-pol1", [], ["kernel.kind=POL1"], ("compare-inner",)),
        ("defaults-pol2", [], ["kernel.kind=POL2"], ("compare-inner",)),
        ("defaults-cos", [], ["kernel.kind=COS"], ("compare-inner",)),
        ("base-csv", base, pool, ("gen-data", "train", "eval-p1", "compare-inner", "compare-outer")),
        ("base-odd-s", base, odd_s, ("train", "eval-p1", "compare-inner")),
    ):
        ckpt = f"out/{label}-train/checkpoint.json"
        args = {
            "gen-data": ["gen-data"],
            "train": ["train"],
            "eval-p1": ["eval", "--checkpoint", ckpt, "--parallel-episodes", "1"],
            "eval-p2": ["eval", "--checkpoint", ckpt, "--parallel-episodes", "2"],
            "compare-inner": ["compare-inner"],
            "compare-outer": ["compare-outer"],
        }
        sets = [arg for setting in settings for arg in ("--set", setting)]
        for name in names:
            runs.append((
                f"{label}-{name}",
                [*args[name], *config, *sets, "--set", f"output_dir=out/{label}-{name}"],
            ))
    name = "defaults-compare-inner-steps0"
    runs.append((name, [
        "compare-inner", "--set", "compare_inner.steps=0", "--set", f"output_dir=out/{name}"
    ]))
    return runs


def run_in(root: Path, work: Path):
    """Run the run set on the src/ of checkout `root`, in `work`; yield
    (name, completed process, output directory) after each run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    (work / "base.json").write_text(json.dumps(base_config()), encoding="utf-8")
    for name, args in run_set():
        proc = subprocess.run(
            [sys.executable, "-m", "mdgpc.cli", *args],
            cwd=work, env=env, capture_output=True, text=True,
        )
        yield name, proc, work / "out" / name


def _flatten(obj, path: str, out: dict) -> None:
    """Leaves of a JSON value by dotted key path, list entries merged."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for item in obj:
            label = item.get("name") if isinstance(item, dict) else None
            _flatten(item, f"{path}[{label if isinstance(label, str) else ''}]", out)
    else:
        out.setdefault(path, []).append(obj)


def _fields(path: Path) -> dict:
    """A CSV's columns or a JSON file's keys, each a list of its values;
    any other file is one field of its bytes."""
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        return {col: [row[j] for row in rows[1:]] for j, col in enumerate(rows[0])} if rows else {}
    if path.suffix == ".json":
        out = {}
        _flatten(json.loads(path.read_text(encoding="utf-8")), "", out)
        return out
    return {"(bytes)": [path.read_bytes()]}


def _as_floats(values: list):
    """The values as floats, or None if any is not a number."""
    if any(isinstance(v, (bool, bytes)) for v in values):
        return None
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        return None


def compare_field(old: list, new: list) -> str:
    """`identical`, the largest absolute and relative difference, or `differs`."""
    if old == new:
        return "identical"
    a, b = _as_floats(old), _as_floats(new)
    if a is None or b is None or len(a) != len(b):
        return "differs"
    diff = [abs(x - y) for x, y in zip(a, b)]
    rel = [d / max(abs(x), abs(y)) for d, x, y in zip(diff, a, b) if d > 0.0]
    return f"max abs {max(diff):.2g}, max rel {max(rel, default=0.0):.2g}"


def compare_runs(name: str, old: tuple, new: tuple) -> list[str]:
    """A line each for the exit code and the stderr of run `name` that differ
    between the old and new (exit code, stderr)."""
    lines = []
    if old[0] != new[0]:
        lines.append(f"{name}: exit {old[0]} -> {new[0]}")
    if old[1] != new[1]:
        lines.append(f"{name}: stderr {old[1].strip()!r} -> {new[1].strip()!r}")
    return lines


def compare_dirs(old: Path, new: Path) -> list[str]:
    """One `file field: result` line for every field of every file either
    output directory holds."""
    files = sorted({
        p.relative_to(d).as_posix()
        for d in (old, new) if d.is_dir()
        for p in d.rglob("*") if p.is_file()
    })
    lines = []
    for rel in files:
        if not (old / rel).is_file() or not (new / rel).is_file():
            lines.append(f"{rel}: only in the {'new' if (new / rel).is_file() else 'old'} output")
            continue
        a, b = _fields(old / rel), _fields(new / rel)
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                lines.append(f"{rel} {key}: only in the {'new' if key in b else 'old'} output")
            else:
                lines.append(f"{rel} {key}: {compare_field(a[key], b[key])}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", type=Path, metavar="CHECKOUT",
                        help="also run the set on the src/ of CHECKOUT (the old side) and print "
                             "the largest difference of every artifact value instead of digests")
    args = parser.parse_args()
    if args.compare is not None and not (args.compare / "src" / "mdgpc").is_dir():
        parser.error(f"{args.compare} holds no src/mdgpc")
    with tempfile.TemporaryDirectory(prefix="artifact_digests_") as tmp:
        if args.compare is not None:
            old, new = Path(tmp, "old"), Path(tmp, "new")
            ends = []
            for work, root in ((old, args.compare.resolve()), (new, ROOT)):
                work.mkdir()
                ends.append({
                    name: (proc.returncode, proc.stderr) for name, proc, _ in run_in(root, work)
                })
            for name, _ in run_set():
                for line in compare_runs(name, ends[0][name], ends[1][name]):
                    print(line)
                for line in compare_dirs(old / "out" / name, new / "out" / name):
                    print(f"{name}/{line}", flush=True)
            return 0
        for name, proc, out in run_in(ROOT, Path(tmp)):
            files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
            for path in files:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{path.relative_to(out).as_posix()}")
            print(f"== {name}: exit {proc.returncode}")
            print(f"-- {name}: stdout\n{proc.stdout}", end="")
            print(f"-- {name}: stderr\n{proc.stderr}", end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
