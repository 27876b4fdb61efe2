"""Digest every artifact of a fixed set of CLI runs, for byte-identity checks.

Usage, from the root of a checkout:

    python3 tools/artifact_digests.py > digests.txt

The runs use the ``src/`` of the checkout this script sits in, and run in a
fresh temporary directory with relative output paths, so nothing is written
into the checkout and two checkouts give comparable output. The run set is
every subcommand at the default config (compare-outer at ``seeds=1``,
``iterations=5``) and at the ``BASE`` config of ``tests/test_cli.py``, with
eval at ``--parallel-episodes`` 1 and 2 (on the checkpoint of the same
config's train run) and verify at seeds 0 and 7: 16 runs. Then ``BASE`` with
``task.C=10`` runs train, eval at ``--parallel-episodes`` 1 and
compare-inner, so the class sums of 8 or more terms are covered too: 19 runs.
Last, ``BASE`` with ``kernel.kind=COS`` and with ``kernel.kind=POL2`` each
runs train and eval at ``--parallel-episodes`` 1 on that checkpoint, so the
COS and POL branches of the Gram, its diagonal and its backward pass are
covered too: 23 runs.

For each run the output holds one ``sha256  run/file`` line per file the run
wrote, then its exit code, stdout and stderr. A refactor that must not move
artifact bytes passes when ``diff`` finds nothing between the outputs of the
parent and of the change.
"""

import ast
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
        add("compare-inner", "compare-inner")
        outer = ["--set", "compare_outer.seeds=1", "--set", "compare_outer.iterations=5"]
        add("compare-outer", "compare-outer", *(outer if label == "defaults" else []))
        for seed in (0, 7):
            add(f"verify-s{seed}", "verify", "--set", f"seed={seed}")
    for label, setting, names in (
        ("base-c10", "task.C=10", ("train", "eval-p1", "compare-inner")),
        ("base-cos", "kernel.kind=COS", ("train", "eval-p1")),
        ("base-pol2", "kernel.kind=POL2", ("train", "eval-p1")),
    ):
        ckpt = f"out/{label}-train/checkpoint.json"
        args = {
            "train": ["train"],
            "eval-p1": ["eval", "--checkpoint", ckpt, "--parallel-episodes", "1"],
            "compare-inner": ["compare-inner"],
        }
        for name in names:
            runs.append((
                f"{label}-{name}",
                [*args[name], "--config", "base.json", "--set", setting,
                 "--set", f"output_dir=out/{label}-{name}"],
            ))
    return runs


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    with tempfile.TemporaryDirectory(prefix="artifact_digests_") as tmp:
        work = Path(tmp)
        (work / "base.json").write_text(json.dumps(base_config()), encoding="utf-8")
        for name, args in run_set():
            proc = subprocess.run(
                [sys.executable, "-m", "mdgpc.cli", *args],
                cwd=work, env=env, capture_output=True, text=True,
            )
            out = work / "out" / name
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
