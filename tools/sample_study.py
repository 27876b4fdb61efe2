"""Eval metrics and wall time against the node count of the eval inner loop.

Usage, from the root of a checkout:

    python3 tools/sample_study.py
    python3 tools/sample_study.py --set task.C=10 --set task.L=10 \\
        --set eval.episodes=20 --set eval.batches=20

The `--set` values apply to every run. The script trains one checkpoint at
that config, then runs `mdgpc eval` on it with `eval_inner.mc_samples` at the
reference node count (4096) and at each of 64, 128, 256 and 512; every eval
fits a coarse stage on the first 64 nodes of its set, of at most half of its
steps and ended once a step no longer moves the posterior. For each
node count it prints accuracy, nll, ece and mce, how far nll, ece and mce are
from the reference, and the wall time of the eval process. Every run is a
fresh interpreter on the `src/` of this checkout with OPENBLAS_NUM_THREADS=1,
in a temporary directory, so nothing is written into the checkout. It is
slow: at defaults the reference eval alone runs for about a minute.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("nll", "ece", "mce")
REFERENCE = 4096
SAMPLES = (64, 128, 256, 512)


def run_cli(args: list, work: Path, env: dict) -> float:
    """Run one mdgpc subcommand; its wall time in seconds. A failed run ends the study."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mdgpc.cli", *args], cwd=work, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"mdgpc {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    config = [x for item in args.set for x in ("--set", item)]
    with tempfile.TemporaryDirectory(prefix="sample_study_") as tmp:
        work = Path(tmp)
        run_cli(["train", *config, "--set", "output_dir=train"], work, env)
        results = {}
        for s in (REFERENCE, *SAMPLES):
            out = f"eval-{s}"
            wall = run_cli(
                ["eval", "--checkpoint", "train/checkpoint.json", "--parallel-episodes", "1",
                 *config, "--set", f"eval_inner.mc_samples={s}", "--set", f"output_dir={out}"],
                work, env,
            )
            results[s] = (json.loads((work / out / "metrics.json").read_text()), wall)
    ref, _ = results[REFERENCE]
    print(f"config: {' '.join(args.set) or 'defaults'}; reference S = {REFERENCE}")
    print("S".rjust(6), "accuracy".rjust(9), *(m.rjust(9) for m in METRICS),
          *(f"|d {m}|".rjust(9) for m in METRICS), "wall_s".rjust(7))
    for s, (rep, wall) in results.items():
        print(
            f"{s:6d} {rep['accuracy_mean']:9.4f}",
            *(f"{rep[m]:9.6f}" for m in METRICS),
            *(f"{abs(rep[m] - ref[m]):9.2e}" for m in METRICS),
            f"{wall:7.2f}",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
