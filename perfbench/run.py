"""Benchmark of the mdgpc command line: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-5w5s --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One invocation does, in order:

1. the `mdgpc verify` gate: every identity check is printed with its
   deviation, and any check over tolerance ends the benchmark with exit
   code 3 and no numbers;
2. set-up time: a fresh interpreter imports ``mdgpc.cli`` and resolves the
   workload config, repeated before and after the workload, best of all;
3. for eval-5w5s, an untimed ``mdgpc train`` at the workload seed that
   writes the checkpoint to evaluate;
4. the workload itself, in one fresh worker process (worker.py): an
   untimed warm-up, then timed runs for about ``--seconds`` seconds, each
   followed by a traced run when ``--trace 1``.

Every child interpreter gets OPENBLAS_NUM_THREADS=1 (also OMP and MKL)
before numpy loads, and the checkout's ``src`` first on PYTHONPATH. The
report lists every metric by name with unit and direction; its last line is
one JSON object with the metrics BENCHMARK.json names (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import percentile
from workloads import QUALITY_METRICS, WORKLOADS, cli_overrides

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 4  # before the workload, and again after it
CHILD_TIMEOUT_S = 170

# name -> (unit, better)
END_TO_END = {
    "episodes_per_s": ("1/s", "higher"),
    "episode_p10_rel": ("ref", "lower"),
    "reference_ms_p10": ("ms", "lower"),
    "episode_ms_p10": ("ms", "lower"),
    "episode_ms_p50": ("ms", "lower"),
    "episode_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "failed_frac": ("fraction", "lower"),
    **QUALITY_METRICS,
}

LAYER_METRICS = [
    "cli.main.self_s",
    "tasks.gen_episode.self_s",
    "tasks.gen_episode.calls",
    "kernels.extract.self_s",
    "kernels.gram.self_s",
    "kernels.gram.calls",
    "kernels.gram_backward.self_s",
    "kernels.cross_gram.self_s",
    "expfam.spd_cholesky.self_s",
    "expfam.spd_cholesky.calls",
    "expfam.spd_cholesky.jittered",
    "expfam.gaussian_kl.self_s",
    "expfam.gaussian_kl.calls",
    "likelihood.normal_draws.self_s",
    "likelihood.normal_draws.calls",
    "likelihood.normal_draws.values",
    "likelihood.batch_grads_mv.self_s",
    "likelihood.batch_grads_mv.calls",
    "likelihood.batch_expected_loglik.self_s",
    "inference.md_step.self_s",
    "inference.md_step.calls",
    "inference.posterior_from_sites.self_s",
    "inference.posterior_from_sites.calls",
    "inference.gd_step.self_s",
    "inference.gd_step.calls",
    "inference.elbo.self_s",
    "inference.elbo.calls",
    "model.fit_episode.p50_ms",
    "model.fit_episode.p90_ms",
    "model.predict_labels.self_s",
    "model.predict_latent.self_s",
    "meta.outer_grad.self_s",
    "meta.adam_step.self_s",
    "meta.unflatten_hypers.self_s",
    "trace.overhead_frac",
]


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "p50_ms": "ms", "p90_ms": "ms", "overhead_frac": "fraction"}.get(
        suffix, "count"
    )


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_python(args, what: str) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; it is killed at the timeout."""
    try:
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {CHILD_TIMEOUT_S} s") from None


def verify_gate(work: Path):
    """(passed, one line per identity check with its deviation)."""
    out = work / "verify"
    proc = run_python(["-m", "mdgpc.cli", "verify", "--set", f"output_dir={out}"], "mdgpc verify")
    try:
        doc = json.loads((out / "verification.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False, [f"verify: exit code {proc.returncode}, no verification.json", proc.stderr.strip()]
    lines = [
        f"verify: {'PASS' if c['passed'] else 'FAIL'} {c['name']:<22} "
        f"deviation {c['deviation']:.3e}  tolerance {c['tolerance']:.0e}"
        for c in doc["checks"]
    ]
    return proc.returncode == 0 and doc["passed"], lines


def measure_setup(seed: int, out: Path, repeats: int) -> list:
    """Wall times of fresh interpreters importing mdgpc.cli and resolving the config."""
    code = "import sys, mdgpc.cli as cli; cli.apply_overrides(cli.load_config(None), sys.argv[1:])"
    args = ["-c", code, *cli_overrides(seed, out)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = run_python(args, "set-up")
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return times


def prepare_checkpoint(seed: int, work: Path) -> Path:
    out = work / "checkpoint"
    argv = ["-m", "mdgpc.cli", "train", *[a for s in cli_overrides(seed, out) for a in ("--set", s)]]
    proc = run_python(argv, "checkpoint training")
    if proc.returncode != 0:
        raise BenchError(f"checkpoint training failed: {proc.stderr.strip()}")
    return out / "checkpoint.json"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def layer_medians(record: dict) -> dict:
    """Median over traced runs of every per-layer metric, plus trace overhead."""
    out = {"trace.overhead_frac": None}
    if record["walls"] and record["traced_walls"]:
        out["trace.overhead_frac"] = (
            statistics.median(record["traced_walls"]) / statistics.median(record["walls"]) - 1.0
        )
    for name in LAYER_METRICS:
        if name not in out:
            # a span never entered has no calls and no self time, and no percentiles
            values = [r.get(name, None if name.endswith("_ms") else 0) for r in record["layers"]]
            values = [v for v in values if v is not None]
            out[name] = statistics.median(values) if values else None
    return {name: out[name] for name in LAYER_METRICS}


def bench_workload(name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    wdir = work / name
    wdir.mkdir(parents=True)
    measure_setup(seed, wdir / "out", 1)  # untimed: writes the bytecode caches
    setup_times = measure_setup(seed, wdir / "out", SETUP_REPEATS)
    checkpoint = prepare_checkpoint(seed, wdir) if WORKLOADS[name]["subcommand"] == "eval" else None
    args = [
        str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--work", str(wdir),
    ]
    if checkpoint is not None:
        args += ["--checkpoint", str(checkpoint)]
    proc = run_python(args, f"workload {name}")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker for {name} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_times += measure_setup(seed, wdir / "out", SETUP_REPEATS)
    if not Path(record["mdgpc_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"measured {record['mdgpc_file']}, not the checkout's src/")
    if not record["walls"]:
        raise BenchError(f"no timed run of {name} succeeded: {record['failures']}")
    episode_ms = sorted(1e3 * t for t in record["episode_s"])
    reference_ms = percentile(sorted(1e3 * t for t in record["reference_s"]), 10)
    metrics = {
        "episodes_per_s": statistics.median(record["episodes"] / w for w in record["walls"]),
        "episode_p10_rel": percentile(episode_ms, 10) / reference_ms,
        "reference_ms_p10": reference_ms,
        **{f"episode_ms_p{q}": percentile(episode_ms, q) for q in (10, 50, 90)},
        "setup_s": min(setup_times),
        "peak_rss_mb": record["peak_rss_mb"],
        "failed_frac": record["failed"] / record["attempted"],
        **record["quality"],
    }
    return {"record": record, "metrics": metrics, "layers": layer_medians(record) if trace else {}}


def print_report(name: str, seed: int, trace: int, res: dict) -> None:
    rec = res["record"]
    walls = ", ".join(f"{w:.3f}" for w in rec["walls"])
    print(f"== {name} (seed {seed}): {rec['episodes']} episodes per run; "
          f"timed runs {len(rec['walls'])} [{walls}] s, {len(rec['episode_s'])} episode times; "
          f"attempted {rec['attempted']}, failed {rec['failed']}")
    for failure in rec["failures"]:
        print(f"   FAILED {failure}")
    for metric, value in res["metrics"].items():
        unit, better = END_TO_END[metric]
        print(f"   {metric:<40} {value:>16.6g} {unit:<9} {better} is better")
    if trace:
        print(f"   traced runs {len(rec['traced_walls'])} "
              f"[{', '.join(f'{w:.3f}' for w in rec['traced_walls'])}] s")
        for metric, value in res["layers"].items():
            shown = "n/a (not run)" if value is None else f"{value:.6g}"
            print(f"   {metric:<40} {shown:>16} {layer_unit(metric)}")


def result_line(res: dict, trace: int, spec: dict) -> dict:
    rec = res["record"]
    if trace:
        names, values = [m["name"] for m in spec["per_layer"]], res["layers"]
        units = {n: layer_unit(n) for n in names}
    else:
        names, values = [m["name"] for m in spec["end_to_end"]], res["metrics"]
        units = {n: END_TO_END[n][0] for n in names}
    missing = [n for n in names if values.get(n) is None]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mdgpc CLI benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mdgpc" / "cli.py").is_file():
        print(f"perfbench: no mdgpc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        passed, lines = verify_gate(WORK)
        print(f"host: usable cores {len(os.sched_getaffinity(0))} {sorted(os.sched_getaffinity(0))}; "
              f"commit {git_commit()}; workload seed {args.seed}; run seconds {args.seconds:g}; "
              f"closed loop, 1 client, --parallel-episodes 1")
        print("\n".join(lines))
        if not passed:
            print("perfbench: mdgpc verify failed; no numbers reported", file=sys.stderr)
            return 3
        results = {}
        for name in names:
            res = bench_workload(name, args.seed, args.seconds, args.trace, WORK)
            if not results:
                print("host: " + "; ".join(f"{k} {v}" for k, v in res["record"]["host"].items()))
            print_report(name, args.seed, args.trace, res)
            results[name] = result_line(res, args.trace, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
