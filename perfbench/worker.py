"""Run one workload in this interpreter through ``mdgpc.cli.main``.

Started by run.py in a fresh interpreter whose environment already pins
OPENBLAS_NUM_THREADS=1 and puts the checkout's ``src`` first on PYTHONPATH,
so that this process holds only the workload (its peak RSS is the
workload's). Closed loop, one client: each run starts after the previous
one ended and its checks finished.

The first run is an untimed warm-up and the byte reference for every later
run at the same seed. Timed runs follow until about ``--seconds`` have
passed, at least one. With ``--trace 1`` each timed run is followed by a
traced run of the same arguments. The last stdout line is a JSON record
for run.py.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, artifact_bytes, check_outputs, cli_argv

REFERENCE_EVERY_S = 0.25  # episode time between two reference timings


def reference_s() -> float:
    """Seconds for a fixed loop of small numpy/scipy work that uses no mdgpc code.

    It mixes what an episode spends its time on: a 25x25 Cholesky factor
    and solve, a softmax over (64, 25, 5) draws, and a little Python.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    a = rng.standard_normal((25, 25))
    spd = a @ a.T + 25.0 * np.eye(25)
    rhs = rng.standard_normal((25, 5))
    draws = rng.standard_normal((64, 25, 5))
    t0 = time.perf_counter()
    for _ in range(100):
        chol = scipy.linalg.cholesky(spd, lower=True)
        f = scipy.linalg.cho_solve((chol, True), rhs)[None] + draws
        e = np.exp(f - f.max(axis=2, keepdims=True))
        e /= e.sum(axis=2, keepdims=True)
        _ = [float(v) for v in e[0, :5, 0]]
    return time.perf_counter() - t0


class EpisodeClock:
    """Per-episode wall times of one run, with reference timings interleaved.

    Every CLI path builds each episode with ``tasks.gen_episode`` first, so
    a hook there marks episode boundaries (under a microsecond each). Once
    `REFERENCE_EVERY_S` of episode time has passed since the last reference
    timing, the hook times `reference_s` again with the clock stopped. The
    reference then samples the same host speed as the episodes around it,
    and its time is left out of every episode and of the run's wall.
    """

    def __init__(self):
        self.bounds = []  # (end of the previous episode, start of this one)
        self.reference_s = []

    def __enter__(self):
        import mdgpc.tasks as tasks

        self._tasks, self._original = tasks, tasks.gen_episode
        bounds, refs, original = self.bounds, self.reference_s, self._original
        last_ref = [time.perf_counter()]

        def stamped(*args, **kwargs):
            t_end = time.perf_counter()
            if t_end - last_ref[0] >= REFERENCE_EVERY_S:
                refs.append(reference_s())
                last_ref[0] = time.perf_counter()
            bounds.append((t_end, time.perf_counter()))
            return original(*args, **kwargs)

        tasks.gen_episode = stamped
        return self

    def __exit__(self, *exc):
        self._tasks.gen_episode = self._original
        return False

    def split(self, t0: float, t1: float):
        """(wall without reference pauses, per-episode seconds) of a run from t0 to t1."""
        paused = sum(start - end for end, start in self.bounds)
        ends = [end for end, _ in self.bounds[1:]] + [t1]
        return t1 - t0 - paused, [e - start for (_, start), e in zip(self.bounds, ends)]


def _run_cli(cli, argv, out: Path, tracer=None):
    """(rc or None on an uncaught exception, wall seconds, per-episode
    seconds, reference seconds) of one cli.main call.

    Traced runs report no episode or reference times.
    """
    shutil.rmtree(out, ignore_errors=True)
    sink = io.StringIO()
    clock = EpisodeClock()
    with (tracer if tracer is not None else clock), contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed run, reported, not fatal
            traceback.print_exc()
            rc = None
        t1 = time.perf_counter()
    wall, episodes = clock.split(t0, t1)
    return rc, wall, episodes, clock.reference_s


def _check(name: str, out: Path, rc, first_artifacts):
    """(config, quality, artifact bytes) of one run; raises CheckFailed."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    cfg, quality = check_outputs(name, out)
    blobs = artifact_bytes(out)
    if first_artifacts is not None and blobs != first_artifacts:
        keys = set(blobs) | set(first_artifacts)
        differ = sorted(k for k in keys if blobs.get(k) != first_artifacts.get(k))
        raise CheckFailed(f"artifacts differ from the first run: {', '.join(differ)}")
    return cfg, quality, blobs


def _host() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_workload(name, seed, seconds, trace, work: Path, checkpoint=None, extra=()):
    """Warm up, then time (and optionally trace) one workload; returns a record."""
    import mdgpc.cli as cli

    out = work / "out"
    argv = cli_argv(name, seed, out, checkpoint, extra)
    record = {
        "attempted": 0, "failed": 0, "failures": [],
        "walls": [], "episode_s": [], "reference_s": [], "traced_walls": [], "layers": [],
    }

    def attempt(kind, tracer=None):
        rc, wall, episodes, refs = _run_cli(cli, argv, out, tracer)
        record["attempted"] += 1
        try:
            cfg, quality, blobs = _check(name, out, rc, record.get("first_artifacts"))
            if tracer is not None:
                layers = tracer.summary()
                negative = [k for k, v in layers.items() if k.endswith(".self_s") and v < 0.0]
                if negative:
                    raise CheckFailed(f"negative self time in {', '.join(negative)}")
                record["layers"].append(layers)
        except CheckFailed as exc:
            record["failed"] += 1
            record["failures"].append(f"{kind} run: {exc}")
            return None
        record.setdefault("first_artifacts", blobs)
        record.setdefault("episodes", WORKLOADS[name]["episodes"](cfg))
        record["quality"] = quality
        return wall, episodes, refs

    attempt("warm-up")
    t_start = time.perf_counter()
    per_iteration = []
    while True:
        t0 = time.perf_counter()
        timed = attempt("timed")
        if timed is not None:
            record["walls"].append(timed[0])
            record["episode_s"] += timed[1]
            record["reference_s"] += timed[2]
        if trace:
            traced = attempt("traced", Tracer())
            if traced is not None:
                record["traced_walls"].append(traced[0])
        per_iteration.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * statistics.median(per_iteration) >= seconds:
            break
    record.pop("first_artifacts", None)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["host"] = _host()
    record["mdgpc_file"] = cli.__file__
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, default=None)
    args = p.parse_args(argv)
    record = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.work, args.checkpoint
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
