"""Self-checks of the benchmark's tracer and output checks.

Run with ``python3 -m pytest perfbench/check_tracer.py -q`` from the root of
a checkout. The workloads run here at a reduced size (a few episodes and
steps) so the checks take seconds; the benchmark itself always runs the
defaults.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import mdgpc.cli  # noqa: E402
from mdgpc import expfam, inference, kernels, likelihood, model  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_workload  # noqa: E402
import run  # noqa: E402

SMALL = {
    "eval-5w5s": ["eval.episodes=3", "eval.batches=3", "eval_inner.steps=4"],
    "train-5w5s": ["outer.episodes_per_epoch=3"],
    "compare-inner-5w5s": ["compare_inner.episodes=2", "compare_inner.steps=3"],
}

# Spans each workload must record at least once.
EXERCISED = {
    "eval-5w5s": [
        "tasks.gen_episode", "kernels.extract", "kernels.gram", "kernels.cross_gram",
        "expfam.spd_cholesky", "likelihood.normal_draws", "likelihood.batch_grads_mv",
        "inference.md_step", "inference.posterior_from_sites", "model.fit_episode",
        "model.predict_labels", "model.predict_latent",
    ],
    "train-5w5s": [
        "tasks.gen_episode", "kernels.extract", "kernels.gram", "kernels.gram_backward",
        "kernels.cross_gram", "expfam.spd_cholesky", "expfam.gaussian_kl",
        "likelihood.normal_draws", "likelihood.batch_grads_mv",
        "likelihood.batch_expected_loglik", "inference.md_step",
        "inference.posterior_from_sites", "inference.elbo", "model.fit_episode",
        "model.predict_labels", "model.predict_latent", "meta.outer_grad",
        "meta.adam_step", "meta.unflatten_hypers",
    ],
    "compare-inner-5w5s": [
        "tasks.gen_episode", "kernels.extract", "kernels.gram", "expfam.spd_cholesky",
        "expfam.gaussian_kl", "likelihood.normal_draws", "likelihood.batch_grads_mv",
        "likelihood.batch_expected_loglik", "inference.md_step",
        "inference.posterior_from_sites", "inference.gd_step", "inference.elbo",
    ],
}
# Spans a workload must not record.
NOT_EXERCISED = {
    "eval-5w5s": ["inference.gd_step", "inference.elbo", "expfam.gaussian_kl", "meta.outer_grad"],
    "train-5w5s": ["inference.gd_step"],
    "compare-inner-5w5s": ["model.fit_episode", "meta.outer_grad"],
}


def test_from_import_bindings_are_patched_and_restored():
    originals = {
        "inference.spd_cholesky": inference.spd_cholesky,
        "kernels.spd_cholesky": kernels.spd_cholesky,
        "inference.chol_solve": inference.chol_solve,
        "model.normal_draws": model.normal_draws,
    }
    assert originals["inference.spd_cholesky"] is expfam.spd_cholesky
    with Tracer() as tracer:
        assert inference.spd_cholesky is expfam.spd_cholesky is kernels.spd_cholesky
        assert inference.spd_cholesky is not originals["inference.spd_cholesky"]
        assert inference.chol_solve is expfam.chol_solve is not originals["inference.chol_solve"]
        assert model.normal_draws is likelihood.normal_draws is not originals["model.normal_draws"]
        assert mdgpc.cli.main.__wrapped__ is not None
        kernels.spd_cholesky(2.0 * np.eye(3))
        inference.chol_solve(np.eye(2), np.ones(2))
        model.normal_draws(0, (4, 5))
    stats = tracer.summary()
    assert stats["expfam.spd_cholesky.calls"] == 1
    assert stats["expfam.chol_solve.calls"] == 1
    assert stats["likelihood.normal_draws.calls"] == 1
    assert stats["likelihood.normal_draws.values"] == 20
    assert inference.spd_cholesky is originals["inference.spd_cholesky"]
    assert kernels.spd_cholesky is originals["kernels.spd_cholesky"]
    assert inference.chol_solve is originals["inference.chol_solve"]
    assert model.normal_draws is originals["model.normal_draws"]


def test_self_time_excludes_children():
    with Tracer() as tracer:
        expfam.spd_cholesky(np.eye(4))
        inference.md_init([kernels.gram(kernels.BaseKernelConfig("RBF"), np.eye(3))])
    stats = tracer.summary()
    assert stats["kernels.gram.calls"] == 1
    assert stats["expfam.spd_cholesky.calls"] == 2  # direct, and inside gram
    assert all(v >= 0.0 for k, v in stats.items() if k.endswith(".self_s"))


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    argv = ["train", "--set", "seed=5", "--set", f"output_dir={out}", "--set", "outer.episodes_per_epoch=3"]
    assert mdgpc.cli.main(argv) == 0
    return out / "checkpoint.json"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_workload(name, tmp_path, checkpoint):
    ckpt = checkpoint if name == "eval-5w5s" else None
    rec = run_workload(name, 5, 0.0, 1, tmp_path, ckpt, SMALL[name])
    # warm-up, one timed and one traced run; the traced run's artifacts
    # are compared byte for byte with the warm-up's
    assert rec["attempted"] == 3
    assert rec["failed"] == 0, rec["failures"]
    (layers,) = rec["layers"]
    for span in EXERCISED[name]:
        assert layers.get(f"{span}.calls", 0) >= 1, span
    for span in NOT_EXERCISED[name]:
        assert layers.get(f"{span}.calls", 0) == 0, span
    assert layers["cli.main.calls"] == 1
    assert len(rec["episode_s"]) == rec["episodes"]  # one time per episode of the timed run
    assert 0.0 < sum(rec["episode_s"]) <= rec["walls"][0]
    assert all(v >= 0.0 for k, v in layers.items() if k.endswith(".self_s"))


def test_changed_artifact_counts_as_failed(tmp_path, monkeypatch):
    import worker

    real = worker._run_cli
    calls = []

    def tamper(cli, argv, out, tracer=None):
        result = real(cli, argv, out, tracer)
        calls.append(1)
        if len(calls) == 2:  # the timed run's config gains one byte
            with (out / "resolved_config.json").open("a") as fh:
                fh.write("\n")
        return result

    monkeypatch.setattr(worker, "_run_cli", tamper)
    rec = run_workload("compare-inner-5w5s", 5, 0.0, 0, tmp_path, None, SMALL["compare-inner-5w5s"])
    assert rec["attempted"] == 2
    assert rec["failed"] == 1
    assert rec["failures"] == ["timed run: artifacts differ from the first run: resolved_config.json"]


def test_benchmark_json_names_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(SMALL)
    for m in spec["end_to_end"]:
        assert run.END_TO_END[m["name"]] == (m["unit"], m["better"])
    for m in spec["per_layer"]:
        assert m["name"] in run.LAYER_METRICS
        assert run.layer_unit(m["name"]) == m["unit"]
