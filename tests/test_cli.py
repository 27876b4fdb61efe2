"""End-to-end CLI behavior: config handling, artifacts, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgpc import cli, meta, seeding, tasks, verify
from mdgpc.errors import InputError
from mdgpc.seeding import derive_seed

BASE = {
    "seed": 3,
    "task": {"C": 3, "L": 2, "M": 2, "D": 4},
    "kernel": {"net_dims": [4, 8, 6]},
    "inner": {"steps": 2, "mc_samples": 16},
    "eval_inner": {"steps": 3, "mc_samples": 16},
    "outer": {"epochs": 1, "episodes_per_epoch": 2},
    "eval": {"episodes": 2, "batches": 2, "bins": 5, "pred_samples": 32},
    "compare_inner": {"episodes": 2, "steps": 3, "mc_samples": 16},
    "compare_outer": {
        "seeds": 2,
        "iterations": 2,
        "monitor_episodes": 2,
        "mc_samples": 8,
        "pred_samples": 16,
    },
    "gen_data": {"classes": 6, "rows_per_class": 8},
    "verify": {"instances": 3},
}


def write_cfg(tmp_path, extra=None, name="config.json"):
    doc = json.loads(json.dumps(BASE))
    for section, patch in (extra or {}).items():
        if isinstance(patch, dict):
            doc.setdefault(section, {}).update(patch)
        else:
            doc[section] = patch
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(cmd, cfg_path, out_dir, *extra_args):
    argv = [cmd, "--config", str(cfg_path), "--set", f"output_dir={out_dir}"]
    argv.extend(extra_args)
    return cli.main(argv)


class TestConfigHandling:
    def test_defaults_are_fresh_copies(self):
        a = cli.default_config()
        b = cli.default_config()
        a["task"]["C"] = 99
        assert b["task"]["C"] != 99

    def test_file_merge_keeps_unmentioned_defaults(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 5})
        cfg = cli.load_config(path)
        assert cfg["seed"] == 5
        assert cfg["task"]["C"] == 3
        assert cfg["task"]["tau"] == cli.default_config()["task"]["tau"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"task": {"shots": 5}}')
        with pytest.raises(InputError, match="unknown config key 'task.shots'"):
            cli.load_config(path)

    def test_type_checks(self, tmp_path):
        for body, msg in [
            ('{"seed": "x"}', "expects an integer"),
            ('{"seed": 1.5}', "expects an integer"),
            ('{"task": {"tau": "wide"}}', "expects a number"),
            ('{"seed": true}', "no boolean form"),
            ('{"kernel": {"net_dims": [4, "a"]}}', "numeric entries"),
            ('{"seed": null}', "may not be null"),
        ]:
            path = tmp_path / "bad.json"
            path.write_text(body)
            with pytest.raises(InputError, match=msg):
                cli.load_config(path)

    def test_readme_table_matches_config_table(self):
        """README's Configuration table has one row per key, in table order,
        and every default meets its own rule."""
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = [
            [cell.strip() for cell in line.strip("|").split(" | ")][:3]
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        want = [[f"`{k}`", f"`{json.dumps(d)}`", f"`{r}`"] for k, d, r in cli._TABLE]
        assert rows == want
        for key, default, _ in cli._TABLE:
            assert cli._coerce_leaf(key, json.loads(json.dumps(default))) == default

    @pytest.mark.parametrize("key", [key for key, _, rule in cli._TABLE if "in [" in rule])
    def test_size_upper_bounds(self, key):
        """Each size accepts its upper bound and rejects the next integer."""
        rule = cli._ROWS[key][1]
        bound = int(UPPER_BOUNDS[rule.removeprefix("2+ sizes ")])
        as_value = (lambda n: [4, n]) if key == "kernel.net_dims" else (lambda n: n)
        assert cli._coerce_leaf(key, as_value(bound)) == as_value(bound)
        with pytest.raises(InputError, match=re.escape(f"'{key}' must be {rule}, got")):
            cli._coerce_leaf(key, as_value(bound + 1))

    def test_rules_are_in_use(self):
        """Every rule is named by some config key, and every rule with
        boundary values is a rule."""
        named = {rule for _, _, rule in cli._TABLE}
        assert set(cli._RULES) - named == set()
        assert set(BOUNDARY_VALUES) - set(cli._RULES) == set()

    def test_int_promotes_to_float(self, tmp_path):
        path = write_cfg(tmp_path, {"task": {"tau": 3}})
        cfg = cli.load_config(path)
        assert cfg["task"]["tau"] == 3.0 and isinstance(cfg["task"]["tau"], float)

    def test_nullable_keys(self, tmp_path):
        path = write_cfg(tmp_path, {"task": {"domain_shift": [30, 1.5]}})
        cfg = cli.load_config(path)
        assert cfg["task"]["domain_shift"] == [30.0, 1.5]
        path2 = write_cfg(tmp_path, {"task": {"domain_shift": None}}, name="c2.json")
        assert cli.load_config(path2)["task"]["domain_shift"] is None
        path3 = write_cfg(tmp_path, {"task": {"domain_shift": [1.0]}}, name="c3.json")
        with pytest.raises(InputError, match="pair"):
            cli.load_config(path3)

    def test_overrides_json_and_string_fallback(self):
        cfg = cli.apply_overrides(
            cli.load_config(None),
            [
                "seed=7",
                "kernel.kind=COS",
                "task.domain_shift=[45, 2.0]",
                "outer.lr_net=5e-4",
                "data.path=pool.csv",
            ],
        )
        assert cfg["seed"] == 7
        assert cfg["kernel"]["kind"] == "COS"
        assert cfg["task"]["domain_shift"] == [45.0, 2.0]
        assert cfg["outer"]["lr_net"] == 5e-4
        assert cfg["data"]["path"] == "pool.csv"

    def test_override_errors(self):
        with pytest.raises(InputError, match="unknown config key"):
            cli.apply_overrides(cli.load_config(None), ["no.such.key=1"])
        with pytest.raises(InputError, match="key=value"):
            cli.apply_overrides(cli.load_config(None), ["seed"])
        with pytest.raises(InputError, match="empty key"):
            cli.apply_overrides(cli.load_config(None), ["=3"])

    def test_checkpoint_roundtrip(self):
        cfg = cli.default_config()
        cfg["task"]["D"] = 4
        cfg["kernel"]["net_dims"] = [4, 8, 6]
        kern = cli._build_kernel(cfg, extractor_seed=11)
        doc = json.loads(json.dumps(cli._checkpoint_dict(kern, cfg)))
        rebuilt = cli._kernel_from_checkpoint(doc)
        np.testing.assert_array_equal(
            meta.flatten_hypers(rebuilt), meta.flatten_hypers(kern)
        )

    def test_checkpoint_version_mismatch(self):
        cfg = cli.default_config()
        cfg["task"]["D"] = 4
        cfg["kernel"]["net_dims"] = [4, 8, 6]
        doc = cli._checkpoint_dict(cli._build_kernel(cfg, 0), cfg)
        doc["format_version"] = 2
        with pytest.raises(InputError, match="format_version"):
            cli._kernel_from_checkpoint(doc)

    @pytest.mark.parametrize(
        "key, patch",
        [
            ("layer_dims", {"layer_dims": None}),
            ("layer_dims", {"layer_dims": [4, 0, 6]}),
            ("weights", {"weights": []}),
            ("weights", {"weights": [[0.0] * 32, [0.0] * 47]}),
            ("weights", {"weights": [[float("nan")] * 32, [0.0] * 48]}),
            ("biases", {"biases": [[0.0] * 8, [0.0] * 8]}),
            ("kernels", {"kernels": []}),
            ("kernels", {"kernels": [{"kind": "RBF", "raws": {}}]}),
            (
                "kernels",
                {
                    "kernels": [
                        {"kind": "RBF", "raws": {"length_scale_raw": 1.0, "output_scale_raw": 1.0}},
                        {"kind": "COS", "raws": {"output_scale_raw": 1.0}},
                    ]
                },
            ),
        ],
    )
    def test_malformed_checkpoint_names_key(self, key, patch):
        cfg = cli.default_config()
        cfg["task"]["D"] = 4
        cfg["kernel"]["net_dims"] = [4, 8, 6]
        doc = cli._checkpoint_dict(cli._build_kernel(cfg, 0), cfg)
        doc.update(patch)
        with pytest.raises(InputError, match=f"checkpoint key '{key}'"):
            cli._kernel_from_checkpoint(json.loads(json.dumps(doc)))


class TestPipeline:
    def test_gen_data_train_eval(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"gen_data": {"filename": "pool.csv"}})
        data_dir = tmp_path / "data"
        assert run("gen-data", cfg_path, data_dir) == 0
        pool = data_dir / "pool.csv"
        ds = tasks.load_csv_dataset(pool)
        assert ds.X.shape == (48, 4)

        cfg_path = write_cfg(
            tmp_path,
            {
                "gen_data": {"filename": "pool.csv"},
                "data": {
                    "path": str(pool),
                    "splits": {"train": [0, 1, 2], "test": [3, 4, 5]},
                },
            },
        )
        train_dir = tmp_path / "train"
        assert run("train", cfg_path, train_dir) == 0
        trace = (train_dir / "outer_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,query_ce,query_acc"
        assert len(trace) == 1 + 2  # header + epochs * episodes_per_epoch
        assert (train_dir / "resolved_config.json").exists()

        eval_dir = tmp_path / "eval"
        rc = run(
            "eval",
            cfg_path,
            eval_dir,
            "--checkpoint",
            str(train_dir / "checkpoint.json"),
        )
        assert rc == 0
        report = json.loads((eval_dir / "metrics.json").read_text())
        assert set(report) == {"accuracy_mean", "accuracy_stderr", "nll", "ece", "mce"}
        assert 0.0 <= report["accuracy_mean"] <= 1.0

        calib = (eval_dir / "calibration.csv").read_text().splitlines()
        assert calib[0] == "bin,lower,upper,count,confidence,accuracy"
        assert len(calib) == 1 + 5
        rows = [line.split(",") for line in calib[1:]]
        counts = np.array([int(r[3]) for r in rows])
        conf = np.array([float(r[4]) for r in rows])
        acc = np.array([float(r[5]) for r in rows])
        assert counts.sum() == 2 * 3 * 2  # episodes x classes x queries per class
        manual_ece = float(np.sum(counts / counts.sum() * np.abs(acc - conf)))
        assert report["ece"] == pytest.approx(manual_ece, abs=1e-12)

        # both comparisons sample the pool's splits too: train, and test for the monitor bank
        for cmd, artifact, n_rows in (
            ("compare-inner", "inner_trace.csv", 2 * 2 * (3 + 1)),  # methods x episodes x (steps+1)
            ("compare-outer", "outer_compare.csv", 2 * 2 * (2 + 1)),  # seeds x methods x (iters+1)
        ):
            assert run(cmd, cfg_path, tmp_path / cmd) == 0
            assert len((tmp_path / cmd / artifact).read_text().splitlines()) == 1 + n_rows


class TestTrain:
    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"outer": {"epochs": 0}})
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        saved = json.loads((out / "checkpoint.json").read_text())
        cfg = cli.apply_overrides(
            cli.load_config(cfg_path), [f"output_dir={out}"]
        )
        kern = cli._build_kernel(cfg, derive_seed(cfg["seed"], seeding.STREAM_TRAIN_EXTRACTOR))
        expected = json.loads(json.dumps(cli._checkpoint_dict(kern, cfg)))
        assert saved == expected
        trace = (out / "outer_trace.csv").read_text().splitlines()
        assert len(trace) == 1

    def test_zero_epochs_print_no_accuracy(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", write_cfg(tmp_path), out, "--set", "outer.epochs=0") == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0] == "trained 0 episodes"
        assert "nan" not in printed

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        first_trace = (out / "outer_trace.csv").read_bytes()
        first_ckpt = (out / "checkpoint.json").read_bytes()
        assert run("train", cfg_path, out) == 0
        assert (out / "outer_trace.csv").read_bytes() == first_trace
        assert (out / "checkpoint.json").read_bytes() == first_ckpt

    def test_singular_cos_prior_keeps_objective_in_range(self, tmp_path):
        # the COS Gram has rank N - 1; a KL that factored the fitted
        # covariance under jitter once wrote an objective near -2.5e7
        out = tmp_path / "out"
        assert run("train", write_cfg(tmp_path), out, "--set", "kernel.kind=COS") == 0
        rows = (out / "outer_trace.csv").read_text().splitlines()[1:]
        objectives = [float(row.split(",")[1]) for row in rows]
        assert len(objectives) == 2
        assert all(np.isfinite(v) and v > -1e3 for v in objectives)


class TestCompare:
    def test_compare_inner_rows_and_determinism(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("compare-inner", cfg_path, out) == 0
        body = (out / "inner_trace.csv").read_bytes()
        lines = body.decode().splitlines()
        assert lines[0] == "method,episode,step,elbo"
        assert len(lines) == 1 + 2 * 2 * (3 + 1)  # methods x episodes x (steps+1)
        assert run("compare-inner", cfg_path, out) == 0
        assert (out / "inner_trace.csv").read_bytes() == body

    def test_compare_inner_full_rate_keeps_every_step(self, tmp_path):
        # the comparison takes every step of both methods: no stop rule ends
        # a loop early (at rate 1 GD fails at its third step, so two steps)
        out = tmp_path / "out"
        argv = ("--set", "compare_inner.rate=1", "--set", "compare_inner.steps=2")
        assert run("compare-inner", write_cfg(tmp_path), out, *argv) == 0
        rows = [line.split(",") for line in (out / "inner_trace.csv").read_text().splitlines()[1:]]
        for method in ("MD", "GD"):
            steps = [(int(r[1]), int(r[2])) for r in rows if r[0] == method]
            assert steps == [(ep, t) for ep in (1, 2) for t in range(3)]

    def test_compare_inner_without_steps_names_no_winner(self, tmp_path, capsys):
        # at zero steps both methods score the prior, so no win count is printed
        out = tmp_path / "out"
        argv = ("--set", "compare_inner.steps=0")
        assert run("compare-inner", write_cfg(tmp_path), out, *argv) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == (
            "final ELBO: no inner step taken (compare_inner.steps = 0), both methods at the prior"
        )
        assert len(printed) == 2 and printed[1].startswith("wrote ")
        rows = [line.split(",") for line in (out / "inner_trace.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (method, str(ep), "0") for ep in (1, 2) for method in ("MD", "GD")
        ]

    def test_compare_outer_rows(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("compare-outer", cfg_path, out) == 0
        lines = (out / "outer_compare.csv").read_text().splitlines()
        assert lines[0] == "method,seed,iter,query_ce,query_acc"
        assert len(lines) == 1 + 2 * 2 * (2 + 1)  # seeds x methods x (iters+1)
        seen = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert seen[0] == ("MD", "1", "0")
        assert seen[-1] == ("GD", "2", "2")


class TestVerify:
    def test_all_checks_pass(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("verify", cfg_path, out) == 0
        doc = json.loads((out / "verification.json").read_text())
        assert doc["passed"] is True
        assert len(doc["checks"]) == 8
        assert all(c["passed"] for c in doc["checks"])

    def test_negative_control_fails_with_rc_3(self, tmp_path):
        # an unattainable tolerance must flip the exit status, not pass
        cfg_path = write_cfg(tmp_path, {"verify": {"tolerance": 1e-9}})
        out = tmp_path / "out"
        assert run("verify", cfg_path, out) == 3
        doc = json.loads((out / "verification.json").read_text())
        assert doc["passed"] is False
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failed == ["ngd_equivalence"]

    def test_largest_node_count_passes(self, tmp_path):
        # the rule's upper bound; numpy's hermegauss weights are all zero at
        # 371 nodes and non-finite from 372
        out = tmp_path / "out"
        argv = ["--set", "verify.instances=1", "--set", "verify.gh_nodes=300"]
        assert run("verify", write_cfg(tmp_path), out, *argv) == 0
        assert json.loads((out / "verification.json").read_text())["passed"] is True


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_path_with_line_break_prints_one_line(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path / "no\npe.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_checkpoint_path_with_line_break_prints_one_line(self, tmp_path, capsys):
        ckpt = str(tmp_path / "no\nckpt.json")
        assert run("eval", write_cfg(tmp_path), tmp_path / "o", "--checkpoint", ckpt) == 1
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # a file that is not UTF-8, or holds an integer too long for int(), is not valid JSON
    @pytest.mark.parametrize(
        "what, body",
        [
            ("config file", b'{"seed": "\xff"}'),
            ("checkpoint", b'{"format_version": "\xff"}'),
            ("checkpoint", b'{"format_version": ' + b"1" * 5000 + b"}"),
        ],
        ids=["config-not-utf8", "checkpoint-not-utf8", "checkpoint-5000-digits"],
    )
    def test_unparsable_json_file_is_one_line(self, tmp_path, capsys, what, body):
        path = tmp_path / "doc.json"
        path.write_bytes(body)
        if what == "config file":
            rc = run("train", path, tmp_path / "o")
        else:
            rc = run("eval", write_cfg(tmp_path), tmp_path / "o", "--checkpoint", str(path))
        assert rc == 1
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} {path} is not valid JSON: ")
        assert err.count("\n") == 1

    # a usage error is an input error too, not argparse's exit 2 and usage text
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--bogus"],
            ["eval"],
            ["eval", "--checkpoint", "c.json", "--parallel-episodes", "two"],
            [],
        ],
        ids=["unknown-flag", "eval-without-checkpoint", "parallel-episodes-not-int", "no-subcommand"],
    )
    def test_usage_error_is_one_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)  # where the default output_dir would be made
        assert cli.main(argv) == 1
        assert not any(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["-h"], ["eval", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mdgpc")

    def test_bad_override(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        assert run("train", cfg_path, tmp_path / "o", "--set", "bogus=1") == 1

    def test_batches_must_divide_episodes(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"outer": {"epochs": 0}})
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        rc = run(
            "eval",
            cfg_path,
            tmp_path / "e",
            "--checkpoint",
            str(out / "checkpoint.json"),
            "--set",
            "eval.episodes=3",
        )
        assert rc == 1
        assert not (tmp_path / "e").exists()

    def test_checkpoint_class_count_mismatch(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"outer": {"epochs": 0}})
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        rc = run(
            "eval",
            cfg_path,
            tmp_path / "e",
            "--checkpoint",
            str(out / "checkpoint.json"),
            "--set",
            "task.C=2",
        )
        assert rc == 1
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "override, msg",
        [("task.D=2", "takes 4 inputs but task.D = 2"), ("eval.bins=0", "eval.bins")],
    )
    def test_rejected_eval_config_writes_nothing(self, tmp_path, capsys, override, msg):
        cfg_path = write_cfg(tmp_path, {"outer": {"epochs": 0}})
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        ckpt = str(out / "checkpoint.json")
        rc = run("eval", cfg_path, tmp_path / "e", "--checkpoint", ckpt, "--set", override)
        assert rc == 1
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("jobs", [0, cli.MAX_PARALLEL_EPISODES + 1])
    def test_parallel_episodes_out_of_range(self, tmp_path, capsys, jobs):
        # checked before the checkpoint is read, so a missing one is not named
        out = tmp_path / "e"
        argv = ["--checkpoint", str(tmp_path / "missing.json"), "--parallel-episodes", str(jobs)]
        assert run("eval", write_cfg(tmp_path), out, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --parallel-episodes must be in [1, 256]")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_checkpoint_without_contents(self, tmp_path, capsys):
        ckpt = tmp_path / "c.json"
        ckpt.write_text('{"format_version": 1}')
        rc = run("eval", write_cfg(tmp_path), tmp_path / "e", "--checkpoint", str(ckpt))
        assert rc == 1
        assert "checkpoint key 'layer_dims'" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    # Every row now expects 1; the rc column keeps the ids of the first rows.
    @pytest.mark.parametrize(
        "cmd, override, rc",
        [
            ("train", "outer.epochs=-1", 1),
            ("train", "kernel.net_dims=[3, 4]", 1),
            ("compare-inner", "compare_inner.episodes=0", 1),
            ("compare-outer", "compare_outer.seeds=0", 1),
            ("compare-outer", "compare_outer.inner_rate=0", 1),
            ("compare-outer", "compare_outer.iterations=-1", 1),
            ("compare-outer", "compare_outer.monitor_episodes=0", 1),
            ("train", "inner.rho=2.0", 1),
            ("train", "task.L=0", 1),
            ("train", "inner.mc_samples=0", 1),
            ("train", "task.C=1", 1),
            ("train", "data.path={tmp}/header_only.csv", 1),
            ("train", "data.path={tmp}/nan_cell.csv", 1),
            # a label beyond int64 ended in an OverflowError traceback
            ("train", "data.path={tmp}/big_label.csv", 1),
            ("train", "data.path={tmp}/long_label.csv", 1),
            ("train", "task.tau=NaN", 1),
            ("train", "kernel.init_scales.length_scale=Infinity", 1),
            ("train", "seed=-1", 1),
            ("gen-data", "gen_data.rows_per_class=-1", 1),
            ("verify", "verify.gh_nodes=0", 1),
            ("verify", "verify.fd_step=0", 1),
            ("verify", "verify.instances=0", 1),
            ("gen-data", "gen_data.filename=sub/pool.csv", 1),
            ("train", "task.tau={huge}", 1),
            ("train", "outer.lr_net=-1", 1),
            ("train", "outer.lr_kernel=-1", 1),
            ("compare-outer", "compare_outer.outer_lr=-1", 1),
            ("train", "outer.episodes_per_epoch=-1", 1),
            ("verify", "verify.tolerance=-1", 1),
            ("train", "kernel.net_dims=[4, 8.7, 6]", 1),
            ("train", "kernel.net_dims=[4.9, 8, 6]", 1),
            ("train", "data.splits.train=[0.5, 1.9, 2]", 1),
            ("train", "data.splits.train=[0, 0, 0]", 1),
            # each key is checked whichever subcommand runs
            ("gen-data", "inner.rho=5", 1),
            ("eval", "kernel.kind=FOO", 1),
            # a NUL byte in a path used to end in a ValueError traceback
            ("gen-data", 'gen_data.filename="a\\u0000b"', 1),
            ("verify", 'output_dir="{tmp}/o\\u0000"', 1),
            ("train", 'data.path="{tmp}/p\\u0000.csv"', 1),
            # a line break in quoted user text is escaped, not printed
            ("train", "a\nb=1", 1),
            ("train", "data.path={tmp}/missing\nx.csv", 1),
            # a zero scale collapses every input; a negative one flips them
            ("train", "task.domain_shift=[0, 0]", 1),
            ("train", "task.domain_shift=[0, -1]", 1),
            # sizes beyond their bounds ended in numpy's ValueError traceback,
            # or ran without end (task.C), or ran out of memory (mc_samples)
            ("train", "kernel.net_dims=[8, 9223372036854775807, 16]", 1),
            ("gen-data", "gen_data.rows_per_class=9223372036854775807", 1),
            ("train", "task.M=9223372036854775808", 1),
            ("train", "task.C=100000000000000000000000", 1),
            ("train", "inner.mc_samples=1000000000000000", 1),
            # the input width is checked before the first kernel is built
            ("compare-inner", "task.D=5", 1),
            ("compare-outer", "task.D=5", 1),
            # a huge node count ended in hermegauss's OverflowError traceback
            ("verify", "verify.gh_nodes=1001", 1),
            ("verify", "verify.gh_nodes=100000000000000000000000", 1),
            # hermegauss gives zero weights at 371 nodes, non-finite from 372
            ("verify", "verify.gh_nodes=301", 1),
            # a huge run count ran until stopped
            ("compare-outer", "compare_outer.seeds=100000000000000000000000", 1),
            ("train", "outer.episodes_per_epoch=100000000000000000000000", 1),
            # a split's class pool is checked against the data file before
            # output_dir is made: every class present with L + M rows, C of them
            pytest.param(
                "train", ("data.path={tmp}/pool.csv", "data.splits.train=[0, 2, 3, 99]"), 1,
                id="train-pool-missing-class",
            ),
            pytest.param(
                "train", ("data.path={tmp}/pool.csv", "data.splits.train=[0, 2]"), 1,
                id="train-pool-too-small",
            ),
            pytest.param(
                "train", ("data.path={tmp}/pool.csv", "data.splits.train=[0, 2, 3]", "task.M=60"), 1,
                id="train-pool-too-few-rows",
            ),
            pytest.param(
                "eval", ("data.path={tmp}/pool.csv", "data.splits.test=[1, 2]"), 1,
                id="eval-pool-too-small",
            ),
        ],
    )
    def test_rejected_config_writes_nothing(
        self, tmp_path, capsys, base_checkpoint, cmd, override, rc
    ):
        (tmp_path / "header_only.csv").write_text("f0,f1,f2,f3,label\n")
        (tmp_path / "nan_cell.csv").write_text("f0,f1,f2,f3,label\n1.0,nan,0.0,0.0,0\n")
        (tmp_path / "big_label.csv").write_text("f0,f1,f2,f3,label\n1,2,3,4,1e300\n")
        (tmp_path / "long_label.csv").write_text("f0,f1,f2,f3,label\n1,2,3,4,99999999999999999999\n")
        # 6 classes of 8 rows in BASE's 4 dimensions
        tasks.save_csv_dataset(tmp_path / "pool.csv", *tasks.gen_dataset(6, 8, 4, 3.0, 0.5, seed=0))
        cfg_path = write_cfg(tmp_path, {"data": {"splits": {"train": [0], "test": [1]}}})
        out = tmp_path / "o"
        overrides = [override] if isinstance(override, str) else override
        sets = [x for o in overrides for x in ("--set", o.format(tmp=tmp_path, huge="1" + "0" * 400))]
        extra = ["--checkpoint", str(base_checkpoint)] if cmd == "eval" else []
        assert run(cmd, cfg_path, out, *sets, *extra) == rc
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overlapping_splits(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"gen_data": {"filename": "pool.csv"}})
        data_dir = tmp_path / "data"
        assert run("gen-data", cfg_path, data_dir) == 0
        cfg_path = write_cfg(
            tmp_path,
            {
                "data": {
                    "path": str(data_dir / "pool.csv"),
                    "splits": {"train": [0, 1, 2], "test": [2, 3]},
                }
            },
        )
        assert run("train", cfg_path, tmp_path / "o") == 1

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # valid input whose POL1 Gram is too large for the jitter ladder
        rc = cli.main(
            [
                "train",
                "--set",
                f"output_dir={tmp_path / 'o'}",
                "--set",
                "kernel.kind=POL1",
                "--set",
                "kernel.init_scales.output_scale=1e14",
                "--set",
                "outer.episodes_per_epoch=2",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "jitter ladder exhausted" in err

    def test_diverging_inner_loop_names_step(self, tmp_path, capsys):
        # sigma_w = 0 makes the GD baseline overflow at its second step; the
        # step guard stops it there, before any numpy warning is printed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(
                ["compare-inner", "--set", f"output_dir={tmp_path / 'o'}", "--set", "task.sigma_w=0"]
            )
        assert rc == 2 and not caught
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: episode 1: GD step 2: ")

    @pytest.mark.parametrize(
        "cmd, overrides, prefix",
        [
            # Adam writes NaN hyperparameters after the second GD-inner episode
            (
                "compare-outer",
                ["kernel.init_scales.length_scale=1e-8"],
                "GD episode 2: outer step left non-finite hyperparameters",
            ),
            # the squared length scale underflows to 0 in the first Gram
            ("train", ["kernel.init_scales.length_scale=1e-300"], "MD episode 1: "),
            # the squared length scale overflows; the GD monitor fit diverges
            (
                "compare-outer",
                ["kernel.init_scales.length_scale=1e300"],
                "GD iteration 0, monitor episode 1: GD step 2: ",
            ),
            # the GD monitor fit predicts NaN, which must not reach the CSV
            (
                "compare-outer",
                [
                    "kernel.init_scales.output_scale=1e-300",
                    "compare_outer.iterations=0",
                    "compare_outer.inner_steps=1",
                ],
                "GD iteration 0, monitor episode 1: non-finite query probabilities",
            ),
            # the scaled features overflow in the pairwise distances of the first Gram
            ("compare-inner", ["kernel.init_scales.weight_std=1e100"], "episode 1: "),
            # a finite-difference step of 1e300 leaves a precision indefinite
            ("verify", ["verify.fd_step=1e300"], "ngd_equivalence instance 0: "),
            # GD's log-diagonal update underflows to a zero variance, found
            # when its state is scored
            ("compare-inner", ["compare_inner.episodes=34"], "episode 34: GD step 3: "),
        ],
    )
    def test_outer_loop_failure_names_episode(self, tmp_path, capsys, cmd, overrides, prefix):
        argv = [arg for item in overrides for arg in ("--set", item)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(cmd, write_cfg(tmp_path), tmp_path / "o", *argv)
        assert rc == 2 and not caught
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: " + prefix)

    # 10**9 rows of 10**5 features need more memory than a 47-bit address
    # space holds, so the allocation fails at once, whatever the host allows
    @pytest.mark.parametrize("cmd, override", [("gen-data", "gen_data.rows_per_class=1000000000")])
    def test_out_of_memory_is_one_line(self, tmp_path, capsys, cmd, override):
        cfg_path = write_cfg(tmp_path, {"task": {"D": 100000}})
        assert run(cmd, cfg_path, tmp_path / "o", "--set", override) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")

    # an artifact path held by a directory ended in an IsADirectoryError traceback
    @pytest.mark.parametrize(
        "cmd, artifact",
        [("train", "outer_trace.csv"), ("verify", "resolved_config.json"), ("gen-data", "dataset.csv")],
    )
    def test_unwritable_artifact_is_one_line(self, tmp_path, capsys, cmd, artifact):
        out = tmp_path / "o"
        (out / artifact).mkdir(parents=True)
        assert run(cmd, write_cfg(tmp_path), out) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out / artifact}: ")

    # an artifact path held by a directory was found only after the whole run
    @pytest.mark.parametrize(
        "cmd, entry, artifact",
        [
            ("train", "train", "outer_trace.csv"),
            ("train", "train", "checkpoint.json"),
            ("eval", "evaluate", "metrics.json"),
            ("eval", "evaluate", "calibration.csv"),
            ("compare-inner", "compare_inner", "inner_trace.csv"),
            ("compare-outer", "compare_outer", "outer_compare.csv"),
            ("verify", "run", "verification.json"),
        ],
    )
    def test_unwritable_artifact_fails_before_the_run(
        self, tmp_path, monkeypatch, capsys, cmd, entry, artifact
    ):
        module = verify if cmd == "verify" else meta

        def not_called(*args, **kwargs):
            pytest.fail(f"{module.__name__}.{entry} ran before the artifact paths were checked")

        monkeypatch.setattr(module, entry, not_called)
        cfg_path = write_cfg(tmp_path)
        cfg = cli.load_config(cfg_path)
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(cli._checkpoint_dict(cli._build_kernel(cfg, 0), cfg)))
        out = tmp_path / "o"
        (out / artifact).mkdir(parents=True)
        extra = ("--checkpoint", str(ckpt)) if cmd == "eval" else ()
        assert run(cmd, cfg_path, out, *extra) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: cannot write {out / artifact}: is a directory"]

    def test_closed_stdout_exits_quietly(self, tmp_path):
        """A reader that closes stdout first (`mdgpc verify | head -1`) gets
        the documented exit code and no traceback."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = ["verify", "--set", "verify.instances=2", "--set", f"output_dir={tmp_path / 'o'}"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "mdgpc.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # before the child has imported, so every write fails
        try:
            err = proc.stderr.read()
            rc = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (rc, err) == (cli.EXIT_STDOUT_CLOSED, b"")


# Config sections each fuzzed subcommand reads.
FUZZ_SECTIONS = {
    "train": ("seed", "task", "kernel", "inner", "outer", "eval"),
    "eval": ("seed", "task", "eval_inner", "eval"),
    "gen-data": ("seed", "task", "gen_data"),
    "compare-inner": ("seed", "task", "kernel", "compare_inner"),
    "compare-outer": ("seed", "task", "kernel", "compare_outer"),
    "verify": ("seed", "verify"),
}
FAILURE_PREFIX = {1: "error: ", 2: "numerical failure: "}
# No large integer that a key accepts: one would allocate huge arrays or run
# for a very long time. A float literal such as 1e300 is rejected by every
# integer (size) key, so the extreme floats only reach scales, rates and steps.
FUZZ_VALUES = ["-1", "0", "0.0", "NaN", "Infinity", "-Infinity", "1e-300", "1e300"]
# The values on either side of each numeric rule's bounds.
BOUNDARY_VALUES = {
    ">= 0": ["-1", "0"],
    ">= 1": ["0", "1"],
    "> 0": ["0", "5e-324"],
    "in (0, 1]": ["0", "1", "1.0000000000000002"],
    "in [2, 10^3]": ["1", "2", "1000", "1001"],
    "in [1, 10^3]": ["0", "1", "1000", "1001"],
    "in [1, 300]": ["0", "1", "300", "301"],
    "in [1, 10^4]": ["0", "1", "10000", "10001"],
    "in [2, 10^4]": ["1", "2", "10000", "10001"],
    "in [1, 10^5]": ["0", "1", "100000", "100001"],
    "in [0, 10^6]": ["-1", "0", "1000000", "1000001"],
    "in [1, 10^6]": ["0", "1", "1000000", "1000001"],
    "in [1, 10^9]": ["0", "1", "1000000000", "1000000001"],
}
# The size rules' upper bounds, the third of their boundary values. A run at
# one takes minutes or gigabytes by design, so the fuzz leaves it out;
# test_size_upper_bounds checks at config level that each is accepted and the
# next integer rejected (and TestVerify runs verify.gh_nodes at its bound).
UPPER_BOUNDS = {rule: values[2] for rule, values in BOUNDARY_VALUES.items() if "in [" in rule}


def fuzz_overrides(cmd: str):
    values = {
        key: FUZZ_VALUES + [v for v in BOUNDARY_VALUES[rule] if v != UPPER_BOUNDS.get(rule)]
        for key, _, rule in cli._TABLE
        if rule in BOUNDARY_VALUES and key.split(".")[0] in FUZZ_SECTIONS[cmd]
    }
    pair = st.sampled_from(sorted(values)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(values[key]))
    )
    return st.tuples(st.just(cmd), st.lists(pair, min_size=1, max_size=2))


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.fixture(scope="module")
def base_checkpoint(tmp_path_factory):
    """A checkpoint trained once at the BASE config, for fuzzing eval."""
    tmp = tmp_path_factory.mktemp("base_train")
    assert run("train", write_cfg(tmp), tmp / "o") == 0
    return tmp / "o" / "checkpoint.json"


@pytest.mark.parametrize("steps", [3, 40])
def test_eval_prints_its_inner_steps(tmp_path, capsys, base_checkpoint, steps):
    # the steps each episode's inner loop took, against the cap; at 40 steps
    # every coarse stage settles before its 20th step, at 3 its cap is 1
    argv = ("--checkpoint", str(base_checkpoint), "--set", f"eval_inner.steps={steps}",
            "--set", "eval_inner.mc_samples=512")
    assert run("eval", write_cfg(tmp_path), tmp_path / "o", *argv) == 0
    line = capsys.readouterr().out.splitlines()[1]
    found = re.fullmatch(r"inner steps per episode: mean (\S+), min (\d+), max (\d+) of at most (\d+)", line)
    mean, low, high, cap = float(found[1]), int(found[2]), int(found[3]), int(found[4])
    assert cap == steps and low <= mean <= high
    assert (high == 3) if steps == 3 else (high < 40)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.sampled_from(sorted(FUZZ_SECTIONS)).flatmap(fuzz_overrides))
def test_cli_fuzz_exits_cleanly(base_checkpoint, case):
    """Every override ends in exit 0, 1 or 2 (or 3, a failed verify check)
    and never in a traceback. Exit 1 and 2 print exactly one stderr line and
    no warning, exit 1 leaves no output directory, and written JSON is strict."""
    cmd, overrides = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        cfg_path = write_cfg(Path(tmp), {"outer": {"episodes_per_epoch": 1}})
        argv = [cmd, "--config", str(cfg_path), "--set", f"output_dir={out}"]
        if cmd == "eval":
            argv += ["--checkpoint", str(base_checkpoint)]
        for key, value in overrides:
            argv += ["--set", f"{key}={value}"]
        err = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            stack.enter_context(contextlib.redirect_stderr(err))
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
            rc = cli.main(argv)
        assert rc in (0, 1, 2) or (rc, cmd) == (3, "verify")
        if rc in FAILURE_PREFIX:
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            assert len(lines) == 1 and lines[0].startswith(FAILURE_PREFIX[rc])
        assert rc != 1 or not out.exists()
        if rc in (0, 3):
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=reject_constant)
