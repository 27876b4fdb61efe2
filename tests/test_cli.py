"""End-to-end CLI behavior: config handling, artifacts, exit codes."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgpc import cli, meta, tasks
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


class TestTrain:
    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"outer": {"epochs": 0}})
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        saved = json.loads((out / "checkpoint.json").read_text())
        cfg = cli.apply_overrides(
            cli.load_config(cfg_path), [f"output_dir={out}"]
        )
        kern = cli._build_kernel(cfg, derive_seed(cfg["seed"], 100))
        expected = json.loads(json.dumps(cli._checkpoint_dict(kern, cfg)))
        assert saved == expected
        trace = (out / "outer_trace.csv").read_text().splitlines()
        assert len(trace) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        first_trace = (out / "outer_trace.csv").read_bytes()
        first_ckpt = (out / "checkpoint.json").read_bytes()
        assert run("train", cfg_path, out) == 0
        assert (out / "outer_trace.csv").read_bytes() == first_trace
        assert (out / "checkpoint.json").read_bytes() == first_ckpt


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
        ],
    )
    def test_rejected_config_writes_nothing(
        self, tmp_path, capsys, base_checkpoint, cmd, override, rc
    ):
        (tmp_path / "header_only.csv").write_text("f0,f1,f2,f3,label\n")
        (tmp_path / "nan_cell.csv").write_text("f0,f1,f2,f3,label\n1.0,nan,0.0,0.0,0\n")
        cfg_path = write_cfg(tmp_path, {"data": {"splits": {"train": [0], "test": [1]}}})
        out = tmp_path / "o"
        override = override.format(tmp=tmp_path, huge="1" + "0" * 400)
        extra = ["--checkpoint", str(base_checkpoint)] if cmd == "eval" else []
        assert run(cmd, cfg_path, out, "--set", override, *extra) == rc
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
                ["kernel.init_scales.output_scale=1e-300", "compare_outer.iterations=0"],
                "GD iteration 0, monitor episode 1: non-finite query probabilities",
            ),
            # the scaled features overflow in the pairwise distances of the first Gram
            ("compare-inner", ["kernel.init_scales.weight_std=1e100"], "episode 1: "),
            # a finite-difference step of 1e300 leaves a precision indefinite
            ("verify", ["verify.fd_step=1e300"], "ngd_equivalence instance 0: "),
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

    # 10**15 rows or draws need more memory than a 47-bit address space holds,
    # so the allocation fails at once, whatever the host allows
    @pytest.mark.parametrize(
        "cmd, override",
        [
            ("gen-data", "gen_data.rows_per_class=1000000000000000"),
            ("train", "inner.mc_samples=1000000000000000"),
        ],
    )
    def test_out_of_memory_is_one_line(self, tmp_path, capsys, cmd, override):
        assert run(cmd, write_cfg(tmp_path), tmp_path / "o", "--set", override) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")


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
# No large integer: one would allocate huge arrays or run for a very long
# time. A float literal such as 1e300 is rejected by every integer (size) key,
# so the extreme floats only reach scales, rates and steps.
FUZZ_VALUES = ["-1", "0", "0.0", "NaN", "Infinity", "-Infinity", "1e-300", "1e300"]
# The values on either side of each numeric rule's bound.
BOUNDARY_VALUES = {
    ">= 0": ["-1", "0"],
    ">= 1": ["0", "1"],
    ">= 2": ["1", "2"],
    "> 0": ["0", "5e-324"],
    "in (0, 1]": ["0", "1", "1.0000000000000002"],
}


def fuzz_overrides(cmd: str):
    values = {
        key: FUZZ_VALUES + BOUNDARY_VALUES[rule]
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
