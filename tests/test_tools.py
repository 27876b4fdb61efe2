"""The artifact comparison of tools/artifact_digests.py, on small directories.

The full run set takes minutes and stays out of the suite; these tests call
`compare_dirs` on hand-written files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_compare_dirs_reports_each_column_and_key(tool, tmp_path):
    checks = [
        {"name": "kl", "deviation": 1e-10, "passed": True},
        {"name": "fd", "deviation": 2.0, "passed": True},
    ]
    weights = [[1.0, 2.0], [3.0]]
    old = write(tmp_path / "old", {
        "trace.csv": "method,step,elbo\nMD,1,-4.0\nGD,2,2.0\n",
        "verification.json": json.dumps({"checks": checks, "weights": weights}, sort_keys=True),
        "dropped.csv": "a\n1\n",
    })
    checks[1] = {"name": "fd", "deviation": 2.5, "passed": False}
    new = write(tmp_path / "new", {
        "trace.csv": "method,step,elbo\nMD,1,-4.000001\nGD,2,2.0\n",
        "verification.json": json.dumps(
            {"checks": checks, "weights": weights, "extra": 1}, sort_keys=True
        ),
    })
    assert tool.compare_dirs(old, new) == [
        "dropped.csv: only in the old output",
        "trace.csv method: identical",
        "trace.csv step: identical",
        "trace.csv elbo: max abs 1e-06, max rel 2.5e-07",
        "verification.json checks[kl].deviation: identical",
        "verification.json checks[kl].name: identical",
        "verification.json checks[kl].passed: identical",
        "verification.json checks[fd].deviation: max abs 0.5, max rel 0.2",
        "verification.json checks[fd].name: identical",
        "verification.json checks[fd].passed: differs",
        "verification.json weights[][]: identical",
        "verification.json extra: only in the new output",
    ]


def test_compare_field_reads_numbers_from_text(tool):
    assert tool.compare_field(["1.0", "-2"], ["1.0", "-2"]) == "identical"
    assert tool.compare_field(["0.0", "4"], ["0.0", "3"]) == "max abs 1, max rel 0.25"
    assert tool.compare_field(["a", "1"], ["b", "1"]) == "differs"
    assert tool.compare_field([1.0, 2.0], [1.0]) == "differs"
    assert tool.compare_field([None], [0.0]) == "differs"


def test_compare_runs_reports_exit_code_and_stderr(tool):
    fail = "mdgpc: numerical failure: episode 2: GD step 29: non-finite posterior moments\n"
    moved = fail.replace("episode 2: GD step 29", "episode 18: GD step 3")
    assert tool.compare_runs("ci", (0, ""), (0, "")) == []
    assert tool.compare_runs("ci", (2, fail), (2, fail)) == []
    assert tool.compare_runs("ci", (2, fail), (2, moved)) == [
        f"ci: stderr {fail.strip()!r} -> {moved.strip()!r}"
    ]
    assert tool.compare_runs("ci", (2, fail), (0, "")) == [
        "ci: exit 2 -> 0", f"ci: stderr {fail.strip()!r} -> ''"
    ]


def test_odd_s_block_sets_every_sample_count(tool):
    from mdgpc import cli

    runs = dict(tool.run_set())
    assert len(runs) == 38
    counts = {key for key, _, _ in cli._TABLE if key.endswith("samples")}
    for name in ("train", "eval-p1", "compare-inner"):
        args = runs[f"base-odd-s-{name}"]
        sets = {args[i + 1] for i, arg in enumerate(args) if arg == "--set"}
        assert {f"{key}=33" for key in counts} <= sets


def test_defaults_block_has_an_eval_whose_coarse_stage_runs_to_its_cap(tool):
    runs = dict(tool.run_set())
    args = runs["defaults-eval-rho01"]
    assert args[:3] == ["eval", "--checkpoint", "out/defaults-train/checkpoint.json"]
    assert "eval_inner.rho=0.1" in args
    names = list(runs)
    assert names.index("defaults-train") < names.index("defaults-eval-rho01")
