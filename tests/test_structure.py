"""Module structure: the runtime modules hold only runtime code."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mdgpc"
RUNTIME = (
    "tasks", "kernels", "expfam", "likelihood", "inference", "model", "meta", "metrics",
    "seeding", "errors",
)
# every module of src/mdgpc but verify.py, parsed
TREES = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "verify"}


def reads(node) -> set:
    """Every name node reads: plain names and attribute names."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def test_runtime_definitions_are_read_outside_verify():
    """Each top-level function and class of a runtime module is read by some
    top-level statement of src/mdgpc other than its own definition, in a
    module other than verify.py; code that only the checks or the tests
    read belongs in verify.py or in tests/."""
    statements = [(stem, stmt) for stem, tree in TREES.items() for stmt in tree.body]
    read_by = [(stmt, reads(stmt)) for _, stmt in statements]
    unread = [
        f"{stem}.{stmt.name}"
        for stem, stmt in statements
        if stem in RUNTIME
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for other, names in read_by if other is not stmt)
    ]
    assert unread == []


def members(cls: ast.ClassDef):
    """Annotated fields, properties and non-dunder methods of a class body."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id
        elif isinstance(stmt, ast.FunctionDef) and not (
            stmt.name.startswith("__") and stmt.name.endswith("__")
        ):
            yield stmt.name


def test_no_config_holds_a_seed():
    """Seeds are arguments: the run seed of the function that runs an
    experiment, and the draw seeds meta derives from it; no dataclass of a
    runtime module holds a seed."""
    holders = [
        f"{stem}.{cls.name}"
        for stem in RUNTIME
        for cls in TREES[stem].body
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in reads(d) for d in cls.decorator_list)
        and "seed" in members(cls)
    ]
    assert holders == []


def test_runtime_class_members_are_read_outside_verify():
    """Each field, property and method of a class in a runtime module is read
    as an attribute somewhere in src/mdgpc other than verify.py; a member
    that only the checks or the tests read does not belong on the class."""
    attrs = {
        n.attr
        for tree in TREES.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = [
        f"{stem}.{cls.name}.{name}"
        for stem in RUNTIME
        for cls in TREES[stem].body
        if isinstance(cls, ast.ClassDef)
        for name in members(cls)
        if name not in attrs
    ]
    assert unread == []


def test_cli_is_wiring():
    """The CLI reads config, checks inputs, calls meta and writes files: it
    runs no inner loop, builds no Gram, names no failure and derives no draw,
    task or extractor seed (gen-data's pool seed is its one stream), and the
    one thread pool of the package is meta's map."""
    cli = reads(TREES["cli"])
    assert cli & {
        "run_inner", "inner_states", "extract", "gram", "named_failures"
    } == set()
    assert {name for name in cli if name.startswith("STREAM_")} == {"STREAM_GEN_DATA"}
    assert sum(p.read_text().count("ThreadPoolExecutor") for p in SRC.glob("*.py")) == 1


def test_meta_alone_draws():
    """meta draws every node set and derives every seed, and passes them
    down: no other module of src/mdgpc but verify.py calls normal_draws or
    derive_seed, except seeding's own rng_for and the CLI's one gen-data
    pool seed, and inference and model import nothing from seeding."""
    calls = [
        (stem, name)
        for stem, tree in TREES.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        for name in reads(n.func) & {"normal_draws", "derive_seed"}
    ]
    assert {call for call in calls if call[0] == "meta"} == {
        ("meta", "normal_draws"), ("meta", "derive_seed")
    }
    assert sorted(call for call in calls if call[0] != "meta") == [
        ("cli", "derive_seed"), ("seeding", "derive_seed")
    ]
    gen_data = [
        n for n in ast.walk(TREES["cli"])
        if isinstance(n, ast.Call) and "derive_seed" in reads(n.func)
    ]
    assert "STREAM_GEN_DATA" in reads(gen_data[0])
    for stem in ("inference", "model"):
        imported = {
            alias.name if isinstance(n, ast.Import) else f"{n.module}.{alias.name}"
            for n in ast.walk(TREES[stem])
            if isinstance(n, (ast.Import, ast.ImportFrom))
            for alias in n.names
        }
        assert not any("seeding" in name for name in imported), stem
