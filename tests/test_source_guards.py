"""Checks on the package source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import equiline

SOURCES = sorted(Path(equiline.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no runtime check may use one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in equiline: {found}"


def test_root_exports_every_module_all():
    modules = [
        importlib.import_module(f"equiline.{path.stem}")
        for path in SOURCES
        if path.stem not in ("__init__", "cli")
    ]
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert sorted(equiline.__all__) == sorted(expected)
    assert len(set(expected)) == len(expected)  # no name is exported twice
    assert [name for name in equiline.__all__ if not hasattr(equiline, name)] == []


# exported for the paper's claims that the acceptance tests certify, though
# no command reaches them
CERTIFIED_CLAIMS = {"dimension_pair"}


def test_every_export_is_reached():
    # a name the package exports is used by the package outside its own
    # definition, or by the benchmark; code only tests use lives in tests/
    def names_used(path):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {node.name: range(node.lineno, node.end_lineno + 1) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if node.lineno not in own.get(name, ()):
                yield name

    bench = sorted((Path(equiline.__file__).parents[2] / "perfbench").glob("*.py"))
    reached = {name for path in SOURCES + bench for name in names_used(path)}
    unreached = [
        f"{path.stem}.{name}"
        for path in SOURCES
        if path.stem not in ("__init__", "cli")
        for name in importlib.import_module(f"equiline.{path.stem}").__all__
        if name not in reached | CERTIFIED_CLAIMS
    ]
    assert not unreached, f"exported but reached only by tests: {unreached}"


def test_readme_import_block_runs():
    readme = (Path(equiline.__file__).parents[2] / "README.md").read_text()
    block = re.search(r"^from equiline import \(.*?\)$", readme, re.M | re.S)
    assert block is not None
    exec(block.group(0), {})


def test_thread_cap_is_applied_on_import():
    src = str(Path(equiline.__file__).parents[1])
    env = {**os.environ, "EQUILINE_THREADS": "1", "OPENBLAS_NUM_THREADS": "7", "PYTHONPATH": src}
    probe = "import os, equiline; print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.stdout == "1\n", result.stderr
    readers = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value == "EQUILINE_THREADS"
    ]
    assert readers == ["__init__.py"]  # the package applies the cap in one place


def test_certify_path_makes_no_rank_decomposition():
    # span and tightness are read off the frame operator: blocks in closed
    # form for an orbit set, else the d x d V V*, O(d^2 n)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.stem in ("lineset", "serialize")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ("matrix_rank", "svd"))
        or (isinstance(node, ast.alias) and node.name in ("matrix_rank", "svd"))
    ]
    assert not found, f"rank decompositions on the certify path: {found}"


def test_no_module_uses_matrix_rank():
    # ranks are read off a d x d frame operator (lineset._frame_rank)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "matrix_rank")
        or (isinstance(node, ast.alias) and node.name == "matrix_rank")
    ]
    assert not found, f"matrix_rank in equiline: {found}"


def test_lexicographic_weights_live_only_in_heisenberg():
    # p ** np.arange(...) restates the label weights of heisenberg.lex_index;
    # elsewhere they are lex_index(np.eye(r, dtype=np.int64), p)
    def arange_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "arange")

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.stem != "heisenberg"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and arange_call(node.right)
    ]
    assert not found, f"lexicographic weights outside heisenberg: {found}"


def test_memory_refusals_live_in_one_lineset_helper():
    # whether an array fits in memory is decided by lineset._shape_in_memory
    # alone, so every MemoryError the package raises is raised there
    def raises_memory_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "MemoryError"

    inside, outside = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and (path.stem, node.name) == ("lineset", "_shape_in_memory")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and raises_memory_error(node):
                where = inside if any(node.lineno in lines for lines in helper) else outside
                where.append(f"{path.name}:{node.lineno}")
    assert not outside, f"MemoryError raised outside lineset._shape_in_memory: {outside}"
    assert len(inside) == 1


def test_ci_runs_the_whole_tier_one_suite():
    # the workflow installs the test extra, sympy's cross-checks included,
    # and runs every test: no -k, -m or --deselect narrows the suite
    root = Path(equiline.__file__).parents[2]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    assert '".[test]"' in workflow
    runs = [line.split("pytest", 1)[1].split()
            for line in workflow.splitlines() if "pytest" in line]
    assert runs and all(args[:2] == ["-q", "--continue-on-collection-errors"] for args in runs)
    narrowing = [a for args in runs for a in args if a.startswith(("-k", "-m", "--deselect"))]
    assert not narrowing, narrowing
    assert "sympy" in (root / "pyproject.toml").read_text().split("test = [", 1)[1].split("]")[0]


def test_every_source_parses_at_the_python_floor():
    # requires-python is >= 3.10: no source may use syntax a 3.10 parser refuses
    root = Path(equiline.__file__).parents[2]
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    assert floor and int(floor.group(1)) == 10
    paths = sorted(p for top in ("src", "tests", "perfbench") for p in (root / top).rglob("*.py"))
    assert len(paths) >= 25
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
