"""Package surface: public exports and the names the benchmark imports."""

import ast
import glob
import importlib.util
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields

import pytest

import contrareg
from contrareg import FitConfig, GenConfig, LinesConfig, generate, select

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_export_resolves():
    missing = [name for name in contrareg.__all__ if not hasattr(contrareg, name)]
    assert missing == []


def test_settings_are_frozen():
    # a setting is checked once, at construction; assignment would skip that check
    for config in (FitConfig(d=1), GenConfig(n=1, m=1, p=1, d=1), LinesConfig()):
        for field in fields(config):
            with pytest.raises(FrozenInstanceError):
                setattr(config, field.name, getattr(config, field.name))


def test_benchmark_selftest_passes():
    # bench/selftest.py imports library names and installs hooks on module
    # attributes; a refactor that renames or drops one of them fails here
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_import_loads_no_scipy():
    # start-up of every CLI process pays for what the package imports; a pca_warm_start
    # initialization and the corrupted-lines simulator use numpy only
    code = ("import sys, contrareg, contrareg.cli; "
            "data, _ = contrareg.generate(contrareg.GenConfig(n=12, m=6, p=3, d=1, seed=0)); "
            "contrareg.initialize(data, contrareg.FitConfig(d=1, init='pca_warm_start')); "
            "contrareg.generate_lines(contrareg.LinesConfig(image_side=8, n_fg=3, n_bg=2)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_benchmark_hook_sites_resolve():
    # the benchmark's tracer wraps library functions where their callers look them up
    # (module globals); a span none of whose sites exists reads "not measured"
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    data, _ = generate(GenConfig(n=12, m=6, p=3, d=1, seed=0))
    with tracing.Tracer(tracing.HOOKS) as tracer:
        assert tracer.unmeasured == set()
        select.cross_validate(data, [1], 2, FitConfig(d=1, restarts=0, max_iter=3))
    names = {span.name for span in tracer.spans}
    assert {"select.cross_validate", "optimizer.fit", "optimizer.initialize",
            "model.evaluate", "model.build_workspace"} <= names


def test_declared_dependencies_match_imports():
    # the runtime dependencies in pyproject.toml are exactly the third-party packages
    # that src/contrareg imports, function-level imports included
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "contrareg", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"contrareg"}
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert imported == {re.match(r"[A-Za-z0-9._-]+", spec).group() for spec in declared}


def test_src_has_no_unused_imports():
    # no linter is a test dependency; a deletion that orphans an import fails here
    unused = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "contrareg", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{os.path.basename(path)}:{node.lineno} {bound}")
    assert unused == []


def test_src_has_no_unreferenced_definitions():
    # every module-level function, class and constant is used somewhere in the package
    # (outside its own definition) or exported; a deletion that orphans a helper fails here
    trees = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "contrareg", "*.py"))):
        with open(path) as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), path)
    defined, used = [], {}          # used: name -> statements (module, lineno) that mention it
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, stmt.lineno, name) for name in names
                        if not (name.startswith("__") and name.endswith("__"))]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    mentioned = [node.id]
                elif isinstance(node, ast.Attribute):
                    mentioned = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    mentioned = [alias.name for alias in node.names]
                else:
                    mentioned = []
                for name in mentioned:
                    used.setdefault(name, set()).add((module, stmt.lineno))
    exported = set(contrareg.__all__)
    unreferenced = [f"{module}:{lineno} {name}" for module, lineno, name in defined
                    if name not in exported and used.get(name, set()) - {(module, lineno)} == set()]
    assert unreferenced == []
