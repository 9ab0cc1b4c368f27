import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runtime_imports_only_the_standard_library():
    # pyproject.toml declares `dependencies = []`
    for path in sorted((SRC / "cswalls").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (
                    path.name, name)


def _run_optimized(*argv):
    """`python -OO -m cswalls.cli *argv`: docstrings and asserts stripped."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("CSWALLS_CONFIG", None)
    return subprocess.run([sys.executable, "-OO", "-m", "cswalls.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_cli_runs_with_docstrings_stripped():
    done = _run_optimized("euler", "--genus", "2", "--v1", "0,0,1",
                          "--v2", "1,0,0")
    assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr
    done = _run_optimized("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cswalls")


def test_trace_targets_resolve():
    # perfbench's trace mode patches these names; a deletion or rename in
    # cswalls would otherwise only show as a missing span
    import importlib
    import importlib.util

    from cswalls.envelopes import PLFunction

    path = SRC.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"cswalls.{module}"), attr, None)
        assert callable(fn), (module, attr)
    assert "__call__" in vars(PLFunction)


def test_project_version_matches_the_package():
    # the version is part of every cache key
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs 3.11")
    import cswalls

    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == cswalls.__version__
