import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

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


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares `requires-python = ">=3.10"`
    for path in sorted((SRC / "cswalls").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


@given(st.text(alphabet=st.sampled_from("&<>\"'a;#x1 \u00e9")))
def test_svg_escape_matches_saxutils(text):
    from xml.sax.saxutils import escape as sax_escape

    from cswalls.svg import escape
    assert escape(text) == sax_escape(text)


def _python(*argv, stdout=subprocess.PIPE):
    """`python *argv` with this checkout's `src` first on the path, its
    stdout to `stdout` and its stderr captured."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("CSWALLS_CONFIG", None)
    return subprocess.run([sys.executable, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=60)


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, email, ssl
    # and socket: about half of the modules the CLI would load
    done = _python("-c", "import sys, cswalls.cli; "
                         "print(' '.join(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    network = {"socket", "ssl", "http.client", "urllib.request", "email"}
    assert not set(done.stdout.split()) & network


@pytest.mark.parametrize("argv", [
    ["walls", "--class", "2,3,1", "--format", "json"],  # a write raises
    ["euler", "--v1", "1,0,0", "--v2", "0,0,1"],  # the final flush raises
])
def test_a_closed_stdout_ends_with_exit_1_and_no_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # as `cswalls walls ... | head -1` once head has exited
    try:
        done = _python("-m", "cswalls.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr, done.stderr
    assert "Exception ignored" not in done.stderr, done.stderr


def _run_optimized(*argv):
    """`python -OO -m cswalls.cli *argv`: docstrings and asserts stripped."""
    return _python("-OO", "-m", "cswalls.cli", *argv)


def test_cli_runs_with_docstrings_stripped():
    done = _run_optimized("euler", "--genus", "2", "--v1", "0,0,1",
                          "--v2", "1,0,0")
    assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr
    done = _run_optimized("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cswalls")


def _perfbench_tracer():
    import importlib.util

    path = SRC.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_trace_targets_resolve():
    # perfbench's trace mode patches these names; a deletion or rename in
    # cswalls would otherwise only show as a missing span
    import importlib

    from cswalls.envelopes import PLFunction

    tracer = _perfbench_tracer()
    for module, attr, _, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"cswalls.{module}"), attr, None)
        assert callable(fn), (module, attr)
    assert "__call__" in vars(PLFunction)


def test_trace_sizes_apply_to_real_results():
    # the trace mode applies each size callable to what its function
    # returns, so a changed return type would crash `run.py --trace 1`
    from cswalls.envelopes import make_model
    from cswalls.jsonio import dumps
    from cswalls.lattice import NumClass
    from cswalls.svg import render_svg
    from cswalls.walls import Window, chamber_decomposition, enumerate_walls

    v, model, window = NumClass(2, 3, 1), make_model("general", 2), Window(
        -4, 4, 1, 8)
    records = enumerate_walls(v, 2, window, 1, model)
    results = {
        ("walls", "enumerate_walls"): records,
        ("walls", "chamber_decomposition"): chamber_decomposition(
            v, records, window, model),
        ("jsonio", "dumps"): dumps(records),
        ("svg", "render_svg"): render_svg(records, window, None, model),
    }
    sizes = {(module, attr): size
             for module, attr, _, size in _perfbench_tracer().TARGETS
             if size is not None}
    assert set(sizes) == set(results)
    for target, size in sizes.items():
        assert size(results[target]) > 0, target


def test_project_version_matches_the_package():
    # the version is part of every cache key
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs 3.11")
    import cswalls

    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == cswalls.__version__


def _walls_imports(nodes) -> list:
    """Names that `from cswalls.walls import ...` brings in under `nodes`;
    a plain `import cswalls.walls` counts as the name "*"."""
    names = []
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.ImportFrom) and sub.module == "cswalls.walls":
                names += [alias.name for alias in sub.names]
            elif isinstance(sub, ast.Import):
                names += ["*" for alias in sub.names
                          if alias.name == "cswalls.walls"]
    return names


def test_oracles_import_only_public_walls_names():
    # the grid and chamber oracles check walls.py, so they must not share
    # its internals; the grid oracle imports nothing from it at all
    tests = SRC.parent / "tests"
    gridscan = ast.parse((tests / "gridscan.py").read_text())
    assert _walls_imports([gridscan]) == []
    # the chamber oracle: the module's imports plus every module-level
    # definition that its two tests reach by name
    tree = ast.parse((tests / "test_walls.py").read_text())
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets
                        if isinstance(t, ast.Name))
    reached = set()
    todo = ["test_chamber_oracle", "test_chamber_oracle_reports_golden_digest"]
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += [n.id for n in ast.walk(defs[name])
                     if isinstance(n, ast.Name)]
    assert {"_check_chamber_report", "_open_region_meets"} <= reached
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = _walls_imports(imports + [defs[name] for name in reached])
    assert names and not [n for n in names if n.startswith("_") or n == "*"]
