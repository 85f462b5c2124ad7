import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import salad
import salad.checks  # noqa: F401  (imported before the tracer patches module attributes)
import salad.cli
import salad.runner  # noqa: F401
import salad.workload  # noqa: F401
from test_bench_targets import PERFBENCH, RETIRED_TARGETS, load_tracer_module, salad_names_used

PACKAGE = Path(salad.__file__).parent


def test_package_imports_only_numpy_and_the_standard_library():
    """At runtime the package needs numpy and nothing else."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


#: Definitions no production path reaches, each with the reason it stays.
UNREACHED_ALLOWED = {
    "tensor_io.mask_to_bytes": "the write half of the documented SMSK codec; tests fuzz it "
                               "against conftest.loop_mask_to_bytes and write plans with it",
}


def names_in(tree) -> Counter:
    """How often each identifier is read as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def definitions(tree):
    """("qualified.name", node) of each top-level function and class, and of
    each method other than the dunders Python calls by itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def registered_check(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_check"
               for d in node.decorator_list)


def test_every_definition_is_reached_from_the_package_or_the_benchmark():
    """Each top-level function, class and method of the package is named by
    other package code, exported in ``salad.__all__``, named by the
    benchmark (a tracer target or a name its in-process worker takes), or
    registered as an oracle by ``@_check``. Code that only tests call
    belongs under tests/."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    named = sum((names_in(tree) for tree in trees.values()), Counter())
    bench = set(load_tracer_module().TARGETS)
    bench |= {f"{module.removeprefix('salad.')}.{name}"
              for module, name in salad_names_used(PERFBENCH / "api_worker.py")}
    unreached = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if (named[node.name] > names_in(node)[node.name] or node.name in salad.__all__
                    or f"{module}.{node.name}" in bench or registered_check(node)):
                continue
            unreached.append(f"{module}.{qualname}")
    assert len(UNREACHED_ALLOWED) <= 5
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)


def test_cli_runs_reach_every_tracer_target_but_the_dense_paths(tmp_path, capsys):
    """``gen``, a window ``run`` on that workload, a top-k ``run`` with the
    in-run gradcheck, a calibrate ``run`` and ``check --only determinism``,
    traced in this process, record a span for every tracer target except
    the retired dense paths, so no per-layer metric built on the others
    reads 0."""
    grid = ["--set", "layers=2", "--set", "timesteps=2", "--set", "grid.frames=2",
            "--set", "grid.height=2", "--set", "grid.width=2", "--set", "grid.heads=2",
            "--set", "grid.head_dim=4", "--set", "mask.radius=2", "--set", "mask.block_size=2",
            "--set", "mask.k=2"]
    commands = [
        ["gen", "--out", str(tmp_path / "w")],
        ["run", "--out", str(tmp_path / "window"), "--set", f'workload_dir="{tmp_path / "w"}"'],
        ["run", "--out", str(tmp_path / "topk"), "--set", "mask.kind=topk",
         "--set", "checks.gradcheck_in_run=true"],
        ["run", "--out", str(tmp_path / "calibrate"), "--set", "mask.kind=calibrate"],
        ["check", "--only", "determinism"],
    ]
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [salad.cli.main([*command, *grid]) for command in commands]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands), capsys.readouterr().err
    assert tracer.missing == RETIRED_TARGETS
    reached = {span[1] for span in tracer.spans}
    assert set(tracer_module.TARGETS) - reached == set(RETIRED_TARGETS)


def test_every_export_resolves():
    """``from salad import *`` raises on a name in ``__all__`` that the
    package no longer defines."""
    exec("from salad import *", {})


def test_import_salad_loads_no_pipeline_module():
    """``import salad`` loads the block and its parts, not the oracle suite,
    the runner, the config, the workload or the CLI: re-exporting the
    references from ``checks`` would add their import to every set-up."""
    heavy = ["salad.checks", "salad.runner", "salad.config", "salad.workload", "salad.cli"]
    code = f"import sys, salad; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"
