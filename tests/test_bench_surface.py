"""The surface of mlme that bench/ and the README rely on.

The benchmark scripts wrap functions by (module, name), import the program
as a library and call it by ``mlme.<module>.<name>``, and the README shows a
library example; a rename or removal in src/ that breaks any of them must
fail here, not in a benchmark run.
The bench files are only read and imported, never changed.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlme

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _assigned_literal(path: Path, name: str):
    """The literal value bound to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} binds no {name}")


def _mlme_names(path: Path) -> list[str]:
    """Every ``mlme.<...>`` name that ``path`` reads or imports from mlme."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "mlme"):
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "mlme":
                names.add(".".join(["mlme", *reversed(parts)]))
    # mlme.ctbn.exact_map covers mlme.ctbn
    return sorted(n for n in names
                  if not any(m.startswith(n + ".") for m in names))


TRACED = _assigned_literal(BENCH / "tracing.py", "TRACED_FUNCTIONS")
USED = [(f, n) for f in ("workloads.py", "generators.py")
        for n in _mlme_names(BENCH / f)]
MINIMIZE_COUNTERS = _assigned_literal(BENCH / "tracing.py", "MINIMIZE_COUNTERS")


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _ in TRACED],
                         ids=[f"{m}.{f}" for m, f, _ in TRACED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(getattr(mlme, module), function))


@pytest.mark.parametrize("module", sorted(MINIMIZE_COUNTERS))
def test_counted_minimize_resolves(module):
    assert callable(getattr(mlme, module).minimize)


@pytest.mark.parametrize("path, name", USED, ids=[n for _, n in USED])
def test_bench_name_resolves(path, name):
    # a name read only inside a bench check would otherwise fail in a run
    target = mlme
    for part in name.split(".")[1:]:
        assert hasattr(target, part), f"bench/{path} uses {name}"
        target = getattr(target, part)


def test_bench_names_cover_the_checks():
    assert {"mlme.mixture.mixture_log_prob", "mlme.inference.enumerate_map",
            "mlme.ctbn.exact_map", "mlme.mixture.instance_log_probs",
            "mlme.ctbn.TreeStructure"} <= {n for _, n in USED}


def test_bench_modules_import_and_tracer_installs():
    # bench/ imports its helpers by top-level name; a fresh interpreter
    # keeps them out of this process's modules
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
        "import mlme, generators, workloads, tracing\n"
        f"assert mlme.__file__.startswith({str(ROOT / 'src')!r}), mlme.__file__\n"
        "restore = tracing.install(tracing.Tracer(), mlme)\n"
        "restore()\n"
        "print(sorted(workloads.WORKLOADS))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "emotions-train" in done.stdout


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    Y = (X @ rng.normal(size=(3, 6)) + rng.normal(size=(60, 6)) > 0)
    np.savetxt(tmp_path / "emotions.csv", np.hstack([X, Y]), delimiter=",",
               fmt="%g")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["model"].d == 6
    assert scope["y"].shape == (6,) and np.isfinite(scope["logp"])
