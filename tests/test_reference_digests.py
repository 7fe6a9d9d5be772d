"""Committed reference outputs of the CLI on two fixed inputs.

Each input in tests/reference/ goes through ``train``, ``predict``,
``evaluate`` and ``cv`` in one subprocess at one BLAS thread; the reports'
wall-clock fields are left out.  Where numpy's version, its BLAS and the
SIMD set equal those recorded in reference/digests.json, every output must
keep its sha256.  Elsewhere the bits may move, so the outputs are compared
as trees: trees, K, λ, labels and every other non-float value exactly, and
the other numbers to REL_TOL and ABS_TOL (math.isclose).  With numpy's
AVX-512 dispatch switched off (NPY_DISABLE_CPU_FEATURES) every output
changed its bytes, and no number moved by more than 1.2e-10 relative.

A change that alters an output on purpose rewrites the file with
``python tests/test_reference_digests.py --update`` and says why.
"""

import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
REFERENCE = REFERENCE_DIR / "digests.json"
SRC = HERE.parent / "src"

REL_TOL = 1e-6
ABS_TOL = 1e-9

# input -> label count and the training flags of its train and cv runs
CASES = {
    "regimes": (4, []),   # library defaults: λ from the grid, up to 5 experts
    "chain": (3, ["--max-experts", "2", "--lambda", "0.3", "--em-max-iters", "8",
                  "--seed", "3", "--no-standardize"]),
}
COMMANDS = ("train", "predict", "evaluate", "cv")

_RUNNER = ("import json, sys\n"
           "from mlme.cli import main\n"
           "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))\n")


def _environment() -> dict:
    """What an output's bits depend on besides the code: numpy, BLAS, SIMD."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}


def _argv(name: str) -> list[list[str]]:
    labels, flags = CASES[name]
    data = ["--data", f"{name}.csv", "--labels", str(labels)]
    model = f"{name}-model.json"
    return [
        ["train", *data, *flags, "--out", model],
        ["predict", "--model", model, "--data", f"{name}.csv",
         "--out", f"{name}-predict.csv"],
        ["evaluate", "--model", model, *data, "--out", f"{name}-evaluate.json"],
        ["cv", *data, *flags, "--folds", "3", "--out", f"{name}-cv.json"],
    ]


def _without_wall_time(doc):
    if isinstance(doc, dict):
        return {k: _without_wall_time(v) for k, v in doc.items() if k != "wall_time"}
    if isinstance(doc, list):
        return [_without_wall_time(v) for v in doc]
    return doc


def _read(path: Path, command: str):
    """(the bytes digested, the parsed output) of one command's output file."""
    if command == "predict":
        raw = path.read_bytes()
        rows = [line.split(",") for line in raw.decode().splitlines()]
        return raw, [[int(v) for v in row[:-1]] + [float(row[-1])] for row in rows]
    doc = json.loads(path.read_text())
    if command == "train":
        return path.read_bytes(), doc
    doc = _without_wall_time(doc)
    return json.dumps(doc, indent=2, sort_keys=True).encode(), doc


def run_cases(workdir: Path) -> dict:
    """input -> {"sha256": {command: hex}, "outputs": {command: parsed}}."""
    for name in CASES:
        shutil.copy(REFERENCE_DIR / f"{name}.csv", workdir)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    argv = [a for name in CASES for a in _argv(name)]
    done = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argv)],
                          cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    result = {}
    for name in CASES:
        entry = result[name] = {"sha256": {}, "outputs": {}}
        for command, args in zip(COMMANDS, _argv(name)):
            raw, doc = _read(workdir / args[-1], command)
            entry["sha256"][command] = hashlib.sha256(raw).hexdigest()
            entry["outputs"][command] = doc
    return result


def differences(want, got, path: str = "$") -> list[str]:
    """Where ``got`` departs from ``want`` beyond the stated tolerance.

    Floats may differ by REL_TOL/ABS_TOL, except λ (any key "lambda");
    everything else (trees, K, labels, flags) must be equal.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, f"{path}[{i}]")]
    if type(want) is not type(got):
        return [f"{path}: {want!r} != {got!r}"]
    if type(want) is float and not path.endswith(".lambda"):
        close = math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    else:
        close = want == got
    return [] if close else [f"{path}: {want!r} != {got!r}"]


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("digests"))


def test_outputs_match_the_reference(reference, current):
    if reference["environment"] == _environment():
        got = {name: current[name]["sha256"] for name in current}
        want = {name: reference["inputs"][name]["sha256"] for name in current}
        assert got == want
    else:
        found = differences({n: e["outputs"] for n, e in reference["inputs"].items()},
                            {n: e["outputs"] for n, e in current.items()})
        assert not found, "\n".join(found[:20])


def _first_float(doc):
    """Path (list of keys) to the first float not under a "lambda" key."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if type(value) is float and key != "lambda":
            return [key]
        if isinstance(value, (dict, list)):
            found = _first_float(value)
            if found is not None:
                return [key, *found]
    return None


# (output, path into it, change, whether the tree comparison must catch it)
MUTATIONS = {
    "number within tolerance": ("cv", None, lambda v: v * (1 + REL_TOL / 10), False),
    "number beyond tolerance": ("cv", None, lambda v: v * (1 + 10 * REL_TOL)
                                + 10 * ABS_TOL, True),
    "lambda by one ulp": ("train", ["meta", "lambda"],
                          lambda v: math.nextafter(v, math.inf), True),
    "label flipped": ("predict", [0, 0], lambda v: 1 - v, True),
    "tree changed": ("train", ["experts", 0, "parent"], lambda p: [None] * len(p), True),
    "expert count": ("train", ["k"], lambda k: k + 1, True),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_tree_comparison(reference, mutation):
    # the comparison used where the environment differs from the recorded one
    output, path, change, caught = MUTATIONS[mutation]
    want = reference["inputs"]["chain"]["outputs"]
    got = copy.deepcopy(want)
    target = got[output]
    path = path or _first_float(target)
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = change(target[path[-1]])
    assert bool(differences(want, got)) == caught


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_reference_digests.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": _environment(), "inputs": run_cases(Path(tmp))}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
