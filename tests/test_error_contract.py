"""The CLI's error contract under a seeded stream of mutated inputs.

Every run of ``predict``, ``evaluate`` or ``train`` on a damaged model file
or CSV either succeeds or returns 2 with exactly one ``mlme: error[<code>]``
line on stderr; nothing else reaches stderr but ``mlme:`` lines, and no
exception escapes ``cli.main``.
"""

import copy
import json

import numpy as np
import pytest

from mlme.cli import main

N_MODEL_MUTANTS = 150
N_CSV_MUTANTS = 100

# values a damaged file might hold where a number, list or object belongs
ODD_VALUES = [None, "x", "", -1, 0, 1, 2, 1e308, -1e308, True, [], {}, [1.0],
              [[1.0]], {"a": 1}, float("nan"), float("inf"), 10 ** 400]
ODD_CELLS = ["", " ", "abc", "nan", "inf", "-inf", "2", "-1", "0.5", "?",
             "1e999", "0x10", '"1"', "1;2", "é"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 30-row CSV (3 features, 2 labels) and a one-expert model trained on it."""
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    Y = np.column_stack([X[:, 0] > 0, X[:, 1] + X[:, 0] > 0]).astype(int)
    csv = root / "data.csv"
    csv.write_text("".join(
        ",".join([*(f"{v:.6g}" for v in x), *(str(v) for v in y)]) + "\n"
        for x, y in zip(X, Y)))
    model = root / "model.json"
    assert main(["train", "--data", str(csv), "--labels", "2", "--out",
                 str(model), "--max-experts", "1", "--lambda", "1"]) == 0
    return root, csv, model


def _paths(doc, path=()):
    """Every (container path, key) of a JSON document, depth first."""
    out = []
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        out.append((path, key))
        out.extend(_paths(value, path + (key,)))
    return out


def mutate_model_text(rng, text: str) -> str:
    kind = int(rng.integers(5))
    if kind == 0:                                  # truncated file
        return text[:int(rng.integers(len(text)))]
    if kind == 1:                                  # one character overwritten
        i = int(rng.integers(len(text)))
        return text[:i] + str(rng.choice(list('0-.e"[]{},:x '))) + text[i + 1:]
    doc = json.loads(text)
    paths = _paths(doc)
    container_path, key = paths[int(rng.integers(len(paths)))]
    container = doc
    for step in container_path:
        container = container[step]
    if kind == 2:                                  # an entry removed
        del container[key]
    elif kind == 3:                                # an entry of the wrong kind
        odd = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
        container[key] = copy.deepcopy(odd)
    elif isinstance(container, list):              # a list entry repeated
        container.insert(int(key), copy.deepcopy(container[key]))
    else:                                          # a number scaled up
        value = container[key]
        container[key] = value * 1e6 if type(value) in (int, float) else value
    return json.dumps(doc)


def mutate_csv_text(rng, text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    kind = int(rng.choice(6, p=[0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
    r = int(rng.integers(len(rows)))
    c = int(rng.integers(len(rows[r])))
    if kind == 0:                                  # one odd cell
        rows[r][c] = ODD_CELLS[int(rng.integers(len(ODD_CELLS)))]
    elif kind == 1:                                # a cell dropped
        del rows[r][c]
    elif kind == 2:                                # a cell added
        rows[r].insert(c, "0")
    elif kind == 3:                                # a truncated file
        return text[:int(rng.integers(len(text)))]
    elif kind == 4:                                # rows removed
        rows = rows[:r]
    else:                                          # a blank or comment line
        rows.insert(r, [str(rng.choice(["", "# note", "   "]))])
    return "".join(",".join(row) + "\n" for row in rows)


def _check_run(capsys, argv, label, failures, codes):
    try:
        code = main(argv)
    except BaseException as exc:                   # noqa: BLE001 - the contract
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
        capsys.readouterr()
        return
    codes.append(code)
    lines = capsys.readouterr().err.splitlines()
    errors = [line for line in lines if line.startswith("mlme: error[")]
    if any(not line.startswith("mlme: ") for line in lines):
        failures.append(f"{label}: stderr line outside the mlme: format: {lines}")
    elif code not in (0, 2) or len(errors) != (code == 2):
        failures.append(f"{label}: exit {code} with error lines {errors}")


def test_mutated_inputs_end_in_one_error_line(files, capsys):
    root, csv, model = files
    rng = np.random.default_rng(2024)
    good_model, good_csv = model.read_text(), csv.read_text()
    bad_model, bad_csv = root / "bad.json", root / "bad.csv"
    out = str(root / "out")
    failures: list[str] = []
    codes: list[int] = []
    for i in range(N_MODEL_MUTANTS):
        bad_model.write_text(mutate_model_text(rng, good_model))
        for argv in (["predict", "--model", bad_model, "--data", csv, "--out",
                      out],
                     ["evaluate", "--model", bad_model, "--data", csv,
                      "--labels", "2", "--out", out]):
            _check_run(capsys, [str(a) for a in argv], f"model mutant {i}",
                       failures, codes)
    for i in range(N_CSV_MUTANTS):
        bad_csv.write_text(mutate_csv_text(rng, good_csv))
        for argv in (["predict", "--model", model, "--data", bad_csv, "--out",
                      out],
                     ["evaluate", "--model", model, "--data", bad_csv,
                      "--labels", "2", "--out", out],
                     ["train", "--data", bad_csv, "--labels", "2", "--out", out,
                      "--max-experts", "1", "--lambda", "1"]):
            _check_run(capsys, [str(a) for a in argv], f"csv mutant {i}",
                       failures, codes)
    assert not failures, "\n".join(failures[:10])
    # the stream must exercise both outcomes, or it tests nothing
    assert 0.2 < codes.count(2) / len(codes) < 0.9, np.bincount(codes)
