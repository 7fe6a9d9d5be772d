import argparse
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_mixture, two_regime_dataset
from mlme.cli import _config, build_parser, main
from mlme.dataset import Dataset
from mlme.inference import AnnealConfig, predict_dataset
from mlme.model_io import (
    atomic_write_text,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from mlme.mixture import TrainConfig, grow_mixture


@pytest.fixture()
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 2))
    y0 = (X[:, 0] > 0).astype(int)
    data = Dataset.from_raw(X, np.column_stack([y0, (X[:, 1] > 0).astype(int)]))
    path = tmp_path / "toy.csv"
    data.save_csv(path)
    return path


def run(args):
    return main([str(a) for a in args])


class TestTrainPredict:
    def test_pipeline_writes_predictions(self, tmp_path, toy_csv):
        model_path = tmp_path / "model.json"
        preds_path = tmp_path / "preds.csv"
        assert run(["train", "--data", toy_csv, "--labels", 2,
                    "--out", model_path, "--max-experts", 1,
                    "--lambda", 0.5, "--seed", 1]) == 0
        # the model file is the only output; its meta holds the growth log
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.json", "toy.csv"]
        assert run(["predict", "--model", model_path, "--data", toy_csv,
                    "--out", preds_path]) == 0
        lines = preds_path.read_text().strip().splitlines()
        assert len(lines) == 20
        # d binary columns plus the log-probability column
        first = lines[0].split(",")
        assert len(first) == 3
        assert first[0] in "01" and first[1] in "01"
        assert float(first[2]) <= 0.0

    def test_uncertified_rows_warn_on_one_mlme_line(self, tmp_path, capsys):
        # a d=20, K=3 mixture on which 3 of these 100 rows need more search
        # nodes than the budget of 150 (tests/test_inference.py counts them)
        rng = np.random.default_rng(0)
        model = random_mixture(rng, k=3, d=20, m=10, scale=0.3)
        X = rng.normal(size=(100, 10))
        save_model(model, tmp_path / "m.json")
        np.savetxt(tmp_path / "x.csv", X, delimiter=",")
        capsys.readouterr()
        assert run(["predict", "--model", tmp_path / "m.json", "--data",
                    tmp_path / "x.csv", "--out", tmp_path / "p.csv"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "mlme: warning[uncertified-map] 3 row(s) ran out of the node budget "
            "of 150; their labels may not be the exact MAP"]

    def test_degenerate_label_warns_on_mlme_lines_only(self, tmp_path, capsys):
        # an all-zero label column makes fits with equal (or no effective)
        # targets; the run succeeds and stderr holds only mlme: lines
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        data = Dataset.from_raw(X, np.column_stack(
            [(X[:, 0] > 0).astype(int), np.zeros(40, dtype=int)]))
        path = tmp_path / "const.csv"
        data.save_csv(path)
        capsys.readouterr()
        assert run(["train", "--data", path, "--labels", 2, "--out",
                    tmp_path / "m.json", "--max-experts", 2]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines
        assert all(line.startswith("mlme: ") for line in lines)
        assert ("mlme: warning[degenerate-target] all effective targets are "
                "identical; fit is penalty-driven") in lines
        assert len(set(lines)) == len(lines)

    def test_predict_features_only_file(self, tmp_path, toy_csv):
        model_path = tmp_path / "model.json"
        run(["train", "--data", toy_csv, "--labels", 2, "--out", model_path,
             "--max-experts", 1, "--lambda", 0.5])
        feats_only = tmp_path / "feats.csv"
        rows = [line.split(",")[:2] for line in
                toy_csv.read_text().strip().splitlines()
                if not line.startswith("#")]
        feats_only.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "p.csv"
        assert run(["predict", "--model", model_path, "--data", feats_only,
                    "--out", out]) == 0
        assert len(out.read_text().strip().splitlines()) == 20

    @pytest.fixture()
    def unknown_label_csvs(self, tmp_path):
        """A d=2 model and one set of 40 rows with 0/1 labels and with '?' labels."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        labeled = tmp_path / "labeled.csv"
        Dataset.from_raw(X, (X[:, :2] > 0).astype(int)).save_csv(labeled)
        unknown = tmp_path / "unknown.csv"
        unknown.write_text("".join(
            ",".join(line.split(",")[:3] + ["?", "?"]) + "\n"
            for line in labeled.read_text().splitlines()
            if not line.startswith("#")))
        model_path = tmp_path / "model.json"
        assert run(["train", "--data", labeled, "--labels", 2, "--out", model_path,
                    "--max-experts", 2, "--lambda", 0.5]) == 0
        return model_path, labeled, unknown

    def test_predict_ignores_unknown_csv_labels(self, tmp_path, unknown_label_csvs):
        # predict never parses a CSV's label cells, as with an ARFF's
        model_path, labeled, unknown = unknown_label_csvs
        preds = {}
        for name, data in (("labeled", labeled), ("unknown", unknown)):
            preds[name] = tmp_path / f"{name}-preds.csv"
            assert run(["predict", "--model", model_path, "--data", data,
                        "--out", preds[name]]) == 0
        assert len(preds["unknown"].read_text().splitlines()) == 40
        assert preds["labeled"].read_bytes() == preds["unknown"].read_bytes()

    def test_evaluate_rejects_unknown_csv_labels(self, tmp_path, capsys,
                                                  unknown_label_csvs):
        model_path, _, unknown = unknown_label_csvs
        capsys.readouterr()
        rc = run(["evaluate", "--model", model_path, "--data", unknown,
                  "--labels", 2, "--out", tmp_path / "r.json"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "mlme: error[parse] row 1: could not parse value '?'\n")

    @pytest.mark.parametrize("fmt, width, labels", [
        ("csv", 5, ""),         # m + d + 1 cells, all read as features
        ("arff", 5, ",0,1"),
        ("csv", 1, ""),
        ("arff", 1, ",?,?"),    # unknown labels are dropped unparsed
    ], ids=["csv-wide", "arff-wide", "csv-narrow", "arff-unknown-labels-narrow"])
    def test_shape_mismatch_is_schema_error(self, tmp_path, toy_csv, capsys,
                                            fmt, width, labels):
        # both formats go through one reader, so one line reports both
        model_path = tmp_path / "model.json"
        run(["train", "--data", toy_csv, "--labels", 2, "--out", model_path,
             "--max-experts", 1, "--lambda", 0.5])
        capsys.readouterr()  # the training run's warning lines
        rows = [",".join(str(r + j / 4) for j in range(width)) + labels
                for r in range(2)]
        bad = tmp_path / f"bad.{fmt}"
        args = ["predict", "--model", model_path, "--data", bad,
                "--out", tmp_path / "p.csv"]
        if fmt == "arff":
            rows = ([f"@attribute f{j} numeric" for j in range(width)]
                    + ["@attribute L1 {0,1}", "@attribute L2 {0,1}", "@data"]
                    + rows)
            args += ["--label-names", "L1,L2"]
        bad.write_text("\n".join(rows) + "\n")
        assert run(args) == 2
        assert capsys.readouterr().err == (
            f"mlme: error[schema] model expects m=2 features but data has m={width}\n")

    @pytest.mark.parametrize("case, code", [
        ("model-without-experts", "schema"),
        ("model-header-disagrees", "schema"),
        ("model-truncated", "schema"),
        ("model-scale-zero", "schema"),
        ("cell-nan", "parse"),
        ("cell-inf", "parse"),
        ("cell-abc", "parse"),
        ("arff-label-2", "label"),
        ("arff-cell-nan", "parse"),
        ("arff-cell-inf", "parse"),
        ("arff-attribute-repeated", "schema"),
        ("arff-attribute-unterminated-quote", "schema"),
        ("arff-predict-attribute-unterminated-quote", "schema"),
        ("evaluate-data-other-d", "schema"),
        ("evaluate-data-other-m", "schema"),
        ("train-csv-without-labels", "argument"),
        ("cv-csv-without-labels", "argument"),
        ("binary-data", "io"),
        ("flag-lambda-grid-words", "argument"),
        ("flag-lambda-grid-overflow", "argument"),
        ("flag-lambda-inf", "argument"),
        ("flag-lambda-nan", "argument"),
        ("flag-lambda-gate-removed", "argument"),
        ("flag-em-tol-removed", "argument"),
        ("flag-holdout-ratio-removed", "argument"),
        ("flag-internal-test-ratio-removed", "argument"),
        ("flag-em-max-iters-zero", "argument"),
        ("flag-lambda-words", "argument"),
        ("flag-unknown", "argument"),
        ("flag-seed-negative", "argument"),
        ("predict-anneal-iters-fraction", "argument"),
        ("predict-seed-negative", "argument"),
        ("predict-anneal-iters-removed", "argument"),
        ("predict-seed-removed", "argument"),
        ("predict-no-logprob-removed", "argument"),
        ("train-without-data", "argument"),
        ("no-subcommand", "argument"),
        ("missing-data-train-seed-negative", "argument"),
        ("missing-data-cv-lambda-nan", "argument"),
        ("missing-data-cv-folds-one", "argument"),
        ("missing-data-cv-folds-zero", "argument"),
        ("missing-data-arff-label-names-empty", "argument"),
        ("missing-data-labels-and-label-names", "argument"),
        ("missing-model-predict-label-names-empty", "argument"),
        ("missing-data-arff-removed", "argument"),
        ("missing-model-predict-anneal-iters-zero", "argument"),
        ("missing-model-evaluate-seed-negative", "argument"),
        ("missing-model-evaluate-seed-removed", "argument"),
        ("missing-data-cv-anneal-iters-removed", "argument"),
    ])
    def test_malformed_input_is_one_error_line(self, tmp_path, toy_csv, capsys,
                                               case, code):
        model_path = tmp_path / "model.json"
        run(["train", "--data", toy_csv, "--labels", 2, "--out", model_path,
             "--max-experts", 1, "--lambda", 0.5])
        doc = json.loads(model_path.read_text())
        data = tmp_path / "feats.csv"
        data.write_text("0.5,1.0\n0.25,-1.0\n")
        args = ["predict", "--model", model_path, "--data", data]
        if case == "model-without-experts":
            del doc["experts"]
            model_path.write_text(json.dumps(doc))
        elif case == "model-header-disagrees":
            doc["k"] = 2
            model_path.write_text(json.dumps(doc))
        elif case == "model-scale-zero":
            doc["standardizer"]["scale"][0] = 0.0
            model_path.write_text(json.dumps(doc))
        elif case == "model-truncated":
            model_path.write_text(model_path.read_text()[:200])
        elif case.startswith("cell-"):
            data.write_text(f"0.5,1.0\n0.25,{case[5:]}\n")
        elif case == "binary-data":
            data.write_bytes(b"\xff\xfe\x00\x01")
        elif case.startswith("flag-"):
            flag = {"flag-lambda-grid-words": ["--lambda-grid", "a,b"],
                    "flag-lambda-grid-overflow": ["--lambda-grid", "1,1e400"],
                    "flag-lambda-inf": ["--lambda", "inf"],
                    "flag-lambda-nan": ["--lambda", "nan"],
                    # removed flags: a value that was once valid still fails
                    "flag-lambda-gate-removed": ["--lambda-gate", "0.5"],
                    "flag-em-tol-removed": ["--em-tol", "1e-4"],
                    "flag-holdout-ratio-removed": ["--holdout-ratio", "0.25"],
                    "flag-internal-test-ratio-removed":
                        ["--internal-test-ratio", "0.2"],
                    "flag-em-max-iters-zero": ["--em-max-iters", "0"],
                    "flag-lambda-words": ["--lambda", "abc"],
                    "flag-unknown": ["--no-such-flag"],
                    "flag-seed-negative": ["--seed", "-1"]}[case]
            args = ["train", "--data", toy_csv, "--labels", 2] + flag
        elif case.startswith("predict-"):
            # the search flags are gone: any value of them fails
            args += {"predict-anneal-iters-fraction": ["--anneal-iters", "1.5"],
                     "predict-seed-negative": ["--seed", "-1"],
                     "predict-anneal-iters-removed": ["--anneal-iters", "20"],
                     "predict-seed-removed": ["--seed", "0"],
                     "predict-no-logprob-removed": ["--no-logprob"]}[case]
        elif case.startswith("missing-"):
            # a bad flag is reported before any file is opened
            gone = tmp_path / "missing.json"
            cv = ["cv", "--data", gone, "--labels", 2]
            args = {"missing-data-train-seed-negative":
                        ["train", "--data", gone, "--labels", 2, "--seed", "-1"],
                    "missing-data-cv-lambda-nan": cv + ["--lambda", "nan"],
                    "missing-data-cv-folds-one": cv + ["--folds", "1"],
                    "missing-data-cv-folds-zero": cv + ["--folds", "0"],
                    "missing-data-arff-label-names-empty":
                        ["train", "--data", gone, "--label-names", ","],
                    # --label-names makes the data ARFF: it excludes
                    # --labels, and the old --arff flag is gone
                    "missing-data-labels-and-label-names":
                        ["evaluate", "--model", gone, "--data", gone,
                         "--labels", 2, "--label-names", "L1,L2"],
                    "missing-model-predict-label-names-empty":
                        ["predict", "--model", gone, "--data", gone,
                         "--label-names", ","],
                    "missing-data-arff-removed":
                        ["train", "--data", gone, "--arff",
                         "--label-names", "L1,L2"],
                    "missing-model-predict-anneal-iters-zero":
                        ["predict", "--model", gone, "--data", gone,
                         "--anneal-iters", "0"],
                    "missing-model-evaluate-seed-negative":
                        ["evaluate", "--model", gone, "--data", gone,
                         "--seed", "-1"],
                    "missing-model-evaluate-seed-removed":
                        ["evaluate", "--model", gone, "--data", gone,
                         "--seed", "0"],
                    "missing-data-cv-anneal-iters-removed":
                        cv + ["--anneal-iters", "20"]}[case]
        elif case == "arff-attribute-repeated":
            data = tmp_path / "bad.arff"
            data.write_text("@relation t\n@attribute f1 numeric\n@attribute L1 numeric\n"
                            "@attribute L1 numeric\n@data\n0.5,1,0\n")
            args = ["train", "--data", data, "--label-names", "L1"]
        elif "unterminated-quote" in case:
            data = tmp_path / "bad.arff"
            data.write_text("@relation t\n@attribute 'f1 numeric\n"
                            "@attribute L1 numeric\n@data\n0.5,1\n")
            args = (["predict", "--model", model_path] if "predict" in case
                    else ["train"]) + ["--data", data, "--label-names", "L1"]
        elif case.startswith("evaluate-data-other-"):
            # d=3 labels, or m=3 features, against the m=2, d=2 model
            data.write_text("0.5,1.0,0,1,1\n0.25,-1.0,1,0,0\n")
            labels = 3 if case.endswith("-d") else 2
            args = ["evaluate", "--model", model_path, "--data", data,
                    "--labels", labels]
        elif case.endswith("-csv-without-labels"):
            args = [case.split("-")[0], "--data", toy_csv]
        elif case == "train-without-data":
            args = ["train", "--labels", 2]
        elif case == "no-subcommand":
            args = []
        else:
            bad_row = {"arff-label-2": "0.5,2", "arff-cell-nan": "nan,1",
                       "arff-cell-inf": "-inf,0"}[case]
            data = tmp_path / "bad.arff"
            data.write_text("@relation t\n@attribute f1 numeric\n"
                            f"@attribute L1 numeric\n@data\n0.5,1\n{bad_row}\n")
            args = ["train", "--data", data, "--label-names", "L1"]
        capsys.readouterr()
        # pytest would swallow a RuntimeWarning line printed before the error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(args + ["--out", tmp_path / "out"]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith(f"mlme: error[{code}]")
        if code == "parse":
            assert "row 2" in err
        if case.endswith("-removed"):
            assert "unrecognized arguments" in err
        message = {
            "arff-attribute-unterminated-quote":
                "malformed attribute line: @attribute 'f1 numeric",
            "evaluate-data-other-d":
                "model (m=2, d=2) does not match data (m=2, d=3)",
            "evaluate-data-other-m":
                "model (m=2, d=2) does not match data (m=3, d=2)",
            "train-csv-without-labels":
                "--labels is required for CSV data"}.get(case)
        if message is not None:
            assert err == f"mlme: error[{code}] {message}\n"
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["-h"], ["train", "--help"]])
    def test_help_still_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mlme")

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d.csv", "--out", "m.json"],
        ["cv", "--data", "d.csv", "--out", "r.json"],
        ["predict", "--model", "m.json", "--data", "d.csv", "--out", "p.csv"],
        ["evaluate", "--model", "m.json", "--data", "d.csv", "--out", "r.json"],
    ])
    def test_absent_flags_keep_library_defaults(self, argv):
        args = build_parser().parse_args(argv)
        if argv[0] in ("train", "cv"):
            assert _config(TrainConfig, args) == TrainConfig(seed=0)
        else:
            # predict and evaluate take no search settings
            assert not {f.name for f in dataclasses.fields(AnnealConfig)} & set(
                vars(args))

    def test_every_flag_reaches_its_config_field(self):
        args = build_parser().parse_args([
            "cv", "--data", "d.csv", "--out", "r.json", "--max-experts", "3",
            "--lambda", "0.5", "--lambda-grid", "0.1,,2", "--em-max-iters", "7",
            "--seed", "4"])
        assert _config(TrainConfig, args) == TrainConfig(
            max_experts=3, lam=0.5, lambda_grid=(0.1, 2.0), em_max_iters=7, seed=4)

    def test_every_dest_is_a_config_field_or_cli_only(self):
        # _config drops a flag that names no field, so a flag must name one
        # or be read by the command itself
        cli_only = {"help", "data", "labels", "label_names", "model",
                    "out", "folds", "no_standardize"}
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == ["cv", "evaluate", "predict", "train"]
        for name, parser in sub.choices.items():
            for action in parser._actions:
                assert action.dest in fields | cli_only, (name, action.dest)

    def test_missing_file_reports_io_error(self, tmp_path, capsys):
        rc = run(["predict", "--model", tmp_path / "nope.json",
                  "--data", tmp_path / "nope.csv", "--out", tmp_path / "p.csv"])
        assert rc == 2
        assert "error[" in capsys.readouterr().err


class TestDeterminism:
    def test_train_twice_byte_identical(self, tmp_path, toy_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(["train", "--data", toy_csv, "--labels", 2, "--out", out,
                 "--max-experts", 2, "--lambda", 0.5, "--seed", 3])
        assert a.read_bytes() == b.read_bytes()

    def test_predict_twice_byte_identical(self, tmp_path, toy_csv):
        model_path = tmp_path / "model.json"
        run(["train", "--data", toy_csv, "--labels", 2, "--out", model_path,
             "--max-experts", 1, "--lambda", 0.5])
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for out in (p1, p2):
            run(["predict", "--model", model_path, "--data", toy_csv,
                 "--out", out])
        assert p1.read_bytes() == p2.read_bytes()

    def test_blas_thread_count_keeps_trees_k_lambda_and_labels(self, tmp_path):
        # bytes are fixed for one BLAS thread count; across counts the
        # gradient product may round differently, but the model's trees, K
        # and lambda, and the predicted labels, must agree
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 30))
        Y = (X[:, :5] + 0.5 * X[:, 5:10] + rng.normal(size=(300, 5)) > 0).astype(int)
        Y[X[:, 10] > 0, 1:] = Y[X[:, 10] > 0, :1]
        data_path = tmp_path / "data.csv"
        Dataset.from_raw(X, Y).save_csv(data_path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        results = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            model_path = tmp_path / f"model{threads}.json"
            preds_path = tmp_path / f"preds{threads}.csv"
            for args in (["train", "--data", data_path, "--labels", 5, "--out", model_path,
                          "--max-experts", 2, "--seed", 3],
                         ["predict", "--model", model_path, "--data", data_path,
                          "--out", preds_path]):
                done = subprocess.run([sys.executable, "-m", "mlme.cli", *map(str, args)],
                                      capture_output=True, text=True, env=env, timeout=300)
                assert done.returncode == 0, done.stderr
            doc = json.loads(model_path.read_text())
            labels = [line.rsplit(",", 1)[0]
                      for line in preds_path.read_text().splitlines()]
            results.append((doc["k"], doc["meta"]["lambda"],
                            [e["parent"] for e in doc["experts"]], labels))
        assert len(results[0][3]) == 300
        assert results[0] == results[1]

    def test_saved_model_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(1)
        data = two_regime_dataset(rng, n=80)
        model = grow_mixture(data, TrainConfig(max_experts=2, lam=0.3, seed=5))
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded, scaler = load_model(path)
        assert scaler is None
        # identical parameters and identical predictions, bit for bit
        np.testing.assert_array_equal(loaded.gating.theta, model.gating.theta)
        for ea, eb in zip(loaded.experts, model.experts):
            assert ea.structure.parent == eb.structure.parent
            for ca, cb in zip(ea.cpds, eb.cpds):
                for ma, mb in zip(ca, cb):
                    np.testing.assert_array_equal(ma.params, mb.params)
                    assert ma.lam == mb.lam
        cfg = AnnealConfig(iterations=30, seed=2)
        pa, la = predict_dataset(model, data.features, cfg)
        pb, lb = predict_dataset(loaded, data.features, cfg)
        np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(la, lb)
        # and a re-save of the loaded model is byte-identical
        path2 = tmp_path / "m2.json"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_model_with_optimizer_block_still_predicts(self):
        # model files once carried the L-BFGS settings, the gate's λ, both
        # split ratios and the EM tolerance in meta
        rng = np.random.default_rng(2)
        data = two_regime_dataset(rng, n=60)
        doc = model_to_dict(grow_mixture(data, TrainConfig(max_experts=2, lam=0.3,
                                                           seed=4)))
        old = json.loads(json.dumps(doc))
        old["meta"]["config"]["optimizer"] = {
            "max_iterations": 500, "gradient_tolerance": 1e-6, "memory": 10}
        old["meta"]["lambda_gate"] = old["meta"]["lambda"]
        old["meta"]["config"].update(lambda_gate=None, holdout_ratio=0.25,
                                     internal_test_ratio=0.2, em_tol=1e-5)
        cfg = AnnealConfig(iterations=30, seed=6)
        outputs = []
        for d in (doc, old):
            model, _ = model_from_dict(d)
            preds, logps = predict_dataset(model, data.features, cfg)
            outputs.append((preds.tobytes(), logps.tobytes()))
        assert outputs[0] == outputs[1]


def test_atomic_write_failure_keeps_target_and_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "\ud800")  # a lone surrogate cannot be encoded
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestEvaluateAndCv:
    def test_evaluate_writes_report(self, tmp_path, toy_csv):
        model_path = tmp_path / "model.json"
        run(["train", "--data", toy_csv, "--labels", 2, "--out", model_path,
             "--max-experts", 1, "--lambda", 0.5])
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--model", model_path, "--data", toy_csv,
                    "--labels", 2, "--out", report_path]) == 0
        doc = json.loads(report_path.read_text())
        assert not {"anneal_iterations", "seed"} & doc["config"].keys()
        fold = doc["per_fold"][0]
        assert 0.0 <= fold["ema"] <= 1.0
        assert fold["cll_loss"] >= 0.0

    def test_cv_smoke(self, tmp_path, toy_csv):
        report_path = tmp_path / "cv.json"
        assert run(["cv", "--data", toy_csv, "--labels", 2, "--folds", 2,
                    "--out", report_path, "--max-experts", 1,
                    "--lambda", 0.5, "--seed", 0]) == 0
        doc = json.loads(report_path.read_text())
        assert len(doc["per_fold"]) == 2
        assert "ema" in doc["aggregate"]

    def test_cv_deterministic_modulo_wall_time(self, tmp_path, toy_csv):
        docs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run(["cv", "--data", toy_csv, "--labels", 2, "--folds", 2,
                 "--out", out, "--max-experts", 1, "--lambda", 0.5,
                 "--seed", 0])
            doc = json.loads(out.read_text())
            for fold in doc["per_fold"]:
                fold.pop("wall_time")
            doc["aggregate"].pop("wall_time")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


class TestArffCli:
    @pytest.fixture()
    def toy_arff(self, tmp_path):
        rng = np.random.default_rng(2)
        lines = ["@relation toy", "@attribute f1 numeric",
                 "@attribute f2 numeric", "@attribute L1 {0,1}",
                 "@attribute L2 {0,1}", "@data"]
        for _ in range(16):
            x1, x2 = rng.normal(), rng.normal()
            lines.append(f"{x1},{x2},{int(x1 > 0)},{int(x2 > 0)}")
        path = tmp_path / "toy.arff"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_train_from_arff(self, tmp_path, toy_arff):
        model_path = tmp_path / "m.json"
        assert run(["train", "--data", toy_arff,
                    "--label-names", "L1,L2", "--out", model_path,
                    "--max-experts", 1, "--lambda", 0.5]) == 0
        model, _ = load_model(model_path)
        assert model.d == 2 and model.n_features == 3

    def test_predict_and_evaluate_from_arff(self, tmp_path, toy_arff):
        model_path = tmp_path / "m.json"
        run(["train", "--data", toy_arff, "--label-names", "L1,L2",
             "--out", model_path, "--max-experts", 1, "--lambda", 0.5])
        preds = tmp_path / "p.csv"
        assert run(["predict", "--model", model_path, "--data", toy_arff,
                    "--label-names", "L1,L2", "--out", preds]) == 0
        assert len(preds.read_text().strip().splitlines()) == 16
        report = tmp_path / "r.json"
        assert run(["evaluate", "--model", model_path, "--data", toy_arff,
                    "--label-names", "L1,L2", "--out", report]) == 0
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["per_fold"][0]["ema"] <= 1.0

    def test_predict_reads_unlabeled_arff(self, tmp_path, toy_arff, capsys):
        # test sets ship with '?' label cells: predict never parses them,
        # and gives the same rows as on the labeled file
        model_path = tmp_path / "m.json"
        run(["train", "--data", toy_arff, "--label-names", "L1,L2",
             "--out", model_path, "--max-experts", 1, "--lambda", 0.5])
        lines = toy_arff.read_text().splitlines()
        at = lines.index("@data") + 1
        unlabeled = tmp_path / "unlabeled.arff"
        unlabeled.write_text("\n".join(
            lines[:at] + [",".join(row.split(",")[:2] + ["?", "?"])
                          for row in lines[at:]]) + "\n")
        preds = {}
        for name, data in (("labeled", toy_arff), ("unlabeled", unlabeled)):
            preds[name] = tmp_path / f"{name}.csv"
            assert run(["predict", "--model", model_path, "--data", data,
                        "--label-names", "L1,L2",
                        "--out", preds[name]]) == 0
        assert preds["labeled"].read_bytes() == preds["unlabeled"].read_bytes()
        capsys.readouterr()
        rc = run(["evaluate", "--model", model_path, "--data", unlabeled,
                  "--label-names", "L1,L2", "--out", tmp_path / "r.json"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "mlme: error[parse] row 1: could not parse value '?'\n")

    def test_repeated_label_name_is_schema_error(self, tmp_path, toy_arff,
                                                 capsys):
        rc = run(["train", "--data", toy_arff, "--label-names",
                  "L1,L2,L1", "--out", tmp_path / "m.json"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "mlme: error[schema] repeated label attribute(s): L1\n"
        assert not (tmp_path / "m.json").exists()

    def test_predict_arff_without_label_names_errors(self, tmp_path, toy_arff,
                                                     capsys):
        model_path = tmp_path / "m.json"
        run(["train", "--data", toy_arff, "--label-names", "L1,L2",
             "--out", model_path, "--max-experts", 1, "--lambda", 0.5])
        capsys.readouterr()
        # --label-names is what makes a file ARFF: without it the file is
        # CSV, and its header is no number; the old --arff flag is gone
        for flags, err in (([], "error[parse] row 1: could not parse value "
                                "'@relation toy'"),
                           (["--arff"], "error[argument] unrecognized "
                                        "arguments: --arff")):
            rc = run(["predict", "--model", model_path, "--data", toy_arff,
                      *flags, "--out", tmp_path / "p.csv"])
            assert rc == 2
            assert capsys.readouterr().err == f"mlme: {err}\n"


@pytest.mark.parametrize("case, code", [
    ("feature-abc", "parse"),
    ("feature-nan", "parse"),
    ("label-2", "label"),
    ("label-nan", "parse"),
    ("label-abc", "parse"),
    ("ragged-row", "schema"),
    ("labels-only", "schema"),
])
def test_csv_and_arff_reject_a_bad_table_alike(tmp_path, capsys, case, code):
    """One bad table, written as CSV and as ARFF, gives one error line."""
    names = ["f1", "L1", "L2"]
    rows = [["0.5", "1", "0"], ["-1.5", "0", "1"], ["2.0", "1", "1"]]
    if case == "labels-only":
        names, rows = names[1:], [r[1:] for r in rows]
    elif case == "ragged-row":
        rows[1].append("0")
    else:
        col = {"feature": 0, "label": 2 if case == "label-2" else 1}
        rows[1][col[case.split("-")[0]]] = case.split("-")[1]
    body = "".join(",".join(r) + "\n" for r in rows)
    csv, arff = tmp_path / "bad.csv", tmp_path / "bad.arff"
    csv.write_text(body)
    arff.write_text("@relation t\n" + "".join(
        f"@attribute {n} {'numeric' if n[0] == 'f' else '{0,1}'}\n"
        for n in names) + "@data\n" + body)
    errors = []
    for data in (["--data", csv, "--labels", 2],
                 ["--data", arff, "--label-names", "L1,L2"]):
        rc = run(["train", *data, "--max-experts", 1, "--lambda", 0.5,
                  "--out", tmp_path / "m.json"])
        errors.append((rc, capsys.readouterr().err))
    assert errors[0] == errors[1]
    rc, err = errors[0]
    assert rc == 2 and err.startswith(f"mlme: error[{code}] row ")
    assert len(err.strip().splitlines()) == 1
