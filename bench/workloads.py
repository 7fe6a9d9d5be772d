"""The benchmark workloads: their inputs, timed phases and output checks.

A run is a closed loop with one caller in one process.  It repeats a
round of operations, each timed on its own, until its seconds are spent:

* set-up: ingest the input files as a user would (``load_csv`` and
  feature standardisation);
* model: every ``model_every`` rounds, ``grow_mixture`` on the training
  file; the predict-only workload loads its saved mixture with
  ``load_model`` instead, since it trains nothing;
* predict: one batch ``predict_dataset`` call over a chunk of held-out
  rows, then ``map_predict`` on another chunk, one row at a time.

Each round takes fresh held-out rows, and two of them go through both
paths.  The first ``MIN_ROUNDS`` rounds always run; their rows give the
quality figures, so those do not depend on the machine's speed.

Every model operation of a run works on the same files, so each must give
the same model, and a row predicted twice must get the same answer; the
checks below hold the outputs to that and to the program's guarantees.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import mlme
from mlme.inference import AnnealConfig

import generators
from speed import SpeedMeter

SCORE_TOL = 1e-9      # absolute tolerance when comparing log-probabilities
EM_DROP_TOL = 1e-6    # the program's own EM monotonicity tolerance
CLL_ROWS = 6000       # with 600 rows the held-out CLL moved 25% between seeds
MIN_ROUNDS = 6        # rounds made whatever the time
BATCH_CHUNK = 20      # rows per predict_dataset call
SINGLE_CHUNK = 40     # rows per round through map_predict
# load_model calls timed as one model op of the predict-only workload: a
# load takes ~2 ms, and single loads fall into a fast and a slow group
# whose mix moves the median from run to run more than it moves the mean
LOADS_PER_OP = 20


@dataclass(frozen=True)
class Inputs:
    d: int
    heldout_csv: Path
    # (rng, n) -> Dataset of n raw rows for the held-out CLL; drawn after the
    # timed loop, so their memory stays out of the peak RSS
    sample_cll: Callable[[np.random.Generator, int], object]
    train_csv: Optional[Path] = None
    model_json: Optional[Path] = None
    reference_model: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[np.random.Generator, Path], Inputs]
    train_config: object = None     # None: the model is loaded, not trained
    model_every: int = 1            # a model op every this many rounds
    expected_k: int = 1             # the number of experts the model must have


def _write(dataset, path: Path) -> Path:
    dataset.save_csv(path)
    return path


def _emotions_train_inputs(rng, workdir: Path) -> Inputs:
    train = generators.regime_dataset(rng, 593)
    heldout = generators.regime_dataset(rng, 1000)
    return Inputs(d=generators.EMOTIONS_D,
                  train_csv=_write(train, workdir / "train.csv"),
                  heldout_csv=_write(heldout, workdir / "heldout.csv"),
                  sample_cll=generators.regime_dataset)


def _scene_wide_inputs(rng, workdir: Path) -> Inputs:
    source = generators.WideTreeSource(rng)
    train = source.sample(rng, 2400)
    heldout = source.sample(rng, 600)
    return Inputs(d=generators.SCENE_D,
                  train_csv=_write(train, workdir / "train.csv"),
                  heldout_csv=_write(heldout, workdir / "heldout.csv"),
                  sample_cll=source.sample)


def _emotions_predict_inputs(rng, workdir: Path) -> Inputs:
    model = generators.fixed_mixture(rng)
    heldout = generators.sample_mixture(rng, model, 1000)
    path = workdir / "model.json"
    mlme.model_io.save_model(model, path)
    return Inputs(d=generators.EMOTIONS_D,
                  heldout_csv=_write(heldout, workdir / "heldout.csv"),
                  sample_cll=lambda rng, n: generators.sample_mixture(rng, model, n),
                  model_json=path, reference_model=model)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="emotions-train",
            make_inputs=_emotions_train_inputs,
            # Both caps keep the work of a fit the same for every seed.  With
            # max_experts=3 the third round was accepted on about half of the
            # seeds, which moved training and per-row predict time by 30-50%;
            # unbounded EM ran 30 to 100 iterations per round.
            train_config=mlme.TrainConfig(max_experts=2, em_max_iters=12),
            expected_k=2,
        ),
        Workload(
            name="scene-wide",
            make_inputs=_scene_wide_inputs,
            train_config=mlme.TrainConfig(max_experts=1, lam=1.0),
            # a fit takes ~7 s; training in every round would leave the
            # single-row calls only three short windows of the run
            model_every=5,
        ),
        Workload(
            name="emotions-predict",
            make_inputs=_emotions_predict_inputs,
            expected_k=3,
        ),
    )
}


class Recorder:
    """Times operations, counts attempts and failures, collects check failures."""

    def __init__(self, meter: SpeedMeter, tracer=None):
        self.meter = meter
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # kind -> [(start, end, traced)]
        self.timings: dict[str, list[tuple[float, float, bool]]] = {}

    def op(self, kind: str, fn, traced: bool = True):
        """Run one operation; returns its result, or None if it raised."""
        traced = traced and self.tracer is not None
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn()
            else:
                with self.tracer.op(kind, traced):
                    result = fn()
        except Exception:   # a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.timings.setdefault(kind, []).append(
            (start, time.perf_counter(), traced))
        return result

    def times(self, kind: str, traced=None, scaled=True) -> list[float]:
        """Durations of one kind of operation, at reference speed if scaled."""
        return [self.meter.scaled(start, end) if scaled else end - start
                for start, end, was_traced in self.timings.get(kind, [])
                if traced is None or was_traced == traced]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _model_json(model) -> str:
    return json.dumps(mlme.model_io.model_to_dict(model), sort_keys=True)


def _ingest(inputs: Inputs):
    heldout = mlme.dataset.load_csv(inputs.heldout_csv, inputs.d)
    if inputs.train_csv is None:
        return None, heldout, None
    train = mlme.dataset.load_csv(inputs.train_csv, inputs.d)
    scaler = mlme.Standardizer.fit(train)
    return scaler.transform(train), scaler.transform(heldout), scaler


def _estimate(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


@dataclass
class RunResult:
    rec: Recorder
    model: object = None
    quality: dict = field(default_factory=dict)
    model_bytes: int = 0
    peak_rss_mb: float = 0.0    # at the end of the timed loop
    scaler: object = None
    heldout: object = None
    quality_rows: int = 0
    batch_preds: dict = field(default_factory=dict)     # row -> (labels, log-prob)
    single_preds: dict = field(default_factory=dict)


def run(workload: Workload, seed: int, seconds: float, workdir: Path,
        tracer=None) -> RunResult:
    inputs = workload.make_inputs(np.random.default_rng(seed), workdir)
    with SpeedMeter() as meter:
        res = _timed_loop(workload, inputs, seconds, Recorder(meter, tracer))
    rec = res.rec
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if res.model is None:
        rec.check(False, "no model was produced")
        return res
    _check_model(rec, workload, inputs, res.model)
    res.model_bytes = _check_roundtrip(rec, res.model, res.scaler, workdir)
    res.quality = _check_predictions(rec, res.model, res.heldout, res.batch_preds,
                                     res.single_preds, res.quality_rows)
    cll_rows = inputs.sample_cll(np.random.default_rng([seed, 1]), CLL_ROWS)
    if res.scaler is not None:
        cll_rows = res.scaler.transform(cll_rows)
    res.quality["heldout_cll"] = float(
        -mlme.mixture.instance_log_probs(res.model, cll_rows).mean())
    return res


def _timed_loop(workload: Workload, inputs: Inputs, seconds: float,
                rec: Recorder) -> RunResult:
    """The rounds of timed operations; fills in the model and predictions."""
    res = RunResult(rec)
    ingested = rec.op("setup", lambda: _ingest(inputs))
    if ingested is None:
        rec.check(False, "set-up failed")
        return res
    train, heldout, res.scaler = ingested
    res.heldout = heldout
    X = heldout.features

    bc, sc = BATCH_CHUNK, SINGLE_CHUNK
    step = bc + sc - 2   # two rows a round go through both paths
    res.quality_rows = MIN_ROUNDS * step
    batch_preds, single_preds = res.batch_preds, res.single_preds
    reference = None
    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd < MIN_ROUNDS or (
            time.perf_counter() + _round_estimate(rec, workload, rnd) <= deadline):
        traced = rnd % 2 == 0   # odd rounds are the untraced reference
        if rnd:
            rec.op("setup", lambda: _ingest(inputs), traced)
        if rnd % workload.model_every == 0:
            # alternate by op, so rare model ops still get a reference
            traced_op = len(rec.timings.get("model", [])) % 2 == 0
            model = _model_op(rec, workload, inputs, train, traced_op)
            if model is not None:
                text = _model_json(model)
                if reference is None:
                    reference, res.model = text, model
                rec.check(text == reference, "a model op differs from the first one")
        if res.model is None:
            break
        # fresh held-out rows every round until the set runs out, then again
        lo = rnd % (heldout.n // step) * step
        # predict_dataset anneals row i of its input with seed cfg.seed + i,
        # so every row r of the held-out set is annealed with seed r
        batch = rec.op("predict_batch", lambda: mlme.inference.predict_dataset(
            res.model, X[lo:lo + bc], AnnealConfig(seed=lo)), traced)
        if batch is not None:
            for i in range(bc):
                _keep(rec, batch_preds, lo + i, (batch[0][i], float(batch[1][i])))
        for r in range(lo + bc - 2, lo + step):
            got = rec.op("predict_row", lambda: mlme.inference.map_predict(
                res.model, X[r], AnnealConfig(seed=r)), traced)
            if got is not None:
                _keep(rec, single_preds, r, (got[0], float(got[1])))
        rnd += 1
    return res


def _round_estimate(rec: Recorder, workload: Workload, rnd: int) -> float:
    """Expected length of round `rnd` from the medians of what it will run."""
    def wall(kind):
        return _estimate(rec.times(kind, scaled=False))

    est = wall("setup") + wall("predict_batch")
    est += SINGLE_CHUNK * wall("predict_row")
    if rnd % workload.model_every == 0:
        est += wall("model")
    return est


def _model_op(rec: Recorder, workload: Workload, inputs: Inputs, train, traced):
    if workload.train_config is None:
        got = rec.op("model", lambda: [mlme.model_io.load_model(inputs.model_json)
                                       for _ in range(LOADS_PER_OP)], traced)
        return got[-1][0] if got is not None else None
    return rec.op("model", lambda: mlme.mixture.grow_mixture(
        train, workload.train_config), traced)


def _keep(rec: Recorder, preds: dict, row: int, got: tuple) -> None:
    """Store a row's first prediction; later ones must repeat it exactly."""
    if row in preds:
        y, lp = preds[row]
        rec.check(np.array_equal(y, got[0]) and lp == got[1],
                  f"row {row}: a repeated prediction differs")
    else:
        preds[row] = got


def _check_model(rec: Recorder, workload: Workload, inputs: Inputs, model):
    rec.check(model.k == workload.expected_k,
              f"{workload.name} expects K={workload.expected_k}, got K={model.k}")
    if inputs.reference_model is not None:
        rec.check(_model_json(model) == _model_json(inputs.reference_model),
                  "loaded model differs from the saved one")
    growth = model.meta.get("growth")
    if growth is None:
        return
    traces = [r["em_trace"] for r in growth["rounds"] if "em_trace" in r]
    traces.append(growth["final_em_trace"])
    for trace in traces:
        drop = -min(np.diff(trace), default=0.0)
        rec.check(drop <= EM_DROP_TOL, f"EM trace drops by {drop:.3g}")


def _check_roundtrip(rec: Recorder, model, scaler, workdir: Path) -> int:
    first, second = workdir / "model-a.json", workdir / "model-b.json"

    def roundtrip():
        mlme.model_io.save_model(model, first, scaler)
        loaded, loaded_scaler = mlme.model_io.load_model(first)
        mlme.model_io.save_model(loaded, second, loaded_scaler)
        return True

    if rec.op("roundtrip", roundtrip) is None:
        rec.check(False, "save/load round trip failed")
        return 0
    a, b = first.read_bytes(), second.read_bytes()
    rec.check(a == b, "save -> load -> save is not byte-identical")
    return len(a)


def _check_predictions(rec, model, heldout, batch_preds, single_preds,
                       quality_rows) -> dict:
    """Output checks on every predicted row.

    Returns the quality figures over the rows below `quality_rows`, which
    every run predicts whatever its speed.
    """
    for r in sorted(batch_preds.keys() & single_preds.keys()):
        (yb, lpb), (ys, lps) = batch_preds[r], single_preds[r]
        rec.check(np.array_equal(yb, ys) and lpb == lps,
                  f"row {r}: batch and single-row predictions differ")
    preds = {**batch_preds, **single_preds}
    if not preds:
        rec.check(False, "no predictions were produced")
        return {}

    X, Y = heldout.features, heldout.labels
    counted = agree = exact = improved = 0
    for r, (y, lp) in sorted(preds.items()):
        x = X[r]
        ref = mlme.mixture.mixture_log_prob(model, x, y)
        rec.check(abs(ref - lp) <= SCORE_TOL,
                  f"row {r}: returned log-prob {lp!r} != mixture_log_prob {ref!r}")
        init = mlme.inference.heuristic_init(model, x)
        init_lp = mlme.mixture.mixture_log_prob(model, x, init)
        rec.check(lp >= init_lp - SCORE_TOL,
                  f"row {r}: annealed {lp!r} below heuristic_init {init_lp!r}")
        if model.k > 1:
            y_ref, lp_ref = mlme.inference.enumerate_map(model, x)
            rec.check(lp <= lp_ref + SCORE_TOL,
                      f"row {r}: annealed score beats the exhaustive oracle")
        else:
            y_ref, lp_ref = mlme.ctbn.exact_map(model.experts[0], x)
            rec.check(np.array_equal(y, y_ref),
                      f"row {r}: K=1 prediction differs from exact_map")
        if r < quality_rows:
            counted += 1
            agree += abs(lp - lp_ref) <= SCORE_TOL
            exact += bool(np.array_equal(y, Y[r]))
            # the best state only leaves the start when a proposal beats it
            improved += not np.array_equal(y, init)
    if counted < quality_rows:
        rec.check(False, f"only {counted} of {quality_rows} quality rows predicted")
        counted = max(counted, 1)
    return {
        "heldout_ema": exact / counted,
        "map_oracle_agreement": agree / counted,
        "anneal_improved_rows": improved / counted,
        "quality_rows": counted,
        "oracle": "enumerate_map" if model.k > 1 else "exact_map",
    }
