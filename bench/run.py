"""mlme benchmark: seeded synthetic workloads through the public library API.

Run from the root of a checkout:

    python3 bench/run.py --workload emotions-train --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the gated end-to-end figures (``GATED``); with ``--trace 1``
the mlme functions are wrapped from outside (see ``tracing.py``) and the
metrics are the per-layer figures.  The line before it is a fuller JSON
report: every end-to-end figure with its unit (wall-clock timings and the
failed-operation ratio too), sample counts, the highest latency percentile
with ten samples beyond it, thread count and check failures.  End-to-end
timings are medians at reference speed (see ``speed.py``); per-layer
timings are wall-clock seconds.  The process
exits 0 once the run completed; ``correct`` is false if any output check
failed or any operation raised.

BLAS runs on one thread, set before numpy loads, and the report records
the count.  On a 2-CPU machine one thread trained scene-wide at least as
fast as two (7.4-8.8 s against 8.2-9.2 s per fit), and it leaves the other
CPU to the rest of the machine, which keeps the figures steadier.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

def _import_program():
    """Import mlme from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "mlme" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mlme sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import mlme
    if Path(mlme.__file__).resolve().parent != (src / "mlme").resolve():
        raise SystemExit(f"bench: imported mlme from {mlme.__file__}, not {src}")
    return mlme


def median(values):
    return statistics.median(values) if values else math.nan


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (1 - 10 / n))
    import numpy as np
    return q, float(np.percentile(values, q))


def end_to_end(result, workload) -> dict:
    """Every end-to-end figure of a run, as {name: (value, unit)}.

    Timings are at reference speed (see ``speed.py``): each operation's
    busy time scaled by the machine speed the meter sampled around it.
    The wall-clock figures are in the report, as ``*.wall``.  On the
    predict-only workload ``train_s`` is the time of one ``load_model``.
    """
    import numpy as np
    from workloads import BATCH_CHUNK, LOADS_PER_OP
    rec = result.rec
    q = result.quality
    calls = LOADS_PER_OP if workload.train_config is None else 1

    def timings(scaled):
        rows_ms = [t * 1000 for t in rec.times("predict_row", scaled=scaled)]
        batch = median(rec.times("predict_batch", scaled=scaled))
        p50, p95 = (np.percentile(rows_ms, [50, 95]).tolist() if rows_ms
                    else (math.nan, math.nan))
        return {
            "setup_s": (median(rec.times("setup", scaled=scaled)), "s"),
            "train_s": (median(rec.times("model", scaled=scaled)) / calls, "s"),
            "predict_rows_per_s": (BATCH_CHUNK / batch, "1/s"),
            "predict_row_ms.p50": (p50, "ms"),
            "predict_row_ms.p95": (p95, "ms"),
        }

    figures = timings(scaled=True)
    figures.update({f"{k}.wall": v for k, v in timings(scaled=False).items()})
    figures.update({
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "heldout_cll": (q.get("heldout_cll", math.nan), "nats/row"),
        "heldout_ema": (q.get("heldout_ema", math.nan), "ratio"),
        "map_oracle_agreement": (q.get("map_oracle_agreement", math.nan),
                                 "ratio"),
        "failed_ops_ratio": (rec.failed / rec.attempted if rec.attempted else 0.0,
                             "ratio"),
    })
    return figures


# end-to-end figures in the result line; never 0 on a healthy run
GATED = ("setup_s", "train_s", "predict_rows_per_s", "predict_row_ms.p50",
         "predict_row_ms.p95", "peak_rss_mb", "heldout_cll", "heldout_ema",
         "map_oracle_agreement")


def per_layer(result, tracer) -> dict:
    """Per-layer figures from the spans of the traced operations.

    Model-phase figures are per model operation (median over the traced
    ones; counts are identical across them), predict-phase figures are per
    predicted row over both the batch and the single-row path.
    """
    ops = tracer.per_op()
    by_kind: dict[str, list[dict]] = {}
    for op in ops.values():
        by_kind.setdefault(op["name"], []).append(op)
    model_ops = by_kind.get("model", [])
    predict_ops = by_kind.get("predict_batch", []) + by_kind.get("predict_row", [])
    rows = sum(op["counts"].get("inference.rows", 0) for op in predict_ops)

    def model_time(span, kind="incl"):
        return median([op[kind].get(span, 0.0) for op in model_ops]) if model_ops else 0.0

    def model_count(name):
        return model_ops[0]["counts"].get(name, 0) if model_ops else 0

    def per_row(span, kind="incl"):
        return sum(op[kind].get(span, 0.0) for op in predict_ops) / rows if rows else 0.0

    def row_count(name):
        return sum(op["counts"].get(name, 0) for op in predict_ops) / rows if rows else 0.0

    def span_median(name):
        d = [end - start for n, start, end, _, _ in tracer.spans if n == name]
        return median(d) if d else 0.0

    def covered(op_list):
        wall = sum(op["wall"] for op in op_list)
        return sum(sum(op["self"].values()) for op in op_list) / wall if wall else 0.0

    def overhead(kind):
        """Median traced over median untraced operation time, minus one."""
        on, off = result.rec.times(kind, True), result.rec.times(kind, False)
        return median(on) / median(off) - 1.0 if on and off else 0.0

    model = result.model
    growth = model.meta.get("growth") if model is not None else None
    m = {
        "logreg.fits": (model_count("logreg.fits"), "count"),
        "logreg.iters": (model_count("logreg.iters"), "count"),
        "logreg.fevals": (model_count("logreg.fevals"), "count"),
        "logreg.nonconverged": (model_count("logreg.nonconverged"), "count"),
        "logreg.fit_s": (model_time("logreg.fit"), "s"),
        "logreg.select_lambda_s": (model_time("logreg.select_lambda"), "s"),
        "logreg.select_lambda.self_s": (model_time("logreg.select_lambda", "self"), "s"),
        "structlearn.learn_structure_s": (model_time("structlearn.learn_structure"), "s"),
        "structlearn.learn_structure.self_s": (
            model_time("structlearn.learn_structure", "self"), "s"),
        "structlearn.build_graph_s": (model_time("structlearn.build_graph"), "s"),
        "structlearn.build_graph.self_s": (model_time("structlearn.build_graph", "self"), "s"),
        "structlearn.max_branching_s": (model_time("structlearn.max_branching"), "s"),
        "mixture.grow_mixture.self_s": (model_time("mixture.grow_mixture", "self"), "s"),
        "mixture.em_fit_s": (model_time("mixture.em_fit"), "s"),
        "mixture.em_fit.self_s": (model_time("mixture.em_fit", "self"), "s"),
        "mixture.em_iters": (model_count("mixture.em_iters"), "count"),
        "mixture.e_step_s": (model_time("mixture.e_step"), "s"),
        "mixture.objective_s": (model_time("mixture.objective"), "s"),
        "mixture.m_step_experts_s": (model_time("mixture.m_step_experts"), "s"),
        "mixture.m_step_experts.self_s": (model_time("mixture.m_step_experts", "self"), "s"),
        "mixture.m_step_gate_s": (model_time("mixture.m_step_gate"), "s"),
        "mixture.gate_fits": (model_count("mixture.gate_fits"), "count"),
        "mixture.gate_iters": (model_count("mixture.gate_iters"), "count"),
        "mixture.gate_fevals": (model_count("mixture.gate_fevals"), "count"),
        "mixture.gate_nonconverged": (model_count("mixture.gate_nonconverged"), "count"),
        "mixture.accepted_k": (model.k if growth else 0, "count"),
        "mixture.growth_rounds": (len(growth["rounds"]) if growth else 0, "count"),
        "ctbn.train_parameters_s": (model_time("ctbn.train_parameters"), "s"),
        "ctbn.train_parameters.self_s": (model_time("ctbn.train_parameters", "self"), "s"),
        "ctbn.exact_map_s": (per_row("ctbn.exact_map"), "s/row"),
        "ctbn.exact_map_calls": (row_count("ctbn.exact_map_calls"), "count/row"),
        "inference.predict_dataset.self_s": (
            per_row("inference.predict_dataset", "self"), "s/row"),
        "inference.map_predict_s": (per_row("inference.map_predict"), "s/row"),
        "inference.heuristic_init_s": (per_row("inference.heuristic_init"), "s/row"),
        "inference.heuristic_init.self_s": (
            per_row("inference.heuristic_init", "self"), "s/row"),
        "inference.anneal_s": (per_row("inference.map_predict", "self"), "s/row"),
        "inference.proposals": (row_count("inference.proposals"), "count/row"),
        "inference.anneal_improved_rows": (
            result.quality.get("anneal_improved_rows", 0.0), "ratio"),
        "model_io.save_s": (span_median("model_io.save"), "s"),
        "model_io.load_s": (span_median("model_io.load"), "s"),
        "model_io.bytes": (result.model_bytes, "bytes"),
        "dataset.load_csv_s": (median([op["incl"].get("dataset.load_csv", 0.0)
                                       for op in by_kind.get("setup", [])]), "s"),
        "trace.model_op_s": (median([op["wall"] for op in model_ops]), "s"),
        "trace.model_covered": (covered(model_ops), "ratio"),
        "trace.predict_covered": (covered(predict_ops), "ratio"),
        "trace.overhead_model": (overhead("model"), "ratio"),
        "trace.overhead_predict": (overhead("predict_row"), "ratio"),
    }
    return m


def report(result, workload, args, e2e, layers) -> dict:
    import numpy as np
    import scipy
    rec = result.rec
    rows_ms = [t * 1000 for t in rec.times("predict_row")]
    tail = tail_percentile(rows_ms)
    model_times = rec.times("model")
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "closed loop, one caller, one process",
        "blas_threads": BLAS_THREADS,
        "cpus": len(os.sched_getaffinity(0)),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "samples": {k: len(v) for k, v in rec.timings.items()},
        "predict_row_ms.samples": len(rows_ms),
        "predict_row_ms.tail": ({"percentile": tail[0], "value": tail[1]}
                                if tail else None),
        "predict_batch.samples": len(rec.times("predict_batch")),
        "predict_row_ms.deciles": (np.percentile(rows_ms, range(10, 100, 10)).tolist()
                                   if rows_ms else None),
        "train_s.samples": len(model_times),
        "model_op_s": model_times[:50],
        "model_op_wall_s": rec.times("model", scaled=False)[:50],
        "speed_samples": len(rec.meter.starts),
        "check_failures": rec.failures[:20],
        "quality": result.quality,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: v[0] for k, v in layers.items()} if layers else None,
    }


def main(argv=None) -> int:
    mlme = _import_program()
    import warnings
    # degenerate branches are expected on near-deterministic labels
    warnings.filterwarnings("ignore", category=RuntimeWarning,
                            message=".*effective.*")
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer, mlme) if tracer else None
    workdir = BENCH_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        result = workloads.run(workload, args.seed, args.seconds, workdir, tracer)
    finally:
        if restore:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(result, workload)
    layers = per_layer(result, tracer) if tracer else None
    if tracer:
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload.name}-seed{args.seed}.jsonl")
    chosen = layers if tracer else {k: e2e[k] for k in GATED}
    rec = result.rec
    numbers_ok = all(math.isfinite(v) for v, _ in chosen.values())
    correct = not rec.failures and rec.failed == 0 and numbers_ok
    print(json.dumps({"report": report(result, workload, args, e2e, layers)},
                     sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
