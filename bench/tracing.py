"""Span tracing of the mlme layers, installed from outside the program.

The tracer replaces public functions of the ``mlme`` modules with thin
wrappers that record one span per call (name, start, end, parent, and the
id of the benchmark operation that caused it).  Every module namespace that
holds a reference to a wrapped function is patched, so calls between
modules (``from .logreg import train_weighted``) go through the wrapper too.
``scipy.optimize.minimize`` is wrapped as seen by ``mlme.logreg`` and
``mlme.mixture`` to count iterations, evaluations and non-converged fits;
it records counters only, so optimizer time stays in the caller's span.

Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# (module, function, span name).  The span names are the per-layer metric
# stems; a span's "self time" is its duration minus that of its child spans.
TRACED_FUNCTIONS = (
    ("dataset", "load_csv", "dataset.load_csv"),
    ("logreg", "train_weighted", "logreg.fit"),
    ("logreg", "select_lambda", "logreg.select_lambda"),
    ("structlearn", "learn_structure", "structlearn.learn_structure"),
    ("structlearn", "build_graph", "structlearn.build_graph"),
    ("structlearn", "maximum_branching", "structlearn.max_branching"),
    ("mixture", "grow_mixture", "mixture.grow_mixture"),
    ("mixture", "em_fit", "mixture.em_fit"),
    ("mixture", "e_step", "mixture.e_step"),
    ("mixture", "penalized_objective", "mixture.objective"),
    ("mixture", "m_step_experts", "mixture.m_step_experts"),
    ("mixture", "m_step_gate", "mixture.m_step_gate"),
    ("ctbn", "train_parameters", "ctbn.train_parameters"),
    ("ctbn", "exact_map", "ctbn.exact_map"),
    ("inference", "predict_dataset", "inference.predict_dataset"),
    ("inference", "map_predict", "inference.map_predict"),
    ("inference", "heuristic_init", "inference.heuristic_init"),
    ("model_io", "save_model", "model_io.save"),
    ("model_io", "load_model", "model_io.load"),
)

# module whose `minimize` is counted -> counter prefix
MINIMIZE_COUNTERS = {"logreg": "logreg.", "mixture": "mixture.gate_"}


class Tracer:
    """In-memory span recorder with per-operation counters."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent][4] if parent is not None else len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def op(self, name: str, traced: bool = True):
        """Context manager for one benchmark operation (a root span).

        Wrapped functions record spans only inside a traced operation, so
        output checks and untraced reference operations run at full speed.
        """
        return _OpSpan(self, name, traced)

    def count(self, name: str, n: float = 1) -> None:
        if self._stack:
            self.counts[self.spans[self._stack[-1]][4]][name] += n

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, fn, result, args, kwargs)
            return result
        return traced

    def counting_minimize(self, prefix: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            if self.enabled:
                self.count(f"{prefix}fits")
                self.count(f"{prefix}iters", int(res.nit))
                self.count(f"{prefix}fevals", int(res.nfev))
                self.count(f"{prefix}nonconverged", 0 if res.success else 1)
            return res
        return counted

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def per_op(self) -> dict[int, dict]:
        """Root op id -> {"name", "wall", "incl": {span: s}, "self": {span: s}}."""
        selfs = self.self_times()
        ops: dict[int, dict] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if parent is None:
                ops[i] = {"name": name, "wall": end - start,
                          "incl": defaultdict(float), "self": defaultdict(float),
                          "counts": self.counts.get(i, {})}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if parent is None:
                continue
            ops[op]["incl"][name] += end - start
            ops[op]["self"][name] += selfs[i]
        return ops

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op})
                         + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str, traced: bool):
        self.tracer, self.name, self.traced, self.idx = tracer, name, traced, None

    def __enter__(self):
        if self.traced:
            self.tracer.enabled = True
            self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer._close(self.idx)
            self.tracer.enabled = False
        return False


def _count_em(tracer, fn, result, args, kwargs):
    tracer.count("mixture.em_iters", len(result.objective_trace) - 1)


def _count_map(tracer, fn, result, args, kwargs):
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    tracer.count("inference.rows")
    tracer.count("inference.proposals", call.arguments["cfg"].iterations)


def _count_exact_map(tracer, fn, result, args, kwargs):
    tracer.count("ctbn.exact_map_calls")


AFTER_HOOKS = {
    "mixture.em_fit": _count_em,
    "inference.map_predict": _count_map,
    "ctbn.exact_map": _count_exact_map,
}


def install(tracer: Tracer, package) -> callable:
    """Patch every mlme module namespace; returns a function that undoes it."""
    modules = [package] + [getattr(package, name) for name in
                           ("dataset", "logreg", "structlearn", "mixture",
                            "ctbn", "inference", "model_io", "evaluation", "cli")
                           if hasattr(package, name)]
    undo = []
    for mod_name, attr, span in TRACED_FUNCTIONS:
        original = getattr(getattr(package, mod_name), attr)
        wrapper = tracer.wrap(span, original, AFTER_HOOKS.get(span))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    for mod_name, prefix in MINIMIZE_COUNTERS.items():
        mod = getattr(package, mod_name)
        original = mod.minimize
        setattr(mod, "minimize", tracer.counting_minimize(prefix, original))
        undo.append((mod, "minimize", original))

    def restore():
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)
    return restore
