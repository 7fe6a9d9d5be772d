"""Self-test of the benchmark itself.

For each workload: two traced runs with one seed must both pass every
output check and report identical counts and quality figures; an untraced
run with a second seed must pass every output check too.  The metric names
each run prints must match BENCHMARK.json.  Runs are short, so the figures
are not steady; only determinism and correctness are tested.

    python3 bench/selftest.py [--workload emotions-train ...]

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DETERMINISTIC_UNITS = {"count", "count/row", "bytes"}
QUALITY = ("heldout_cll", "heldout_ema", "map_oracle_agreement")
SEED, OTHER_SEED = 7, 8
SECONDS = 2.0


def run(workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def deterministic(report, result) -> dict:
    figures = {k: v["value"] for k, v in result["metrics"].items()
               if v["unit"] in DETERMINISTIC_UNITS
               or k == "inference.anneal_improved_rows"}
    figures.update({k: report["quality"].get(k) for k in QUALITY})
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--workload", nargs="*")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    problems = []
    for name in names:
        first = run(name, SEED, trace=1)
        second = run(name, SEED, trace=1)
        other = run(name, OTHER_SEED, trace=0)
        for label, (report, result) in (("seed run 1", first),
                                        ("seed run 2", second),
                                        ("other seed", other)):
            if not result["correct"]:
                problems.append(f"{name} {label}: not correct: "
                                f"{report['check_failures']}")
        if set(first[1]["metrics"]) != layer_names:
            problems.append(f"{name}: traced metrics differ from per_layer")
        if set(other[1]["metrics"]) != e2e_names:
            problems.append(f"{name}: untraced metrics differ from end_to_end")
        a, b = deterministic(*first), deterministic(*second)
        for key in sorted(a):
            if a[key] != b.get(key):
                problems.append(f"{name}: {key} differs: {a[key]!r} vs {b.get(key)!r}")
        print(f"{name}: {len(a)} deterministic figures compared", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
