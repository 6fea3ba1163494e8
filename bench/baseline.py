"""Summarise benchmark runs over several seeds into one JSON file.

    python3 bench/baseline.py --seeds 1-10 --traced-seeds 1-3 --out bench/baseline.json

Runs ``bench/run.py`` once per workload and seed (one at a time, so runs do
not compete for the cores), then records for every metric its median,
quartiles and quartile spread (the distance between the quartiles as a share
of the median's magnitude), with the provenance of the first run.  End-to-end metrics
come from ``--trace 0`` runs on ``--seeds``, per-layer metrics from
``--trace 1`` runs on ``--traced-seeds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def run_seeds(workload: str, seeds: list[int], seconds: int, trace: int) -> tuple[dict, dict]:
    values, provenance = {}, None
    for seed in seeds:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              capture_output=True, text=True, check=True)
        *_, record, result = proc.stdout.strip().splitlines()
        result = json.loads(result)
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: {record}")
        if provenance is None:
            provenance = json.loads(record)["provenance"]
            del provenance["workload"], provenance["seed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed} trace {trace}: {result['attempted']} operations",
              file=sys.stderr, flush=True)
    return {name: summary(v) for name, v in values.items()}, provenance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--traced-seeds", type=seed_range, default=seed_range("1-3"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
           "traced_seeds": args.traced_seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        end_to_end, provenance = run_seeds(workload, args.seeds, spec["run_seconds"], 0)
        per_layer, _ = run_seeds(workload, args.traced_seeds, spec["run_seconds"], 1)
        out["workloads"][workload] = {"end_to_end": end_to_end, "per_layer": per_layer}
        out.setdefault("provenance", provenance)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
