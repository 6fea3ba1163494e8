"""Alternating before/after benchmark runs of two revisions, into BENCH_<label>.json.

    python3 tools/bench_pairs.py --base 31ce43f --change HEAD \\
        --workloads certify_784,certify_mlp --seeds 31-40 --seconds 30 --label 7

Each revision is exported with ``git archive`` into its own temporary
directory (a plain tree rather than a registered ``git worktree``, so an
interrupted run leaves nothing behind in the repository), and that tree's own
``bench/run.py`` runs there.  Runs go one at a time, so they do not compete
for the cores: seed by seed, each workload runs on both sides, and the side
that runs first alternates from one pair to the next.  Then one ``--trace 1``
run per side and workload, on the first seed, gives the per-layer split.

Only the two lines ``bench/run.py`` prints last are read.  For every
end-to-end metric that ``BENCHMARK.json`` bounds, the file holds both sides'
per-pair values, medians and quartiles, the change's wins out of the pairs
(ties count for neither side) and a verdict:

* ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them, and
  its median beats the base's by more than the base's interquartile distance;
* ``regressed``: the change's median is worse than the base's by more than the
  bound, as a share of the base's median;
* ``unresolved``: the base's interquartile distance exceeds the bound, as a
  share of its median, and not every change run beats every base run;
* ``holds``: none of these.

The file is written in every case.  Exit status is 0 when every run finished
with ``"correct": true``, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def seed_list(text: str) -> list[int]:
    """'31-40' or '1,5,9' (or a mix) -> list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summaries, wins and verdict of paired values (base[i] and change[i] share a seed)."""
    sign = 1.0 if better == "higher" else -1.0
    b, c = summary(base), summary(change)
    gain = sign * (c["median"] - b["median"])
    scale = abs(b["median"])
    iqr = b["q3"] - b["q1"]
    rel = gain / scale if scale else (0.0 if gain == 0 else math.copysign(math.inf, gain))
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
    losses = sum(sign * (y - x) < 0 for x, y in zip(base, change))
    every_run_better = min(change) > max(base) if sign > 0 else max(change) < min(base)
    if len(base) >= 10 and 10 * wins >= 9 * len(base) and gain > iqr:
        verdict = "gain"
    elif rel < -bound:
        verdict = "regressed"
    elif scale and iqr / scale > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "holds"
    return {"base": b, "change": c, "better": better, "bound": bound,
            "relative_change": rel, "base_spread": iqr / scale if scale else None,
            "wins": wins, "losses": losses, "pairs": len(base), "verdict": verdict}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(commit: str, target: Path) -> None:
    """The tree of commit, as files under target."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    target.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=tar, check=True)


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in tree; its result line, plus provenance and details."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    run = {"seed": seed, "trace": trace, "wall_s": time.monotonic() - t0,
           "exit_status": proc.returncode}
    try:
        *_, record, result = proc.stdout.strip().splitlines()
        record, result = json.loads(record), json.loads(result)
    except ValueError:
        return {**run, "correct": False, "stderr_tail": proc.stderr[-2000:]}
    # setup_s_each lists every cycle's set-up (thousands on report_project);
    # its median is the setup_s metric
    details = {k: v for k, v in record["details"].items() if k != "setup_s_each"}
    return {**run, "correct": proc.returncode == 0 and result["correct"] is True,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "provenance": record["provenance"], "details": details}


def collect(trees: dict, workloads: list[str], seeds: list[int], seconds: float) -> dict:
    """Untraced pairs, seed by seed, then one traced run per side and workload."""
    runs = {w: {"pairs": [], "traced": {}} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            pairs = runs[workload]["pairs"]
            order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_run(trees[side], workload, seed, seconds, 0)
                print(f"{workload} seed {seed} {side}: correct={pair[side]['correct']}",
                      file=sys.stderr, flush=True)
            pairs.append(pair)
    for i, workload in enumerate(workloads):
        traced = runs[workload]["traced"]
        for side in SIDES if (len(seeds) + i) % 2 == 0 else SIDES[::-1]:
            traced[side] = bench_run(trees[side], workload, seeds[0], seconds, 1)
            print(f"{workload} traced {side}: correct={traced[side]['correct']}",
                  file=sys.stderr, flush=True)
    return runs


def summarize(runs: dict, bounded: dict) -> dict:
    """Per workload: the runs, each side's failed share and each bounded metric's verdict."""
    out = {}
    for workload, w in runs.items():
        entry = {**w, "metrics": {}}
        for side in SIDES:
            attempted = sum(p[side].get("attempted", 0) for p in w["pairs"])
            failed = sum(p[side].get("failed", 0) for p in w["pairs"])
            entry[f"{side}_failed_frac"] = failed / attempted if attempted else None
        complete = [p for p in w["pairs"] if all("metrics" in p[s] for s in SIDES)]
        for name, m in bounded.items():
            if complete and all(name in p[s]["metrics"] for p in complete for s in SIDES):
                entry["metrics"][name] = {"unit": m["unit"], **compare(
                    [p["base"]["metrics"][name] for p in complete],
                    [p["change"]["metrics"][name] for p in complete], m["better"], m["bound"])}
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision measured as the parent")
    parser.add_argument("--change", required=True, help="git revision measured as the change")
    parser.add_argument("--workloads", required=True, type=lambda s: s.split(","),
                        help="comma list of bench/run.py workloads")
    parser.add_argument("--seeds", required=True, type=seed_list,
                        help="seeds, e.g. 31-40 or 1,5,9; one pair per seed and workload")
    parser.add_argument("--seconds", required=True, type=float, help="seconds per run")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commits = {side: git("rev-parse", "--verify", getattr(args, side) + "^{commit}")
               for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        runs = collect(trees, args.workloads, args.seeds, args.seconds)

    every_run = [r for w in runs.values()
                 for r in [p[s] for p in w["pairs"] for s in SIDES] + list(w["traced"].values())]
    out = {"label": args.label,
           "command": ["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])],
           "revisions": {side: {"rev": getattr(args, side), "commit": commits[side]}
                         for side in SIDES},
           "seconds": args.seconds, "seeds": args.seeds,
           "all_correct": all(r["correct"] for r in every_run),
           "workloads": summarize(runs, {m["name"]: m for m in spec["end_to_end"]})}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:15s} {name:15s} {m['base']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g}  wins {m['wins']}/{m['pairs']}  "
                  f"{m['verdict']}", file=sys.stderr)
    print(f"wrote {path}", file=sys.stderr)
    return 0 if out["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
