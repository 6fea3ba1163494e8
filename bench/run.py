"""smoothcert benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload certify_mlp --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports smoothcert from the
checkout's ``src/`` and refuses to run without it, so it never measures an
installed copy.  Each run sets up its inputs, runs one untimed warm-up
operation, then runs whole cycles of the workload's items until the
operations have taken ``--seconds``, and checks every output afterwards.
Every cycle sets up its inputs afresh before it starts, outside the timed
operations; ``setup_s`` is the median of these set-ups, which are spread over
the whole run like the operations are.

The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it holds the run's provenance and
details.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
reports the per-layer metrics instead: its cycles alternate between traced
and untraced, per-layer figures are per operation of the traced cycles, and
``trace.overhead_frac`` compares the two kinds of cycle.  Spans and the full
result are written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: no workload may use more than the machine's two cores, and
# certify_784 already runs two sampling threads
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import ALPHA, WORKLOADS, Outcome, Sizes  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_package():
    """smoothcert from this checkout's src/, or exit non-zero."""
    if not (SRC / "smoothcert" / "__init__.py").is_file():
        sys.exit(f"error: no smoothcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smoothcert
    import smoothcert.cli  # noqa: F401 - loads every module the tracer wraps
    if Path(smoothcert.__file__).resolve().parent != SRC / "smoothcert":
        sys.exit(f"error: imported smoothcert from {smoothcert.__file__}, not {SRC}")
    return smoothcert


def git_head():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import smoothcert
    return {"workload": workload, "seed": seed, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "smoothcert": smoothcert.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "git_head": git_head(), "machine": platform.machine()}


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - an exception is a failed operation
        return exc


def set_up(wl, target: Path, tracer) -> float:
    """wl.setup into a new, empty target directory; returns its seconds.

    A new directory means files of an earlier set-up are neither overwritten
    in place nor reused, and earlier cycles' outputs stay for the checks.
    With a tracer the set-up is traced, so ``training.fit`` spans exist.
    """
    target.mkdir(parents=True)
    t0 = perf_counter()
    if tracer is None:
        wl.setup(str(target))
    else:
        tracer.install()
        try:
            tracer.call("setup", wl.setup, (str(target),), example="setup")
        finally:
            tracer.remove()
    return perf_counter() - t0


def timed_loop(wl, seconds: float, tracer, inputs: Path):
    """Whole cycles of wl.items until the operations have taken seconds.

    Each cycle after the first sets up its inputs again; the first uses the
    set-up made before the warm-up.  Returns (ops, operation seconds, set-up
    seconds of the later cycles); an op is (index, item, seconds, raw, traced).
    With a tracer, even cycles are traced and the loop stops after an odd one.
    """
    ops, setup_s = [], []
    phase_s = 0.0
    cycle = 0
    while True:
        if cycle:
            setup_s.append(set_up(wl, inputs / f"cycle{cycle}", tracer))
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.install()
        for item in wl.items:
            i = len(ops)
            t0 = perf_counter()
            if traced:
                raw = _attempt(lambda: tracer.call("op", wl.op, (item, i), example=i))
            else:
                raw = _attempt(wl.op, item, i)
            ops.append((i, item, perf_counter() - t0, raw, traced))
            phase_s += ops[-1][2]
        if traced:
            tracer.remove()
        cycle += 1
        if phase_s >= seconds and (tracer is None or cycle % 2 == 0):
            return ops, phase_s, setup_s


def end_to_end_metrics(ops, phase_s, setup_s, outcomes) -> dict:
    latencies = [dt for _, _, dt, _, _ in ops]
    radii = [o.radius for o in outcomes if o.radius is not None]
    # a run holds 20-130 operations; p90 is the tail percentile, since a
    # higher one would rest on one or two samples in the shorter runs
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return {
        "examples_per_s": (len(ops) / phase_s, "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms_p90": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "radius_mean": (statistics.fmean(radii) if radii else 0.0, "input-units"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, ops, outcomes) -> dict:
    traced = [op for op in ops if op[4]]
    untraced = [op for op in ops if not op[4]]
    per_op = 1.0 / len(traced)
    spans = [s for s in tracer.spans if s[5] != "setup"]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def calls(name):
        return len(by_name[name])

    def busy_ms(name):
        return sum(s[3] - s[2] for s in by_name[name]) * 1e3

    def size(name):
        return sum(s[6] for s in by_name[name])

    def self_ms(name):
        return sum(selfs[s[0]] for s in by_name[name]) * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    fits = [s[3] - s[2] for s in tracer.spans if s[1] == "training.fit"]
    certified = [o for o in outcomes if not o.abstained and not o.problems]
    traced_ids = {op[0] for op in traced}
    mean_dt = [statistics.fmean(dt for _, _, dt, _, _ in group) for group in (traced, untraced)]
    return {
        "noise.calls": (calls("noise") * per_op, "count/op"),
        "noise.deviates": (size("noise") * per_op, "count/op"),
        "noise.busy_ms": (busy_ms("noise") * per_op, "ms/op"),
        "noise.bits_busy_ms": (busy_ms("noise.bits") * per_op, "ms/op"),
        "noise.ns_per_deviate": (ratio(busy_ms("noise") * 1e6, size("noise")), "ns"),
        "training.classify_rows": (size("training.classify") * per_op, "count/op"),
        "training.classify_busy_ms": (busy_ms("training.classify") * per_op, "ms/op"),
        "training.rows_per_call": (ratio(size("training.classify"), calls("training.classify")),
                                   "count"),
        "oracles.classify_busy_ms": (busy_ms("oracles.classify") * per_op, "ms/op"),
        "training.fit_busy_ms": (statistics.fmean(fits) * 1e3 if fits else 0.0, "ms"),
        "smoothing.sample_calls": (calls("smoothing.sample") * per_op, "count/op"),
        "smoothing.sample_busy_ms": (busy_ms("smoothing.sample") * per_op, "ms/op"),
        "smoothing.count_self_ms": (self_ms("smoothing.sample") * per_op, "ms/op"),
        "smoothing.useful_ratio": (len(certified) / len(outcomes), "ratio"),
        "smoothing.ceiling_ratio": (ratio(sum(o.at_ceiling for o in certified), len(certified)),
                                    "ratio"),
        "statfun.cp_calls": (calls("statfun.cp") * per_op, "count/op"),
        "statfun.cp_busy_ms": (busy_ms("statfun.cp") * per_op, "ms/op"),
        "statfun.cp_ms_per_call": (ratio(busy_ms("statfun.cp"), calls("statfun.cp")), "ms"),
        "statfun.quantile_busy_ms": (busy_ms("statfun.quantile") * per_op, "ms/op"),
        "records.write_calls": (calls("records.write") * per_op, "count/op"),
        "records.write_busy_ms": (busy_ms("records.write") * per_op, "ms/op"),
        "records.bytes_written": (sum(outcomes[i].bytes_written for i in traced_ids) * per_op,
                                  "B/op"),
        "records.read_busy_ms": (busy_ms("records.read") * per_op, "ms/op"),
        "report.project_busy_ms": (busy_ms("report.project") * per_op, "ms/op"),
        "report.curve_busy_ms": (busy_ms("report.curve") * per_op, "ms/op"),
        "cli.self_ms": (self_ms("cli") * per_op, "ms/op"),
        "datasets.read_busy_ms": (busy_ms("datasets.read") * per_op, "ms/op"),
        "modelio.load_busy_ms": (busy_ms("modelio.load") * per_op, "ms/op"),
        "trace.overhead_frac": (mean_dt[0] / mean_dt[1] - 1.0, "ratio"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    wl = WORKLOADS[workload](seed, sizes)
    tracer = Tracer() if trace else None
    work = ROOT / ".bench_work"
    scratch = work / f"{workload}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = [set_up(wl, scratch / "cycle0", tracer)]
        # the operations' own peak must exceed this for peak_rss_mb to show them
        setup_rss_mb = peak_rss_mb()
        _attempt(wl.op, wl.items[0], -1)  # warm-up, neither timed nor counted

        ops, phase_s, later_setup_s = timed_loop(wl, seconds, tracer, scratch)
        setup_s += later_setup_s
        outcomes = []
        for i, item, _, raw, _ in ops:
            if isinstance(raw, Exception):
                outcomes.append(Outcome(problems=[f"raised {raw!r}"]))
            else:
                outcomes.append(_attempt(wl.outcome, item, i, raw))
                if isinstance(outcomes[-1], Exception):
                    outcomes[-1] = Outcome(problems=[f"unreadable output: {outcomes[-1]!r}"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(bool(o.problems) for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    allowed = checks.wrong_allowance(len(outcomes), ALPHA)
    if wrong > allowed:
        failed += sum(o.wrong and not o.problems for o in outcomes)
    if tracer is None:
        metrics = end_to_end_metrics(ops, phase_s, setup_s, outcomes)
    else:
        metrics = layer_metrics(tracer, ops, outcomes)
        tracer.write(work / f"{workload}-seed{seed}.spans.jsonl")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    details = {"operations": len(ops), "phase_s": phase_s, "failed_frac": failed / len(ops),
               "wrong": wrong, "wrong_allowed": allowed, "setup_s_each": setup_s,
               "setup_peak_rss_mb": setup_rss_mb,
               "problems": [p for o in outcomes for p in o.problems][:5]}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_package()
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"provenance": provenance(args.workload, args.seed), "details": details}
    (ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
