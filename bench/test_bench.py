"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest
from scipy.special import ndtri

import run as bench
from checks import reference_pa_lower
from tracing import Tracer, self_times
from workloads import CertifyMlp, Sizes

bench.import_package()

import smoothcert.smoothing  # noqa: E402
import smoothcert.training  # noqa: E402

TINY = Sizes(train_points=200, epochs=30, certify_n=2000, per_class=3, label_draws=256,
             dim_784=16, n_784=1000, fixture_n=1000, project_n=10_000)
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, _ = bench.run(workload, seed=3, seconds=0.0, trace=trace, sizes=TINY)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_nudged_pa_lower_fails_the_output_check(tmp_path):
    wl = CertifyMlp(seed=5, sizes=TINY)
    wl.setup(str(tmp_path))
    for item in wl.items:
        raw = wl.op(item, 0)
        checked = wl.outcome(item, 0, raw)
        if not checked.abstained:
            break
    assert not checked.abstained and checked.problems == []

    out = raw[1]
    header, line = open(out, encoding="utf-8").read().splitlines()
    rec = json.loads(line)
    k = rec["counts"][str(rec["predicted_label"])]
    rec["pa_lower"] = reference_pa_lower(k, rec["n"], rec["alpha"]) + 1e-8
    rec["radius"] = rec["sigma"] * float(ndtri(rec["pa_lower"]))  # keep the radius consistent
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + json.dumps(rec) + "\n")
    problems = wl.outcome(item, 0, raw).problems
    assert len(problems) == 1 and "exceeds the reference" in problems[0]


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10 with overlapping children from two threads (2..6, 4..8)
    # and a nested grandchild that must not count against the parent
    spans = [(1, "p", 0.0, 10.0, None, 0, 0), (2, "c", 2.0, 6.0, 1, 0, 0),
             (3, "c", 4.0, 8.0, 1, 0, 0), (4, "g", 5.0, 5.5, 2, 0, 0)]
    assert self_times(spans) == {1: 4.0, 2: 3.5, 3: 4.0, 4: 0.5}


def test_tracer_restores_the_package():
    original = smoothcert.smoothing.sample_under_noise
    tracer = Tracer()
    tracer.install()
    try:
        assert smoothcert.smoothing.sample_under_noise.__wrapped__ is original
    finally:
        tracer.remove()
    assert smoothcert.smoothing.sample_under_noise is original
    assert "classify_batch" not in vars(smoothcert.training.MlpModel)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify_mlp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
