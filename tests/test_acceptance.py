"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Statistical criteria use fixed seeds, so the whole suite
is deterministic.
"""

import math
import time

import numpy as np
import pytest

import reference
from oracles import (avgpool_lift, breaking_perturbation, exact_interval_prob,
                     exact_smoothed_prob, make_interval_counterexample, margin,
                     true_robust_radius, worst_case_runner_prob, worst_case_top_prob)
from smoothcert.attack import AttackParams, pgd_attack
from smoothcert.bounds import (BoundInputs, dp_radius, max_certifiable_radius,
                               renyi_radius, tight_radius)
from smoothcert.cli import main as cli_main
from smoothcert.datasets import two_gaussians, write_csv
from smoothcert.noise import NoiseStream
from smoothcert.oracles import ConstantClassifier, LinearModel
from smoothcert.report import accuracy_curve, bernstein_lower_bound
from smoothcert.records import CertificationRecord
from smoothcert.smoothing import SmoothingParams, certify, predict
from smoothcert.statfun import clopper_pearson_lower
from smoothcert.training import LabeledExample, TrainConfig, train_with_noise


def _start():
    return time.perf_counter()


def _passed(name, t0):
    print(f"PASS {name} [{time.perf_counter() - t0:.2f}s]")


def test_criterion_01_closed_form_certificate():
    t0 = _start()
    for n in [1, 10, 100, 1000, 100_000]:
        assert abs(clopper_pearson_lower(n, n, 0.001) - 0.001 ** (1.0 / n)) < 1e-9
    params = SmoothingParams(sigma=1.0, n0=100, n=100, alpha=0.001)
    cert = certify(ConstantClassifier(0), params, np.zeros(2), NoiseStream(1), 0)
    assert cert.label == 0
    assert abs(cert.radius - 1.5011) < 1e-3
    _passed("criterion 1 (closed-form certificate)", t0)


def test_criterion_02_sample_complexity_curve():
    t0 = _start()
    assert abs(max_certifiable_radius(100, 0.001, 1.0) - 1.501) < 0.01
    assert abs(max_certifiable_radius(100_000, 0.001, 1.0) - 3.81) < 0.02
    assert max_certifiable_radius(100_000, 0.001, 1.0) < 4.0
    assert max_certifiable_radius(1_000_000, 0.001, 1.0) > 4.0
    _passed("criterion 2 (sample-complexity curve)", t0)


def test_criterion_03_bound_ordering():
    t0 = _start()
    grid = [0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99, 0.999]
    for pa in grid:
        inputs = BoundInputs(pa_lower=pa, pb_upper=1.0 - pa, sigma=1.0)
        tight = tight_radius(inputs)
        renyi = renyi_radius(inputs)
        dp = dp_radius(inputs)
        assert tight >= renyi >= dp
        if pa <= 0.99:
            assert tight > renyi
        renyi_oracle = reference.renyi_radius_grid(pa, 1.0 - pa, 1.0)
        dp_oracle = reference.dp_radius_grid(pa, 1.0 - pa, 1.0)
        assert abs(renyi - renyi_oracle) <= 1e-4 * renyi_oracle
        assert abs(dp - dp_oracle) <= 1e-4 * dp_oracle
    _passed("criterion 3 (bound ordering vs grid oracles)", t0)


def test_criterion_04_tightness_crossing():
    t0 = _start()
    rng = np.random.default_rng(44)
    for _ in range(1000):
        pa = rng.uniform(0.501, 0.999)
        pb = rng.uniform(0.001, min(pa, 1.0 - pa))
        sigma = rng.uniform(0.1, 3.0)
        radius = tight_radius(BoundInputs(pa_lower=pa, pb_upper=pb, sigma=sigma))
        top = worst_case_top_prob(pa, sigma, radius)
        runner = worst_case_runner_prob(pb, sigma, radius)
        assert abs(top - runner) < 1e-9
    _passed("criterion 4 (worst-case probabilities cross at the radius)", t0)


def test_criterion_05_certify_soundness():
    t0 = _start()
    # four oracle geometries spanning moderate to high top-class probability
    cases = [(LinearModel([1.0, 0.0], 0.0), np.array([0.3, 0.0]), 1.0),
             (LinearModel([2.0, 1.0], -0.1), np.array([0.5, 0.2]), 0.8),
             (LinearModel([1.0, -1.0], 0.0), np.array([-0.4, 0.3]), 0.6),
             (LinearModel([0.0, 3.0], 0.6), np.array([0.1, -0.5]), 1.2)]
    runs_per_case = 500
    runs = violations = 0
    for case_idx, (model, x, sigma) in enumerate(cases):
        true_radius = true_robust_radius(model, x)
        base_label = model.classify(x)
        params = SmoothingParams(sigma=sigma, n0=50, n=1000, alpha=0.05)
        stream = NoiseStream(505 + case_idx)
        for i in range(runs_per_case):
            cert = certify(model, params, x, stream, example_id=i)
            runs += 1
            if cert.abstained:
                continue
            if cert.label != base_label or cert.radius > true_radius + 1e-12:
                violations += 1
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / runs)
    assert violations / runs <= limit, f"{violations}/{runs} vs {limit:.4f}"
    _passed(f"criterion 5 (certify soundness: {violations}/{runs} unsound)", t0)


def test_criterion_06_predict_soundness():
    t0 = _start()
    # halfspace placed so the top label appears with probability exactly 0.52
    offset = reference.normal_quantile(0.52)
    model = LinearModel([1.0, 0.0], 0.0)
    x = np.array([offset, 0.0])
    params = SmoothingParams(sigma=1.0, n=200, alpha=0.05)
    stream = NoiseStream(606)
    runs, wrong = 5000, 0
    for i in range(runs):
        outcome = predict(model, params, x, stream, example_id=i)
        if not outcome.abstained and outcome.label != 1:
            wrong += 1
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / runs)
    assert wrong / runs <= limit, f"{wrong}/{runs} vs {limit:.4f}"
    _passed(f"criterion 6 (predict soundness: {wrong}/{runs} wrong)", t0)


def test_criterion_07_linear_exactness():
    t0 = _start()
    # (a) smoothed vote agrees with the base label (or abstains) on a grid
    model = LinearModel([2.0, -1.0], 0.3)
    sigma = 0.5
    params = SmoothingParams(sigma=sigma, n=10_000, alpha=0.01)
    stream = NoiseStream(707)
    rng = np.random.default_rng(70)
    opposite = 0
    points = 0
    while points < 100:
        x = rng.normal(0.0, 1.5, size=2)
        if abs(margin(model, x)) / (sigma * np.linalg.norm(model.w)) < 0.1:
            continue
        outcome = predict(model, params, x, stream, example_id=points)
        if not outcome.abstained and outcome.label != model.classify(x):
            opposite += 1
        points += 1
    assert opposite <= 1  # alpha-fraction of 100 points

    # (b) the constructed perturbation just past the radius always flips
    rng = np.random.default_rng(71)
    for _ in range(100):
        w = rng.normal(size=3)
        while not np.any(w):
            w = rng.normal(size=3)
        m = LinearModel(w, rng.normal())
        x = rng.normal(size=3)
        radius = true_robust_radius(m, x)
        if radius < 1e-6:
            continue
        delta = breaking_perturbation(m, x, 1.001 * radius)
        assert m.classify(x + delta) != m.classify(x)

    # (c) PGD never wins inside the true radius, always wins at 1.05 R
    rng = np.random.default_rng(72)
    for trial in range(5):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        m = LinearModel(direction, 0.0)
        x = direction * 1.0  # true radius exactly 1.0
        radius = true_robust_radius(m, x)
        assert radius == pytest.approx(1.0, abs=1e-12)
        label = m.classify(x)
        for fraction in (0.5, 0.9, 1.0):
            result = pgd_attack(m, x, label, AttackParams(
                radius=fraction * radius, sigma=0.5, k=100, steps=20,
                step_size=0.1, seed=7000 + trial))
            assert not result.success
        result = pgd_attack(m, x, label, AttackParams(
            radius=1.05 * radius, sigma=0.5, k=100, steps=20,
            step_size=0.1, seed=7500 + trial))
        assert result.success
    _passed("criterion 7 (linear-classifier exactness)", t0)


def test_criterion_08_counterexample_gap():
    t0 = _start()
    for tau in [0.1, 0.5, 1.0]:
        clf = make_interval_counterexample(tau)
        for x in np.linspace(-10.0, 10.0, 100):
            assert exact_interval_prob(clf, float(x), 1.0) < 0.5
        pa_outer = 1.0 - exact_interval_prob(clf, 0.0, 1.0)
        certified = tight_radius(BoundInputs(pa_lower=pa_outer,
                                             pb_upper=1.0 - pa_outer, sigma=1.0))
        assert abs(certified - tau) < 1e-9
    _passed("criterion 8 (interval counterexample gap)", t0)


def test_criterion_09_resolution_doubling():
    t0 = _start()
    rng = np.random.default_rng(909)
    for _ in range(50):
        dim = int(rng.integers(1, 8))
        w = rng.normal(size=dim)
        while not np.any(w):
            w = rng.normal(size=dim)
        model = LinearModel(w, rng.normal())
        lifted, sigma_high = avgpool_lift(model, rng.uniform(0.1, 2.0))
        x_low = rng.normal(size=dim)
        low = true_robust_radius(model, x_low)
        high = true_robust_radius(lifted, np.repeat(x_low, 4))
        assert abs(high - 2.0 * low) < 1e-12 * max(1.0, low)
    _passed("criterion 9 (average-pooling lift doubles the radius)", t0)


def _train_and_certify(sigma_train, radii):
    features, labels = two_gaussians(1000, center=1.2, std=0.15, std1=0.9, seed=200)
    examples = [LabeledExample(x, int(c)) for x, c in zip(features, labels)]
    model = train_with_noise(examples, TrainConfig(
        sigma_train=sigma_train, epochs=400, learning_rate=1.0, batch_size=32,
        seed=0, model_kind="mlp", hidden_width=32))
    test_x, test_y = two_gaussians(200, center=1.2, std=0.15, std1=0.9, seed=1100)
    params = SmoothingParams(sigma=0.5, n0=100, n=10_000, alpha=0.01)
    stream = NoiseStream(4242)
    records = []
    for i, (x, c) in enumerate(zip(test_x, test_y)):
        cert = certify(model, params, x, stream, example_id=i)
        records.append(CertificationRecord(
            example_index=i, true_label=int(c),
            outcome="abstain" if cert.abstained else "certified",
            predicted_label=cert.label if not cert.abstained else None,
            radius=cert.radius, pa_lower=cert.pa_lower, counts=None,
            sigma=0.5, n0=100, n=10_000, alpha=0.01, seed=4242, wall_time_ms=0.0))
    return accuracy_curve(records, radii)


def test_criterion_10_end_to_end_pipeline():
    t0 = _start()
    radii = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5]
    quarter = radii.index(0.25)
    matched_curve = _train_and_certify(0.5, radii)
    matched_at_quarter = matched_curve[quarter][1]
    assert matched_at_quarter >= 0.9
    accuracies = [acc for _, acc, _ in matched_curve]
    assert all(b <= a for a, b in zip(accuracies, accuracies[1:]))

    mismatched_curve = _train_and_certify(0.05, radii)
    mismatched_at_quarter = mismatched_curve[quarter][1]
    assert matched_at_quarter > mismatched_at_quarter
    _passed(f"criterion 10 (end-to-end: matched {matched_at_quarter:.3f} > "
            f"mismatched {mismatched_at_quarter:.3f} at r=0.25)", t0)


def test_criterion_11_reporting_math():
    t0 = _start()
    # 100-parameter grid against the high-precision oracle
    grid = [(y, m, alpha, rho)
            for m in [10, 100, 500, 2000]
            for y in [0, m // 4, m // 2, (3 * m) // 4, m]
            for alpha in [0.001, 0.01, 0.05]
            for rho in [0.001, 0.05]]
    assert len(grid) >= 100
    for y, m, alpha, rho in grid:
        assert abs(bernstein_lower_bound(y, m, alpha, rho)
                   - reference.bernstein_ref(y, m, alpha, rho)) < 1e-12

    # 500-record run: the Bernstein correction is negligible at small alpha
    features, labels = two_gaussians(500, center=2.0, std=1.0, seed=11)
    model = LinearModel([1.0, 0.0], 0.0)
    params = SmoothingParams(sigma=0.5, n0=50, n=2000, alpha=0.001)
    stream = NoiseStream(1111)
    records = []
    for i, (x, c) in enumerate(zip(features, labels)):
        cert = certify(model, params, x, stream, example_id=i)
        records.append(CertificationRecord(
            example_index=i, true_label=int(c),
            outcome="abstain" if cert.abstained else "certified",
            predicted_label=cert.label if not cert.abstained else None,
            radius=cert.radius, pa_lower=cert.pa_lower, counts=None,
            sigma=0.5, n0=50, n=2000, alpha=0.001, seed=1111, wall_time_ms=0.0))
    rows = accuracy_curve(records, [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5], rho=0.001)
    for _, approx, lower in rows:
        assert 0.0 <= approx - lower <= 0.02
    _passed("criterion 11 (reporting math and negligible Bernstein gap)", t0)


def test_criterion_12_determinism(tmp_path):
    t0 = _start()
    data = tmp_path / "data.csv"
    features, labels = two_gaussians(30, center=2.0, std=0.8, seed=3)
    write_csv(data, features, labels)
    model_path = tmp_path / "model.model"
    from smoothcert.modelio import save_model
    save_model(LinearModel([1.0, -0.5], 0.1), model_path)

    blobs = []
    for run, workers in [(0, "1"), (1, "1"), (2, "4"), (3, "8")]:
        out = tmp_path / f"run{run}.jsonl"
        code = cli_main(["certify", "--data", str(data), "--model", str(model_path),
                         "--out", str(out), "--sigma", "0.5", "--n0", "50",
                         "--n", "2000", "--alpha", "0.01", "--seed", "99",
                         "--parallelism", workers, "--batch-size", "250",
                         "--store-counts", "--no-timing"])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    _passed("criterion 12 (byte-identical records at parallelism 1, 4, 8)", t0)
