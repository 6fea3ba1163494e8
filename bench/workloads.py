"""The benchmark workloads: inputs from a seed, one operation, its checks.

Every workload is a closed loop with one client.  Its inputs form a *cycle*
of items, and a run stops on a cycle boundary, so it measures the cycle's
mix of items.

* ``certify_mlp``: the README walkthrough.  An MLP(32) trained at sigma 0.5
  on the walkthrough's two-gaussians data, then ``smoothcert certify`` at
  n0=100, n=1e5, alpha=1e-3 per example of a stratified sample of the
  walkthrough's test distribution.  The Clopper-Pearson bound dominates.
* ``certify_784``: ``smoothcert certify`` of a d=784 halfspace at n=1e4,
  sigma 0.25, ``--parallelism 2``, on points at fixed margins (one abstains,
  one reaches the radius ceiling).  The noise stream dominates, the
  in-example thread pool runs, and the halfspace oracle gives exact truth.
* ``report_project``: ``smoothcert report --project-n 1000000`` over records
  written here in the v1 format.  No noise and no forward pass: record
  reading, the projection and the bound at k of about 1e6.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

import checks

ALPHA = 0.001
N0 = 100
MLP_SIGMA = 0.5
SIGMA_784 = 0.25
# (x0 of the mean, spread) of each walkthrough class, as in the README's
# ``dataset --kind two-gaussians --center 1.2 --std 0.15 --std1 0.9``
MLP_CLASSES = ((-1.2, 0.15), (1.2, 0.9))
# the walkthrough trains one model on fixed data (dataset --seed 7, train
# --seed 0); so does the benchmark, and the workload seed draws the test
# sample and the certification noise.  A seed-dependent model would add its
# own spread to radius_mean
MLP_TRAIN_SEEDS = (7, 0)
# signed distance of each halfspace item to the boundary, in units of sigma;
# 0 abstains, 6 reaches the ceiling of n = 1e4
MARGINS_784 = (0.0, -0.5, 1.5, 6.0)
# (kind, range of the top-class share) of each report fixture record; the
# bound's cost grows with the count, so narrow ranges keep the cost of a
# cycle the same for every seed, and an odd count puts the median latency
# inside one kind
FIXTURE_KINDS = (("ceiling", 1.0, 1.0), ("high", 0.97, 0.975), ("mid", 0.78, 0.8),
                 ("low", 0.66, 0.68), ("abstain", 0.4, 0.42))
REPORT_RADII = (0.0, 2.5, 0.005)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark, tests shrink them."""

    train_points: int = 1000
    epochs: int = 400
    certify_n: int = 100_000
    per_class: int = 13  # a Fibonacci number
    label_draws: int = 1 << 11
    dim_784: int = 784
    n_784: int = 10_000
    fixture_n: int = 100_000
    project_n: int = 1_000_000


@dataclass
class Outcome:
    """What one operation produced, as the checks read it."""

    problems: list = field(default_factory=list)
    abstained: bool = False
    radius: float | None = None      # certified radius when the label is right
    at_ceiling: bool = False
    wrong: bool = False              # contradicts ground truth (alpha allows a few)
    bytes_written: int = 0


def _write_csv(path, xs, labels) -> None:
    """CSV in the documented dataset format: a label column, then features."""
    xs = np.atleast_2d(xs)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"x{j}" for j in range(xs.shape[1])])
        for y, row in zip(labels, xs):
            writer.writerow([int(y)] + [f"{v:.17g}" for v in row])


def _cli(argv) -> int:
    """smoothcert.cli.main in-process; its stderr summary is swallowed."""
    from smoothcert import cli
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Workload:
    """Base: ``setup`` writes the inputs, ``op`` runs one item, ``outcome``
    checks what it produced."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.items: list = []

    def setup(self, workdir: str) -> None:
        raise NotImplementedError

    def op(self, item, index: int):
        raise NotImplementedError

    def outcome(self, item, index: int, raw) -> Outcome:
        raise NotImplementedError


def train_walkthrough_model(sizes: Sizes, workdir: str) -> str:
    """The walkthrough's data and ``smoothcert train`` call; returns the model path."""
    data_seed, train_seed = MLP_TRAIN_SEEDS
    rng = np.random.default_rng(data_seed)
    half = sizes.train_points // 2
    (x00, std0), (x01, std1) = MLP_CLASSES
    class0 = rng.normal(0.0, std0, size=(sizes.train_points - half, 2)) + [x00, 0.0]
    class1 = rng.normal(0.0, std1, size=(half, 2)) + [x01, 0.0]
    train = os.path.join(workdir, "train.csv")
    _write_csv(train, np.vstack([class0, class1]), [0] * len(class0) + [1] * half)
    model = os.path.join(workdir, "base.model")
    rc = _cli(["train", "--data", train, "--out", model, "--model-kind", "mlp",
               "--hidden-width", 32, "--sigma-train", MLP_SIGMA, "--epochs", sizes.epochs,
               "--lr", 1.0, "--seed", train_seed])
    if rc != 0:
        raise RuntimeError(f"smoothcert train exited {rc}")
    return model


def walkthrough_items(seed: int, sizes: Sizes, model_path: str) -> list[dict]:
    """A stratified sample of the walkthrough's test distribution.

    Each class gets a randomly shifted Fibonacci lattice mapped through its
    Gaussian: every coordinate has one point per stratum and the points fill
    the square evenly, so the share of points near the boundary, and with it
    the mix of radii and of top counts (which set the bound's cost), varies
    little from seed to seed; an independent sample of this size moved
    radius_mean about twice as much.  Labels are the classes the points were
    drawn from.  The smoothed label comes from this benchmark's own forward
    pass of the saved model on ``label_draws`` noise draws; points whose
    class-1 share is far from 1/2 are *decisive*: a certificate of the other
    label is wrong.
    """
    labels_of = checks.load_mlp_labeler(model_path)
    rng = np.random.default_rng([seed, 2])
    m = sizes.per_class
    g, f = 1, 1  # consecutive Fibonacci numbers; the lattice needs f = m
    while f < m:
        g, f = f, g + f
    if f != m:
        raise ValueError(f"per_class must be a Fibonacci number, not {m}")
    i = np.arange(m)
    items = []
    for label, (x0, std) in enumerate(MLP_CLASSES):
        strata = (np.stack([(i + 0.5) / m, i * g / m]) + rng.random((2, 1))) % 1.0
        for x in std * ndtri(strata).T + [x0, 0.0]:
            noise = MLP_SIGMA * rng.standard_normal((sizes.label_draws, 2))
            p1 = float(np.mean(labels_of(x + noise) == 1))
            items.append({"x": x, "label": label, "smoothed": int(p1 > 0.5),
                          "decisive": abs(p1 - 0.5) >= 0.2})
    return items


class CertifyWorkload(Workload):
    """One ``smoothcert certify --store-counts`` call per item."""

    sigma = 0.0
    parallelism = 1

    def n(self) -> int:
        raise NotImplementedError

    def ceiling(self) -> float:
        return checks.radius_ceiling(self.n(), ALPHA, self.sigma)

    def _write_items(self, workdir, points) -> None:
        self.workdir = workdir
        self.items = []
        for k, item in enumerate(points):
            item["csv"] = os.path.join(workdir, f"item{k}.csv")
            _write_csv(item["csv"], item["x"], [item["label"]])
            self.items.append(item)

    def op(self, item, index: int):
        out = os.path.join(self.workdir, f"out{index}.jsonl")
        rc = _cli(["certify", "--data", item["csv"], "--model", self.model_path,
                   "--out", out, "--sigma", self.sigma, "--n0", N0, "--n", self.n(),
                   "--alpha", ALPHA, "--seed", self.seed * 1_000_003 + index,
                   "--store-counts", "--parallelism", self.parallelism])
        return rc, out

    def outcome(self, item, index: int, raw) -> Outcome:
        rc, out = raw
        if rc != 0:
            return Outcome(problems=[f"certify exited {rc}"])
        recs = checks.read_jsonl(out)
        if len(recs) != 1:
            return Outcome(problems=[f"{len(recs)} records for one example"])
        rec = recs[0]
        result = Outcome(problems=checks.certificate_problems(rec),
                         abstained=rec["outcome"] == "abstain",
                         bytes_written=os.path.getsize(out))
        if not result.abstained and not result.problems:
            radius = checks.decode_radius(rec["radius"])
            result.wrong = self._wrong(item, rec["predicted_label"], radius)
            if rec["predicted_label"] == item["label"]:
                result.radius = radius
            result.at_ceiling = radius >= 0.99 * self.ceiling()
        return result

    def _wrong(self, item, label, radius) -> bool:
        raise NotImplementedError


class CertifyMlp(CertifyWorkload):
    name = "certify_mlp"
    sigma = MLP_SIGMA

    def n(self) -> int:
        return self.sizes.certify_n

    def setup(self, workdir: str) -> None:
        self.model_path = train_walkthrough_model(self.sizes, workdir)
        self._write_items(workdir, walkthrough_items(self.seed, self.sizes, self.model_path))

    def _wrong(self, item, label, radius) -> bool:
        return item["decisive"] and label != item["smoothed"]


class Certify784(CertifyWorkload):
    name = "certify_784"
    sigma = SIGMA_784
    parallelism = 2

    def n(self) -> int:
        return self.sizes.n_784

    def setup(self, workdir: str) -> None:
        from smoothcert.modelio import save_model
        from smoothcert.oracles import LinearModel

        d = self.sizes.dim_784
        rng = np.random.default_rng([self.seed, 784])
        self.w, self.b = rng.standard_normal(d), float(rng.standard_normal())
        unit = self.w / np.linalg.norm(self.w)
        points = []
        for margin in MARGINS_784:
            base = rng.standard_normal(d)
            base -= (base @ self.w + self.b) / (self.w @ self.w) * self.w
            x = base + margin * self.sigma * unit
            points.append({"x": x, "label": int(x @ self.w + self.b > 0.0)})
        self.model_path = os.path.join(workdir, "halfspace.model")
        save_model(LinearModel(self.w, self.b), self.model_path)
        self._write_items(workdir, points)

    def _wrong(self, item, label, radius) -> bool:
        """Halfspace truth: the label is sign(w.x + b) and no radius may pass
        the exact distance |w.x + b| / ||w|| to the boundary."""
        margin = float(item["x"] @ self.w + self.b)
        true_radius = abs(margin) / float(np.linalg.norm(self.w))
        return label != int(margin > 0.0) or radius > true_radius * (1.0 + 1e-9) + 1e-12


class ReportProject(Workload):
    """``smoothcert report --project-n`` over one v1 record per call."""

    name = "report_project"
    sigma = MLP_SIGMA

    def ceiling(self) -> float:
        return checks.radius_ceiling(self.sizes.project_n, ALPHA, self.sigma)

    def setup(self, workdir: str) -> None:
        """Write each fixture record as ``smoothcert certify --store-counts``
        would have, bounds from scipy; projecting n -> project_n scales the
        integer counts exactly, so the reference result is known."""
        if self.sizes.project_n % self.sizes.fixture_n:
            raise ValueError("project_n must be a multiple of fixture_n")
        self.workdir = workdir
        rng = np.random.default_rng([self.seed, 3])
        n = self.sizes.fixture_n
        self.items = []
        for k, (_, lo, hi) in enumerate(FIXTURE_KINDS):
            top = int(round(n * rng.uniform(lo, hi)))
            label = int(rng.integers(2))
            pa = checks.reference_pa_lower(top, n, ALPHA)
            certified = pa > 0.5
            counts = {str(c): v for c, v in sorted({label: top, 1 - label: n - top}.items()) if v}
            rec = {"example_index": k, "true_label": label if certified else 1 - label,
                   "outcome": "certified" if certified else "abstain",
                   "predicted_label": label,
                   "radius": self.sigma * float(ndtri(pa)) if certified else None,
                   "pa_lower": pa if certified else None, "counts": counts,
                   "sigma": self.sigma, "n0": N0, "n": n, "alpha": ALPHA,
                   "seed": self.seed, "wall_time_ms": 0.0}
            path = os.path.join(workdir, f"records{k}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"schema_version": 1}) + "\n")
                fh.write(json.dumps(rec) + "\n")
            scaled = top * (self.sizes.project_n // n)
            ref = checks.reference_pa_lower(scaled, self.sizes.project_n, ALPHA)
            self.items.append({
                "records": path, "radius": self.sigma * float(ndtri(ref)) if ref > 0.5 else None})

    def op(self, item, index: int):
        out = os.path.join(self.workdir, f"report{index}.json")
        start, stop, step = REPORT_RADII
        rc = _cli(["report", "--records", item["records"], "--radii", f"{start}:{stop}:{step}",
                   "--project-n", self.sizes.project_n, "--format", "json", "--out", out])
        return rc, out

    def outcome(self, item, index: int, raw) -> Outcome:
        """The one-record curve is 1 up to the projected radius and 0 beyond;
        it must switch where the scipy reference radius says."""
        rc, out = raw
        if rc != 0:
            return Outcome(problems=[f"report exited {rc}"])
        with open(out, encoding="utf-8") as fh:
            rows = json.load(fh)
        start, stop, step = REPORT_RADII
        if len(rows) != round((stop - start) / step) + 1:
            return Outcome(problems=[f"{len(rows)} rows for the radii {start}:{stop}:{step}"])
        ref = item["radius"]
        window = checks.radius_tolerance(ref, self.sigma) if ref is not None else 0.0
        problems = []
        for row in rows:
            r, acc = row["radius"], row["certified_accuracy"]
            if not 0.0 <= row["bernstein_lower_bound"] <= acc:
                problems.append(f"Bernstein bound {row['bernstein_lower_bound']!r} "
                                f"outside [0, {acc!r}] at radius {r!r}")
            if ref is not None and abs(r - ref) <= window:
                continue  # either side of the switch is right this close to it
            expected = 1.0 if ref is not None and r < ref else 0.0
            if acc != expected:
                problems.append(f"accuracy {acc!r} at radius {r!r}, reference radius {ref!r}")
        hits = [row["radius"] for row in rows if row["certified_accuracy"] == 1.0]
        result = Outcome(problems=problems[:3], abstained=not hits)
        if hits:
            result.radius = max(hits)
            result.at_ceiling = result.radius >= 0.99 * self.ceiling() - step
        return result


WORKLOADS = {cls.name: cls for cls in (CertifyMlp, Certify784, ReportProject)}
