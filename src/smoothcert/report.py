"""Aggregation of certification records into certified-accuracy curves.

The headline quantity is the approximate certified accuracy at radius r: the
fraction of examples certified correct with radius >= r.  "Approximate"
because each certificate itself may be wrong with probability alpha; the
Bernstein correction turns the approximate value into a lower bound on the
true certified accuracy holding with probability >= 1 - rho, and at the
protocol's small alpha the two are nearly indistinguishable.

Also here: the sample-budget projection, which re-runs the confidence
interval on proportionally rescaled counts to show how the curve would move
had certification used a different number of samples.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import replace

import numpy as np

from .records import CertificationRecord, certification_fields
from .smoothing import ClassCounts, decide_certification, project_counts


def bernstein_lower_bound(y: int, m: int, alpha: float, rho: float) -> float:
    """High-probability lower bound on certified accuracy from Y certified hits.

    With probability >= 1 - rho over the certification randomness,

        true accuracy >= (Y/m - alpha - sqrt(2 alpha (1-alpha) log(1/rho) / m)
                          - log(1/rho) / (3 m)) / (1 - alpha),

    clamped at zero since the expression can go negative for small m.
    """
    if not 0 <= y <= m or m < 1:
        raise ValueError("need 0 <= y <= m and m >= 1")
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    log_term = math.log(1.0 / rho)
    value = (y / m - alpha - math.sqrt(2.0 * alpha * (1.0 - alpha) * log_term / m)
             - log_term / (3.0 * m)) / (1.0 - alpha)
    return max(0.0, value)


def _uniform_alpha(records: list[CertificationRecord]) -> float:
    alphas = {rec.alpha for rec in records}
    if len(alphas) != 1:
        raise ValueError("records mix different alpha values")
    return alphas.pop()


def accuracy_curve(records: list[CertificationRecord], radii: list[float],
                   rho: float = 0.001) -> list[tuple[float, float, float]]:
    """Rows (radius, approximate accuracy, Bernstein lower bound).

    Radii must be sorted ascending and not NaN; both columns are nonincreasing
    in r and the Bernstein column never exceeds the approximate one.  The
    radii of the certified-correct records are sorted once, so each row is a
    binary search: O((m + R) log m) for m records and R radii.
    """
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be sorted ascending")
    if any(math.isnan(r) for r in radii):
        raise ValueError("radii must not be NaN")
    alpha = _uniform_alpha(records)
    m = len(records)
    hit_radii = sorted(rec.radius for rec in records if rec.correct)
    lower_by_hits: dict[int, float] = {}
    rows = []
    for r in radii:
        hits = len(hit_radii) - bisect_left(hit_radii, r)
        if hits not in lower_by_hits:
            lower_by_hits[hits] = bernstein_lower_bound(hits, m, alpha, rho)
        rows.append((float(r), hits / m, lower_by_hits[hits]))
    return rows


def project_record(rec: CertificationRecord, n_new: int) -> CertificationRecord:
    """Record as it would read had the interval seen n_new proportional counts."""
    if rec.counts is None:
        raise ValueError(f"record {rec.example_index} has no stored counts; "
                         "re-run certification with counts persistence enabled")
    label = rec.predicted_label
    if label is None:
        label = max(rec.counts, key=lambda c: (rec.counts[c], -c))
    size = max(max(rec.counts, default=0), label, rec.true_label) + 1
    vec = np.zeros(size, dtype=np.int64)
    for c, v in rec.counts.items():
        vec[c] = v
    cert = decide_certification(label, project_counts(ClassCounts(vec), n_new),
                                rec.alpha, rec.sigma)
    return replace(rec, n=n_new, **certification_fields(cert))


def projected_curve(records: list[CertificationRecord], n_new: int,
                    radii: list[float], rho: float = 0.001) -> list[tuple[float, float, float]]:
    """Accuracy curve after projecting every record's counts to total n_new."""
    if n_new < 1:
        raise ValueError("n_new must be >= 1")
    return accuracy_curve([project_record(rec, n_new) for rec in records], radii, rho)


def render_tsv(rows: list[tuple[float, float, float]]) -> str:
    """Delimited table with header; plot-ready."""
    lines = ["radius\tcertified_accuracy\tbernstein_lower_bound"]
    lines += [f"{r:.6f}\t{acc:.6f}\t{lower:.6f}" for r, acc, lower in rows]
    return "\n".join(lines) + "\n"


_JSON_ROW = ('  {\n    "radius": %s,\n    "certified_accuracy": %s,\n'
             '    "bernstein_lower_bound": %s\n  }')


def render_json(rows: list[tuple[float, float, float]]) -> str:
    """Machine-readable variant mirroring the TSV columns.

    The bytes are those of ``json.dumps(objects, indent=2)`` and a newline.
    With an indent, json falls back to its pure-Python encoder, so the floats
    go through one unindented dump, which uses the C encoder and writes each
    as the indented one would (Infinity and NaN included), and fill a row
    template.
    """
    if not rows:
        return "[]\n"
    values = json.dumps([x for row in rows for x in row])[1:-1].split(", ")
    return "[\n" + ",\n".join([_JSON_ROW] * len(rows)) % tuple(values) + "\n]\n"
