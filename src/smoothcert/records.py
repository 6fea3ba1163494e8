"""Persisted per-example records (JSONL, schema version 1).

Each run writes one header object followed by one record object per example.
A certification file's header is {"schema_version": 1}; its record fields
and their order are frozen:

    example_index, true_label, outcome ("certified" | "abstain"),
    predicted_label (null when no guess exists), radius (null when
    abstaining; infinity encoded as the string "inf"), pa_lower (null when
    abstaining), counts (optional {label: count} object), sigma, n0, n,
    alpha, seed, wall_time_ms

Prediction and attack files name their kind in the header,
{"schema_version": 1, "kind": "prediction"} or {..., "kind": "attack"}, and
hold the fields

    prediction: example_index, true_label, outcome ("predicted" | "abstain"),
                predicted_label, sigma, n, alpha, seed, wall_time_ms
    attack:     example_index, true_label, radius, success, delta_norm,
                zero_gradient_steps, seed

Unknown fields are never emitted; any addition requires a schema version
bump.  Records are written line-at-a-time and flushed, so a crashed run
leaves a prefix of valid lines.

The predicted label is recorded even for abstentions (it is the selection
batch's guess): sample-size projections need to know which class's count to
re-interval, and the outcome field already says the certificate itself was
withheld.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

SCHEMA_VERSION = 1

_REQUIRED_FIELDS = ("example_index", "true_label", "outcome", "predicted_label",
                    "radius", "pa_lower", "sigma", "n0", "n", "alpha", "seed",
                    "wall_time_ms")


@dataclass(frozen=True)
class CertificationRecord:
    example_index: int
    true_label: int
    outcome: str  # "certified" | "abstain"
    predicted_label: int | None
    radius: float | None
    pa_lower: float | None
    counts: dict[int, int] | None
    sigma: float
    n0: int
    n: int
    alpha: float
    seed: int
    wall_time_ms: float

    def __post_init__(self):
        if self.outcome not in ("certified", "abstain"):
            raise ValueError("outcome must be 'certified' or 'abstain'")
        if self.outcome == "certified":
            if self.predicted_label is None or self.radius is None or self.pa_lower is None:
                raise ValueError("certified records need label, radius, and pa_lower")
            if self.radius < 0.0:
                raise ValueError("radius must be >= 0")
        elif self.radius is not None or self.pa_lower is not None:
            raise ValueError("abstaining records carry no radius or pa_lower")

    @property
    def correct(self) -> bool:
        """True iff a certificate was issued for the true label."""
        return self.outcome == "certified" and self.predicted_label == self.true_label

    def radius_at_least(self, r: float) -> bool:
        return self.radius is not None and self.radius >= r


def _encode_radius(radius: float | None):
    if radius is None:
        return None
    return "inf" if math.isinf(radius) else float(radius)


def _decode_radius(value):
    if value is None:
        return None
    return math.inf if value == "inf" else float(value)


def certification_fields(cert, store_counts: bool = True) -> dict:
    """The record fields a smoothing.Certification decides, counts only if stored."""
    return {"outcome": "abstain" if cert.abstained else "certified",
            "predicted_label": cert.guess, "radius": cert.radius, "pa_lower": cert.pa_lower,
            "counts": {c: int(v) for c, v in enumerate(cert.counts.counts) if v}
            if store_counts else None}


def encode_record(rec: CertificationRecord) -> str:
    obj = {
        "example_index": rec.example_index,
        "true_label": rec.true_label,
        "outcome": rec.outcome,
        "predicted_label": rec.predicted_label,
        "radius": _encode_radius(rec.radius),
        "pa_lower": rec.pa_lower,
    }
    if rec.counts is not None:
        obj["counts"] = {str(k): int(v) for k, v in sorted(rec.counts.items()) if v}
    obj.update({"sigma": rec.sigma, "n0": rec.n0, "n": rec.n, "alpha": rec.alpha,
                "seed": rec.seed, "wall_time_ms": rec.wall_time_ms})
    return json.dumps(obj)


def decode_record(line: str) -> CertificationRecord:
    return _record_from_object(json.loads(line))


def _record_from_object(obj: dict) -> CertificationRecord:
    missing = [f for f in _REQUIRED_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"record missing fields: {', '.join(missing)}")
    counts = obj.get("counts")
    if counts is not None:
        counts = {int(k): int(v) for k, v in counts.items()}
    return CertificationRecord(
        example_index=int(obj["example_index"]),
        true_label=int(obj["true_label"]),
        outcome=obj["outcome"],
        predicted_label=None if obj["predicted_label"] is None else int(obj["predicted_label"]),
        radius=_decode_radius(obj["radius"]),
        pa_lower=None if obj["pa_lower"] is None else float(obj["pa_lower"]),
        counts=counts,
        sigma=float(obj["sigma"]),
        n0=int(obj["n0"]),
        n=int(obj["n"]),
        alpha=float(obj["alpha"]),
        seed=int(obj["seed"]),
        wall_time_ms=float(obj["wall_time_ms"]),
    )


class RecordWriter:
    """Incremental JSONL writer: every line is valid as soon as it returns.

    A "certification" file takes CertificationRecords; "prediction" and
    "attack" files take dicts of the fields listed above."""

    def __init__(self, path, kind: str = "certification"):
        header = {"schema_version": SCHEMA_VERSION}
        if kind != "certification":
            header["kind"] = kind
        self._encode = encode_record if kind == "certification" else json.dumps
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(json.dumps(header) + "\n")
        self._fh.flush()

    def write(self, rec) -> None:
        self._fh.write(self._encode(rec) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_records(path) -> list[CertificationRecord]:
    """All records of a certification JSONL file; errors name the file and line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if "schema_version" not in obj:
                    records.append(_record_from_object(obj))
                elif obj["schema_version"] != SCHEMA_VERSION:
                    raise ValueError(f"unsupported schema version {obj['schema_version']}")
                elif obj.get("kind", "certification") != "certification":
                    raise ValueError(f"holds {obj['kind']} records, not certification records")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return records
