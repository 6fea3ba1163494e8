"""Persisted per-example records (JSONL, schema version 1).

Each run writes one header object followed by one record object per example.
A certification file's header is {"schema_version": 1}; its record fields
and their order are frozen:

    example_index, true_label, outcome ("certified" | "abstain"),
    predicted_label (null when no guess exists), radius (null when
    abstaining; infinity encoded as the string "inf"), pa_lower (null when
    abstaining), counts (optional {label: count} object over the n
    estimation draws, labels in plain decimal, zero counts left out), sigma,
    n0, n, alpha, seed, wall_time_ms

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

from .noise import is_seed
from .smoothing import SmoothingParams

SCHEMA_VERSION = 1

_REQUIRED_FIELDS = ("example_index", "true_label", "outcome", "predicted_label",
                    "radius", "pa_lower", "sigma", "n0", "n", "alpha", "seed",
                    "wall_time_ms")


@dataclass(frozen=True)
class CertificationRecord:
    """One certified or abstaining example; sigma, n0, n and alpha must lie in
    SmoothingParams' ranges, the seed must obey the seed rule, and a certified
    pa_lower must exceed 1/2, below which certification abstains."""

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
        SmoothingParams(sigma=self.sigma, n0=self.n0, n=self.n, alpha=self.alpha)
        if not is_seed(self.seed):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed}")
        for name in ("example_index", "true_label", "predicted_label"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.counts is not None and any(c < 0 or v < 0 for c, v in self.counts.items()):
            raise ValueError(f"counts must map labels >= 0 to counts >= 0, got {self.counts}")
        if self.outcome not in ("certified", "abstain"):
            raise ValueError("outcome must be 'certified' or 'abstain'")
        if self.outcome == "certified":
            if self.predicted_label is None or self.radius is None or self.pa_lower is None:
                raise ValueError("certified records need label, radius, and pa_lower")
            # NaN fails both comparisons
            if not self.radius >= 0.0:
                raise ValueError(f"radius must be >= 0, got {self.radius}")
            if not 0.5 < self.pa_lower <= 1.0:
                raise ValueError(f"a certified pa_lower must be in (1/2, 1], got {self.pa_lower}")
        elif self.radius is not None or self.pa_lower is not None:
            raise ValueError("abstaining records carry no radius or pa_lower")

    @property
    def correct(self) -> bool:
        """True iff a certificate was issued for the true label."""
        return self.outcome == "certified" and self.predicted_label == self.true_label


def _encode_radius(radius: float | None):
    if radius is None:
        return None
    return "inf" if math.isinf(radius) else float(radius)


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


def _number(value, name: str, kind=float, nullable: bool = False):
    """A decoded JSON value as kind (int or float); a wrong type is a ValueError.

    As for the CLI's options, booleans and strings are not numbers, and an
    integer field takes a float only when it is integral.
    """
    if value is None and nullable:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}"
                         f"{' or null' if nullable else ''}, got {json.dumps(value)}")
    return kind(value)


def _count_key(key: str) -> int:
    """A counts key as its label; only the decimal a writer emits is accepted,
    so "00" or " 0" cannot alias "0"."""
    if not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise ValueError(f"counts key {json.dumps(key)} must be a label 0, 1, 2, ...")
    return int(key)


def _record_from_object(obj: dict) -> CertificationRecord:
    missing = [f for f in _REQUIRED_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"record missing fields: {', '.join(missing)}")
    counts = obj.get("counts")
    if counts is not None:
        if not isinstance(counts, dict):
            raise ValueError(f"counts must be an object or null, got {json.dumps(counts)}")
        counts = {_count_key(k): _number(v, f"counts[{k!r}]", int) for k, v in counts.items()}
        # certify stores the n estimation counts, so any other total means a
        # count was lost or aliased
        if sum(counts.values()) != _number(obj["n"], "n", int):
            raise ValueError(f"counts sum to {sum(counts.values())}, not n = {obj['n']}")
    radius = obj["radius"]
    return CertificationRecord(
        example_index=_number(obj["example_index"], "example_index", int),
        true_label=_number(obj["true_label"], "true_label", int),
        outcome=obj["outcome"],
        predicted_label=_number(obj["predicted_label"], "predicted_label", int, nullable=True),
        radius=math.inf if radius == "inf" else _number(radius, "radius", nullable=True),
        pa_lower=_number(obj["pa_lower"], "pa_lower", nullable=True),
        counts=counts,
        sigma=_number(obj["sigma"], "sigma"),
        n0=_number(obj["n0"], "n0", int),
        n=_number(obj["n"], "n", int),
        alpha=_number(obj["alpha"], "alpha"),
        seed=_number(obj["seed"], "seed", int),
        wall_time_ms=_number(obj["wall_time_ms"], "wall_time_ms"),
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is an error, where json keeps its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
        raise ValueError(f"repeated key {json.dumps(repeated)} in a JSON object")
    return obj


def read_records(path) -> list[CertificationRecord]:
    """All records of a certification JSONL file; errors name the file and line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line, object_pairs_hook=_unique_keys)
                if not isinstance(obj, dict):
                    raise ValueError(f"a record line must be a JSON object, got {line}")
                if "schema_version" not in obj:
                    records.append(_record_from_object(obj))
                elif obj["schema_version"] != SCHEMA_VERSION:
                    raise ValueError(f"unsupported schema version {obj['schema_version']}")
                elif obj.get("kind", "certification") != "certification":
                    raise ValueError(f"holds {obj['kind']} records, not certification records")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return records
