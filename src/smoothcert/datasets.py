"""CSV datasets and the built-in synthetic generators.

Dataset files are plain CSV with a header: a ``label`` column of nonnegative
integers plus one column per feature, in raw input units (certified radii are
reported in the same units, so no standardization happens here or anywhere
downstream).
"""

from __future__ import annotations

import csv
import math

import numpy as np


def write_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"x{j}" for j in range(features.shape[1])])
        for y, row in zip(labels, features):
            writer.writerow([int(y)] + [f"{v:.17g}" for v in row])


def read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) from a CSV with a 'label' column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "label" not in header:
            raise ValueError(f"{path}: expected a CSV header with a 'label' column")
        if header.count("label") > 1:
            raise ValueError(f"{path}:1: more than one 'label' column")
        label_idx = header.index("label")
        feature_idx = [j for j in range(len(header)) if j != label_idx]
        labels, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: {len(row)} cells under a "
                                 f"{len(header)}-column header")
            try:
                labels.append(int(row[label_idx]))
                rows.append([float(row[j]) for j in feature_idx])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed row") from exc
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}:{line_no}: non-finite feature value")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if np.any(labels_arr < 0):
        raise ValueError(f"{path}: labels must be nonnegative")
    return np.asarray(rows, dtype=np.float64), labels_arr


def _check_finite(**params) -> None:
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def two_gaussians(count: int, center: float = 2.0, std: float = 1.0,
                  seed: int = 0, std1: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """2-D binary data: class 0 around (-center, 0), class 1 around (+center, 0).

    std sets the class-0 spread; std1 (default: same as std) sets class 1's.
    Unequal spreads make the noise-optimal decision boundary sit away from
    the clean-optimal one, which is what makes training noise matter.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    _check_finite(center=center, std=std, std1=std1)
    rng = np.random.default_rng(seed)
    half = count // 2
    sizes = [count - half, half]
    spreads = [std, std if std1 is None else std1]
    xs, ys = [], []
    for label, sign in enumerate((-1.0, 1.0)):
        pts = rng.normal(0.0, spreads[label], size=(sizes[label], 2))
        pts[:, 0] += sign * center
        xs.append(pts)
        ys.append(np.full(sizes[label], label, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


def xor_grid(count: int, center: float = 1.5, std: float = 0.5,
             seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """2-D XOR pattern: four blobs at (+-center, +-center); label 1 where the
    quadrant signs differ."""
    if count < 4:
        raise ValueError("count must be >= 4")
    _check_finite(center=center, std=std)
    rng = np.random.default_rng(seed)
    corners = [(1, 1), (-1, -1), (1, -1), (-1, 1)]
    per = [count // 4 + (1 if i < count % 4 else 0) for i in range(4)]
    xs, ys = [], []
    for (sx, sy), size in zip(corners, per):
        pts = rng.normal(0.0, std, size=(size, 2))
        pts[:, 0] += sx * center
        pts[:, 1] += sy * center
        xs.append(pts)
        ys.append(np.full(size, int(sx != sy), dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


GENERATORS = {"two-gaussians": two_gaussians, "xor-grid": xor_grid}
