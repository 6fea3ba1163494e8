"""Versioned plain-text model files.

Format: one header line "smoothcert-model <version> <kind> <dims...>" where
the dims are kind-specific and end with the label count, followed by all
parameters as whitespace-separated decimals with 17 significant digits in
row-major order, one parameter per line.  Kinds:

    constant <dim> <labels>            params: label
    linear   <dim> 2                   params: w[0..dim) b
    interval 1 2                       params: t inner_label outer_label
    logistic <dim> <labels>            params: W row-major, biases
    mlp      <dim> <hidden> <labels>   params: W1, b1, W2, b2

A file must hold exactly the parameters its header implies, all finite,
labels must be integers in range(labels), and every dim must be >= 1 except
a constant model's dim, where 0 means inputs of any dimension.  The same
format serves trained models and the fixed constant, linear and interval
classifiers.
"""

from __future__ import annotations

import math

import numpy as np

from .oracles import ConstantClassifier, IntervalClassifier, LinearModel
from .training import MlpModel, SoftmaxLinearModel

FORMAT_VERSION = 1
_MAGIC = "smoothcert-model"


def _label(value, num_labels: int) -> int:
    if value != int(value) or not 0 <= value < num_labels:
        raise ValueError(f"label {value} is not an integer in range({num_labels})")
    return int(value)


# kind -> (class, header dims and parameters as model attribute names,
#          parameter shapes from the header dims, model from dims and parameters)
_KINDS = {
    "constant": (ConstantClassifier, ("dim", "num_labels"), ("label",),
                 lambda dim, labels: [()],
                 lambda dims, label: ConstantClassifier(_label(label, dims[1]), dims[1],
                                                        dim=dims[0])),
    "linear": (LinearModel, ("dim", "num_labels"), ("w", "b"),
               lambda dim, labels: [(dim,), ()],
               lambda dims, w, b: LinearModel(w, b)),
    "interval": (IntervalClassifier, ("dim", "num_labels"), ("t", "inner_label", "outer_label"),
                 lambda dim, labels: [(), (), ()],
                 lambda dims, t, inner, outer: IntervalClassifier(
                     float(t), _label(inner, dims[1]), _label(outer, dims[1]))),
    "logistic": (SoftmaxLinearModel, ("dim", "num_labels"), ("weights", "biases"),
                 lambda dim, labels: [(labels, dim), (labels,)],
                 lambda dims, weights, biases: SoftmaxLinearModel(weights, biases)),
    "mlp": (MlpModel, ("dim", "hidden_width", "num_labels"), ("w1", "b1", "w2", "b2"),
            lambda dim, hidden, labels: [(hidden, dim), (hidden,), (labels, hidden), (labels,)],
            lambda dims, *params: MlpModel(*params)),
}
_KIND_OF_CLASS = {entry[0]: name for name, entry in _KINDS.items()}


def _fmt(values) -> str:
    flat = np.asarray(values, dtype=np.float64).ravel()
    return " ".join(f"{v:.17g}" for v in flat)


def save_model(model, path) -> None:
    name = _KIND_OF_CLASS.get(type(model))
    if name is None:
        raise ValueError(f"cannot serialize model type {type(model).__name__}")
    _, dim_names, param_names, _, _ = _KINDS[name]
    dims = " ".join(str(getattr(model, d)) for d in dim_names)
    body = "\n".join(_fmt(getattr(model, p)) for p in param_names)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC} {FORMAT_VERSION} {name} {dims}\n{body}\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        tokens = fh.read().split()
    if len(header) < 4 or header[0] != _MAGIC:
        raise ValueError(f"{path}: not a model file")
    if header[1] != str(FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported format version {header[1]}")
    name = header[2]
    if name not in _KINDS:
        raise ValueError(f"{path}: unknown model kind '{name}'")
    _, dim_names, _, shapes_of, build = _KINDS[name]
    try:
        dims = tuple(int(v) for v in header[3:])
        values = np.asarray([float(v) for v in tokens])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if len(dims) != len(dim_names) or min(dims) < 0:
        raise ValueError(f"{path}: a {name} header needs the dims {' '.join(dim_names)}")
    if 0 in (dims[1:] if name == "constant" else dims):
        raise ValueError(f"{path}: a {name} model needs every dim >= 1; "
                         "only a constant model takes dim 0")
    shapes = shapes_of(*dims)
    sizes = [math.prod(shape) for shape in shapes]
    if len(values) != sum(sizes):
        problem = "truncated parameter section" if len(values) < sum(sizes) else "extra values"
        raise ValueError(f"{path}: {problem}: {name} {' '.join(header[3:])} takes "
                         f"{sum(sizes)} parameters, the file holds {len(values)}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite parameter")
    params = [part.reshape(shape) for part, shape
              in zip(np.split(values, np.cumsum(sizes)[:-1]), shapes)]
    try:
        model = build(dims, *params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    implied = tuple(getattr(model, d) for d in dim_names)
    if implied != dims:
        raise ValueError(f"{path}: the parameters imply dims {' '.join(map(str, implied))}")
    return model
