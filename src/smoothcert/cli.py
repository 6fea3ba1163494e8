"""Command-line front end for the certification pipeline.

Subcommands cover every stage: ``dataset`` (synthetic data), ``train``
(noise-augmented training), ``certify`` and ``predict`` (the Monte Carlo
protocols, one JSONL record per example), ``attack`` (projected-gradient
attack), ``bounds`` (closed-form radii), and ``report`` (accuracy tables
from records).

Exit statuses: 0 success, 1 runtime failure, 2 usage or input error.
Flags override config-file values, which override the built-in defaults
(SmoothingParams' n0, n and alpha); a seed outside [0, 2^64) exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .attack import AttackParams, pgd_attack
from .datasets import GENERATORS, read_csv, write_csv
from .modelio import load_model, save_model
from .noise import NoiseStream, is_seed
from .records import CertificationRecord, RecordWriter, certification_fields, read_records
from .report import accuracy_curve, projected_curve, render_json, render_tsv
from .smoothing import DEFAULT_BATCH_SIZE, SmoothingParams, certify, predict
from .training import LabeledExample, TrainConfig, train_with_noise

_PROTOCOL_DEFAULTS = {f.name: f.default for f in fields(SmoothingParams)} | {
    "sigma": None, "seed": 0, "parallelism": 1, "batch_size": DEFAULT_BATCH_SIZE}


class UsageError(Exception):
    """Bad input from the user: missing files, malformed values (exit 2)."""


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(config) - set(_PROTOCOL_DEFAULTS))
    if unknown:
        raise UsageError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return config


def _resolve(args, config: dict, key: str, required: bool = False):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, _PROTOCOL_DEFAULTS.get(key))
    if value is None and required:
        raise UsageError(f"--{key.replace('_', '-')} is required (flag or config file)")
    return value


def _option(args, config: dict, key: str, kind, required: bool = False):
    """A resolved option converted by kind (int or float); a wrong type is a usage error.

    Booleans are never numbers here, and an integer option takes a float only
    when it is integral: int() would turn true into 1 and 20.7 into 20.
    """
    value = _resolve(args, config, key, required)
    wrong = UsageError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                       f"got {value!r}")
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise wrong
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise wrong


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError turned into a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _seed(args, config: dict, last_index: int = 0) -> int:
    """The resolved seed; noise.is_seed must hold for it and for seed + last_index."""
    seed = _option(args, config, "seed", int)
    if not is_seed(seed):
        raise UsageError(f"--seed must be an integer in [0, 2^64), got {seed}")
    if not is_seed(seed + last_index):
        raise UsageError(f"--seed {seed} + last attacked index {last_index} is not below 2^64")
    return seed


def _protocol(args, config) -> tuple[SmoothingParams, int, int, int]:
    """Smoothing parameters, seed, parallelism and batch size, checked up front."""
    sigma = _option(args, config, "sigma", float, required=True)
    alpha = _option(args, config, "alpha", float)
    seed = _seed(args, config)
    n0, n, parallelism, batch_size = (
        _option(args, config, key, int) for key in ("n0", "n", "parallelism", "batch_size"))
    params = _checked(SmoothingParams, sigma=sigma, n0=n0, n=n, alpha=alpha)
    if parallelism < 1:
        raise UsageError("--parallelism must be >= 1")
    if batch_size < 1:
        raise UsageError("--batch-size must be >= 1")
    return params, seed, parallelism, batch_size


def _read_input(read, path, what: str):
    """read(path); a missing or malformed file is a usage error (the readers name it)."""
    try:
        return read(path)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}")
    except ValueError as exc:
        raise UsageError(str(exc))


def _open_inputs(args):
    """(features, labels, model) from --data and --model, dimensions checked."""
    features, labels = _read_input(read_csv, args.data, "dataset")
    model = _read_input(load_model, args.model, "model")
    if model.dim and features.shape[1] != model.dim:  # dim 0 accepts any input
        raise UsageError(f"model expects dimension {model.dim}, dataset has "
                         f"{features.shape[1]} features")
    return features, labels, model


def _add_sampling_flags(sub, with_n0: bool = True):
    sub.add_argument("--sigma", type=float, help="noise standard deviation (input units)")
    flags = [("n0", int, "selection samples"), ("n", int, "estimation samples"),
             ("alpha", float, "failure probability"), ("seed", int, "run seed"),
             ("parallelism", int, "sampling worker count"),
             ("batch_size", int, "most rows per base-classifier call")]
    for key, kind, text in flags if with_n0 else flags[1:]:
        note = "; each worker samples in blocks of at most 2^16 deviates" \
            if key == "batch_size" else ""
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                         help=f"{text} (default {_PROTOCOL_DEFAULTS[key]}){note}")


def _run_examples(args, decide, record, kind: str, verb: str) -> int:
    """The example loop of certify and predict: decide(model, params, x, ...)
    is certify or predict, and record(idx, true_label, outcome, params, seed,
    wall_ms) builds what the writer takes.  The timer, the tallies and the
    stderr summary are the same for both."""
    params, seed, parallelism, batch_size = _protocol(args, _load_config(args.config))
    features, labels, model = _open_inputs(args)
    stream = NoiseStream(seed)

    n_right = n_abstained = 0
    t_start = time.perf_counter()
    with RecordWriter(args.out, kind=kind) as writer:
        for idx, (x, true_label) in enumerate(zip(features, labels)):
            t0 = time.perf_counter()
            outcome = decide(model, params, x, stream, example_id=idx,
                             batch_size=batch_size, parallelism=parallelism)
            wall_ms = 0.0 if args.no_timing else (time.perf_counter() - t0) * 1000.0
            n_abstained += outcome.abstained
            n_right += outcome.label == true_label  # an abstention's label is None
            writer.write(record(idx, int(true_label), outcome, params, seed, wall_ms))
    total_ms = (time.perf_counter() - t_start) * 1000.0
    n_wrong = len(labels) - n_right - n_abstained
    print(f"{verb} {n_right} abstained {n_abstained} wrong {n_wrong} "
          f"wall_ms {total_ms:.1f}", file=sys.stderr)
    return 0


def _run_certify(args) -> int:
    def record(idx, true_label, cert, params, seed, wall_ms):
        return CertificationRecord(
            example_index=idx, true_label=true_label,
            **certification_fields(cert, store_counts=args.store_counts),
            sigma=params.sigma, n0=params.n0, n=params.n, alpha=params.alpha,
            seed=seed, wall_time_ms=wall_ms)

    return _run_examples(args, certify, record, "certification", "certified")


def _run_predict(args) -> int:
    def record(idx, true_label, outcome, params, seed, wall_ms):
        return {"example_index": idx, "true_label": true_label,
                "outcome": "abstain" if outcome.abstained else "predicted",
                "predicted_label": outcome.label, "sigma": params.sigma, "n": params.n,
                "alpha": params.alpha, "seed": seed, "wall_time_ms": wall_ms}

    return _run_examples(args, predict, record, "prediction", "predicted")


def _run_bounds(args) -> int:
    pa = args.pa
    pb = args.pb if args.pb is not None else 1.0 - pa
    inputs = _checked(bounds_mod.BoundInputs, pa_lower=pa, pb_upper=pb, sigma=args.sigma)
    kinds = {"tight": bounds_mod.tight_radius, "dp": bounds_mod.dp_radius,
             "renyi": bounds_mod.renyi_radius}
    selected = kinds if args.kind == "all" else {args.kind: kinds[args.kind]}
    for name, fn in selected.items():
        radius = fn(inputs)
        text = "inf" if radius == float("inf") else f"{radius:.9f}"
        print(f"{name}\t{text}")
    return 0


def _run_train(args) -> int:
    seed = _seed(args, _load_config(args.config))
    features, labels = _read_input(read_csv, args.data, "dataset")
    cfg = _checked(TrainConfig, sigma_train=args.sigma_train, epochs=args.epochs,
                   learning_rate=args.lr, batch_size=args.train_batch_size, seed=seed,
                   model_kind=args.model_kind, hidden_width=args.hidden_width)
    examples = [LabeledExample(x, int(y)) for x, y in zip(features, labels)]
    model = train_with_noise(examples, cfg)
    save_model(model, args.out)
    train_acc = float(np.mean(model.classify_batch(features) == labels))
    print(f"trained {args.model_kind} epochs {cfg.epochs} "
          f"final_loss {model.loss_history[-1]:.6f} clean_train_acc {train_acc:.4f}",
          file=sys.stderr)
    return 0


def _run_attack(args) -> int:
    config = _load_config(args.config)
    sigma = _option(args, config, "sigma", float, required=True)
    features, labels, model = _open_inputs(args)
    if args.records is not None:
        if not args.scale > 0.0:
            raise UsageError("--scale must be positive")
        radii = {rec.example_index: rec.radius * args.scale
                 for rec in _read_input(read_records, args.records, "records") if rec.correct}
    elif args.radius is not None:
        radii = dict.fromkeys(range(len(labels)), args.radius)
    else:
        raise UsageError("attack needs --radius or --records with --scale")
    seed = _seed(args, config, last_index=max(radii.keys() & range(len(labels)), default=0))
    # every option is checked before the output opens; each example then gets
    # its own radius and seed
    params = _checked(AttackParams, radius=min(radii.values(), default=1.0), sigma=sigma,
                      k=args.k, steps=args.steps, step_size=args.step_size, seed=seed)

    n_success = n_run = 0
    with RecordWriter(args.out, kind="attack") as writer:
        for idx, (x, true_label) in enumerate(zip(features, labels)):
            if idx not in radii:
                continue
            example = replace(params, radius=radii[idx], seed=seed + idx)
            result = pgd_attack(model, x, int(true_label), example)
            n_run += 1
            n_success += int(result.success)
            writer.write({
                "example_index": idx, "true_label": int(true_label),
                "radius": example.radius, "success": result.success,
                "delta_norm": float(np.linalg.norm(result.delta)),
                "zero_gradient_steps": result.zero_gradient_steps,
                "seed": example.seed})
    rate = n_success / n_run if n_run else 0.0
    print(f"attacked {n_run} succeeded {n_success} rate {rate:.4f}", file=sys.stderr)
    return 0


def _parse_radii(text: str) -> list[float]:
    try:
        if ":" not in text:
            radii = [float(p) for p in text.split(",") if p.strip()]
            if any(math.isnan(r) for r in radii):
                raise UsageError(f"radii must not be NaN, got {text}")
        else:
            start, stop, step = (float(p) for p in text.split(":"))
            if not (step > 0.0 and math.isfinite(stop - start)):
                raise UsageError("radii range needs finite ends and a positive step")
            radii = [start + i * step for i in range(int((stop - start) / step + 1e-9) + 1)]
    except ValueError:
        raise UsageError(f"radii must be a comma list or start:stop:step, got {text}")
    if not radii:
        raise UsageError(f"radii list is empty, got {text}")
    return radii


def _run_report(args) -> int:
    records = _read_input(read_records, args.records, "records")
    if not records:
        raise UsageError(f"{args.records}: no records")
    radii = _parse_radii(args.radii)
    if args.project_n is not None:
        rows = _checked(projected_curve, records, args.project_n, radii, rho=args.rho)
    else:
        rows = _checked(accuracy_curve, records, radii, rho=args.rho)
    text = render_json(rows) if args.format == "json" else render_tsv(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _run_dataset(args) -> int:
    generator = GENERATORS[args.kind]
    kwargs = {"center": args.center, "std": args.std, "seed": _seed(args, {})}
    if args.kind == "two-gaussians":
        kwargs["std1"] = args.std1
    elif args.std1 is not None:
        raise UsageError("--std1 only applies to two-gaussians")
    features, labels = _checked(generator, args.count, **kwargs)
    write_csv(args.out, features, labels)
    print(f"wrote {len(labels)} examples to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smoothcert",
                                     description="Gaussian-smoothing L2 robustness certification")
    subs = parser.add_subparsers(dest="command", required=True)

    certify = subs.add_parser("certify", help="certify every dataset example")
    certify.add_argument("--data", required=True, help="CSV dataset")
    certify.add_argument("--model", required=True, help="model file")
    certify.add_argument("--out", required=True, help="output JSONL records")
    certify.add_argument("--config", help="JSON config file (flags override)")
    certify.add_argument("--store-counts", action="store_true",
                         help="persist raw class counts in each record")
    certify.add_argument("--no-timing", action="store_true",
                         help="write wall_time_ms as 0.0 for byte-reproducible output")
    _add_sampling_flags(certify)
    certify.set_defaults(run=_run_certify)

    predict = subs.add_parser("predict", help="evaluate the smoothed classifier")
    predict.add_argument("--data", required=True)
    predict.add_argument("--model", required=True)
    predict.add_argument("--out", required=True)
    predict.add_argument("--config")
    predict.add_argument("--no-timing", action="store_true")
    _add_sampling_flags(predict, with_n0=False)
    predict.set_defaults(run=_run_predict)

    bounds_p = subs.add_parser("bounds", help="closed-form certified radii")
    bounds_p.add_argument("--pa", type=float, required=True,
                          help="lower bound on the top-class probability")
    bounds_p.add_argument("--pb", type=float, help="upper bound on the runner-up "
                          "probability (default 1 - pa)")
    bounds_p.add_argument("--sigma", type=float, default=1.0)
    bounds_p.add_argument("--kind", choices=["tight", "dp", "renyi", "all"],
                          default="all")
    bounds_p.set_defaults(run=_run_bounds)

    train = subs.add_parser("train", help="train a base classifier under noise")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True, help="output model file")
    train.add_argument("--config")
    train.add_argument("--model-kind", choices=["logistic", "mlp"], default="logistic")
    train.add_argument("--hidden-width", type=int, default=32)
    train.add_argument("--sigma-train", dest="sigma_train", type=float, default=0.0,
                       help="augmentation noise level")
    train.add_argument("--epochs", type=int, default=200)
    train.add_argument("--lr", type=float, default=0.5)
    train.add_argument("--batch-size", dest="train_batch_size", type=int, default=64)
    train.add_argument("--seed", type=int)
    train.set_defaults(run=_run_train)

    attack = subs.add_parser("attack", help="projected-gradient attack on the "
                             "smoothed classifier")
    attack.add_argument("--data", required=True)
    attack.add_argument("--model", required=True)
    attack.add_argument("--out", required=True)
    attack.add_argument("--config")
    attack.add_argument("--sigma", type=float)
    attack.add_argument("--radius", type=float, help="attack ball radius for every example")
    attack.add_argument("--records", help="certification records; attack certified-correct "
                        "examples at --scale times their certified radius")
    attack.add_argument("--scale", type=float, default=1.0)
    attack.add_argument("--k", type=int, default=1000, help="noise draws per step")
    attack.add_argument("--steps", type=int, default=20)
    attack.add_argument("--step-size", dest="step_size", type=float, default=0.1)
    attack.add_argument("--seed", type=int)
    attack.set_defaults(run=_run_attack)

    report = subs.add_parser("report", help="accuracy tables from records")
    report.add_argument("--records", required=True)
    report.add_argument("--radii", default="0:3:0.25",
                        help="comma list or start:stop:step (default 0:3:0.25)")
    report.add_argument("--rho", type=float, default=0.001,
                        help="failure probability of the Bernstein lower bound")
    report.add_argument("--project-n", dest="project_n", type=int,
                        help="project counts to this sample budget first")
    report.add_argument("--format", choices=["tsv", "json"], default="tsv")
    report.add_argument("--out", help="output path (default stdout)")
    report.set_defaults(run=_run_report)

    dataset = subs.add_parser("dataset", help="generate a synthetic CSV dataset")
    dataset.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    dataset.add_argument("--count", type=int, required=True)
    dataset.add_argument("--center", type=float, default=2.0)
    dataset.add_argument("--std", type=float, default=1.0)
    dataset.add_argument("--std1", type=float,
                         help="class-1 spread for two-gaussians (default: --std)")
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--out", required=True)
    dataset.set_defaults(run=_run_dataset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
