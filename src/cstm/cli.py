"""Command-line entry points.

Subcommands: simulate, decompose, fit, predict, benchmark, inspect.
Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 numerical
abort, 4 file-format error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import time
from collections import Counter

import numpy as np

from . import __version__, container, experiments, stm
from .acmtf import AcmtfHyperParams, NumericalError, acmtf_decompose
from .config import (
    ConfigError,
    config_hash,
    parse_config_file,
    serialize_acmtf_params,
)
from .container import FormatError
# Not called here: perfbench's traced runs wrap cli.gram_matrix, and
# tests/test_bench_targets.py checks that the name resolves.
from .kernels import gram_matrix  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_FORMAT = 4

_VERSION = f"cstm {__version__}"

# `cstm decompose` sets every ACMTF hyperparameter but the l1 smoothing.
_DECOMPOSE_FIELDS = tuple(f for f in dataclasses.fields(AcmtfHyperParams)
                          if f.name != "epsilon")


def _sample_paths(directory: str) -> list[str]:
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise OSError(f"cannot list {directory}: {exc}") from exc
    paths = [
        os.path.join(directory, n)
        for n in names
        if n.endswith(".cstm") and not n.endswith(".factors.cstm")
    ]
    if not paths:
        raise FileNotFoundError(f"no .cstm sample files in {directory}")
    return paths


def _stop_histogram(counts) -> str:
    """``"max_iters: 6, tol: 10"`` from a mapping of stop reason to count."""
    return ", ".join(f"{stop}: {n}" for stop, n in sorted(counts.items()))


def cmd_simulate(args) -> int:
    samples = experiments.gen_case(args.case, args.n_per_class, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for i, s in enumerate(samples):
        container.write_sample(os.path.join(args.out, f"sample_{i:04d}.cstm"), s)
    container.write_manifest(
        os.path.join(args.out, "manifest.txt"),
        {
            "version": _VERSION,
            "command": "simulate",
            "case": args.case,
            "n_per_class": args.n_per_class,
            "seed": args.seed,
            "n_files": len(samples),
        },
    )
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    sample = container.read_sample(args.infile)
    params = AcmtfHyperParams(**{f.name: getattr(args, f.name) for f in _DECOMPOSE_FIELDS})
    t0 = time.perf_counter()
    factors = acmtf_decompose(sample, params, seed=args.seed)
    elapsed = time.perf_counter() - t0
    container.write_factors(args.out, factors)
    entries = {"version": _VERSION, "command": "decompose", "input": args.infile,
               "seed": args.seed, "wall_clock_s": f"{elapsed:.3f}",
               "final_objective": repr(factors.objective_history[-1]),
               "iterations": factors.stats.iterations,
               "evaluations": factors.stats.evaluations,
               "stop": factors.stats.stop,
               "converged": factors.converged}
    for line in serialize_acmtf_params(params).strip().splitlines():
        key, value = line.split(" = ", 1)
        entries[f"acmtf.{key}"] = value
    container.write_manifest(args.out + ".manifest.txt", entries)
    print(f"decomposed {args.infile} -> {args.out} "
          f"(objective {factors.objective_history[-1]:.6g})")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = parse_config_file(args.config)
    paths = _sample_paths(args.train)
    samples = [container.read_sample(p) for p in paths]
    labels = np.array([s.label for s in samples], dtype=np.float64)
    if np.any(labels == 0):
        bad = paths[int(np.flatnonzero(labels == 0)[0])]
        raise ConfigError(f"unlabeled training sample: {bad}")
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise ConfigError(f"{args.train}: training set needs +1 and -1 samples")
    t0 = time.perf_counter()
    (factors,), *_ = experiments.decompose_samples(
        samples, dataclasses.replace(cfg, methods=("cstm",)))
    t_decompose = time.perf_counter() - t0
    model = experiments.fit_methods({"cstm": factors}, labels, cfg, 0)["cstm"]
    t_total = time.perf_counter() - t0
    container.write_model(args.out, model, cfg.acmtf, cfg.prune_rel)
    container.write_manifest(
        args.out + ".manifest.txt",
        {
            "version": _VERSION,
            "command": "fit",
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
            "n_train": len(samples),
            "lambda": repr(model.lam),
            "weights": ", ".join(repr(w) for w in model.kernel.weights),
            "wall_clock_decompose_s": f"{t_decompose:.3f}",
            "wall_clock_total_s": f"{t_total:.3f}",
            "acmtf_stops": _stop_histogram(Counter(f.stats.stop for f in factors)),
        },
    )
    print(f"fit {len(samples)} samples -> {args.out} (lambda {model.lam:g})")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, params, prune_rel = container.read_model(args.model)
    paths = _sample_paths(args.infile)
    samples = [container.read_sample(p) for p in paths]
    train_dims = model.factors[0].dims
    for p, s in zip(paths, samples):
        if s.dims != train_dims:
            raise FormatError(
                f"{p}: sample dims {s.dims} do not match model dims {train_dims}"
            )
    t0 = time.perf_counter()
    (factors,), *_ = experiments.decompose_samples(samples, experiments.ExperimentConfig(
        acmtf=params, prune_rel=prune_rel, seed=args.seed, methods=("cstm",)))
    t_decompose = time.perf_counter() - t0
    scores = stm.decision_many(model, factors)
    finite = np.isfinite(scores)
    if not finite.all():
        raise NumericalError(f"{paths[int(np.argmin(finite))]}: non-finite decision score")
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("file", "score", "label"))
        for p, score, label in zip(paths, scores, stm.predict_label(scores)):
            w.writerow([os.path.basename(p), repr(float(score)), label])
    container.write_manifest(
        args.out + ".manifest.txt",
        {
            "version": _VERSION,
            "command": "predict",
            "model": args.model,
            "input": args.infile,
            "seed": args.seed,
            "n_samples": len(paths),
            "wall_clock_decompose_s": f"{t_decompose:.3f}",
            "acmtf_stops": _stop_histogram(Counter(f.stats.stop for f in factors)),
        },
    )
    print(f"wrote predictions for {len(paths)} samples to {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = parse_config_file(args.config)
    if args.threads is not None:
        cfg = dataclasses.replace(cfg, threads=args.threads)
    samples = None
    if cfg.dataset is not None:
        paths = _sample_paths(cfg.dataset)
        samples = [container.read_sample(p) for p in paths]
        labels = np.array([s.label for s in samples], dtype=np.float64)
        if np.any(labels == 0):
            bad = paths[int(np.flatnonzero(labels == 0)[0])]
            raise ConfigError(f"unlabeled sample: {bad}")
        # The per-class split counts do not depend on the seed, so one split
        # refuses every repetition's.
        experiments.stratified_split(labels, cfg.test_fraction, cfg.seed)
    elif cfg.case is None:
        raise ConfigError("missing: case")
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    summary = experiments.run_experiment(cfg, samples)
    elapsed = time.perf_counter() - t0
    summary.write_results_csv(os.path.join(args.out, "results.csv"))
    summary.write_summary_csv(os.path.join(args.out, "summary.csv"))
    entries = {
        "version": _VERSION,
        "command": "benchmark",
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "repetitions": cfg.repetitions,
        "wall_clock_s": f"{elapsed:.3f}",
        "wall_clock_decompose_s": f"{summary.decompose_seconds:.3f}",
        "wall_clock_repetitions_s": f"{summary.repetitions_seconds:.3f}",
        "acmtf_s": f"{summary.acmtf_seconds:.3f}",
        "cp_als_s": f"{summary.cp_als_seconds:.3f}",
        "mean_final_objective": repr(summary.mean_final_objective),
        "failures": len(summary.failures),
    }
    for method in summary.methods:
        entries[f"lambda.{method}"] = ", ".join(
            repr(v) for v in summary.lambdas[method]
        )
        entries[f"mean_accuracy.{method}"] = repr(summary.mean(method, "accuracy"))
    if "cstm" in summary.methods:
        entries["weights.cstm"] = "; ".join(", ".join(map(repr, w)) for w in summary.weights)
    for key, stops in (("acmtf_stops", summary.acmtf_stops),
                       ("cp_als_stops", summary.cp_als_stops)):
        if stops:
            entries[key] = _stop_histogram(stops)
    container.write_manifest(os.path.join(args.out, "manifest.txt"), entries)
    for method in summary.methods:
        print(f"{method}: accuracy {summary.mean(method, 'accuracy'):.4f} "
              f"+/- {summary.sd(method, 'accuracy'):.4f}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    info = container.inspect_file(args.infile)
    for key, value in info.items():
        print(f"{key}: {value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstm",
        description="Coupled matrix-tensor factorization and classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--n-per-class", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="factor one coupled sample")
    p.add_argument("--in", dest="infile", required=True)
    for f in _DECOMPOSE_FIELDS:
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                       default=f.default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("fit", help="train a classifier on a sample directory")
    p.add_argument("--train", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="score samples with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", help="run the repeated simulation study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("inspect", help="print container file metadata")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # FormatError and ConfigError are ValueErrors: FormatError's exit code goes first.
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
