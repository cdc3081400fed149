"""Command-line entry points.

Subcommands: simulate, decompose, fit, predict, benchmark, inspect.
Exit codes: 0 success, 1 configuration or usage error, 2 I/O error,
3 numerical abort, 4 file-format error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys

import numpy as np

from . import __version__, container, experiments, stm
from .acmtf import AcmtfHyperParams, acmtf_decompose
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
from .tensor_core import NumericalError, _integer

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_FORMAT = 4

_VERSION = f"cstm {__version__}"

# `cstm decompose` sets every ACMTF hyperparameter but the l1 smoothing.
_DECOMPOSE_FIELDS = tuple(f for f in dataclasses.fields(AcmtfHyperParams)
                          if f.name != "epsilon")


def _read_samples(directory: str, unlabeled: str | None = None):
    """``(paths, samples, labels)`` of the ``.cstm`` sample files in
    ``directory``, sorted by name; a sample whose dims differ from the first
    file's is a ``FormatError``.  With ``unlabeled`` set, an unlabeled
    sample is a ``ConfigError`` that names ``unlabeled`` and the file."""
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
    samples = [container.read_sample(p) for p in paths]
    for p, s in zip(paths, samples):
        if s.dims != samples[0].dims:
            raise FormatError(f"{p}: sample dims {s.dims} do not match "
                              f"{paths[0]}: {samples[0].dims}")
    labels = np.array([s.label for s in samples], dtype=np.float64)
    if unlabeled is not None and np.any(labels == 0):
        bad = paths[int(np.flatnonzero(labels == 0)[0])]
        raise ConfigError(f"unlabeled {unlabeled}: {bad}")
    return paths, samples, labels


@contextlib.contextmanager
def _naming_files(paths):
    """Name the sample file of a :class:`NumericalError` raised in the block
    by one of ``paths``' samples; with ``paths`` None (generated samples)
    the error keeps its sample number."""
    try:
        yield
    except NumericalError as exc:
        if exc.sample is None or paths is None:
            raise
        raise NumericalError(f"{paths[exc.sample]}: {exc.message}", exc.iteration) from exc


def _write_manifest(path: str, command: str, entries: dict) -> None:
    container.write_manifest(path, {"version": _VERSION, "command": command, **entries})


def _stop_histogram(counts) -> str:
    """``"max_iters: 6, tol: 10"`` from :func:`experiments.stop_counts`."""
    return ", ".join(f"{stop}: {n}" for stop, n in counts.items())


def cmd_simulate(args) -> int:
    samples = experiments.gen_case(args.case, args.n_per_class, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for i, s in enumerate(samples):
        container.write_sample(os.path.join(args.out, f"sample_{i:04d}.cstm"), s)
    _write_manifest(
        os.path.join(args.out, "manifest.txt"),
        "simulate",
        {
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
    with _naming_files([args.infile]):
        factors, elapsed = experiments.timed(acmtf_decompose, sample, params, seed=args.seed)
    container.write_factors(args.out, factors)
    entries = {"input": args.infile, "seed": args.seed, "wall_clock_s": f"{elapsed:.3f}",
               "final_objective": repr(factors.objective_history[-1]),
               "iterations": factors.stats.iterations,
               "evaluations": factors.stats.evaluations,
               "stop": factors.stats.stop,
               "converged": factors.converged}
    for line in serialize_acmtf_params(params).strip().splitlines():
        key, value = line.split(" = ", 1)
        entries[f"acmtf.{key}"] = value
    _write_manifest(args.out + ".manifest.txt", "decompose", entries)
    print(f"decomposed {args.infile} -> {args.out} "
          f"(objective {factors.objective_history[-1]:.6g})")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = parse_config_file(args.config)
    paths, samples, labels = _read_samples(args.train, "training sample")
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise ConfigError(f"{args.train}: training set needs +1 and -1 samples")
    with _naming_files(paths):
        (reps, _), t_decompose = experiments.timed(
            experiments.decompose_samples, samples, dataclasses.replace(cfg, methods=("cstm",)))
    models, t_fit = experiments.timed(experiments.fit_methods, reps, labels, cfg, 0)
    model = models["cstm"]
    container.write_model(args.out, model, cfg.acmtf, cfg.prune_rel)
    _write_manifest(
        args.out + ".manifest.txt",
        "fit",
        {
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
            "n_train": len(samples),
            "lambda": repr(model.lam),
            "weights": ", ".join(repr(w) for w in model.kernel.weights),
            "wall_clock_decompose_s": f"{t_decompose:.3f}",
            "wall_clock_total_s": f"{t_decompose + t_fit:.3f}",
            "acmtf_stops": _stop_histogram(experiments.stop_counts(reps["cstm"])),
        },
    )
    print(f"fit {len(samples)} samples -> {args.out} (lambda {model.lam:g})")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, params, prune_rel = container.read_model(args.model)
    cfg = experiments.ExperimentConfig(acmtf=params, prune_rel=prune_rel, seed=args.seed,
                                       methods=("cstm",))
    paths, samples, _ = _read_samples(args.infile)
    if samples[0].dims != model.factors[0].dims:
        raise FormatError(f"{paths[0]}: sample dims {samples[0].dims} do not match "
                          f"model dims {model.factors[0].dims}")
    with _naming_files(paths):
        (reps, _), t_decompose = experiments.timed(experiments.decompose_samples, samples, cfg)
    scores = stm.decision_many(model, reps["cstm"])
    finite = np.isfinite(scores)
    if not finite.all():
        raise NumericalError(f"{paths[int(np.argmin(finite))]}: non-finite decision score")
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("file", "score", "label"))
        for p, score, label in zip(paths, scores, stm.predict_label(scores)):
            w.writerow([os.path.basename(p), repr(float(score)), label])
    _write_manifest(
        args.out + ".manifest.txt",
        "predict",
        {
            "model": args.model,
            "input": args.infile,
            "seed": args.seed,
            "n_samples": len(paths),
            "wall_clock_decompose_s": f"{t_decompose:.3f}",
            "acmtf_stops": _stop_histogram(experiments.stop_counts(reps["cstm"])),
        },
    )
    print(f"wrote predictions for {len(paths)} samples to {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = parse_config_file(args.config)
    if args.threads is not None:
        cfg = dataclasses.replace(cfg, threads=args.threads)
    paths = samples = None
    if cfg.dataset is not None:
        paths, samples, labels = _read_samples(cfg.dataset, "sample")
        # The per-class split counts do not depend on the seed, so one split
        # refuses every repetition's.
        experiments.stratified_split(labels, cfg.test_fraction, cfg.seed)
    elif cfg.case is None:
        raise ConfigError("missing: case")
    with _naming_files(paths):
        summary, elapsed = experiments.timed(experiments.run_experiment, cfg, samples)
    # Made only now, so an aborted run leaves no empty directory behind.
    os.makedirs(args.out, exist_ok=True)
    summary.write_results_csv(os.path.join(args.out, "results.csv"))
    summary.write_summary_csv(os.path.join(args.out, "summary.csv"))
    entries = {
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
    _write_manifest(os.path.join(args.out, "manifest.txt"), "benchmark", entries)
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
    try:
        args = build_parser().parse_args(argv)
        _integer("--seed", getattr(args, "seed", 0), 0)
        return args.func(args)
    except SystemExit as exc:  # argparse: 0 after --help, 2 (this CLI's I/O code) on misuse
        return EXIT_CONFIG if exc.code else EXIT_OK
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
