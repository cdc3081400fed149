"""Compare classify's generated factor sets with factor sets of real samples.

    python3 perfbench/calibrate.py --seed 11

Run from the repository root.  Draws 50 + 50 case-3 samples, decomposes
them as ``run_experiment`` does (ACMTF with default settings, then pruning;
CP-ALS at rank 5; truncated SVD of the matrix), and runs classify's five
splits on those factor sets and on ``make_factor_sets(seed)``.  Prints the
readings that classify exists to measure side by side.  Takes about 30 s
with two worker processes; perfbench/README.md records its output.
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import run  # pins BLAS to one thread before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads as W  # noqa: E402
from cstm import acmtf, experiments, stm, tensor_core  # noqa: E402
from spans import Tracer, mean  # noqa: E402

WORKERS = 2


def _decompose(job):
    sample, seed = job
    return acmtf.acmtf_decompose(sample, acmtf.AcmtfHyperParams(), seed)


def _cp(job):
    tensor, seed = job
    return tensor_core.cp_als(tensor, W.CP_RANK, tol=1e-8, max_iter=100, seed=seed)


def real_factor_sets(seed: int) -> W.FactorSets:
    samples = experiments.gen_case(W.STUDY_CASE, 50, seed)
    seeds = [experiments.derive_seed(seed, W._ROLE_INPUTS, i) for i in range(len(samples))]
    workers = min(WORKERS, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        raw = list(pool.map(_decompose, zip(samples, seeds), chunksize=5))
        cp_t = list(pool.map(_cp, ((s.tensor, k) for s, k in zip(samples, seeds)), chunksize=5))
    return W.FactorSets(
        np.array([s.label for s in samples], dtype=np.float64),
        [f.pruned(layers.PRUNE_REL) for f in raw],
        cp_t,
        [stm.matrix_to_kruskal(s.matrix, W.CP_RANK) for s in samples],
    )


def _ones_cos(f):
    return np.abs(f.sum(axis=0)) / np.sqrt(f.shape[0]) / np.linalg.norm(f, axis=0)


def readings(seed: int, sets: W.FactorSets) -> dict:
    out = {}
    ranks = [f.rank for f in sets.coupled]
    out["coupled ranks 3/4/5"] = "/".join(str(ranks.count(r)) for r in W.COUPLED_RANKS)
    out["shared-mode |cos|, tensor vs matrix"] = float(np.mean(np.concatenate([
        np.abs(np.sum(f.u1.factors[2] * f.u2.factors[1], axis=0)) for f in sets.coupled
    ])))
    for label in (-1, 1):
        idx = np.flatnonzero(sets.labels == label)
        for name, pick in (("tensor mode 1", lambda f: f.u1.factors[0]),
                           ("matrix mode 1", lambda f: f.u2.factors[0])):
            out[f"class {label:+d} {name} cos with ones"] = float(np.mean(np.concatenate([
                _ones_cos(pick(sets.coupled[i])) for i in idx
            ])))
        out[f"class {label:+d} CP tensor mode 1 cos with ones"] = float(np.mean(np.concatenate([
            _ones_cos(sets.cp_tensor[i].factors[0]) for i in idx
        ])))
    wl = W.WORKLOADS["classify"]
    tracer = Tracer()
    acc = {m: [] for m in W.METHODS}
    with tracer.installed(layers.all_targets()):
        for k in range(wl.cycle):
            tracer.pass_id = k
            with tracer.span("bench.op", "bench"):
                raw = wl.op((seed, sets), k, serial=True)
            for m in W.METHODS:
                acc[m].append(raw[m][2].accuracy)
    for m in W.METHODS:
        out[f"acc_{m}"] = mean(acc[m])
    per_layer = layers.layer_metrics(tracer, set(range(wl.cycle)), 0.0)
    for k in ("stm.smo_updates_mean", "stm.support_vectors_mean", "stm.smo_unconverged"):
        out[k] = per_layer[k]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args(argv).seed
    real = readings(seed, real_factor_sets(seed))
    made = readings(seed, W.make_factor_sets(seed))
    print(f"{'seed ' + str(seed):45s} {'real':>10s} {'generated':>10s}")
    for k in real:
        a, b = real[k], made[k]
        if isinstance(a, str):
            print(f"{k:45s} {a:>10s} {b:>10s}")
        else:
            print(f"{k:45s} {a:10.3f} {b:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
