"""The three workloads: inputs from a seed, one timed operation, output checks.

Each workload has ``setup(seed, workdir)``, which builds the inputs;
``op(inputs, index, serial)``, the timed operation; and
``evaluate(inputs, index, raw, spans)``, which checks the outputs of one
operation untimed and returns an :class:`Outcome`.  A run cycles through
``cycle`` input sets drawn from its seed, so that one unusual set moves the
median less; operations with the same ``index % cycle`` repeat the same work,
so their outputs must be equal.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from cstm import cli, container, experiments, kernels, stm
from cstm.acmtf import AcmtfFactors
from cstm.experiments import ExperimentConfig, derive_seed
from cstm.tensor_core import KruskalTensor

from layers import kkt_problems

STUDY_CASE = 3
METHODS = experiments.METHODS
# Seed-derivation roles of the benchmark's own streams.
_ROLE_INPUTS = 101
_ROLE_SPLIT = 102
_ROLE_CV = 103


@dataclass
class Outcome:
    units: int  # repetitions, splits or CLI commands attempted
    failed: int
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    fingerprint: object = None


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


# ---------------------------------------------------------------------------
# study: the simulation study as `cstm benchmark` runs it
# ---------------------------------------------------------------------------

class Study:
    name = "study"
    op_name = "study_s"
    units = 5  # repetitions per run_experiment
    workers = 2
    cycle = 3  # sample sets
    trace_ops = (0,)

    def setup(self, seed, workdir):
        seeds = [derive_seed(seed, _ROLE_INPUTS, k) for k in range(self.cycle)]
        return [(s, experiments.gen_case(STUDY_CASE, 20, s)) for s in seeds]

    def op(self, inputs, index, serial):
        seed, samples = inputs[index % self.cycle]
        cfg = ExperimentConfig(
            case=STUDY_CASE, n_per_class=20, repetitions=self.units,
            seed=seed, threads=1 if serial else self.workers,
        )
        return experiments.run_experiment(cfg, samples)

    def evaluate(self, inputs, index, summary, spans) -> Outcome:
        # A failed repetition raises out of run_experiment (failures are not
        # tolerated by default), so every row is here or the operation failed.
        n = self.units
        problems, bad = [], set()
        for m in METHODS:
            rows = summary.rows[m]
            if len(rows) != n:
                problems.append(f"{m}: {len(rows)} rows for {n} repetitions")
                bad = set(range(n))
            for r, row in enumerate(rows):
                if not np.isfinite(row.accuracy) or not np.isfinite(row.auc):
                    problems.append(f"{m} repetition {r}: non-finite metric")
                    bad.add(r)
        kkt = kkt_problems(spans)
        if kkt:
            problems += kkt
            bad = set(range(n))
        acc = {m: summary.mean(m, "accuracy") for m in METHODS}
        return Outcome(
            units=n,
            failed=len(bad),
            problems=problems,
            quality={
                "acc_cstm": acc["cstm"],
                "acc_cpstm_tensor": acc["cpstm_tensor"],
                "acc_cpstm_matrix": acc["cpstm_matrix"],
                "final_objective_mean": summary.mean_final_objective,
            },
            extras={
                "experiments.decompose_stage_s": summary.decompose_seconds,
                "experiments.repetitions_stage_s": summary.repetitions_seconds,
            },
            fingerprint=(
                {m: summary.rows[m] for m in METHODS},
                summary.mean_final_objective,
            ),
        )


# ---------------------------------------------------------------------------
# classify: stage 2 alone, on factor sets made by the benchmark
# ---------------------------------------------------------------------------

TENSOR_DIMS = experiments.TENSOR_DIMS
MATRIX_ROWS = experiments.MATRIX_DIMS[0]
CASE = experiments.SIM_CASES[STUDY_CASE]
# Per-class column means (tensor mode 1, tensor mode 2, shared, matrix) of
# simulation case 3; columns are drawn at unit SD, as gen_case draws them.
CLASS_MEANS = {-1: CASE.class1, 1: CASE.class2}
# Post-pruning rank mix of the coupled factors under default settings.
COUPLED_RANKS = (3, 4, 5)
COUPLED_RANK_P = (0.5, 0.4, 0.1)
CP_RANK = 5
# The rest is set from ACMTF, CP-ALS and SVD run on real case-3 samples
# (perfbench/README.md, "classify inputs").  Beyond the generating rank,
# ACMTF keeps components with small weights whose columns do not depend on
# the class; columns drawn around 0.4 match their measured |cos| with the
# all-ones direction (0.26-0.51).
EXTRA_MEAN = 0.4
EXTRA_WEIGHT = 0.1
# CP-ALS at rank 5 on the exact rank-3 tensor returns noisy copies of the
# generating columns (|cos| 0.86-0.95 with the nearest one).
CP_NOISE_SD = 0.7


@dataclass
class FactorSets:
    labels: np.ndarray
    coupled: list[AcmtfFactors]
    cp_tensor: list[KruskalTensor]
    cp_matrix: list[KruskalTensor]


def _draw(rng, rows, means):
    return rng.standard_normal((rows, len(means))) + np.asarray(means)


def _unit(cols):
    norms = np.linalg.norm(cols, axis=0)
    return cols / norms, norms


def make_factor_sets(seed: int, n_per_class: int = 50) -> FactorSets:
    """Factor sets as ACMTF, CP-ALS and SVD return them on case-3 samples.

    Coupled: the generating columns, unit-normed, weighted by their norm
    products, with the same shared-mode columns in the tensor and the
    matrix, plus class-independent extra components up to the drawn rank.
    CP tensor: noisy copies of the generating columns.  CP matrix: the
    truncated SVD of the generating matrix, as run_experiment computes it.
    """
    rng = np.random.default_rng(seed)
    i1, i2, i3 = TENSOR_DIMS
    g = CASE.rank
    labels, coupled, cp_t, cp_m = [], [], [], []
    for label in (-1, 1):
        means = CLASS_MEANS[label]
        for _ in range(n_per_class):
            r = int(rng.choice(COUPLED_RANKS, p=COUPLED_RANK_P))
            extra = (EXTRA_MEAN,) * (r - g)
            a, b, c, u = (
                _unit(_draw(rng, rows, (m,) * g + extra))
                for rows, m in zip((i1, i2, i3, MATRIX_ROWS), means)
            )
            scale = np.where(np.arange(r) < g, 1.0, EXTRA_WEIGHT)
            coupled.append(AcmtfFactors.from_kruskals(
                KruskalTensor(a[1] * b[1] * c[1] * scale, (a[0], b[0], c[0])),
                KruskalTensor(u[1] * c[1] * scale, (u[0], c[0].copy())),
            ))
            copies = np.arange(CP_RANK) % g
            cols = [
                _unit(_draw(rng, rows, (m,) * g)[:, copies]
                      + CP_NOISE_SD * rng.standard_normal((rows, CP_RANK)))
                for rows, m in zip((i1, i2, i3), means)
            ]
            cp_t.append(KruskalTensor(
                cols[0][1] * cols[1][1] * cols[2][1], tuple(f for f, _ in cols)
            ))
            matrix = _draw(rng, MATRIX_ROWS, (means[3],) * g) @ _draw(rng, i3, (means[2],) * g).T
            cp_m.append(stm.matrix_to_kruskal(matrix, CP_RANK))
            labels.append(label)
    return FactorSets(np.array(labels, dtype=np.float64), coupled, cp_t, cp_m)


def _gram_problems(name, gram) -> list[str]:
    out = []
    scale = max(1.0, float(np.max(np.abs(gram))))
    if np.max(np.abs(gram - gram.T)) > 1e-12 * scale:
        out.append(f"{name}: gram not symmetric")
    lo = float(np.linalg.eigvalsh(gram)[0])
    if lo < -1e-9 * gram.shape[0] * scale:
        out.append(f"{name}: gram not PSD (min eigenvalue {lo:.3g})")
    return out


class Classify:
    name = "classify"
    op_name = "split_s"
    units = 1  # one split, all three methods
    workers = 1
    cycle = 5  # splits
    trace_ops = tuple(range(5))

    def setup(self, seed, workdir):
        return seed, make_factor_sets(seed)

    def op(self, inputs, index, serial):
        seed, sets = inputs
        k = index % self.cycle
        y = sets.labels
        tr, te = experiments.stratified_split(
            y, 0.2, derive_seed(seed, _ROLE_SPLIT, k)
        )
        cv_seed = derive_seed(seed, _ROLE_CV, k)
        y_tr = y[tr]
        out = {}
        train = [sets.coupled[i] for i in tr]
        test = [sets.coupled[i] for i in te]
        spec = kernels.default_coupled_spec(train)
        gram = kernels.gram_matrix(train, spec)
        lam = stm.select_lambda(gram, y_tr, seed=cv_seed)
        model = stm.fit(train, y_tr, spec, lam, gram=gram)
        scores = stm.decision_many(model, test)
        out["cstm"] = (gram, scores, experiments.compute_metrics(y[te], scores))
        for method, pool in (("cpstm_tensor", sets.cp_tensor),
                             ("cpstm_matrix", sets.cp_matrix)):
            train = [pool[i] for i in tr]
            test = [pool[i] for i in te]
            specs = kernels.default_cp_specs(train)
            gram = kernels.cp_gram(train, specs)
            lam = stm.select_lambda(gram, y_tr, seed=cv_seed)
            model = stm.cpstm_fit(train, y_tr, specs, lam, gram=gram)
            scores = stm.cpstm_decision_many(model, test)
            out[method] = (gram, scores, experiments.compute_metrics(y[te], scores))
        return out

    def evaluate(self, inputs, index, raw, spans) -> Outcome:
        problems = kkt_problems(spans)
        for method, (gram, scores, _) in raw.items():
            problems += _gram_problems(method, gram)
            if not _finite(scores):
                problems.append(f"{method}: non-finite scores")
        return Outcome(
            units=self.units,
            failed=int(bool(problems)),
            problems=problems,
            quality={f"acc_{m}": raw[m][2].accuracy for m in METHODS},
            fingerprint={m: raw[m][1].tolist() for m in METHODS},
        )


# ---------------------------------------------------------------------------
# fit-predict: the command line, in process
# ---------------------------------------------------------------------------

class FitPredict:
    name = "fit-predict"
    op_name = "fit_predict_s"
    units = 2  # `cstm fit` and `cstm predict`
    workers = 1
    cycle = 2  # file sets
    trace_ops = (0,)
    # Accuracy over ten seeds spread (IQR over median) by 0.28 with 30
    # training and 10 new files per set, and by 0.08 with 16 and 30, at
    # about the same number of decompositions per run.
    n_train = 16
    n_new = 30

    def setup(self, seed, workdir):
        return [
            self._file_set(derive_seed(seed, _ROLE_INPUTS, k), os.path.join(workdir, str(k)))
            for k in range(self.cycle)
        ]

    def _file_set(self, seed, d):
        train, new, cfg = (os.path.join(d, n) for n in ("train", "new", "run.cfg"))
        # The new files come from another stream than the training files.
        new_seed = derive_seed(seed, _ROLE_INPUTS, 0)
        for out, n, s in ((train, self.n_train // 2, seed), (new, self.n_new // 2, new_seed)):
            argv = ["simulate", "--case", str(STUDY_CASE), "--n-per-class", str(n),
                    "--seed", str(s), "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"cstm {' '.join(argv)} exited {rc}")
        with open(cfg, "w") as fh:
            fh.write(f"[experiment]\ncase = {STUDY_CASE}\nseed = {seed}\n")
        return {"seed": seed, "train": train, "new": new, "cfg": cfg,
                "model": os.path.join(d, "model.cstm"),
                "pred": os.path.join(d, "predictions.csv")}

    def op(self, inputs, index, serial):
        files = inputs[index % self.cycle]
        fit = ["fit", "--train", files["train"], "--config", files["cfg"],
               "--out", files["model"]]
        predict = ["predict", "--model", files["model"], "--in", files["new"],
                   "--seed", str(files["seed"]), "--out", files["pred"]]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc_fit = cli.main(fit)
            t1 = time.perf_counter()
            rc_pred = cli.main(predict) if rc_fit == 0 else None
            t2 = time.perf_counter()
        return {"rc_fit": rc_fit, "rc_pred": rc_pred, "fit_s": t1 - t0,
                "predict_s": t2 - t1}

    def evaluate(self, inputs, index, raw, spans) -> Outcome:
        inputs = inputs[index % self.cycle]
        fit_problems = kkt_problems(spans)
        pred_problems = []
        if raw["rc_fit"] != 0:
            fit_problems.append(f"cstm fit exited {raw['rc_fit']}")
        else:
            model, _, _ = container.read_model(inputs["model"])
            if model.alpha.size != self.n_train or model.labels.size != self.n_train:
                fit_problems.append(
                    f"model has {model.alpha.size} alphas for {self.n_train} samples"
                )
        if raw["rc_pred"] != 0:
            pred_problems.append(f"cstm predict exited {raw['rc_pred']}")
            rows = []
        else:
            with open(inputs["pred"], newline="") as fh:
                rows = list(csv.DictReader(fh))
        names = sorted(n for n in os.listdir(inputs["new"]) if n.endswith(".cstm"))
        if raw["rc_pred"] == 0 and [r["file"] for r in rows] != names:
            pred_problems.append(f"{len(rows)} prediction rows for {len(names)} inputs")
        scores = np.array([float(r["score"]) for r in rows])
        labels = np.array([int(r["label"]) for r in rows])
        if not _finite(scores):
            pred_problems.append("non-finite scores")
        if not np.all(labels == np.where(scores >= 0, 1, -1)):
            pred_problems.append("labels are not the sign of the scores")
        truth = np.array([
            container.read_sample(os.path.join(inputs["new"], n)).label for n in names
        ])
        acc = float(np.mean(labels == truth)) if labels.size == truth.size else 0.0
        finals = [s.attrs["final_objective"] for s in spans
                  if s.name == "acmtf.acmtf_decompose"]
        return Outcome(
            units=self.units,
            failed=int(bool(fit_problems)) + int(bool(pred_problems)),
            problems=fit_problems + pred_problems,
            quality={"acc_cstm": acc,
                     "final_objective_mean": float(np.mean(finals)) if finals else 0.0},
            timings={"fit_s": raw["fit_s"],
                     "predict_s_per_sample": raw["predict_s"] / max(1, len(names))},
            fingerprint=scores.tolist(),
        )


WORKLOADS = {w.name: w for w in (Study(), Classify(), FitPredict())}
