"""Synthetic benchmark: data generation, splitting, metrics, orchestration.

Each simulation case draws rank-3 latent factors from multivariate normals
(identity covariance, case-specific means) and assembles a 30x20x10 tensor
plus a 50x10 matrix per sample; the tensor's third-mode factors and the
matrix's second-mode factors are the same draws (the shared role).  Class 1
is labeled -1 and class 2 (the shifted one) +1.

The experiment harness decomposes every sample once (the representations
do not depend on the train/test split), then repeats: stratified split;
on the training part, each method's kernel fit, one lambda cross-validation
pass for all methods and each method's dual solve; then test scoring.
``cstm fit`` and ``cstm predict`` share its two steps: :func:`decompose_samples`
gives each of ``threads`` workers a contiguous slice of the samples and
computes every representation the methods need (CP-ALS, pruned ACMTF,
truncated SVD), returned keyed by method from the worker on;
:func:`fit_methods` tunes and fits methods on a training part.  Every wall
time the harness and the CLI record comes from :func:`timed`, and every
stop-reason count from :func:`stop_counts`.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import stm
from .acmtf import (  # noqa: F401 - acmtf_decompose is re-exported
    AcmtfFactors,
    AcmtfHyperParams,
    CoupledSample,
    acmtf_decompose,
    acmtf_decompose_many,
)
from .kernels import (
    CoupledKernelSpec,
    KernelSpec,
    cp_gram,
    default_coupled_spec,
    default_cp_specs,
    gram_matrix,
)
from .tensor_core import NumericalError, cp_als, cp_als_many  # noqa: F401 - cp_als is re-exported

TENSOR_DIMS = (30, 20, 10)
MATRIX_DIMS = (50, 10)
GEN_RANK = 3

METHODS = ("cstm", "cpstm_tensor", "cpstm_matrix")

# Seed-derivation roles, so the per-sample/per-repetition streams never collide.
_ROLE_DECOMPOSE = 1
_ROLE_CPALS = 2
_ROLE_SPLIT = 3
_ROLE_CV = 4


def derive_seed(base: int, role: int, index: int) -> int:
    """Stable scalar seed for a (base seed, role, index) triple."""
    return int(np.random.SeedSequence((base, role, index)).generate_state(1)[0])


@dataclass(frozen=True)
class SimCaseSpec:
    """Per-class factor means for one simulation case.

    Mean tuples are (tensor factor 1, tensor factor 2, shared factor,
    matrix factor); each value is the constant mean of the corresponding
    multivariate normal (identity covariance).
    """

    class1: tuple[float, float, float, float]
    class2: tuple[float, float, float, float]
    rank: int = GEN_RANK


_BASE = (1.0, 1.0, 1.0, 1.0)
SIM_CASES: dict[int, SimCaseSpec] = {
    1: SimCaseSpec(_BASE, (1.5, 1.0, 1.0, 1.25)),
    2: SimCaseSpec(_BASE, (1.5, 1.0, 1.0, 1.5)),
    3: SimCaseSpec(_BASE, (1.5, 1.0, 1.0, 1.75)),
    4: SimCaseSpec(_BASE, (1.5, 1.0, 1.0, 2.0)),
    5: SimCaseSpec(_BASE, (1.5, 1.0, 1.0, 2.25)),
    6: SimCaseSpec(_BASE, (2.0, 1.0, 1.0, 1.0)),
    7: SimCaseSpec(_BASE, (1.0, 1.0, 1.0, 2.0)),
    8: SimCaseSpec(_BASE, (1.0, 1.0, 2.0, 1.0)),
}


def gen_case(case: int, n_per_class: int, seed: int) -> list[CoupledSample]:
    """Generate ``n_per_class`` coupled samples per class for one case.

    For each sample, three components of each factor role are drawn from
    the case's normals; the tensor is the rank-3 sum of outer products and
    the matrix shares the third-mode draws as its column factors.
    """
    if case not in SIM_CASES:
        raise ValueError(f"unknown case id {case}; valid: {sorted(SIM_CASES)}")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    spec = SIM_CASES[case]
    rng = np.random.default_rng(seed)
    i1, i2, i3 = TENSOR_DIMS
    i4 = MATRIX_DIMS[0]
    r = spec.rank
    samples: list[CoupledSample] = []
    for label, means in ((-1, spec.class1), (1, spec.class2)):
        m1, m2, ms, mm = means
        for _ in range(n_per_class):
            f1 = rng.standard_normal((i1, r)) + m1
            f2 = rng.standard_normal((i2, r)) + m2
            fs = rng.standard_normal((i3, r)) + ms
            fm = rng.standard_normal((i4, r)) + mm
            tensor = np.einsum("ir,jr,kr->ijk", f1, f2, fs)
            matrix = fm @ fs.T
            samples.append(CoupledSample(tensor, matrix, label))
    return samples


def _test_count(n_class: int, test_fraction: float, who: str) -> int:
    """Test samples of a class of ``n_class``; both parts must keep one."""
    n_test = round(n_class * test_fraction)
    if not 0 < n_test < n_class:
        raise ValueError(f"test_fraction {test_fraction} leaves {who} (n = {n_class}) "
                         f"no {'test' if n_test == 0 else 'training'} sample")
    return n_test


def stratified_split(
    labels, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class random split into (train_idx, test_idx) index arrays.

    The test count per class is ``round(n_class * test_fraction)`` (ties
    round half to even); a class it leaves without a test or a training
    sample is a ``ValueError``.  Indices partition ``range(len(labels))``.
    """
    y = np.asarray(labels)
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("both classes must be present")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in classes:
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        n_test = _test_count(idx.size, test_fraction, f"class {cls:+g}")
        test.extend(idx[:n_test])
        train.extend(idx[n_test:])
    return np.sort(np.array(train, dtype=int)), np.sort(np.array(test, dtype=int))


@dataclass(frozen=True, eq=False)
class MetricsRow:
    """One scoring pass; undefined ratios (0/0) are NaN and excluded from means."""

    accuracy: float
    precision: float
    sensitivity: float
    specificity: float
    auc: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in METRIC_NAMES)

    def __eq__(self, other):
        if not isinstance(other, MetricsRow):
            return NotImplemented
        # NaN marks an undefined metric; two undefined values are equal.
        return all(
            a == b or (np.isnan(a) and np.isnan(b))
            for a, b in zip(self.as_tuple(), other.as_tuple())
        )


METRIC_NAMES = tuple(f.name for f in fields(MetricsRow))


def compute_metrics(labels, scores) -> MetricsRow:
    """Classification metrics from decision scores against +1/-1 labels.

    Predictions are :func:`stm.predict_label`'s, ties mapped to +1.  AUC
    is the rank statistic over positive-negative pairs with 0.5 credit for
    tied scores.
    """
    y = np.asarray(labels, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError("labels and scores must have equal length")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    pred = stm.predict_label(s)
    tp = float(np.sum((pred > 0) & (y > 0)))
    tn = float(np.sum((pred < 0) & (y < 0)))
    fp = float(np.sum((pred > 0) & (y < 0)))
    fn = float(np.sum((pred < 0) & (y > 0)))

    def ratio(num, den):
        return num / den if den > 0 else float("nan")

    pos = s[y > 0]
    neg = s[y < 0]
    if pos.size and neg.size:
        diff = pos[:, None] - neg[None, :]
        auc = float((np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / diff.size)
    else:
        auc = float("nan")
    return MetricsRow(
        accuracy=ratio(tp + tn, y.size),
        precision=ratio(tp, tp + fp),
        sensitivity=ratio(tp, tp + fn),
        specificity=ratio(tn, tn + fp),
        auc=auc,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs; see ``cstm.config`` for the file form."""

    case: int | None = None
    dataset: str | None = None
    n_per_class: int = 50
    test_fraction: float = 0.2
    repetitions: int = 50
    seed: int = 0
    acmtf: AcmtfHyperParams = AcmtfHyperParams()
    prune_rel: float = 0.05  # drop components below this relative weight
    kernel_kind: str = "rbf"
    kernel_bandwidth: float | None = None  # None: median heuristic per split
    kernel_degree: int = 2
    kernel_offset: float = 1.0
    kernel_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    tune_weights: bool = False
    lambda_grid: tuple[float, ...] = stm.DEFAULT_LAMBDA_GRID
    cv_folds: int = 5
    methods: tuple[str, ...] = METHODS
    tolerate_failures: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.case is not None and self.case not in SIM_CASES:
            raise ValueError(f"unknown case id {self.case}")
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")
        if self.case is not None:
            _test_count(self.n_per_class, self.test_fraction, "each class")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {METHODS}")
        if len(self.methods) == 0:
            raise ValueError("at least one method is required")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"duplicate method in {self.methods}")
        if not self.lambda_grid:
            raise ValueError("lambda grid is empty")
        if any(not g > 0 for g in self.lambda_grid):
            raise ValueError("lambda grid values must be > 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.kernel_bandwidth is not None and self.kernel_bandwidth <= 0:
            raise ValueError("kernel_bandwidth must be > 0")
        if not 0 <= self.prune_rel < 1:
            raise ValueError("prune_rel must be in [0, 1)")
        # The kernel specs validate kind, degree, offset and the weights.
        k = _fixed_kernel(self)
        CoupledKernelSpec(k, k, k, k, self.kernel_weights)


@dataclass
class MetricsSummary:
    """Per-repetition metric rows, selections, and stage timings."""

    methods: tuple[str, ...]
    rows: dict[str, list[MetricsRow]] = field(default_factory=dict)
    lambdas: dict[str, list[float]] = field(default_factory=dict)
    # C-STM's kernel weights, one triple per recorded repetition.
    weights: list[tuple[float, float, float]] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    decompose_seconds: float = 0.0
    repetitions_seconds: float = 0.0
    # Time spent inside the ACMTF and CP-ALS calls, summed over workers.
    acmtf_seconds: float = 0.0
    cp_als_seconds: float = 0.0
    # Samples per stop reason of the ACMTF (cstm) and CP-ALS (cpstm_tensor) fits.
    acmtf_stops: dict[str, int] = field(default_factory=dict)
    cp_als_stops: dict[str, int] = field(default_factory=dict)
    mean_final_objective: float = float("nan")

    def mean(self, method: str, metric: str) -> float:
        return self._over_defined(np.nanmean, method, metric)

    def sd(self, method: str, metric: str) -> float:
        return self._over_defined(np.nanstd, method, metric)

    def _over_defined(self, stat, method: str, metric: str) -> float:
        # NaN, without numpy's empty-slice warning, when no repetition defines it.
        vals = np.array([getattr(r, metric) for r in self.rows[method]])
        return float(stat(vals)) if (~np.isnan(vals)).any() else float("nan")

    def write_results_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("method", "repetition") + tuple(METRIC_NAMES))
            for method in self.methods:
                for rep, row in enumerate(self.rows[method]):
                    w.writerow(
                        [method, rep] + [repr(v) for v in row.as_tuple()]
                    )

    def write_summary_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("method", "metric", "mean", "sd"))
            for method in self.methods:
                for metric in METRIC_NAMES:
                    w.writerow(
                        [method, metric, repr(self.mean(method, metric)),
                         repr(self.sd(method, metric))]
                    )


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), seconds)``: a call's result and its wall time."""
    t0 = time.perf_counter()
    return fn(*args, **kwargs), time.perf_counter() - t0


def stop_counts(results) -> dict[str, int]:
    """``{stop: n}``: how many of ``results`` ended for each stop reason, sorted."""
    return dict(sorted(Counter(r.stats.stop for r in results).items()))


def _decompose_job(args):
    """One worker's share of :func:`decompose_samples`: the slice that
    starts at sample ``offset``.  A :class:`NumericalError` leaves with its
    ``sample`` counted from the start of the whole list, not the slice."""
    samples, offset, cfg = args
    index = range(offset, offset + len(samples))
    rank = cfg.acmtf.rank
    reps, seconds = {}, {}
    try:
        # CP-ALS goes first: ACMTF's larger batch then reuses the memory
        # CP-ALS freed.  In the other order a study worker (20 case-3
        # samples) peaked 0.9 MB higher (37.4 against 36.5 MB).
        if "cpstm_tensor" in cfg.methods:
            seeds = [derive_seed(cfg.seed, _ROLE_CPALS, i) for i in index]
            reps["cpstm_tensor"], seconds["cpstm_tensor"] = timed(
                cp_als_many, [s.tensor for s in samples], rank, seeds, tol=1e-8, max_iter=100)
        if "cstm" in cfg.methods:
            seeds = [derive_seed(cfg.seed, _ROLE_DECOMPOSE, i) for i in index]
            raw, seconds["cstm"] = timed(acmtf_decompose_many, samples, cfg.acmtf, seeds)
            reps["cstm"] = [f.pruned(cfg.prune_rel) for f in raw]
    except NumericalError as exc:
        if exc.sample is None:
            raise
        raise NumericalError(exc.message, exc.iteration, offset + exc.sample) from exc
    if "cpstm_matrix" in cfg.methods:
        reps["cpstm_matrix"] = [stm.matrix_to_kruskal(s.matrix, rank) for s in samples]
    return reps, seconds


def decompose_samples(samples, cfg: ExperimentConfig):
    """Stage 1: pruned ACMTF factors, CP-ALS tensors or matrix SVDs of
    every sample, at rank ``cfg.acmtf.rank``, for each of ``cfg.methods``.

    Sample i's seeds derive from ``cfg.seed`` and i.  One job per worker,
    of ``cfg.threads`` contiguous slices, run inline when there is one job;
    a sample's results do not depend on its slice.  Returns ``(results,
    seconds)``, both keyed by method: each method's list of results in
    sample order, and the wall time of its solver call (``cstm``'s ACMTF,
    ``cpstm_tensor``'s CP-ALS), summed over jobs.
    """
    n = len(samples)
    cuts = [n * k // cfg.threads for k in range(cfg.threads + 1)]
    jobs = [(samples[a:b], a, cfg) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    if len(jobs) <= 1:
        done = [_decompose_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            done = list(pool.map(_decompose_job, jobs))
    results = {m: [r for reps, _ in done for r in reps[m]] for m in cfg.methods}
    seconds = {m: sum(secs[m] for _, secs in done) for m in done[0][1]} if done else {}
    return results, seconds


_WEIGHT_GRID_STEP = 0.1


def _weight_grid() -> list[tuple[float, float, float]]:
    steps = np.arange(0.0, 1.0 + 1e-9, _WEIGHT_GRID_STEP)
    grid = []
    for a in steps:
        for b in steps:
            c = 1.0 - a - b
            if c >= -1e-9:
                grid.append((float(a), float(b), float(max(c, 0.0))))
    return grid


def _fixed_kernel(cfg: ExperimentConfig) -> KernelSpec:
    """The configured kernel; bandwidth 1.0 stands in for the median heuristic."""
    return KernelSpec(cfg.kernel_kind, cfg.kernel_bandwidth or 1.0,
                      cfg.kernel_degree, cfg.kernel_offset)


def _kernel_for(cfg: ExperimentConfig, train):
    """The configured kernel of a training part, coupled for ACMTF factors
    and one spec per mode for Kruskal tensors."""
    coupled = isinstance(train[0], AcmtfFactors)
    if cfg.kernel_kind == "rbf" and cfg.kernel_bandwidth is None:
        return default_coupled_spec(train) if coupled else default_cp_specs(train)
    k = _fixed_kernel(cfg)
    return CoupledKernelSpec(k, k, k, k) if coupled else (k,) * train[0].order


def _candidates(train, cfg: ExperimentConfig):
    """``(specs, grams)``: one method's candidate kernels on a training part
    and their Grams.  A CP kernel is one candidate.  C-STM's are the
    configured weights, or the simplex grid under ``tune_weights``: the coupled
    kernel is linear in its weights, so each candidate's Gram is a weighted sum
    of three part Grams, equal to :func:`gram_matrix` of its spec bit for bit.
    """
    base = _kernel_for(cfg, train)
    if not isinstance(base, CoupledKernelSpec):
        return [base], [cp_gram(train, base)]
    parts = [gram_matrix(train, replace(base, weights=m))
             for m in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
    weights = _weight_grid() if cfg.tune_weights else [cfg.kernel_weights]
    return ([replace(base, weights=w) for w in weights],
            [w[0] * parts[0] + w[1] * parts[1] + w[2] * parts[2] for w in weights])


def fit_methods(trains: dict, y_tr, cfg: ExperimentConfig, rep: int) -> dict:
    """Each method's classifier on its list in ``trains`` of one training
    part.  One :func:`stm._cv_lambda` pass, with repetition ``rep``'s seed,
    scores every method's candidates; each method fits the first best of its
    own rows, in candidate-then-grid order.  ``cstm fit`` fits as repetition 0.
    """
    cands = {m: _candidates(train, cfg) for m, train in trains.items()}
    acc = stm._cv_lambda([g for _, grams in cands.values() for g in grams], y_tr,
                         cfg.lambda_grid, cfg.cv_folds, derive_seed(cfg.seed, _ROLE_CV, rep))
    models = {}
    for method, (specs, grams) in cands.items():
        rows, acc = acc[:len(specs)], acc[len(specs):]
        best, col = np.unravel_index(np.argmax(rows), rows.shape)
        models[method] = stm.fit(trains[method], y_tr, specs[best],
                                 cfg.lambda_grid[col], gram=grams[best])
    return models


def run_experiment(
    cfg: ExperimentConfig, samples: list[CoupledSample] | None = None
) -> MetricsSummary:
    """Run the repeated benchmark for one case (or a supplied dataset).

    Decomposes every sample once (:func:`decompose_samples`), then for
    each repetition: stratified split, :func:`fit_methods` on the training
    part and each method's test scoring.
    """
    if samples is None:
        if cfg.case is None:
            raise ValueError("config has no case and no samples were supplied")
        samples = gen_case(cfg.case, cfg.n_per_class, cfg.seed)
    labels = np.array([s.label for s in samples], dtype=np.float64)
    if np.any(labels == 0):
        raise ValueError("all samples must be labeled")

    (pools, seconds), t_decompose = timed(decompose_samples, samples, cfg)
    mean_final = (float(np.mean([f.objective_history[-1] for f in pools["cstm"]]))
                  if "cstm" in pools else float("nan"))
    summary = MetricsSummary(
        methods=cfg.methods,
        rows={m: [] for m in cfg.methods},
        lambdas={m: [] for m in cfg.methods},
        decompose_seconds=t_decompose,
        acmtf_seconds=seconds.get("cstm", 0.0),
        cp_als_seconds=seconds.get("cpstm_tensor", 0.0),
        acmtf_stops=stop_counts(pools.get("cstm", ())),
        cp_als_stops=stop_counts(pools.get("cpstm_tensor", ())),
        mean_final_objective=mean_final,
    )
    _, summary.repetitions_seconds = timed(_run_repetitions, cfg, labels, pools, summary)
    return summary


def _run_repetitions(cfg, labels, pools, summary):
    for rep in range(cfg.repetitions):
        split_seed = derive_seed(cfg.seed, _ROLE_SPLIT, rep)
        try:
            tr, te = stratified_split(labels, cfg.test_fraction, split_seed)
            y_tr, y_te = labels[tr], labels[te]
            models = fit_methods({m: [pool[i] for i in tr] for m, pool in pools.items()},
                                 y_tr, cfg, rep)
            rows = {m: compute_metrics(y_te, stm.decision_many(mod, [pools[m][i] for i in te]))
                    for m, mod in models.items()}
        except Exception as exc:  # noqa: BLE001 - recorded or re-raised here
            if not cfg.tolerate_failures:
                raise
            summary.failures.append(
                (rep, f"seed {split_seed}: {type(exc).__name__}: {exc}")
            )
            continue
        # All methods succeeded: merge so per-method lists stay aligned even
        # when a repetition fails under tolerate_failures.
        for method, model in models.items():
            summary.rows[method].append(rows[method])
            summary.lambdas[method].append(model.lam)
            if isinstance(model.kernel, CoupledKernelSpec):
                summary.weights.append(model.kernel.weights)
