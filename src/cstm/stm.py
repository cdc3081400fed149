"""Max-margin kernel classifier for C-STM and its CP-STM baselines.

One :class:`StmModel` and one :func:`fit` serve both; only the kernel
differs, coupled over ACMTF factors or CP over Kruskal tensors.  The dual
problem is

    min_alpha  1/2 alpha^T D_y K D_y alpha - 1^T alpha
    s.t.       alpha^T y = 0,   0 <= alpha_i <= 1 / (2 n lambda)

and is solved by sequential minimal optimization: repeatedly pick the
maximal violating pair and solve the two-variable subproblem exactly.
The decision value for a new input is sum_i alpha_i y_i K(train_i, input)
plus the intercept that :func:`_intercepts` finds for fits and CV folds
alike (its zero band also picks the support vectors); a 0 score predicts +1.

Lambda, and the best of several candidate Gram matrices (of one method or
of several), is chosen from a table of stratified k-fold CV accuracies over
a grid.  All candidate x fold x lambda duals are independent, so
:func:`solve_qp_many` solves them in batches: each problem is a row of
array state, every round makes one pair update per live row, and a row
is retired in place when it stops.  It is the one SMO entry point: a
model fit's :func:`solve_qp` is a batch of one, and the last few live
rows of any batch finish with scalar steps on their own row state, by the
array round's rule and its curvature table, which every batch builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .acmtf import AcmtfFactors
from .kernels import (
    CoupledKernelSpec,
    KernelSpec,
    cp_gram,
    cp_gram_cross,
    gram_cross,
    gram_matrix,
)
from .tensor_core import KruskalTensor


def box_bound(n: int, lam: float) -> float:
    """Upper box constraint 1 / (2 n lambda) of the dual."""
    if not lam > 0:
        raise ValueError("lambda must be > 0")
    c = 1.0 / (2.0 * n * lam)
    if not np.isfinite(c):
        raise ValueError(f"lambda {lam!r} is too small: 1 / (2 n lambda) overflows")
    return c


def default_lambda(n: int) -> float:
    """Default regularization schedule lambda_n = n^(-1/2).

    Satisfies lambda_n -> 0 and n * lambda_n -> infinity as n grows, the
    preconditions for risk consistency.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(n) ** -0.5


def _check_dual_data(k: np.ndarray, y: np.ndarray):
    """Reject a Gram matrix that is not square, finite and symmetric, and
    labels that are not +-1 or do not match it."""
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.size == 0:
        raise ValueError(f"gram must be square and non-empty, got {k.shape}")
    # Checked first: an inf or NaN entry makes the symmetry gap NaN, which
    # compares false.
    if not np.isfinite(k).all():
        raise ValueError("gram matrix has non-finite entries")
    if np.max(np.abs(k - k.T), initial=0.0) > 1e-10:
        raise ValueError("gram matrix is not symmetric")
    if y.shape != (k.shape[0],):
        raise ValueError("labels length must match gram size")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Dual program data: Gram matrix, labels, regularization weight."""

    gram: np.ndarray
    labels: np.ndarray
    lam: float

    def __post_init__(self):
        k = np.asarray(self.gram, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        _check_dual_data(k, y)
        box_bound(y.size, self.lam)  # rejects lambda <= 0 or NaN and an overflowing box
        object.__setattr__(self, "gram", k)
        object.__setattr__(self, "labels", y)

    @classmethod
    def _unchecked(cls, gram: np.ndarray, labels: np.ndarray, lam: float) -> QpProblem:
        """A problem on float64 data cut from already checked data, such as a
        cross-validation fold of a checked Gram matrix."""
        p = object.__new__(cls)
        for name, value in (("gram", gram), ("labels", labels), ("lam", lam)):
            object.__setattr__(p, name, value)
        return p

    @property
    def box(self) -> float:
        return box_bound(self.labels.size, self.lam)


@dataclass(frozen=True, eq=False)
class QpSolution:
    alpha: np.ndarray
    converged: bool
    kkt_violation: float
    n_updates: int

    def objective(self, problem: QpProblem) -> float:
        q = problem.gram * np.outer(problem.labels, problem.labels)
        return float(0.5 * self.alpha @ q @ self.alpha - self.alpha.sum())


def solve_qp(p: QpProblem, tol: float = 1e-6, max_passes: int = 1000) -> QpSolution:
    """SMO solve of the dual; one pass is up to n pair updates.

    Stops when the maximal KKT violation (the gap between the most violating
    up/low candidates) drops below ``tol``.  If the budget of
    ``max_passes * n`` updates runs out first, returns the current iterate
    with ``converged=False``.  This is :func:`solve_qp_many` on a batch of
    one, and raises ``ValueError`` as that does.
    """
    return solve_qp_many([p], tol, max_passes)[0]


def _finish_alone(grad, z, mask, bound, top, cols, quad, updates: int, budget: int,
                  gap: float, tol: float):
    """Continue one row of :func:`solve_qp_many`'s state by SMO updates on
    scalars: its ``(2, n)`` halves of ``grad``, ``z``, ``mask``, ``bound``
    and ``top``, its Gram columns ``cols`` and curvature rows ``quad``, the
    updates made, its budget and the last gap.  Each step is an array
    round's on this row, read out as Python floats, whose arithmetic is
    numpy's float64 arithmetic, so a row that has stopped stops here at
    once.  Steps ``grad``, ``mask`` and half 0 of ``z`` in place and returns
    ``(updates, converged, gap)``."""
    # Half 1 of z is exactly -z0, so only z0 is kept: the caps top - z at
    # (0, i) and (1, j) are t0[i] - z0[i] and t1[j] + z0[j], and half 1's
    # candidacy z < bound is -z0 < b1.
    z0 = z[0].tolist()
    (b0, b1), (t0, t1) = bound.tolist(), top.tolist()
    (g0, g1), (m0, m1) = grad, mask
    both, step = np.empty_like(grad), np.empty_like(g0)
    converged = False
    while updates < budget:
        i, j = np.add(grad, mask, out=both).argmax(1).tolist()
        gap = both.item(0, i) + both.item(1, j)  # -inf when a side has no candidate
        q = quad.item(i, j)  # 0 stands for numpy's gap / 0 = inf; Python raises
        delta = min(gap / q if q else np.inf, t0[i] - z0[i], t1[j] + z0[j])
        if gap <= tol or delta <= 0:
            converged = True
            break
        z0[i] += delta
        z0[j] -= delta
        np.subtract(cols[i], cols[j], out=step)
        step *= delta
        g0 -= step
        g1 += step
        for t in (i, j):
            m0[t] = 0.0 if z0[t] < b0[t] else -np.inf
            m1[t] = 0.0 if -z0[t] < b1[t] else -np.inf
        updates += 1
    z[0] = z0
    return updates, converged, gap


# Signs of the two halves of the state in solve_qp_many.
_HALVES = np.array([[[1.0]], [[-1.0]]])
# How an update moves z at (0, i), (1, j), (1, i), (0, j).
_STEPS = np.array([[1.0], [1.0], [-1.0], [-1.0]])
# Which pick, i or j, each of those four entries holds.
_PICKS = np.array([0, 1, 0, 1])
# Mask values of a non-candidate and a candidate, indexed by candidacy.
_MASK = np.array([-np.inf, 0.0])
# Live rows at or below which solve_qp_many finishes each row alone: below
# the break-even, as an array round (about 38 us from 2 to 30 live rows)
# costs 7-8 scalar updates (4.9-5.5 us each at m = 64, one BLAS thread).
_ALONE_ROWS = 4


def _batch_offsets(rows: int, m: int) -> np.ndarray:
    """Flat offsets into ``(2, rows, m)`` state of the rows that hold
    (0, i), (1, j), (1, i), (0, j): ``offsets + ij.take(_PICKS, 0)``."""
    return m * np.arange(rows) + np.array([[0], [rows * m], [rows * m], [0]])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve_qp_many(
    problems: Sequence[QpProblem], tol: float = 1e-6, max_passes: int = 1000
) -> list[QpSolution]:
    """SMO solves of many duals at once, one row of array state per problem.

    Each round picks the maximal violating pair of every live row with one
    argmax and makes every row's pair update with masked array operations.
    A row that stops, for the reasons :func:`solve_qp` states, is retired
    in place.  Rows are padded to the largest problem; a padded entry is
    never a candidate.  Problems that share one Gram array, such as the
    lambda grid of one cross-validation fold, share its stored copy and its
    curvature table, which every batch builds, a batch of one too.  Once no
    more than ``_ALONE_ROWS`` rows are live, :func:`_finish_alone` continues
    each row's own state with scalar steps, without the cost of array
    rounds; one helper builds every solution from that state.  A row's
    arithmetic depends on its own problem only, so its solution does not
    depend on its batch, bit for bit.  Raises ``ValueError`` for a negative
    or NaN ``tol`` and for ``max_passes < 1``.
    """
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if not max_passes >= 1:
        raise ValueError("max_passes must be >= 1")
    out: list[QpSolution] = [None] * len(problems)  # type: ignore[list-item]
    if not problems:
        return out
    grams = list({id(p.gram): p.gram for p in problems}.values())
    slot = {id(k): f for f, k in enumerate(grams)}
    size = np.array([p.labels.size for p in problems])
    m = int(size.max())
    cols = np.zeros((len(grams), m, m))
    for f, k in enumerate(grams):
        cols[f, :k.shape[0], :k.shape[0]] = k.T
    y = np.zeros((len(problems), m))
    for r, p in enumerate(problems):
        y[r, :p.labels.size] = p.labels
    # Row f * m + i of ``cols`` is column i of Gram f: an update reads
    # k[:, i] - k[:, j].  Entry (f * m + i, j) of ``quad`` is the pair's
    # curvature k[i, i] + k[j, j] - 2 k[i, j], or 0 where that is not above
    # 1e-12: then a step's gap / quad is unbounded for every gap that moves
    # a row on.  Array rounds and scalar steps alike read it, so every
    # batch builds it, one Gram at a time.
    quad = np.empty_like(cols)
    for q, k in zip(quad, cols):
        d = k.diagonal()
        np.add(d[:, None], d, out=q)
        q -= 2.0 * k.T
        q[~(q > 1e-12)] = 0.0
    cols, quad = cols.reshape(-1, m), quad.reshape(-1, m)
    gram_row = m * np.array([slot[id(p.gram)] for p in problems])
    c = np.array([p.box for p in problems])
    budget = max_passes * size
    feas = (1e-12 * np.maximum(c, 1.0))[:, None]
    hi = c[:, None] - feas
    pos = y > 0

    # The state is two halves, [v, -v], of shape (2, rows, m), so that one
    # argmax over both picks i (the largest -y*gradient among up
    # candidates) and j (the smallest among low candidates).  Negation is
    # exact, so every value and tie is the scalar loop's.
    #   grad: -y * gradient of the dual, starting at y, and its negation.
    #   z:    y * alpha and its negation; alpha_i += y_i d is z_i += d.
    #   mask: 0 for a candidate, -inf otherwise.
    # An entry is a candidate while its z is below ``bound``, which says
    # alpha < hi or alpha > feas per label in terms of +-z; padded entries
    # have bound -inf.  The box caps of a pick are ``top`` - z: c - alpha
    # or alpha, per label and direction.
    grad = y * _HALVES
    z, both = np.zeros_like(grad), np.empty_like(grad)
    bound = np.stack([np.where(pos, hi, -feas), np.where(pos, -feas, hi)])
    bound[:, np.arange(m) >= size[:, None]] = -np.inf
    top = np.stack([np.where(pos, c[:, None], 0.0), np.where(pos, 0.0, c[:, None])])
    mask = _MASK.take(z < bound)

    rows = np.arange(len(problems))  # each live row's index in ``problems``
    offsets = _batch_offsets(rows.size, m)
    last_gap = np.full(len(problems), np.inf)
    it = 0  # every live row has made ``it`` updates
    least = int(budget.min())

    def solution(q, updates, converged, gap):
        r, n = rows[q], size[rows[q]]
        # + 0.0 turns the -0.0 of z = 0 at a -1 label into 0.0.
        alpha = z[0, q, :n] * y[r, :n] + 0.0
        return QpSolution(np.clip(alpha, 0.0, c[r]), converged, max(gap, 0.0), updates)

    while True:
        if rows.size <= _ALONE_ROWS:
            for q, n in enumerate(size[rows]):
                k = slice(gram_row[q], gram_row[q] + n)
                out[rows[q]] = solution(q, *_finish_alone(
                    *(a[:, q, :n] for a in (grad, z, mask, bound, top)), cols[k, :n],
                    quad[k, :n], it, int(budget[q]), float(last_gap[q]), tol))
            return out
        np.add(grad, mask, out=both)
        ij = both.argmax(2)  # (i, j) per row
        kc = gram_row + ij
        # Flat positions of (0, i), (1, j), (1, i), (0, j); the first two
        # are the picks.
        moved = offsets + ij.take(_PICKS, 0)
        at = moved[:2]
        picked = both.take(at)
        gap = picked[0] + picked[1]  # -inf when a side has no candidate
        delta = gap / quad.take(kc[0] * m + ij[1])
        z_moved = z.take(moved)
        caps = top.take(at) - z_moved[:2]
        delta = np.minimum(delta, np.minimum(*caps))
        # A row past its budget keeps its last gap, unconverged; no
        # candidate (gap -inf), gap <= tol or delta <= 0 converge.
        leave = np.fmin(gap - tol, delta) <= 0
        if it >= least:
            leave |= budget <= it
        if np.count_nonzero(leave):
            for q in np.flatnonzero(leave):
                over = budget[q] <= it
                out[rows[q]] = solution(q, it, not over, float(last_gap[q] if over else gap[q]))
            keep = ~leave
            rows, gram_row, budget = rows[keep], gram_row[keep], budget[keep]
            # compress, not a[:, keep]: the state must stay C-contiguous,
            # because updates write through flat positions in it.
            grad, z, mask, bound, top, ij, kc, z_moved, both = (
                a.compress(keep, axis=1)
                for a in (grad, z, mask, bound, top, ij, kc, z_moved, both))
            delta, gap = delta[keep], gap[keep]
            offsets = _batch_offsets(rows.size, m)
            moved = offsets + ij.take(_PICKS, 0)
        # A row moves on only while gap > tol >= 0, so i != j and the four
        # entries (0, i), (1, j), (1, i), (0, j) are distinct.
        z_moved += delta * _STEPS
        z.put(moved, z_moved)
        mask.put(moved, _MASK.take(z_moved < bound.take(moved)))
        k_cols = cols.take(kc, 0)
        step = k_cols[0]  # delta * (k[:, i] - k[:, j]), formed in place
        step -= k_cols[1]
        step *= delta[:, None]
        grad[0] -= step
        grad[1] += step
        it += 1
        last_gap = gap


def _check_two_classes(labels: np.ndarray):
    if not np.any(labels > 0):
        raise ValueError("training set has no +1 samples")
    if not np.any(labels < 0):
        raise ValueError("training set has no -1 samples")


def _zero_band(c):
    """1e-8 max(c, 1): an alpha this close to 0 or to its box c is at it."""
    return 1e-8 * np.maximum(c, 1.0)


@np.errstate(invalid="ignore")  # inf - inf in the midpoint of a row that has interior SVs
def _intercepts(gram, y, alphas, c) -> np.ndarray:
    """Intercepts that the dual's equality constraint implies for the
    ``(rows, m)`` duals ``alphas`` on one training set, boxes ``(rows, 1)``
    ``c``: the mean of y - score over the margin support vectors (alpha
    outside the :func:`_zero_band` of 0 and c), else the midpoint of the KKT
    interval (as LIBSVM) or its one finite end.  Without it, scores shift
    whenever the classes' within-class similarity levels differ."""
    t = y - (alphas * y) @ gram.T
    feas = _zero_band(c)
    at_zero, at_box = alphas <= feas, alphas >= c - feas
    pos = y > 0
    lower = t.max(1, where=np.where(pos, at_zero, at_box), initial=-np.inf)
    upper = t.min(1, where=np.where(pos, at_box, at_zero), initial=np.inf)
    mid = np.where(lower == -np.inf, upper,
                   np.where(upper == np.inf, lower, 0.5 * (lower + upper)))
    interior = ~(at_zero | at_box)
    count = interior.sum(1)
    return np.where(count > 0, t.sum(1, where=interior) / np.maximum(count, 1), mid)


@dataclass(frozen=True, eq=False)
class StmModel:
    """Fitted kernel classifier: C-STM or a CP-STM baseline.

    ``factors`` are the training representations: :class:`AcmtfFactors`
    under a :class:`CoupledKernelSpec` ``kernel``, or :class:`KruskalTensor`
    under a tuple of per-mode :class:`KernelSpec`.  ``bias`` is the intercept
    implied by the dual's equality constraint; hand-built models default to 0.
    """

    alpha: np.ndarray
    labels: np.ndarray
    factors: tuple[AcmtfFactors, ...] | tuple[KruskalTensor, ...]
    kernel: CoupledKernelSpec | tuple[KernelSpec, ...]
    lam: float
    bias: float = 0.0

    @property
    def support_indices(self) -> np.ndarray:
        """Training samples whose alpha is above :func:`_intercepts`' zero band."""
        return np.flatnonzero(self.alpha > _zero_band(box_bound(self.labels.size, self.lam)))

    @property
    def coef(self) -> np.ndarray:
        return self.alpha * self.labels


def _grams(kernel):
    """(symmetric, cross) Gram functions for ``kernel``'s kind, looked up in
    this module at call time so that wrappers bound over them see every call."""
    if isinstance(kernel, CoupledKernelSpec):
        return gram_matrix, gram_cross
    return cp_gram, cp_gram_cross


def fit(
    samples: Sequence,
    labels,
    kernel: CoupledKernelSpec | Sequence[KernelSpec],
    lam: float,
    gram: np.ndarray | None = None,
) -> StmModel:
    """Train the classifier by solving the dual program.

    ``kernel`` is a :class:`CoupledKernelSpec` for :class:`AcmtfFactors`
    samples, or per-mode specs for Kruskal-tensor samples (stored as a
    tuple); any other pairing is a ``ValueError``.  ``gram`` may supply the
    precomputed training Gram matrix (it must match what
    :func:`cstm.kernels.gram_matrix` or :func:`cstm.kernels.cp_gram` builds).
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (len(samples),):
        raise ValueError("labels length must match number of samples")
    _check_two_classes(y)
    if isinstance(kernel, KernelSpec):
        raise ValueError("a CP kernel is one KernelSpec per mode, not a single KernelSpec")
    if not isinstance(kernel, CoupledKernelSpec):
        kernel = tuple(kernel)
    kind = AcmtfFactors if isinstance(kernel, CoupledKernelSpec) else KruskalTensor
    bad = [type(s).__name__ for s in samples if not isinstance(s, kind)]
    if bad:
        raise ValueError(f"{'a coupled' if kind is AcmtfFactors else 'a CP'} kernel "
                         f"takes {kind.__name__} samples, not {bad[0]}")
    if gram is None:
        gram = _grams(kernel)[0](samples, kernel)
    problem = QpProblem(gram, y, lam)
    sol = solve_qp(problem)
    bias = float(_intercepts(gram, y, sol.alpha[None], np.full((1, 1), problem.box))[0])
    return StmModel(sol.alpha, y, tuple(samples), kernel, lam, bias)


def decision(m: StmModel, x) -> float:
    """Decision value sum_i alpha_i y_i K(train_i, x) + bias."""
    return float(decision_many(m, [x])[0])


def decision_many(m: StmModel, xs: Sequence) -> np.ndarray:
    """Decision values for a batch of inputs."""
    cross = _grams(m.kernel)[1](list(m.factors), list(xs), m.kernel)
    return m.coef @ cross + m.bias


# Aliases only: perfbench's classify workload calls and wraps these two names.
cpstm_fit = fit
cpstm_decision_many = decision_many


def predict_label(scores) -> np.ndarray:
    """Labels of decision scores: +1 where a score is >= 0 (ties too),
    -1 elsewhere, NaN included."""
    return np.where(np.asarray(scores) >= 0, 1, -1)


def matrix_to_kruskal(matrix: np.ndarray, rank: int) -> KruskalTensor:
    """Rank-``rank`` truncated SVD of a matrix as a two-factor Kruskal tensor."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    r = min(rank, s.size)
    if r < rank:
        # Pad with zero components so every sample carries the same rank.
        u = np.pad(u, ((0, 0), (0, rank - r)))
        vt = np.pad(vt, ((0, rank - r), (0, 0)))
        s = np.pad(s, (0, rank - r))
    return KruskalTensor(s[:rank], (u[:, :rank], vt[:rank].T)).normalized()


# ---------------------------------------------------------------------------
# Cross-validated lambda selection (works on a precomputed Gram matrix)
# ---------------------------------------------------------------------------

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
# Cap on the duals of one solve_qp_many call in _cv_lambda.  A batch's
# memory grows with its duals x (fold training size)^2 (two (m x m) arrays
# per fold Gram, its columns and its curvature table), so candidates are
# solved in chunks of at most this many duals (but at least one candidate).
CV_BATCH_DUALS = 400
# KKT gap at which _cv_lambda's fold duals stop: LIBSVM's and scikit-learn's
# default.  A CV accuracy reads only the sign of each held-out score, so the
# fold duals need not meet the 1e-6 that stm.fit keeps for the final model;
# on the study's and the benchmark's inputs every pick held, with about 45 %
# fewer SMO updates.
CV_TOL = 1e-3


def _stratified_folds(labels: np.ndarray, k: int, rng) -> list[np.ndarray]:
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (1.0, -1.0):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def _cv_lambda(
    grams: Sequence[np.ndarray], labels, grid: Sequence[float], k: int, seed: int
) -> np.ndarray:
    """One cross-validation pass over candidate Gram matrices of one training
    part, of one method or of all: their ``(candidates, len(grid))`` table of
    CV accuracies, all -1.0 when a class has a single sample.  Each Gram is
    checked once and the folds are drawn once; the candidate x fold x lambda
    duals are solved by :func:`solve_qp_many` in chunks of whole candidates,
    at most ``CV_BATCH_DUALS`` duals each where a candidate fits, and each
    fold's grid is scored at once by :func:`fit`'s :func:`_intercepts`.  The
    fold duals stop at a KKT gap of ``CV_TOL``, not :func:`fit`'s 1e-6.
    """
    y = np.asarray(labels, dtype=np.float64)
    grams = [np.asarray(g, dtype=np.float64) for g in grams]
    for gram in grams:
        _check_dual_data(gram, y)
    _check_two_classes(y)
    grid = tuple(grid)
    if not grid:
        raise ValueError("lambda grid is empty")
    if any(not g > 0 for g in grid):
        raise ValueError("lambda grid values must be > 0")
    k = min(k, int(np.sum(y > 0)), int(np.sum(y < 0)))
    acc = np.full((len(grams), len(grid)), -1.0)
    if k < 2:
        return acc
    folds = [(np.setdiff1d(np.arange(y.size), te), te)
             for te in _stratified_folds(y, k, np.random.default_rng(seed))]
    chunk = max(1, CV_BATCH_DUALS // (k * len(grid)))
    for first in range(0, len(grams), chunk):
        # Each fold's blocks, cut once per Gram and shared by its lambda grid.
        blocks = [(rows[:, tr], y[tr], rows[:, te], y[te])
                  for g in grams[first:first + chunk] for tr, te in folds for rows in (g[tr],)]
        problems = [QpProblem._unchecked(sub, y_tr, lam)
                    for sub, y_tr, _, _ in blocks for lam in grid]
        solutions = solve_qp_many(problems, tol=CV_TOL)
        correct = []
        for b, (sub, y_tr, cross, y_te) in enumerate(blocks):
            at = slice(b * len(grid), (b + 1) * len(grid))  # the fold's lambda grid
            alphas = np.array([s.alpha for s in solutions[at]])
            bias = _intercepts(sub, y_tr, alphas, np.array([[p.box] for p in problems[at]]))
            scores = (alphas * y_tr) @ cross + bias[:, None]
            correct.append((predict_label(scores) == y_te).sum(1))
        acc[first:first + chunk] = np.reshape(correct, (-1, k, len(grid))).sum(1) / y.size
    return acc


def select_lambda(
    gram: np.ndarray,
    labels,
    grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    k: int = 5,
    seed: int = 0,
) -> float:
    """Pick lambda from ``grid`` by stratified k-fold CV accuracy.

    k is capped at the smaller class count, so every training fold keeps
    both classes; when a class has only one sample, the first grid value is
    returned.  Ties take the first value that ``grid`` lists.  The Gram matrix
    covers the training samples only.  Raises ``ValueError`` for an empty
    grid, a non-positive grid value, a Gram matrix that is not square,
    finite and symmetric, or labels that are not +-1 of both classes.  It
    is :func:`_cv_lambda` with one candidate, fold duals at ``CV_TOL``.
    """
    return grid[int(np.argmax(_cv_lambda([gram], labels, grid, k, seed)[0]))]
