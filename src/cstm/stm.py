"""Max-margin kernel classifier for C-STM and its CP-STM baselines.

One :class:`StmModel` and one :func:`fit` serve both; only the kernel
differs, coupled over ACMTF factors or CP over Kruskal tensors.  The dual
problem is

    min_alpha  1/2 alpha^T D_y K D_y alpha - 1^T alpha
    s.t.       alpha^T y = 0,   0 <= alpha_i <= 1 / (2 n lambda)

and is solved by sequential minimal optimization: repeatedly pick the
maximal violating pair and solve the two-variable subproblem exactly.
The decision value for a new input is sum_i alpha_i y_i K(train_i, input)
plus the intercept the equality constraint implies (recovered from the
margin support vectors at fit time); ties (exactly zero) predict +1.

Lambda is chosen by stratified k-fold cross-validation over a grid.  All
fold x lambda duals of one cross-validation are independent, so
:func:`solve_qp_many` solves them as one batch: each problem is a row of
array state, every round makes one pair update per live row, and a row
leaves the batch when it stops.  A model fit solves a single dual with
:func:`solve_qp`, the same steps on one problem without batch overhead.
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

SUPPORT_EPS = 1e-10


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
    with ``converged=False``.
    """
    k = p.gram
    y = p.labels
    n = y.size
    c = p.box
    alpha = np.zeros(n)
    feas = 1e-12 * max(c, 1.0)
    hi = c - feas
    pos = y > 0
    # -y * gradient of the dual objective; the gradient starts at -1.  An
    # update adds delta * y * (k_i - k_j) to the gradient, and since y is
    # +-1 that is exactly delta * (k_i - k_j) taken off this vector.
    minus_yg = y.copy()
    # Candidates to move up (alpha_i += y_i d) and down (alpha_j -= y_j d)
    # inside the box, as additive masks: 0 for a candidate, -inf/+inf for
    # an index at its bound.  Only the two updated entries change per step.
    below, above = alpha < hi, alpha > feas
    up = np.where(np.where(pos, below, above), 0.0, -np.inf)
    low = np.where(np.where(pos, above, below), 0.0, np.inf)

    updates = 0
    budget = max_passes * n
    converged = False
    gap = np.inf
    while updates < budget:
        i = int((minus_yg + up).argmax())
        j = int((minus_yg + low).argmin())
        if up[i] or low[j]:
            # The best pick is at a bound: one side has no candidate.
            converged = True
            gap = 0.0
            break
        gap = minus_yg[i] - minus_yg[j]
        if gap <= tol:
            converged = True
            break
        quad = k[i, i] + k[j, j] - 2.0 * k[i, j]
        delta = gap / quad if quad > 1e-12 else np.inf
        # Box caps along the feasible direction (alpha_i += y_i d, alpha_j -= y_j d).
        cap_i = (c - alpha[i]) if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else (c - alpha[j])
        delta = min(delta, cap_i, cap_j)
        if delta <= 0:
            converged = True
            break
        alpha[i] += y[i] * delta
        alpha[j] -= y[j] * delta
        minus_yg -= delta * (k[:, i] - k[:, j])
        for t in (i, j):
            below, above = alpha[t] < hi, alpha[t] > feas
            if not pos[t]:
                below, above = above, below
            up[t] = 0.0 if below else -np.inf
            low[t] = 0.0 if above else np.inf
        updates += 1
    np.clip(alpha, 0.0, c, out=alpha)
    return QpSolution(alpha, converged, max(gap, 0.0), updates)


# Signs of the two halves of the state in solve_qp_many.
_HALVES = np.array([[[1.0]], [[-1.0]]])
# How an update moves z at (0, i), (1, j), (1, i), (0, j).
_STEPS = np.array([[1.0], [1.0], [-1.0], [-1.0]])


def _batch_offsets(rows: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat offsets into ``(2, rows, m)`` state: the start of each half-row,
    and the step from a pick (0, i) / (1, j) to its other half."""
    base = m * np.arange(rows) + np.array([[0], [rows * m]])
    return base, np.array([[rows * m], [-rows * m]])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve_qp_many(
    problems: Sequence[QpProblem], tol: float = 1e-6, max_passes: int = 1000
) -> list[QpSolution]:
    """SMO solves of many duals at once, one row of array state per problem.

    Each round picks the maximal violating pair of every live row with one
    argmax and makes every row's pair update with masked array operations;
    a row leaves the batch when it stops, for the reasons and with the
    results of :func:`solve_qp`.  Rows are padded to the largest problem,
    and a padded entry is never a candidate.  Problems that share one Gram
    array, such as the lambda grid of one cross-validation fold, share its
    stored copy.  Each row does the arithmetic of :func:`solve_qp` on its
    own problem, so every solution equals ``solve_qp``'s bit for bit,
    whatever else is in the batch.
    """
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    out: list[QpSolution] = [None] * len(problems)  # type: ignore[list-item]
    if not problems:
        return out
    slot: dict[int, int] = {}
    grams = []
    for p in problems:
        if id(p.gram) not in slot:
            slot[id(p.gram)] = len(grams)
            grams.append(p.gram)
    size = np.array([p.labels.size for p in problems])
    m = int(size.max())
    cols = np.zeros((len(grams), m, m))
    for f, k in enumerate(grams):
        cols[f, :k.shape[0], :k.shape[0]] = k.T
    y = np.zeros((len(problems), m))
    for r, p in enumerate(problems):
        y[r, :p.labels.size] = p.labels
    # Row f * m + i of ``cols`` is column i of Gram f: an update reads
    # k[:, i] - k[:, j], and k[i, j] is entry i of column j.
    diag = cols.diagonal(axis1=1, axis2=2).reshape(-1)
    cols = cols.reshape(-1, m)
    gram_row = m * np.array([slot[id(p.gram)] for p in problems])
    c = np.array([p.box for p in problems])
    budget = max_passes * size
    feas = (1e-12 * np.maximum(c, 1.0))[:, None]
    hi = c[:, None] - feas
    pos = y > 0

    # The state is two halves, [v, -v], of shape (2, rows, m), so that one
    # argmax over both picks i (the largest -y*gradient among up
    # candidates) and j (the smallest among low candidates).  Negation is
    # exact, so every value and tie is the single loop's.
    #   grad: -y * gradient of the dual, starting at y, and its negation.
    #   z:    y * alpha and its negation; alpha_i += y_i d is z_i += d.
    #   mask: 0 for a candidate, -inf otherwise: up and -low of solve_qp.
    # An entry is a candidate while its z is below ``bound``, which says
    # alpha < hi or alpha > feas per label in terms of +-z; padded entries
    # have bound -inf.  The box caps of a pick are ``top`` - z: c - alpha
    # or alpha, per label and direction.
    grad = y * _HALVES
    z = np.zeros_like(grad)
    bound = np.stack([np.where(pos, hi, -feas), np.where(pos, -feas, hi)])
    bound[:, np.arange(m) >= size[:, None]] = -np.inf
    top = np.stack([np.where(pos, c[:, None], 0.0), np.where(pos, 0.0, c[:, None])])
    mask = np.log(z < bound, dtype=np.float64)

    rows = np.arange(len(problems))  # each live row's index in ``problems``
    base, other = _batch_offsets(rows.size, m)
    last_gap = np.full(len(problems), np.inf)
    it = 0  # every live row has made ``it`` updates
    while True:
        both = grad + mask
        ij = both.argmax(2)  # (i, j) per row
        at = base + ij  # flat positions of (0, i) and (1, j)
        picked = both.reshape(-1)[at]
        gap = picked[0] + picked[1]  # -inf when a side has no candidate
        kc = gram_row + ij
        k_cols = cols.take(kc, 0)
        k_diag = diag[kc]
        quad = k_diag[0] + k_diag[1] - 2.0 * k_cols.reshape(-1)[at[0] + other[0]]
        delta = np.where(quad > 1e-12, gap / quad, np.inf)
        caps = top.reshape(-1)[at] - z.reshape(-1)[at]
        delta = np.minimum(delta, np.minimum(caps[0], caps[1]))
        spent = budget <= it
        leave = spent | (gap <= tol) | (delta <= 0)
        if leave.any():
            for q in np.flatnonzero(leave):
                r = rows[q]
                n = size[r]
                # + 0.0 turns the -0.0 that z = 0 gives a -1 label into 0.0.
                alpha = z[0, q, :n] * y[r, :n] + 0.0
                np.clip(alpha, 0.0, c[r], out=alpha)
                if spent[q]:
                    kkt = last_gap[q]
                else:
                    kkt = 0.0 if gap[q] == -np.inf else gap[q]
                out[r] = QpSolution(alpha, not spent[q], max(kkt, 0.0), it)
            keep = ~leave
            rows, gram_row, budget = rows[keep], gram_row[keep], budget[keep]
            if not rows.size:
                return out
            # compress, not a[:, keep]: the state must stay C-contiguous,
            # because updates write through flat views of it.
            grad, z, mask, bound, top, ij, k_cols = (
                a.compress(keep, axis=1) for a in (grad, z, mask, bound, top, ij, k_cols)
            )
            delta, gap = delta[keep], gap[keep]
            base, other = _batch_offsets(rows.size, m)
            at = base + ij
        # A row moves on only while gap > tol >= 0, so i != j and the four
        # entries (0, i), (1, j), (1, i), (0, j) are distinct.
        moved = np.concatenate([at, at + other])
        z.reshape(-1)[moved] += delta * _STEPS
        mask.reshape(-1)[moved] = np.log(
            z.reshape(-1)[moved] < bound.reshape(-1)[moved], dtype=np.float64
        )
        step = delta[:, None] * (k_cols[0] - k_cols[1])
        grad[0] -= step
        grad[1] += step
        it += 1
        last_gap = gap


def _check_two_classes(labels: np.ndarray):
    if not np.any(labels > 0):
        raise ValueError("training set has no +1 samples")
    if not np.any(labels < 0):
        raise ValueError("training set has no -1 samples")


def recover_bias(gram: np.ndarray, y: np.ndarray, alpha: np.ndarray, c: float) -> float:
    """Intercept implied by the dual's equality constraint.

    The equality constraint alpha^T y = 0 arises from an intercept in the
    primal; scoring without it leaves a systematic shift whenever the two
    classes have different within-class similarity levels.  Margin support
    vectors (0 < alpha_i < C) pin the intercept exactly; otherwise the
    midpoint of the KKT interval is used.
    """
    scores = gram @ (alpha * y)
    t = y - scores
    feas = 1e-8 * max(c, 1.0)
    interior = (alpha > feas) & (alpha < c - feas)
    if interior.any():
        return float(t[interior].mean())
    lower = t[((alpha <= feas) & (y > 0)) | ((alpha >= c - feas) & (y < 0))]
    upper = t[((alpha <= feas) & (y < 0)) | ((alpha >= c - feas) & (y > 0))]
    if lower.size and upper.size:
        return float(0.5 * (lower.max() + upper.min()))
    if lower.size:
        return float(lower.max())
    if upper.size:
        return float(upper.min())
    return 0.0


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
        return np.flatnonzero(self.alpha > SUPPORT_EPS)

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
    bias = recover_bias(gram, y, sol.alpha, problem.box)
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


def predict_label(score: float) -> int:
    """Sign rule with ties mapped to +1."""
    return 1 if score >= 0 else -1


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


def _stratified_folds(labels: np.ndarray, k: int, rng) -> list[np.ndarray]:
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (1.0, -1.0):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def _cv_lambda(
    gram: np.ndarray, labels, grid: Sequence[float], k: int, seed: int
) -> tuple[float, float]:
    """Fold loop behind :func:`select_lambda`: the chosen lambda and its CV
    accuracy, which is -1 when a class has a single sample.

    The Gram matrix is checked once here; every fold x lambda dual is cut
    from it unchecked and all of them are solved in one
    :func:`solve_qp_many` batch, each fold's sub-Gram shared by its lambdas.
    """
    gram = np.asarray(gram, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    _check_dual_data(gram, y)
    _check_two_classes(y)
    grid = tuple(grid)
    if not grid:
        raise ValueError("lambda grid is empty")
    if any(not g > 0 for g in grid):
        raise ValueError("lambda grid values must be > 0")
    rng = np.random.default_rng(seed)
    k = min(k, int(np.sum(y > 0)), int(np.sum(y < 0)))
    if k < 2:
        return grid[0], -1.0
    splits = []
    for te in _stratified_folds(y, k, rng):
        tr = np.setdiff1d(np.arange(y.size), te)
        splits.append((gram[np.ix_(tr, tr)], y[tr], gram[np.ix_(tr, te)], y[te]))
    problems = [
        QpProblem._unchecked(sub, y_tr, lam) for lam in grid for sub, y_tr, _, _ in splits
    ]
    solutions = iter(solve_qp_many(problems))
    best_lam, best_acc = grid[0], -1.0
    for lam in grid:
        correct = 0
        for sub, y_tr, cross, y_te in splits:
            sol = next(solutions)
            bias = recover_bias(sub, y_tr, sol.alpha, box_bound(y_tr.size, lam))
            scores = (sol.alpha * y_tr) @ cross + bias
            pred = np.where(scores >= 0, 1.0, -1.0)
            correct += int(np.sum(pred == y_te))
        acc = correct / y.size
        if acc > best_acc:
            best_acc, best_lam = acc, lam
    return best_lam, best_acc


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
    returned.  Ties keep the first (smallest) grid value.  The Gram matrix
    covers the training samples only.  Raises ``ValueError`` for an empty
    grid, a non-positive grid value, a Gram matrix that is not square,
    finite and symmetric, or labels that are not +-1 of both classes.
    """
    return _cv_lambda(gram, labels, grid, k, seed)[0]
