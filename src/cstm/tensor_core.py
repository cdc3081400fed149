"""Dense tensor algebra and CP decomposition by alternating least squares.

Tensors and matrices are plain ``numpy.ndarray`` objects of dtype float64,
indexed ``t[i1, i2, i3]``.  Modes are numbered 1..N to match the usual
tensor-algebra notation.  The canonical linear layout (used by the binary
container in :mod:`cstm.container`) stores mode 1 fastest, i.e. Fortran
order.  Mode-n unfoldings place the mode-n fibers as columns, with the
remaining modes ordered so that lower-numbered modes vary fastest.

:func:`cp_als_many` runs CP-ALS on a batch of equally shaped tensors with
stacked products and solves; :func:`cp_als` is its batch of one.  Every
result records its error history and stop reason (:class:`SolveStats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

# Ridge added to every ALS normal-equation solve; keeps singular
# subproblems (e.g. zero tensors, collinear factors) solvable.
ALS_RIDGE = 1e-12


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding (1-based mode) with fibers as columns.

    Column j of the result is the mode-n fiber at the j-th combination of
    the remaining indices, lower-numbered modes varying fastest.
    """
    t = _as_float_array(tensor, "tensor")
    if not 1 <= mode <= t.ndim:
        raise ValueError(f"mode must be in 1..{t.ndim}, got {mode}")
    return _unfold(t, mode - 1)


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    # Unchecked core of unfold, with a 0-based mode.
    return np.moveaxis(t, mode, 0).reshape((t.shape[mode], -1), order="F")


def _khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Column-wise Kronecker product, column k = kron(a[:, k], b[:, k]), of
    # float64 matrices of equal width or stacks of them with equal leading
    # dimensions; unchecked.
    return (a[..., :, None, :] * b[..., None, :, :]).reshape(
        a.shape[:-2] + (a.shape[-2] * b.shape[-2], a.shape[-1])
    )


def _normalize_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (unit, norms): each column rescaled to unit Euclidean norm, and its
    # original norm; zero columns stay as they are with norm 0.  For a
    # float64 matrix or a stack of them, unchecked.
    norms = np.linalg.norm(m, axis=-2)
    safe = np.where(norms > 0, norms, 1.0)
    return m / safe[..., None, :], norms


class NumericalError(RuntimeError):
    """Raised on data beyond the float64 range, a non-finite objective at
    ``iteration``, or a non-finite score.  ``sample`` is the position of
    the offending sample in the batch that raised it, when there is one;
    the text reads "sample k: message (iteration i)"."""

    def __init__(self, message: str, iteration: int | None = None,
                 sample: int | None = None):
        super().__init__(message, iteration, sample)
        self.message, self.iteration, self.sample = message, iteration, sample

    def __str__(self) -> str:
        text = self.message if self.sample is None else f"sample {self.sample}: {self.message}"
        return text if self.iteration is None else f"{text} (iteration {self.iteration})"


@dataclass(frozen=True)
class SolveStats:
    """How one iterative solve ended: ``iterations`` steps taken (CG
    iterations, ALS sweeps), ``evaluations`` of the objective (CP-ALS: one
    per sweep; ACMTF: with gradient, the start included) and the ``stop``
    reason: ``"tol"``, ``"max_iters"``, or for ACMTF ``"no_descent"`` (no
    step decreased the objective, steepest descent included) or
    ``"zero_grad"``."""

    iterations: int
    evaluations: int
    stop: str


@dataclass(frozen=True, eq=False)
class KruskalTensor:
    """CP decomposition as per-component weights plus factor matrices.

    ``factors[j]`` has shape ``(I_j, r)`` and ``weights`` has length r.
    The represented tensor is ``sum_k weights[k] * outer(factors[0][:, k],
    ..., factors[-1][:, k])``; :func:`cp_als_many` sets the solver record.
    """

    weights: np.ndarray
    factors: tuple[np.ndarray, ...]
    objective_history: tuple[float, ...] = field(default=(), compare=False)
    stats: SolveStats | None = field(default=None, compare=False)

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights")
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        facs = tuple(_as_float_array(f, "factor") for f in self.factors)
        for f in facs:
            if f.ndim != 2 or f.shape[1] != w.size:
                raise ValueError(
                    f"factor shape {f.shape} incompatible with rank {w.size}"
                )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "factors", facs)

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def order(self) -> int:
        return len(self.factors)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def full(self) -> np.ndarray:
        """Reconstruct the dense tensor."""
        return _full(self.weights, self.factors)

    def normalized(self) -> "KruskalTensor":
        """Fold column norms and a deterministic sign choice into the weights.

        Every nonzero factor column comes out with unit norm and nonnegative
        entry sum; norms and sign flips are absorbed into the weights so the
        represented tensor and the solver record are unchanged.  Zero
        columns get weight 0.
        """
        w = self.weights.copy()
        out = []
        for f in self.factors:
            unit, norms = _normalize_columns(f)
            w = w * norms
            signs = np.where(unit.sum(axis=0) < 0, -1.0, 1.0)
            unit = unit * signs
            w = w * signs
            out.append(unit)
        return KruskalTensor(w, tuple(out), self.objective_history, self.stats)


def _full(weights: np.ndarray, factors) -> np.ndarray:
    # Dense tensor of weights and factor matrices, unchecked.
    letters = "ijklmnop"[: len(factors)]
    spec = "r," + ",".join(f"{c}r" for c in letters) + "->" + letters
    return np.einsum(spec, weights, *factors)


def cp_als(
    tensor: np.ndarray,
    rank: int,
    tol: float = 1e-8,
    max_iter: int = 200,
    seed: int = 0,
) -> KruskalTensor:
    """Rank-``rank`` CP decomposition by alternating least squares.

    Factors are initialized from a seeded Gaussian with unit-norm columns.
    Each sweep updates every mode in turn; the normal equations carry a
    fixed ridge of ``ALS_RIDGE`` so singular subproblems stay solvable.
    Iteration stops when the relative reconstruction error drops by less
    than ``tol`` between sweeps, or after ``max_iter`` sweeps.

    Returns a column-normalized :class:`KruskalTensor` with the relative
    error after each sweep as ``objective_history`` and ``stats`` =
    ``SolveStats(sweeps, sweeps, "tol" | "max_iters")``.  That error is the
    last mode's unfolding's, ``||X_(N) - (F_N w) kr^T||`` with the
    Khatri-Rao product ``kr`` that mode's update just used, so no dense
    reconstruction is formed.

    This is :func:`cp_als_many` on a batch of one, which also validates
    the arguments.
    """
    return cp_als_many([tensor], rank, [seed], tol, max_iter)[0]


def cp_als_many(
    tensors,
    rank: int,
    seeds,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> list[KruskalTensor]:
    """:func:`cp_als` of many tensors of one shape, as one batch.

    Returns a list with what ``cp_als(tensor, rank, tol, max_iter, seed)``
    returns for each ``(tensor, seed)`` pair, bit for bit, so a tensor's
    result does not depend on the rest of its batch.  An empty batch
    returns ``[]``.

    The arguments are checked once, here: ``rank >= 1``, ``tol > 0``,
    ``max_iter >= 1``, one seed per tensor, and finite tensors of one
    shape, of order 2 or more and with no empty mode; a tensor whose sum of
    squares overflows float64 raises :class:`NumericalError` with its
    position as ``sample``.  A sweep stacks every live tensor's unfoldings,
    Khatri-Rao products and ``(B, r, r)`` Grams, and makes one stacked
    ``np.linalg.solve`` per mode.  A tensor leaves the batch when it stops;
    the rows of the others move down in place, and the residuals are
    written into one buffer.

    numpy computes each item of a stacked ``matmul`` or ``solve`` as the
    two-dimensional call on that item would, but BLAS sums in an order
    that depends on the operands' memory layout; every stacked array has
    one layout per item whatever the batch.  Tensors are read in C order.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    ts = [np.ascontiguousarray(_as_float_array(t, "tensor")) for t in tensors]
    seeds = list(seeds)
    if len(seeds) != len(ts):
        raise ValueError(f"got {len(seeds)} seeds for {len(ts)} tensors")
    if not ts:
        return []
    dims = ts[0].shape
    if any(t.shape != dims for t in ts):
        raise ValueError("tensors must share one shape")
    if len(dims) < 2:
        raise ValueError(f"tensor order must be >= 2, got {len(dims)}")
    if 0 in dims:
        raise ValueError(f"tensor has an empty mode: shape {dims}")
    with np.errstate(over="ignore"):
        norm_x = np.array([np.linalg.norm(t) for t in ts])
    if np.isinf(norm_x).any():
        raise NumericalError("sum of squares overflows float64",
                             sample=int(np.argmax(norm_x)))

    n_modes = len(dims)
    inits = [
        [_normalize_columns(rng.standard_normal((d, rank)))[0] for d in dims]
        for rng in map(np.random.default_rng, seeds)
    ]
    factors = [np.stack(fs) for fs in zip(*inits)]
    unfoldings = [_stacked_unfoldings(ts, n) for n in range(n_modes)]
    ridge = ALS_RIDGE * np.eye(rank)
    resid = np.empty(unfoldings[-1].shape)
    live = np.arange(len(ts))
    prev_err = np.full(len(ts), np.inf)
    histories: list[list[float]] = [[] for _ in ts]
    results: list = [None] * len(ts)
    for sweep in range(max_iter):
        for n in range(n_modes):
            others = [factors[j] for j in range(n_modes - 1, -1, -1) if j != n]
            kr = reduce(_khatri_rao, others)
            gram = np.ones((live.size, rank, rank))
            for j in range(n_modes):
                if j != n:
                    gram *= factors[j].transpose(0, 2, 1) @ factors[j]
            rhs = unfoldings[n] @ kr
            sol = np.linalg.solve(gram + ridge, rhs.transpose(0, 2, 1))
            factors[n], weights = _normalize_columns(sol.transpose(0, 2, 1))
            # Zero columns keep weight 0; reuse them as-is.
        model = resid[: live.size]
        np.matmul(factors[-1] * weights[:, None, :], kr.transpose(0, 2, 1), out=model)
        res = np.subtract(unfoldings[-1], model, out=model).reshape(live.size, 1, -1)
        err = np.sqrt((res @ res.transpose(0, 2, 1)).reshape(-1))
        np.divide(err, norm_x, out=err, where=norm_x > 0)
        for i, e in zip(live.tolist(), err.tolist()):
            histories[i].append(e)
        small = prev_err - err < tol
        done = small | (sweep == max_iter - 1)
        prev_err = err
        if done.any():
            for i in np.flatnonzero(done):
                results[live[i]] = KruskalTensor(
                    weights[i], tuple(f[i] for f in factors),
                    tuple(histories[live[i]]),
                    SolveStats(sweep + 1, sweep + 1, "tol" if small[i] else "max_iters"),
                ).normalized()
            stay = np.flatnonzero(~done)
            live, prev_err, norm_x = live[stay], prev_err[stay], norm_x[stay]
            factors = _keep_rows(factors, stay)
            unfoldings = _keep_rows(unfoldings, stay)
        if live.size == 0:
            break
    return results


def _stacked_unfoldings(ts, mode: int) -> np.ndarray:
    # (B, I_n, J_n) mode-n unfoldings of tensors of one shape, each item in
    # Fortran order.
    rows = ts[0].shape[mode]
    out = np.empty((len(ts), ts[0].size // rows, rows)).transpose(0, 2, 1)
    for i, t in enumerate(ts):
        out[i] = _unfold(t, mode)
    return out


def _keep_rows(arrays, positions) -> list[np.ndarray]:
    """Keep rows ``positions`` (increasing) of each array, moved down in place.

    Returns the leading part of each array that now holds them.  Unlike
    fancy indexing, this allocates no second copy of the arrays and keeps
    their memory layout.
    """
    for new, old in enumerate(positions):
        if new != old:
            for a in arrays:
                a[new] = a[old]
    return [a[: len(positions)] for a in arrays]
