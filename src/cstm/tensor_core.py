"""Dense third-order tensor algebra.

Tensors and matrices are plain ``numpy.ndarray`` objects of dtype float64,
indexed ``t[i1, i2, i3]``.  Modes are numbered 1..N to match the usual
tensor-algebra notation.  The canonical linear layout (used by the binary
container in :mod:`cstm.container`) stores mode 1 fastest, i.e. Fortran
order.  Mode-n unfoldings place the mode-n fibers as columns, with the
remaining modes ordered so that lower-numbered modes vary fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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
    return np.moveaxis(t, mode - 1, 0).reshape((t.shape[mode - 1], -1), order="F")


def fold(matrix: np.ndarray, mode: int, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild a tensor of shape ``dims``."""
    m = _as_float_array(matrix, "matrix")
    if not 1 <= mode <= len(dims):
        raise ValueError(f"mode must be in 1..{len(dims)}, got {mode}")
    rest = tuple(d for i, d in enumerate(dims) if i != mode - 1)
    full = m.reshape((dims[mode - 1],) + rest, order="F")
    return np.moveaxis(full, 0, mode - 1)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product: column k is ``kron(a[:, k], b[:, k])``."""
    a = _as_float_array(a, "a")
    b = _as_float_array(b, "b")
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    return _khatri_rao(a, b)


def _khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Unchecked core of khatri_rao, for float64 matrices of equal width.
    return (a[:, None, :] * b[None, :, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1]
    )


def normalize_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each column to unit Euclidean norm.

    Returns ``(unit, weights)`` where ``weights[k]`` is the original norm of
    column k.  Zero columns are returned unchanged with weight 0.
    """
    return _normalize_columns(_as_float_array(m, "matrix"))


def _normalize_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Unchecked core of normalize_columns, for a float64 matrix.
    norms = np.linalg.norm(m, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return m / safe, norms


@dataclass(frozen=True, eq=False)
class KruskalTensor:
    """CP decomposition as per-component weights plus factor matrices.

    ``factors[j]`` has shape ``(I_j, r)`` and ``weights`` has length r.
    The represented tensor is ``sum_k weights[k] * outer(factors[0][:, k],
    ..., factors[-1][:, k])``.
    """

    weights: np.ndarray
    factors: tuple[np.ndarray, ...]

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

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def full(self) -> np.ndarray:
        """Reconstruct the dense tensor."""
        return _full(self.weights, self.factors)

    def normalized(self) -> "KruskalTensor":
        """Fold column norms and a deterministic sign choice into the weights.

        Every nonzero factor column comes out with unit norm and nonnegative
        entry sum; norms and sign flips are absorbed into the weights so the
        represented tensor is unchanged.  Zero columns get weight 0.
        """
        w = self.weights.copy()
        out = []
        for f in self.factors:
            unit, norms = normalize_columns(f)
            w = w * norms
            signs = np.where(unit.sum(axis=0) < 0, -1.0, 1.0)
            unit = unit * signs
            w = w * signs
            out.append(unit)
        return KruskalTensor(w, tuple(out))


def _full(weights: np.ndarray, factors) -> np.ndarray:
    # Dense tensor of weights and factor matrices, unchecked.
    letters = "ijklmnop"[: len(factors)]
    spec = "r," + ",".join(f"{c}r" for c in letters) + "->" + letters
    return np.einsum(spec, weights, *factors)


def kruskal_to_full(k: KruskalTensor) -> np.ndarray:
    """Dense tensor of a Kruskal representation (any order)."""
    return k.full()


def cp_als(
    tensor: np.ndarray,
    rank: int,
    tol: float = 1e-8,
    max_iter: int = 200,
    seed: int = 0,
    return_history: bool = False,
):
    """Rank-``rank`` CP decomposition by alternating least squares.

    Factors are initialized from a seeded Gaussian with unit-norm columns.
    Each sweep updates every mode in turn; the normal equations carry a
    fixed ridge of ``ALS_RIDGE`` so singular subproblems stay solvable.
    Iteration stops when the relative reconstruction error drops by less
    than ``tol`` between sweeps, or after ``max_iter`` sweeps.

    Returns a column-normalized :class:`KruskalTensor`; with
    ``return_history=True``, also the per-sweep relative errors.  The
    tensor is validated once, here; the sweeps use unchecked helpers.
    """
    t = _as_float_array(tensor, "tensor")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    dims = t.shape
    n_modes = t.ndim
    rng = np.random.default_rng(seed)
    factors = [_normalize_columns(rng.standard_normal((d, rank)))[0] for d in dims]
    weights = np.ones(rank)
    unfoldings = [unfold(t, m + 1) for m in range(n_modes)]
    norm_x = np.linalg.norm(t)
    eye = np.eye(rank)

    def current_error() -> float:
        approx = _full(weights, factors)
        err = np.linalg.norm(t - approx)
        return err / norm_x if norm_x > 0 else err

    history: list[float] = []
    prev_err = np.inf
    for _ in range(max_iter):
        for n in range(n_modes):
            others = [factors[j] for j in range(n_modes - 1, -1, -1) if j != n]
            kr = reduce(_khatri_rao, others)
            gram = np.ones((rank, rank))
            for j in range(n_modes):
                if j != n:
                    gram *= factors[j].T @ factors[j]
            rhs = unfoldings[n] @ kr
            sol = np.linalg.solve(gram + ALS_RIDGE * eye, rhs.T).T
            factors[n], weights = _normalize_columns(sol)
            # Zero columns keep weight 0; reuse them as-is.
        err = current_error()
        history.append(err)
        if prev_err - err < tol:
            break
        prev_err = err

    result = KruskalTensor(weights, tuple(factors)).normalized()
    if return_history:
        return result, history
    return result
