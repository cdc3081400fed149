"""Per-sample joint factorization of a third-order tensor and a coupled matrix.

One :class:`CoupledSample` holds a tensor ``X1`` of shape (I1, I2, I3) and a
matrix ``X2`` of shape (I4, I3); their third/second modes share latent
factors.  The factorization minimizes

    Q = gamma * ||X1 - [[zeta; A, B, C]]||_F^2
      + gamma * ||X2 - U diag(sigma) V^T||_F^2
      + xi    * ||C - V||_F^2
      + sum_k [ beta * sqrt(zeta_k^2 + eps) + beta * sqrt(sigma_k^2 + eps)
                + theta * sum over the five factors of (||col_k|| - 1)^2 ]

over the factor blocks (A, B, C, U, V) and the weight vectors (zeta, sigma),
using nonlinear conjugate gradient with Hestenes-Stiefel updates and a
strong-Wolfe line search.  The analytic gradient below is the exact gradient
of Q as written (including the factors of 2 from the squared norms), so it
matches finite differences of :func:`acmtf_objective` coordinate-wise.

The solver evaluates Q and its gradient on flat parameter vectors, for a
batch of same-dims samples per call (see :class:`_Evaluator`), in the
residual-free form of CP-OPT/CMTF-OPT (Acar, Dunlavy & Kolda 2011, "A
scalable optimization approach for fitting canonical tensor
decompositions"; Acar, Kolda & Dunlavy 2011, "All-at-once optimization for
coupled matrix and tensor factorizations"): the data enter only through
MTTKRPs (matricized tensor times Khatri-Rao products), the model through
r x r Grams.  The line search and the CG loop are generators that yield
each point they need evaluated, so :func:`acmtf_decompose_many` advances
every unfinished sample of a batch by one evaluator call per round, and
:func:`acmtf_decompose` is that on a batch of one.  Inputs are validated
at the boundary, by :class:`CoupledSample` and the public functions; the
CG loop raises :class:`NumericalError` on a non-finite objective or
gradient, and nothing inside it checks further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor_core import KruskalTensor

# Guard for the Hestenes-Stiefel denominator; below this the direction
# update is replaced by steepest descent.
HS_DENOM_GUARD = 1e-12


class NumericalError(RuntimeError):
    """Raised when the optimizer encounters a non-finite objective."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


@dataclass(frozen=True, eq=False)
class CoupledSample:
    """One (tensor, matrix, label) unit; tensor mode 3 couples to matrix mode 2."""

    tensor: np.ndarray
    matrix: np.ndarray
    label: int = 0  # +1 / -1, or 0 when unlabeled

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=np.float64)
        m = np.asarray(self.matrix, dtype=np.float64)
        if t.ndim != 3:
            raise ValueError(f"tensor must be third-order, got ndim={t.ndim}")
        if m.ndim != 2:
            raise ValueError(f"matrix must be second-order, got ndim={m.ndim}")
        if t.shape[2] != m.shape[1]:
            raise ValueError(
                f"coupled mode mismatch: tensor dim 3 is {t.shape[2]}, "
                f"matrix has {m.shape[1]} columns"
            )
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(m))):
            raise ValueError("sample contains non-finite entries")
        if self.label not in (-1, 0, 1):
            raise ValueError("label must be +1, -1, or 0 (unlabeled)")
        object.__setattr__(self, "tensor", t)
        object.__setattr__(self, "matrix", m)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(I1, I2, I3, I4)."""
        return (*self.tensor.shape, self.matrix.shape[0])


@dataclass(frozen=True)
class AcmtfHyperParams:
    """Weights and solver knobs for the coupled factorization.

    gamma weighs both data-fit terms, beta the smoothed-l1 sparsity on the
    component weights, xi the coupling penalty, theta the unit-norm penalty;
    epsilon smooths the l1 term.  cg_tol is the objective-change stopping
    threshold and max_iters the iteration cap of the CG loop.
    """

    gamma: float = 1.0
    beta: float = 0.001
    xi: float = 1.0
    theta: float = 1.0
    epsilon: float = 1e-8
    rank: int = 5
    cg_tol: float = 1e-9
    max_iters: int = 500

    def __post_init__(self):
        for name in ("gamma", "beta", "xi", "theta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.cg_tol <= 0:
            raise ValueError("cg_tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True, eq=False)
class AcmtfFactors:
    """Joint factorization result: tensor Kruskal, matrix Kruskal, shared factor.

    ``shared`` is the elementwise average of the tensor's third-mode factor
    and the matrix's second-mode factor.  ``objective_history`` and
    ``converged`` are optional solver provenance.
    """

    u1: KruskalTensor
    u2: KruskalTensor
    shared: np.ndarray
    objective_history: tuple[float, ...] = field(default=(), compare=False)
    converged: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.u1.order != 3:
            raise ValueError("u1 must have three factor matrices")
        if self.u2.order != 2:
            raise ValueError("u2 must have two factor matrices")
        if self.u1.rank != self.u2.rank:
            raise ValueError("u1 and u2 must share the same rank")
        if self.u1.shape[2] != self.u2.shape[1]:
            raise ValueError("coupled-mode dimensions differ between u1 and u2")
        expected = (self.u1.factors[2] + self.u2.factors[1]) / 2
        if not np.array_equal(np.asarray(self.shared, dtype=np.float64), expected):
            raise ValueError("shared must equal the average of the coupled factors")
        object.__setattr__(self, "shared", expected)

    @classmethod
    def from_kruskals(
        cls,
        u1: KruskalTensor,
        u2: KruskalTensor,
        objective_history: tuple[float, ...] = (),
        converged: bool = True,
    ) -> "AcmtfFactors":
        shared = (u1.factors[2] + u2.factors[1]) / 2
        return cls(u1, u2, shared, objective_history, converged)

    @property
    def rank(self) -> int:
        return self.u1.rank

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (*self.u1.shape, self.u2.shape[0])

    def pruned(self, rel_tol: float) -> "AcmtfFactors":
        """Drop components whose weight is negligible in both modalities.

        Component k survives if |zeta_k| >= rel_tol * max|zeta| or
        |sigma_k| >= rel_tol * max|sigma| (the sparsity penalty drives the
        weights of unused components to zero; shared indexing across the
        two modalities must be preserved, so pruning is joint).  At least
        one component is always kept.  ``rel_tol`` must lie in [0, 1); at 0
        nothing is dropped.
        """
        if not 0 <= rel_tol < 1:
            raise ValueError(f"rel_tol must be in [0, 1), got {rel_tol!r}")
        if rel_tol == 0:
            return self
        z = np.abs(self.u1.weights)
        s = np.abs(self.u2.weights)
        # The largest weight always satisfies its own threshold, so at
        # least one component survives.
        keep = (z >= rel_tol * z.max()) | (s >= rel_tol * s.max())
        if keep.all():
            return self
        u1 = KruskalTensor(
            self.u1.weights[keep], tuple(f[:, keep] for f in self.u1.factors)
        )
        u2 = KruskalTensor(
            self.u2.weights[keep], tuple(f[:, keep] for f in self.u2.factors)
        )
        return AcmtfFactors.from_kruskals(
            u1, u2, self.objective_history, self.converged
        )


def shared_factor(f: AcmtfFactors) -> np.ndarray:
    """Average of the tensor third-mode and matrix second-mode factors."""
    return (f.u1.factors[2] + f.u2.factors[1]) / 2


# ---------------------------------------------------------------------------
# Flat parameter vector <-> factor blocks
# ---------------------------------------------------------------------------

def _block_sizes(dims: tuple[int, int, int, int], rank: int) -> list[int]:
    i1, i2, i3, i4 = dims
    return [i1 * rank, i2 * rank, i3 * rank, i4 * rank, i3 * rank, rank, rank]


def pack(blocks) -> np.ndarray:
    """Concatenate (A, B, C, U, V, zeta, sigma) into one flat vector."""
    return np.concatenate([np.asarray(b, dtype=np.float64).ravel() for b in blocks])


def unpack(x: np.ndarray, dims: tuple[int, int, int, int], rank: int):
    """Split a flat vector back into (A, B, C, U, V, zeta, sigma)."""
    i1, i2, i3, i4 = dims
    sizes = _block_sizes(dims, rank)
    if x.size != sum(sizes):
        raise ValueError(f"parameter vector has size {x.size}, expected {sum(sizes)}")
    parts = np.split(x, np.cumsum(sizes)[:-1])
    shapes = [(i1, rank), (i2, rank), (i3, rank), (i4, rank), (i3, rank)]
    blocks = [p.reshape(s) for p, s in zip(parts, shapes)]
    return (*blocks, parts[5], parts[6])


class _Evaluator:
    """Objective and gradient of Q for a batch of samples of equal dims.

    A call maps a ``(b, n)`` block of flat parameter vectors, row k for
    sample k, to ``(b,)`` objectives and ``(b, n)`` gradients.  Every
    product is a stacked ``matmul`` or an elementwise operation along the
    sample axis, so row k's arithmetic is the same whatever else is in the
    batch: a sample's values do not depend on its batch.

    The five factor blocks of a row are consecutive C-ordered ``(rows, r)``
    slices, so ``x[:, :nf].reshape(b, -1, r)`` stacks the factor matrices
    F.  All column norms come from one ``np.add.reduceat`` of F*F over the
    block offsets, and the five unit-norm penalty gradients from one
    expression written straight into the gradient block; the two weight
    vectors share one smoothed-l1 expression the same way.

    The tensor term takes the residual-free CP-OPT form (Acar, Dunlavy &
    Kolda 2011): with W = A diag(zeta) and H = B^T B * C^T C,

        ||X1 - [[zeta; A, B, C]]||^2 = ||X1||^2 - 2 <W, M1> + sum(W^T W * H)

    where M1 = X1_(1) (B kr C) is the mode-1 MTTKRP.  ||X1||^2 is computed
    once per sample; the data enter a call only through M1 and through
    T = W^T X1_(1), whose small contractions with C and with B are the
    mode-2 and mode-3 MTTKRPs.  The model part of every gradient comes from
    r x r Grams, so the tensor residual is never formed.  Here the mode-1
    unfolding keeps the tensor's C order (mode 3 fastest), which is why the
    Khatri-Rao product is B kr C.  The matrix residual is only (I4, I3)
    and is formed directly.  Near an exact fit the three tensor terms
    cancel, so the tensor term carries rounding of order 1e-16 ||X1||^2 and
    may read a few ulps below zero.

    The samples are validated once, by :class:`CoupledSample`; a call
    checks nothing, so the caller tests the results for finiteness.
    """

    def __init__(self, samples, h: AcmtfHyperParams, scales=None):
        # Sample k's data are divided by ``scales[k] = (tensor scale,
        # matrix scale)``, straight into the stacked arrays.
        i1, i2, i3, i4 = samples[0].dims
        r = h.rank
        self.h = h
        self.dims = samples[0].dims
        self.rank = r
        rows = (i1, i2, i3, i4, i3)
        bounds = np.cumsum((0,) + rows)
        self.blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.rows = rows
        self.offsets = bounds[:-1]
        self.nf = int(bounds[-1]) * r
        n = len(samples)
        self.x1 = np.empty((n, i1, i2 * i3))
        self.x2 = np.empty((n, i4, i3))
        for k, (s, (st, sm)) in enumerate(zip(samples, scales or [(1.0, 1.0)] * n)):
            np.divide(s.tensor.reshape(i1, -1), st, out=self.x1[k])
            np.divide(s.matrix, sm, out=self.x2[k])
        self.x1_sq = np.array([np.vdot(t, t) for t in self.x1])

    def keep(self, positions):
        """Drop every sample but those at the increasing batch ``positions``.

        Their rows move down in place.  Taking them by fancy indexing
        instead briefly holds a second copy of the stacked data, which
        raised the fit-predict benchmark's peak RSS from 85.6 to 87.1 MB
        (parent: 81.6 MB) on 2 vCPUs.
        """
        for new, old in enumerate(positions):
            for a in (self.x1, self.x2, self.x1_sq):
                a[new] = a[old]
        m = len(positions)
        self.x1, self.x2, self.x1_sq = self.x1[:m], self.x2[:m], self.x1_sq[:m]

    def __call__(self, x: np.ndarray, need_grad: bool = True):
        h, r, nf = self.h, self.rank, self.nf
        _, i2, i3, _ = self.dims
        b = x.shape[0]
        F = x[:, :nf].reshape(b, -1, r)
        A, B, C, U, V = (F[:, s] for s in self.blocks)
        w = x[:, nf:]  # (zeta, sigma) per row
        zeta, sigma = w[:, None, :r], w[:, None, r:]
        W = A * zeta
        kr_bc = (B[:, :, None, :] * C[:, None, :, :]).reshape(b, i2 * i3, r)
        m1 = self.x1 @ kr_bc
        grams = [_gram(M) for M in (A, B, C)]
        wtw = grams[0] * (zeta.transpose(0, 2, 1) * zeta)
        hbc = grams[1] * grams[2]
        us = U * sigma
        f2 = us @ V.transpose(0, 2, 1)
        f2 -= self.x2
        cv = C - V
        norms = np.sqrt(np.add.reduceat(F * F, self.offsets, axis=1))
        dn = norms - 1.0
        root_w = np.sqrt(w * w + h.epsilon)
        fit1 = self.x1_sq - 2.0 * _row_sum(W * m1) + _row_sum(wtw * hbc)
        q = h.gamma * (fit1 + _row_sum(f2 * f2))
        q += h.xi * _row_sum(cv * cv)
        q += h.beta * root_w.sum(axis=1)
        q += h.theta * _row_sum(dn * dn)
        if not need_grad:
            return q, None

        g = np.empty(x.shape)
        gF = g[:, :nf].reshape(b, -1, r)
        gA, gB, gC, gU, gV = (gF[:, s] for s in self.blocks)
        # d/dF theta (||f_k|| - 1)^2 = 2 theta (F - Fbar), Fbar column-
        # normalized.  Zero columns sit at a non-differentiable point and
        # take the 0 subgradient: dividing them by 1 keeps Fbar = F = 0.
        safe = np.where(norms > 0, norms, 1.0)
        np.subtract(F, F / np.repeat(safe, self.rows, axis=1), out=gF)
        gF *= 2.0 * h.theta
        g2 = 2.0 * h.gamma
        # E1 (B kr C) without E1: shared by the A-block and zeta gradients.
        core1 = W @ hbc
        core1 -= m1
        gA += g2 * core1 * zeta
        t = (W.transpose(0, 2, 1) @ self.x1).reshape(b, r, i2, i3)
        m2 = t @ C.transpose(0, 2, 1)[..., None]  # (b, r, I2, 1)
        m3 = B.transpose(0, 2, 1)[:, :, None, :] @ t  # (b, r, 1, I3)
        gB += g2 * (B @ (wtw * grams[2]) - m2[..., 0].transpose(0, 2, 1))
        gC += g2 * (C @ (wtw * grams[1]) - m3[:, :, 0].transpose(0, 2, 1))
        gC += (2.0 * h.xi) * cv
        core2 = f2 @ V  # shared by the U-block and sigma gradients
        gU += g2 * core2 * sigma
        gV += g2 * (f2.transpose(0, 2, 1) @ us)
        gV -= (2.0 * h.xi) * cv
        gw = g[:, nf:]
        gw[:, :r] = (A * core1).sum(axis=1)
        gw[:, r:] = (U * core2).sum(axis=1)
        gw *= g2
        gw += h.beta * w / root_w
        return q, g


def _gram(m: np.ndarray) -> np.ndarray:
    return m.transpose(0, 2, 1) @ m


def _row_sum(a: np.ndarray) -> np.ndarray:
    return a.reshape(a.shape[0], -1).sum(axis=1)


def _one_sample(s: CoupledSample, h: AcmtfHyperParams):
    """``fg(x) -> (value, gradient)`` of one sample on the batched evaluator."""
    ev = _Evaluator([s], h)

    def fg(x, need_grad=True):
        q, g = ev(x[None], need_grad)
        return float(q[0]), None if g is None else g[0]

    return fg


def _factors_to_vector(f: AcmtfFactors) -> np.ndarray:
    return pack((*f.u1.factors, *f.u2.factors, f.u1.weights, f.u2.weights))


def _check_compat(s: CoupledSample, f: AcmtfFactors):
    if f.dims != s.dims:
        raise ValueError(f"factor dims {f.dims} do not match sample dims {s.dims}")


def acmtf_objective(s: CoupledSample, f: AcmtfFactors, h: AcmtfHyperParams) -> float:
    """Value of the unconstrained coupled-factorization objective Q.

    The tensor term is computed without its residual (see
    :class:`_Evaluator`), so the value is accurate to about
    1e-16 ||X1||^2 and can read slightly below zero near an exact fit.
    """
    _check_compat(s, f)
    return _one_sample(s, h)(_factors_to_vector(f), need_grad=False)[0]


def acmtf_gradient(s: CoupledSample, f: AcmtfFactors, h: AcmtfHyperParams) -> np.ndarray:
    """Exact gradient of Q, flattened as (A, B, C, U, V, zeta, sigma)."""
    _check_compat(s, f)
    return _one_sample(s, h)(_factors_to_vector(f))[1]


# ---------------------------------------------------------------------------
# Strong-Wolfe line search and the conjugate-gradient loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LineSearchResult:
    step: float
    value: float
    gradient: np.ndarray
    wolfe_satisfied: bool


def _wolfe_steps(
    x: np.ndarray,
    direction: np.ndarray,
    f0: float,
    g0: np.ndarray,
    c1: float = 1e-4,
    c2: float = 0.1,
    max_evals: int = 50,
    init_step: float = 1.0,
):
    """Strong-Wolfe line search (bracket + zoom), as a generator.

    Yields each trial point and takes its ``(value, gradient)`` back through
    ``send``; the search's :class:`LineSearchResult` is the generator's
    return value.  A trial point whose value or slope is not finite fails
    the sufficient-decrease test, so the search zooms or backs off from it,
    and it is never returned.  If no Wolfe point is found within
    ``max_evals`` evaluations, the best simple-decrease step seen is
    returned with ``wolfe_satisfied=False``; if no finite trial point was
    seen at all, the zero step at ``(f0, g0)``.
    """
    dphi0 = float(g0 @ direction)
    if dphi0 >= 0:
        raise ValueError("direction is not a descent direction")

    evals = 0
    best = None  # (step, value, gradient) with the lowest value seen

    def phi(a: float):
        nonlocal evals, best
        evals += 1
        val, grad = yield x + a * direction
        slope = float(grad @ direction)
        if not (np.isfinite(val) and np.isfinite(slope)):
            return np.inf, slope, grad
        if best is None or val < best[1]:
            best = (a, val, grad)
        return val, slope, grad

    def fallback():
        # Backtrack from the smallest bracketing point for plain decrease.
        a = best[0] if best is not None and best[1] < f0 else 1.0
        val, _, grad = yield from phi(a)
        while val > f0 and a > 1e-16:
            a *= 0.5
            val, _, grad = yield from phi(a)
        if best is None:
            return LineSearchResult(0.0, f0, g0, False)
        step, value, gradient = best
        return LineSearchResult(step, value, gradient, False)

    def zoom(a_lo, f_lo, d_lo, a_hi, f_hi):
        while evals < max_evals:
            # Quadratic interpolation with bisection safeguard.
            denom = 2.0 * (f_hi - f_lo - d_lo * (a_hi - a_lo))
            if denom != 0:
                a = a_lo - d_lo * (a_hi - a_lo) ** 2 / denom
            else:
                a = 0.5 * (a_lo + a_hi)
            lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
            width = hi - lo
            if not (lo + 0.1 * width <= a <= hi - 0.1 * width):
                a = 0.5 * (a_lo + a_hi)
            f_a, d_a, g_a = yield from phi(a)
            if f_a > f0 + c1 * a * dphi0 or f_a >= f_lo:
                a_hi, f_hi = a, f_a
            else:
                if abs(d_a) <= -c2 * dphi0:
                    return LineSearchResult(a, f_a, g_a, True)
                if d_a * (a_hi - a_lo) >= 0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo, d_lo = a, f_a, d_a
            if abs(a_hi - a_lo) < 1e-16:
                break
        return (yield from fallback())

    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    a = init_step if np.isfinite(init_step) and init_step > 0 else 1.0
    first = True
    while evals < max_evals:
        f_a, d_a, g_a = yield from phi(a)
        if f_a > f0 + c1 * a * dphi0 or (not first and f_a >= f_prev):
            return (yield from zoom(a_prev, f_prev, d_prev, a, f_a))
        if abs(d_a) <= -c2 * dphi0:
            return LineSearchResult(a, f_a, g_a, True)
        if d_a >= 0:
            return (yield from zoom(a, f_a, d_a, a_prev, f_prev))
        a_prev, f_prev, d_prev = a, f_a, d_a
        a *= 2.0
        first = False
    return (yield from fallback())


def _wolfe_search(
    fg,
    x: np.ndarray,
    direction: np.ndarray,
    f0: float,
    g0: np.ndarray,
    c1: float = 1e-4,
    c2: float = 0.1,
    max_evals: int = 50,
    init_step: float = 1.0,
) -> LineSearchResult:
    """:func:`_wolfe_steps` with every trial point evaluated by
    ``fg(x) -> (value, gradient)``."""
    steps = _wolfe_steps(x, direction, f0, g0, c1, c2, max_evals, init_step)
    try:
        point = next(steps)
        while True:
            point = steps.send(fg(point))
    except StopIteration as done:
        return done.value


def line_search(
    s: CoupledSample,
    x: np.ndarray,
    direction: np.ndarray,
    h: AcmtfHyperParams,
) -> LineSearchResult:
    """Strong-Wolfe step along ``direction`` for the coupled objective.

    ``x`` is a flat parameter vector as produced by :func:`pack`.  Requires
    a descent direction; callers restart with steepest descent otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    size = sum(_block_sizes(s.dims, h.rank))
    if x.shape != (size,):
        raise ValueError(f"parameter vector has shape {x.shape}, expected ({size},)")
    fg = _one_sample(s, h)
    f0, g0 = fg(x)
    return _wolfe_search(fg, x, direction, f0, g0)


def _initial_point(dims, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    i1, i2, i3, i4 = dims
    blocks = []
    for d in (i1, i2, i3, i4, i3):
        f = rng.standard_normal((d, rank))
        f /= np.linalg.norm(f, axis=0)
        blocks.append(f)
    blocks.append(np.ones(rank))
    blocks.append(np.ones(rank))
    return pack(blocks)


def _cg_steps(x: np.ndarray, h: AcmtfHyperParams):
    """The Hestenes-Stiefel CG loop from ``x``, as a generator.

    Yields each point to evaluate and takes its ``(value, gradient)`` back
    through ``send``, like :func:`_wolfe_steps`; returns
    ``(x, objective history, converged)``.
    """
    f_val, grad = yield x
    if not np.isfinite(f_val):
        raise NumericalError("non-finite objective at initialization", 0)
    history = [f_val]

    delta = -grad  # negated gradient
    direction = delta
    converged = False
    prev_step = None
    prev_dphi = None
    for it in range(h.max_iters):
        if not np.isfinite(f_val) or not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite objective or gradient", it)
        grad_norm = np.linalg.norm(grad)
        if grad_norm == 0.0:
            converged = True
            break
        if float(grad @ direction) >= 0:
            direction = -grad  # restart on a non-descent direction
        # First-order initial step guess: keep the directional decrease of
        # the previous accepted step.
        dphi = float(grad @ direction)
        if prev_step is None:
            init = 1.0 / grad_norm
        else:
            init = prev_step * prev_dphi / dphi if dphi != 0 else 1.0
        ls = yield from _wolfe_steps(x, direction, f_val, grad, init_step=init)
        if ls.value >= f_val and not np.array_equal(direction, -grad):
            # Stagnant CG direction: retry once along steepest descent.
            direction = -grad
            dphi = float(grad @ direction)
            ls = yield from _wolfe_steps(x, direction, f_val, grad)
        if ls.value >= f_val:
            converged = True  # no descent possible within line-search accuracy
            break
        x = x + ls.step * direction
        prev_step, prev_dphi = ls.step, dphi
        f_new, grad_new = ls.value, ls.gradient
        if not np.isfinite(f_new):
            raise NumericalError("non-finite objective after step", it)
        history.append(f_new)
        if abs(f_new - f_val) < h.cg_tol:
            f_val, grad = f_new, grad_new
            converged = True
            break
        delta_new = -grad_new
        y = delta_new - delta
        denom = float(-direction @ y)
        if abs(denom) < HS_DENOM_GUARD:
            direction = delta_new
        else:
            beta_hs = float(delta_new @ y) / denom
            direction = delta_new + beta_hs * direction
        delta = delta_new
        f_val, grad = f_new, grad_new
    return x, history, converged


def acmtf_decompose(
    s: CoupledSample, h: AcmtfHyperParams, seed: int = 0, normalize: bool = True
) -> AcmtfFactors:
    """Joint factorization by Hestenes-Stiefel nonlinear conjugate gradient.

    Starts from seeded Gaussian factors with unit-norm columns and unit
    weights, takes a steepest-descent first step, then HS-CG steps with a
    strong-Wolfe line search.  Stops when the objective change drops below
    ``h.cg_tol`` or after ``h.max_iters`` iterations.  The returned factors
    are column-normalized with norms folded into the component weights.

    With ``normalize`` (the usual practice for coupled factorizations),
    each modality is scaled to unit Frobenius norm before optimization so
    the data-fit, coupling, sparsity, and unit-norm terms are comparable;
    the scales are folded back into the returned weights, so the factors
    describe the original data.  The objective history refers to the
    scaled problem.

    This is :func:`acmtf_decompose_many` on a batch of one.
    """
    return acmtf_decompose_many([s], h, [seed], normalize)[0]


def acmtf_decompose_many(
    samples, h: AcmtfHyperParams, seeds, normalize: bool = True
) -> list[AcmtfFactors]:
    """:func:`acmtf_decompose` of each sample, with the samples in one batch.

    The samples must share dims.  Each sample runs its own CG loop; every
    round, the points all unfinished samples wait on go through one
    evaluator call, and a sample leaves the batch when its loop stops.
    Entry k equals ``acmtf_decompose(samples[k], h, seeds[k], normalize)``
    bit for bit, whatever other samples share the batch.
    """
    samples, seeds = list(samples), list(seeds)
    if len(seeds) != len(samples):
        raise ValueError(f"{len(samples)} samples but {len(seeds)} seeds")
    if not samples:
        return []
    dims = samples[0].dims
    for s in samples:
        if s.dims != dims:
            raise ValueError(f"samples differ in dims: {s.dims} and {dims}")
    scales = [(1.0, 1.0)] * len(samples)
    if normalize:
        scales = [
            tuple(n if n > 0 else 1.0 for n in map(np.linalg.norm, (s.tensor, s.matrix)))
            for s in samples
        ]
    ev = _Evaluator(samples, h, scales)
    runs = [_cg_steps(_initial_point(dims, h.rank, seed), h) for seed in seeds]
    pending = [next(run) for run in runs]
    live = list(range(len(runs)))
    results = [None] * len(runs)
    while live:
        values, grads = ev(np.stack(pending))
        kept, pending = [], []
        for pos, k in enumerate(live):
            try:
                # A copy, not a view: a view would keep the whole (b, n)
                # gradient block alive while the loop holds this gradient.
                pending.append(runs[k].send((float(values[pos]), grads[pos].copy())))
                kept.append(pos)
            except StopIteration as done:
                results[k] = done.value
        if len(kept) < len(live):
            live = [live[pos] for pos in kept]
            ev.keep(kept)
    out = []
    for (x, history, converged), (scale_t, scale_m) in zip(results, scales):
        A, B, C, U, V, zeta, sigma = unpack(x, dims, h.rank)
        u1 = KruskalTensor(zeta * scale_t, (A, B, C)).normalized()
        u2 = KruskalTensor(sigma * scale_m, (U, V)).normalized()
        out.append(AcmtfFactors.from_kruskals(
            u1, u2, objective_history=tuple(history), converged=converged
        ))
    return out
