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
strong-Wolfe line search.  The line search brackets a step by the secant
step on the slope (doubling only where the slope did not rise) and zooms by
quadratic interpolation.  The analytic gradient below is the exact gradient
of Q as written (including the factors of 2 from the squared norms), so it
matches finite differences of :func:`acmtf_objective` coordinate-wise.

The solver evaluates Q and its gradient on flat parameter vectors, for a
batch of same-dims samples per call (see :class:`_Evaluator`), in the
residual-free form of CP-OPT/CMTF-OPT (Acar, Dunlavy & Kolda 2011, "A
scalable optimization approach for fitting canonical tensor
decompositions"; Acar, Kolda & Dunlavy 2011, "All-at-once optimization for
coupled matrix and tensor factorizations"): the data enter only through
MTTKRPs (matricized tensor times Khatri-Rao products), the model through
r x r Grams.  The CG loop (:func:`_conjugate_gradient`) and its line
search (:class:`_LineSearch`) hold a whole batch's state as arrays, one
row or column per sample, so :func:`acmtf_decompose_many` advances every
unfinished sample by one evaluator call and one pass of masked array
operations per round, and reports each sample's iterations, evaluations
and stop reason as :class:`SolveStats`.  :func:`acmtf_decompose` runs
the same code on a batch of one.  Inputs are
validated at the boundary, by :class:`CoupledSample` and the public
functions; the CG loop raises :class:`NumericalError` on a non-finite
starting objective or gradient, and nothing inside it checks further.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import KruskalTensor, SolveStats, _keep_rows

# Guard for the Hestenes-Stiefel denominator; below this the direction
# update is replaced by steepest descent.
HS_DENOM_GUARD = 1e-12


class NumericalError(RuntimeError):
    """Raised on a non-finite objective at ``iteration``, or a non-finite score."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message if iteration is None else f"{message} (iteration {iteration})")
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
    threshold and max_iters the iteration cap of the CG loop.  The weights
    must be finite and >= 0, epsilon and cg_tol finite and > 0, and rank
    and max_iters integers >= 1 (not bool).
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
        for name in ("epsilon", "cg_tol"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("rank", "max_iters"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")


@dataclass(frozen=True, eq=False)
class AcmtfFactors:
    """Joint factorization result: tensor Kruskal, matrix Kruskal, shared factor.

    ``shared`` is derived, not passed: the elementwise average of the
    tensor's third-mode factor and the matrix's second-mode factor.
    ``objective_history`` and ``stats`` are optional solver provenance.
    Factors read from a file carry no ``stats``.
    """

    u1: KruskalTensor
    u2: KruskalTensor
    objective_history: tuple[float, ...] = field(default=(), compare=False)
    stats: SolveStats | None = field(default=None, compare=False)
    shared: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.u1.order != 3:
            raise ValueError("u1 must have three factor matrices")
        if self.u2.order != 2:
            raise ValueError("u2 must have two factor matrices")
        if self.u1.rank != self.u2.rank:
            raise ValueError("u1 and u2 must share the same rank")
        if self.u1.shape[2] != self.u2.shape[1]:
            raise ValueError("coupled-mode dimensions differ between u1 and u2")
        shared = (self.u1.factors[2] + self.u2.factors[1]) / 2
        object.__setattr__(self, "shared", shared)

    @classmethod
    def from_kruskals(cls, u1, u2, objective_history=(), stats=None) -> "AcmtfFactors":
        """The constructor under its former name; the benchmark harness calls it."""
        return cls(u1, u2, objective_history, stats)

    @property
    def converged(self) -> bool:
        """False only where the solver stopped at ``max_iters``."""
        return self.stats is None or self.stats.stop != "max_iters"

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
        return AcmtfFactors(u1, u2, self.objective_history, self.stats)


# ---------------------------------------------------------------------------
# Flat parameter vector <-> factor blocks
# ---------------------------------------------------------------------------

def pack(blocks) -> np.ndarray:
    """Concatenate (A, B, C, U, V, zeta, sigma) into one flat vector."""
    return np.concatenate([np.asarray(b, dtype=np.float64).ravel() for b in blocks])


def unpack(x: np.ndarray, dims: tuple[int, int, int, int], rank: int):
    """Split a flat vector back into (A, B, C, U, V, zeta, sigma)."""
    i1, i2, i3, i4 = dims
    rows = (i1, i2, i3, i4, i3)
    size = rank * (sum(rows) + 2)
    if x.size != size:
        raise ValueError(f"parameter vector has size {x.size}, expected {size}")
    parts = np.split(x, rank * np.cumsum(rows + (1,)))
    return (*(p.reshape(-1, rank) for p in parts[:5]), parts[5], parts[6])


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
        self.x1, self.x2, self.x1_sq = _keep_rows(
            (self.x1, self.x2, self.x1_sq), positions
        )

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


def _evaluate(s: CoupledSample, f: AcmtfFactors, h: AcmtfHyperParams, need_grad: bool):
    """Q, and its gradient if ``need_grad``, of ``f`` on a batch of one."""
    if f.dims != s.dims:
        raise ValueError(f"factor dims {f.dims} do not match sample dims {s.dims}")
    x = pack((*f.u1.factors, *f.u2.factors, f.u1.weights, f.u2.weights))
    q, g = _Evaluator([s], h)(x[None], need_grad)
    return float(q[0]), None if g is None else g[0]


def acmtf_objective(s: CoupledSample, f: AcmtfFactors, h: AcmtfHyperParams) -> float:
    """Value of the unconstrained coupled-factorization objective Q.

    The tensor term is computed without its residual (see
    :class:`_Evaluator`), so the value is accurate to about
    1e-16 ||X1||^2 and can read slightly below zero near an exact fit.
    """
    return _evaluate(s, f, h, need_grad=False)[0]


def acmtf_gradient(s: CoupledSample, f: AcmtfFactors, h: AcmtfHyperParams) -> np.ndarray:
    """Exact gradient of Q, flattened as (A, B, C, U, V, zeta, sigma)."""
    return _evaluate(s, f, h, need_grad=True)[1]


# ---------------------------------------------------------------------------
# Strong-Wolfe line search and the conjugate-gradient loop
# ---------------------------------------------------------------------------

def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two C-contiguous ``(b, n)`` blocks.

    The stacked ``matmul`` of 1 x n by n x 1 blocks takes each row's dot
    product with the BLAS routine that ``a[k] @ b[k]`` uses, so a row's
    value is that of its own 1-D product, whatever else is in the block.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# Phase of one column's line search.
_BRACKET, _ZOOM, _FALLBACK = 0, 1, 2
# Strong-Wolfe constants: sufficient decrease, curvature, and the
# evaluations after which a search falls back to backtracking.
_C1, _C2, _MAX_EVALS = 1e-4, 0.1, 50


class _LineSearch:
    """Strong-Wolfe line searches (bracket + zoom), one per column of a batch.

    Each search runs from its own point along its own direction; its state
    is one column of every array here, so one :meth:`advance` moves all of
    them by one trial point with masked array operations.  A search
    brackets by extrapolating the step: it takes the secant step on the
    slope through the previous bracket point and the trial (More & Thuente
    1994, "Line search algorithms with guaranteed sufficient decrease"),
    clamped to 1.1 to 4 times the trial step, and doubles the step where
    the slope did not rise.  It zooms by quadratic interpolation with a
    bisection safeguard, and after ``_MAX_EVALS`` evaluations, or once the
    bracket is narrower than 1e-16, falls back to backtracking for plain
    decrease.  A trial point whose value or slope is not finite fails
    sufficient decrease, so the search zooms or backs off from it and never
    returns it.
    """

    def __init__(self, b: int):
        self.phase = np.full(b, _BRACKET, dtype=np.int8)
        self.evals = np.zeros(b, dtype=np.int64)
        # (step, value, slope) at the trial step under evaluation and at lo,
        # the bracket end of lower value (while bracketing, the previous
        # step); (step, value) at the other end, hi, whose step is +inf
        # while bracketing, and at the best point: the lowest finite value
        # seen, and the result once done.
        self.trial, self.lo = np.zeros((3, b)), np.zeros((3, b))
        self.hi, self.best = np.zeros((2, b)), np.zeros((2, b))
        # Value and slope at step 0, and the curvature bound -c2 * slope.
        self.origin = np.zeros((3, b))

    def keep(self, rows):
        """Drop every search but those at ``rows``."""
        for name in ("phase", "evals", "trial", "lo", "hi", "best", "origin"):
            setattr(self, name, getattr(self, name)[..., rows])

    def start(self, rows, f0, dphi0, init):
        """Begin searching in ``rows`` from value ``f0`` and slope ``dphi0``.

        The first trial step is ``init``, or 1 where ``init`` is not finite
        and positive.
        """
        self.phase[rows] = _BRACKET
        self.evals[rows] = 0
        self.origin[0, rows] = self.lo[1, rows] = f0
        self.origin[1, rows] = self.lo[2, rows] = dphi0
        self.origin[2, rows] = -_C2 * dphi0
        self.lo[0, rows] = 0.0
        self.hi[0, rows] = self.best[1, rows] = np.inf
        self.trial[0, rows] = np.where(np.isfinite(init) & (init > 0), init, 1.0)

    # While bracketing, hi is at +inf: a zero slope times +inf, and the
    # interpolated steps of searches not taking them, make NaNs and
    # infinities that no result uses.
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def advance(self, q, slope):
        """Take the value ``q`` and slope at every trial step.

        Returns the mask of searches that are done.  A done search's step
        and value are in ``best``, and its step meets the strong Wolfe
        conditions unless its phase is ``_FALLBACK``.  If that value is
        below the starting value, the step is the trial step just
        evaluated: a fallback that starts from an earlier step evaluates it
        again and stops there.  A search that saw no finite trial point
        returns the zero step at its starting value.  Every other search
        has its next trial step in ``trial[0]``.
        """
        t, lo, hi, best, origin = self.trial, self.lo, self.hi, self.best, self.origin
        a, fa, f0 = t[0], t[1], origin[0]
        phase = self.phase
        self.evals += 1
        t[1] = np.where(np.isfinite(q) & np.isfinite(slope), q, np.inf)
        t[2] = slope
        fallback = phase == _FALLBACK
        falling = np.count_nonzero(fallback)
        better = fa < best[1]
        # Sufficient decrease fails, or (past the first bracket step) the
        # value does not improve on lo: the trial step becomes hi.
        high = (fa > f0 + _C1 * a * origin[1]) | ((fa >= lo[1]) & (self.evals > 1))
        if falling:
            high &= ~fallback
            low = ~(high | fallback)
        else:
            low = ~high
        wolfe = low & (np.abs(slope) <= origin[2])
        low ^= wolfe
        # A low step whose slope points back past lo, towards hi (while
        # bracketing, a slope >= 0): lo becomes hi.
        flip = low & ~(slope * (hi[0] - lo[0]) < 0.0)
        # The next bracketing step, from lo before it moves: the root of the
        # secant through (lo step, lo slope) and (a, slope), clamped to
        # [1.1a, 4a], where the slope rose; twice a where it did not.  The
        # searches that go on bracketing are low steps with a negative
        # slope, so their lo slope is finite and below zero too.
        rise = slope - lo[2]
        grow_to = a - lo[0]
        grow_to *= slope
        grow_to /= rise
        np.subtract(a, grow_to, out=grow_to)
        np.maximum(grow_to, 1.1 * a, out=grow_to)
        np.minimum(grow_to, 4.0 * a, out=grow_to)
        np.copyto(grow_to, 2.0 * a, where=rise <= 0)
        np.copyto(hi, lo[:2], where=flip)
        np.copyto(hi, t[:2], where=high)
        np.copyto(lo, t, where=low)
        np.copyto(best, t[:2], where=better | wolfe)
        grow = low & (hi[0] == np.inf)  # bracketing goes on
        zooming = ~(wolfe | grow)
        done = wolfe
        if falling:
            back = fallback & (fa > f0) & (a > 1e-16)  # backtrack further
            settled = fallback ^ back
            done = wolfe | settled
            zooming &= ~fallback
            unfound = settled & (best[1] == np.inf)
            best[0, unfound] = 0.0
            best[1, unfound] = f0[unfound]
            a[back] *= 0.5
        # From here on, a (the trial step row) takes each next step in place.
        np.copyto(a, grow_to, where=grow)
        # Out of evaluations, or a zoom whose bracket has shrunk below
        # 1e-16 (both rare: test for any first).
        width = hi[0] - lo[0]
        span = np.abs(width)
        narrow = span < 1e-16
        if np.count_nonzero(narrow) or self.evals.max() >= _MAX_EVALS:
            to_fallback = (high | low) & (self.evals >= _MAX_EVALS)
            to_fallback |= zooming & (phase == _ZOOM) & narrow
            zooming &= ~to_fallback
            phase[to_fallback] = _FALLBACK
            # Backtrack from the best step seen if it decreased, else from 1.
            np.copyto(a, np.where(best[1] < f0, best[0], 1.0), where=to_fallback)
        if np.count_nonzero(zooming):
            phase[zooming] = _ZOOM
            np.copyto(a, self._zoom_step(width, span), where=zooming)
        return done

    def _zoom_step(self, width, span) -> np.ndarray:
        """Minimizer of the quadratic through lo (value, slope) and hi (value).

        ``width`` is hi's step minus lo's, and ``span`` its absolute value.
        Bisects where the minimizer is undefined or outside the middle 80 %
        of the bracket.
        """
        lo, hi = self.lo, self.hi
        lo_a, hi_a, lo_d = lo[0], hi[0], lo[2]
        denom = hi[1] - lo[1]
        denom -= lo_d * width
        denom *= 2.0
        # Where the denominator is zero the step is not finite, so it fails
        # the test below too.  float_power squares as Python's ** does.
        a = np.float_power(width, 2)
        a *= lo_d
        a /= denom
        a = lo_a - a
        mid = lo_a + hi_a
        mid *= 0.5
        tenth = span * 0.1
        inside = np.minimum(lo_a, hi_a) + tenth <= a
        inside &= a <= np.maximum(lo_a, hi_a) - tenth
        np.copyto(mid, a, where=inside)
        return mid


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


# Why a CG row stopped, by code; 0 while it runs.
_STOPS = ("", "tol", "max_iters", "no_descent", "zero_grad")
_TOL, _MAX_ITERS, _NO_DESCENT, _ZERO_GRAD = 1, 2, 3, 4


def _conjugate_gradient(ev: _Evaluator, x: np.ndarray, h: AcmtfHyperParams):
    """The Hestenes-Stiefel CG loop from every row of ``x``, as one batch.

    Row k runs from ``x[k]`` on sample k of ``ev``.  Its point, direction
    and gradient are rows of ``(b, n)`` arrays and its scalars entries of
    ``(b,)`` arrays; its line search is a column of one :class:`_LineSearch`.
    Each round evaluates every row's trial point, written into one
    preallocated block, in one ``ev`` call and advances every row with
    masked array operations.  A row that stops leaves the batch, and ``ev``
    with it.

    An iteration takes steepest descent on its first step and whenever the
    direction is not a descent direction.  When the line search finds no
    decrease along a CG direction, it is retried once along steepest
    descent.  The next direction is the Hestenes-Stiefel update, or
    steepest descent when its denominator is below ``HS_DENOM_GUARD``.  A
    row stops when the objective changes by less than ``h.cg_tol``, the
    gradient is zero, no descent is found, or after ``h.max_iters``
    iterations.  A row evaluates one point per round while it runs, so its
    evaluation count is one more than the rounds before it stops.

    Returns ``(x, objective history, SolveStats)`` per row.  Raises
    :class:`NumericalError` if a starting objective or gradient is not
    finite; later points are finite, because the line search accepts only
    points of finite value and slope, and a finite slope needs a finite
    gradient.
    """
    b, n = x.shape
    f, G = ev(x)
    bad = ~(np.isfinite(f) & np.isfinite(G).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        if not np.isfinite(f[k]):
            raise NumericalError("non-finite objective at initialization", 0)
        raise NumericalError("non-finite objective or gradient", 0)
    history = np.empty((b, h.max_iters + 1))
    history[:, 0] = f
    results = [None] * b
    ids = np.arange(b)  # each row's position in x
    it = np.zeros(b, dtype=np.int64)  # iteration number = steps taken
    X, D, P = x.copy(), -G, np.empty_like(x)
    stop = np.zeros(b, dtype=np.int8)  # the row's _STOPS code once it stops
    rounds = 0
    ls = _LineSearch(b)

    def begin(rows, g_rows, d_rows, decrease=None):
        # Start iteration it[rows], whose gradients and directions are
        # g_rows and d_rows: zero-gradient stop, descent check, and the
        # initial step guess.  That is 1/||g|| on the first iteration and
        # later keeps the directional decrease step * dphi of the previous
        # accepted step (dphi < 0 here).
        grad_norm = np.sqrt(_row_dot(g_rows, g_rows))
        dphi = _row_dot(g_rows, d_rows)
        if np.count_nonzero(grad_norm) < rows.size:
            zero = grad_norm == 0.0
            stop[rows[zero]] = _ZERO_GRAD
            on = ~zero
            rows, grad_norm, dphi = rows[on], grad_norm[on], dphi[on]
            decrease = None if decrease is None else decrease[on]
        reset = dphi >= 0
        if np.count_nonzero(reset):  # restart on a non-descent direction
            r = rows[reset]
            D[r] = -G[r]
            dphi[reset] = _row_dot(G[r], D[r])
        init = 1.0 / grad_norm if decrease is None else decrease / dphi
        ls.start(rows, f[rows], dphi, init)

    begin(ids, G, D)
    while True:
        if np.count_nonzero(stop):
            for k in stop.nonzero()[0]:
                results[ids[k]] = (
                    X[k].copy(), tuple(history[ids[k], : it[k] + 1].tolist()),
                    SolveStats(int(it[k]), rounds + 1, _STOPS[stop[k]]),
                )
            rows = (stop == 0).nonzero()[0]
            if not rows.size:
                return results
            X, D, G, f, it, ids, stop = (
                v[rows] for v in (X, D, G, f, it, ids, stop)
            )
            P = np.empty_like(X)
            ls.keep(rows)
            ev.keep(rows)

        np.multiply(D, ls.trial[0][:, None], out=P)  # x + a d, a the trial step
        P += X
        q, g = ev(P)
        rounds += 1
        done = ls.advance(q, _row_dot(g, D))
        rows = done.nonzero()[0]
        if not rows.size:
            continue
        step, value, f_old = ls.best[0, rows], ls.best[1, rows], f[rows]
        move = value < f_old
        if not move.all():
            fail = rows[~move]
            steepest = (D[fail] == -G[fail]).all(axis=1)
            stop[fail[steepest]] = _NO_DESCENT
            fail = fail[~steepest]
            if fail.size:  # stagnant CG direction: retry along steepest descent
                D[fail] = -G[fail]
                ls.start(fail, f[fail], _row_dot(G[fail], D[fail]), 1.0)
            rows, step, value, f_old = rows[move], step[move], value[move], f_old[move]
            if not rows.size:
                continue

        # The rows that move, gathered.  A step that decreases the objective
        # is the trial step just evaluated, so P and g hold the new x and
        # gradient.
        X[rows] = P[rows]
        g_new, d_new = g[rows], D[rows]
        it_new = it[rows] + 1
        it[rows] = it_new
        history[ids[rows], it_new] = value
        tol = np.abs(value - f_old) < h.cg_tol
        # Hestenes-Stiefel: with y = g_new - g, beta = g_new.y / d.y and
        # d_new = beta d - g_new, or steepest descent at a small d.y.
        y = g_new - G[rows]
        denom = _row_dot(d_new, y)
        guard = np.abs(denom) < HS_DENOM_GUARD
        beta = np.divide(_row_dot(g_new, y), denom, out=np.zeros_like(denom),
                         where=~guard)
        d_new *= beta[:, None]
        d_new -= g_new
        if np.count_nonzero(guard):
            d_new[guard] = -g_new[guard]
        D[rows], G[rows], f[rows] = d_new, g_new, value
        decrease = step * ls.origin[1, rows]
        ended = tol | (it_new == h.max_iters)
        if np.count_nonzero(ended):
            stop[rows[ended]] = np.where(tol[ended], _TOL, _MAX_ITERS)
            on = ~ended
            rows, g_new, d_new, decrease = rows[on], g_new[on], d_new[on], decrease[on]
        begin(rows, g_new, d_new, decrease)


def acmtf_decompose(s: CoupledSample, h: AcmtfHyperParams, seed: int = 0) -> AcmtfFactors:
    """Joint factorization by Hestenes-Stiefel nonlinear conjugate gradient.

    Starts from seeded Gaussian factors with unit-norm columns and unit
    weights, takes a steepest-descent first step, then HS-CG steps with a
    strong-Wolfe line search.  Stops when the objective change drops below
    ``h.cg_tol`` or after ``h.max_iters`` iterations.  The returned factors
    are column-normalized with norms folded into the component weights.

    As is usual for coupled factorizations, each modality is scaled to unit
    Frobenius norm before optimization so the data-fit, coupling, sparsity,
    and unit-norm terms are comparable; the scales are folded back into the
    returned weights, so the factors describe the original data.  The
    objective history refers to the scaled problem.

    This is :func:`acmtf_decompose_many` on a batch of one.
    """
    return acmtf_decompose_many([s], h, [seed])[0]


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of ``a``, also where the sum of squares overflows.

    ``inf`` only if the norm itself is beyond the float64 range.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
        if np.isinf(norm):
            peak = np.abs(a).max()
            norm = peak * np.linalg.norm(a / peak)
    return float(norm)


def acmtf_decompose_many(samples, h: AcmtfHyperParams, seeds) -> list[AcmtfFactors]:
    """:func:`acmtf_decompose` of each sample, with the samples in one batch.

    The samples must share dims.  One :func:`_conjugate_gradient` run holds
    every sample's CG and line-search state as rows of arrays: each round,
    the trial points of all unfinished samples go through one evaluator
    call, and a sample leaves the batch when its loop stops.  Entry k
    equals ``acmtf_decompose(samples[k], h, seeds[k])`` bit for bit,
    whatever other samples share the batch.

    A sample whose tensor or matrix has a Frobenius norm beyond the float64
    range raises :class:`NumericalError` before any iteration.

    Degenerate samples do not raise; each gets finite factors and a
    ``stats.stop`` (tested at rank 3 and at rank 7, above every mode size):

    - a zero tensor or zero matrix keeps scale 1, its weights are driven
      below 1e-3 and the other modality is fit;
    - an all-zero sample ends with every weight below 1e-3;
    - constant data are fit to within 1 % of their Frobenius norm;
    - a rank above a mode size gives finite factors.

    Which stop they reach depends on the data and the seed: a zero-matrix
    sample stopped on ``"tol"`` in one draw and ran to ``"max_iters"`` in
    another; the all-zero and constant samples stopped on ``"tol"``.
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
    scales = []
    for k, s in enumerate(samples):
        norms = (_frobenius(s.tensor), _frobenius(s.matrix))
        if np.isinf(norms).any():
            raise NumericalError(f"sample {k}: Frobenius norm exceeds the float64 range", 0)
        scales.append(tuple(n if n > 0 else 1.0 for n in norms))
    ev = _Evaluator(samples, h, scales)
    x = np.stack([_initial_point(dims, h.rank, seed) for seed in seeds])
    out = []
    for (x, history, stats), (scale_t, scale_m) in zip(
        _conjugate_gradient(ev, x, h), scales
    ):
        A, B, C, U, V, zeta, sigma = unpack(x, dims, h.rank)
        u1 = KruskalTensor(zeta * scale_t, (A, B, C)).normalized()
        u2 = KruskalTensor(sigma * scale_m, (U, V)).normalized()
        out.append(AcmtfFactors(u1, u2, history, stats))
    return out
