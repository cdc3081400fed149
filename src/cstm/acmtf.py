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
r x r Grams.  A flat vector holds the factors component-major (see
:func:`pack`), so in the evaluator the rank is the middle axis of every
stacked array and the mode dims run along the last.  The CG loop
(:func:`_conjugate_gradient`) holds a whole batch's points, gradients and
directions as rows of arrays, and one :class:`_LineSearch` of Python
floats per sample, so :func:`acmtf_decompose_many` advances every
unfinished sample by one evaluator call and a few array operations per
round, and reports each sample's iterations, evaluations and stop reason
as :class:`SolveStats`.  :func:`acmtf_decompose` runs the same code on a
batch of one.  Inputs are
validated at the boundary, by :class:`CoupledSample` and the public
functions; the CG loop raises :class:`NumericalError` on a non-finite
starting objective or gradient, and nothing inside it checks further.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate

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

    @functools.cached_property
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
    """Flatten (A, B, C, U, V, zeta, sigma) into one vector.

    The factor part comes first and is component-major: for k = 0..r-1,
    column k of A, B, C, U and V in turn.  The weights zeta and sigma follow.
    """
    *factors, zeta, sigma = (np.asarray(b, dtype=np.float64) for b in blocks)
    return np.concatenate((np.concatenate(factors).T.ravel(), zeta.ravel(), sigma.ravel()))


def unpack(x: np.ndarray, dims: tuple[int, int, int, int], rank: int):
    """Split a flat vector back into (A, B, C, U, V, zeta, sigma), as views."""
    i1, i2, i3, i4 = dims
    rows = (i1, i2, i3, i4, i3)
    nf = rank * sum(rows)
    if x.size != nf + 2 * rank:
        raise ValueError(f"parameter vector has size {x.size}, expected {nf + 2 * rank}")
    parts = np.split(x[:nf].reshape(rank, -1), np.cumsum(rows[:-1]), axis=1)
    return (*(p.T for p in parts), x[nf:nf + rank], x[nf + rank:])


@functools.lru_cache(maxsize=8)
def _row_layout(dims):
    """The factor slices of a row of F, and the row's 0/1 block indicator.

    ``expand[j, l]`` is 1 where entry l of a row of F belongs to factor j.
    A product by ``expand^T`` sums each factor column's entries; one by
    ``expand`` spreads a value per factor column over its entries, exactly,
    as every other term is a zero.  Cached per dims: building it is a few
    microseconds of a batch-of-one call.
    """
    i1, i2, i3, i4 = dims
    bounds = list(accumulate((i1, i2, i3, i4, i3), initial=0))
    blocks = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
    expand = np.zeros((len(blocks), bounds[-1]))
    for j, s in enumerate(blocks):
        expand[j, s] = 1.0
    expand.flags.writeable = False
    return blocks, expand


class _Evaluator:
    """Objective and gradient of Q for a batch of samples of equal dims.

    A call maps a ``(b, n)`` block of flat parameter vectors, row k for
    sample k, to ``(b,)`` objectives and ``(b, n)`` gradients.  The
    gradients are a block the evaluator owns and rewrites on its next
    call.  Every product is a stacked ``matmul`` or ``einsum``, or an
    elementwise operation along the sample axis, so row k's arithmetic is
    the same whatever else is in the batch: a sample's values do not
    depend on its batch.

    The factor part of a row is component-major (see :func:`pack`), so
    ``F = x[:, :nf].reshape(b, r, L)``, with L = I1 + I2 + I3 + I4 + I3,
    holds component k of all five factors in ``F[:, k]``, and each factor
    is a slice of the last axis: A^T = ``F[..., :I1]`` and so on.  The rank
    is the middle axis of every stacked array here, and the data and mode
    dims run along the last, so the Khatri-Rao product, the weight
    scalings and the row sums stream along rows of 10 to 50 entries rather
    than along an axis of r.  The squared column norms of all five factors
    are one product of F*F by a 0/1 block indicator, and the five unit-norm
    penalty gradients one product of F by the coefficients that the same
    indicator spreads over the blocks, written straight into the gradient
    block.

    The tensor term takes the residual-free CP-OPT form (Acar, Dunlavy &
    Kolda 2011): with W = A diag(zeta) and H = B^T B * C^T C,

        ||X1 - [[zeta; A, B, C]]||^2 = ||X1||^2 - 2 <W, M1> + sum(W^T W * H)

    where M1 = X1_(1) (C kr B) is the mode-1 MTTKRP.  ||X1||^2 is computed
    once per sample; the data enter a call only through M1 and through
    T = W^T X1_(1), whose small contractions with C and with B are the
    mode-2 and mode-3 MTTKRPs.  The model part of every gradient comes from
    r x r Grams, so the tensor residual is never formed.  The mode-1
    unfolding is stored once per sample with mode 2 fastest, so the
    Khatri-Rao product is C kr B and its broadcast runs along rows of I2.
    The matrix residual is only (I4, I3) and is formed directly.  Near an
    exact fit the three tensor terms cancel, so the tensor term carries
    rounding of order 1e-16 ||X1||^2 and may read a few ulps below zero.

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
        self.blocks, self.expand = _row_layout(self.dims)
        self.nf = self.expand.shape[1] * r
        n = len(samples)
        # Buffers for the Khatri-Rao product C kr B, then for T, and the
        # gradients: allocated once, not once per call, as are the data.
        # Fresh arrays of this size cost a page fault per 4 KiB each call.
        self.work = np.empty((n, r, i3 * i2))
        self.grad = np.empty((n, self.nf + 2 * r))
        self.x1 = np.empty((n, i1, i3 * i2))
        self.x2 = np.empty((n, i4, i3))
        for k, (s, (st, sm)) in enumerate(zip(samples, scales or [(1.0, 1.0)] * n)):
            np.divide(s.tensor.transpose(0, 2, 1), st, out=self.x1[k].reshape(i1, i3, i2))
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
        F = x[:, :nf].reshape(b, r, -1)
        A, B, C, U, V = (F[..., s] for s in self.blocks)  # (b, r, rows) each
        w = x[:, nf:]  # (zeta, sigma) per row
        zeta, sigma = w[:, :r, None], w[:, r:, None]
        W = A * zeta
        kr_cb = self.work[:b]
        np.einsum("bkl,bkj->bklj", C, B, out=kr_cb.reshape(b, r, i3, i2))
        m1 = kr_cb @ self.x1.transpose(0, 2, 1)  # (b, r, I1)
        grams = [_gram(M) for M in (A, B, C)]
        wtw = grams[0] * (zeta * zeta.transpose(0, 2, 1))
        hbc = grams[1] * grams[2]
        us = U * sigma
        f2 = us.transpose(0, 2, 1) @ V  # (b, I4, I3)
        f2 -= self.x2
        cv = C - V
        g = self.grad[:b]
        # F * F, then the factor gradient, in the factor part of g.  Both
        # products run over whole rows, one contiguous block, where the
        # factor part alone is a strided block that numpy takes several
        # times longer over; the weight part of g is rewritten below.
        np.multiply(x, x, out=g)
        gF = g[:, :nf].reshape(b, r, -1)
        norms = np.sqrt(gF @ self.expand.T)  # (b, r, 5)
        dn = norms - 1.0
        root_w = np.sqrt(w * w + h.epsilon)
        wm, wh, ff, cc, dd = (
            np.matmul(u.reshape(b, 1, -1), v.reshape(b, -1, 1))[:, 0, 0]  # row dots
            for u, v in ((W, m1), (wtw, hbc), (f2, f2), (cv, cv), (dn, dn)))
        q = h.gamma * (self.x1_sq - 2.0 * wm + wh + ff)
        q += h.xi * cc
        q += h.beta * root_w.sum(axis=1)
        q += h.theta * dd
        if not need_grad:
            return q, None

        gA, gB, gC, gU, gV = (gF[..., s] for s in self.blocks)
        # d/df theta (||f|| - 1)^2 = 2 theta (1 - 1/||f||) f for each factor
        # column f.  Zero columns sit at a non-differentiable point and take
        # the 0 subgradient: dividing by 1 there makes the coefficient 0.
        two_theta = 2.0 * h.theta
        coef = np.divide(two_theta, np.where(norms > 0, norms, 1.0))
        np.subtract(two_theta, coef, out=coef)
        np.matmul(coef, self.expand, out=gF)
        g *= x
        g2 = 2.0 * h.gamma
        g2w = g2 * w[..., None]  # 2 gamma (zeta, sigma)
        # E1 (C kr B) without E1: shared by the A-block and zeta gradients.
        # The Grams are symmetric, so a product by one on either side is
        # the other's transpose.
        core1 = hbc @ W
        core1 -= m1
        gw = g[:, nf:]
        gw[:, :r] = _pair_dots(A, core1)
        core1 *= g2w[:, :r]
        gA += core1
        # T = W^T X1_(1) in the rows of kr_cb, which m1 no longer needs.  Its
        # contractions with C and B are the mode-2 and mode-3 MTTKRPs, which
        # the factor 2 gamma scales with it.
        t = np.matmul(W * g2, self.x1, out=kr_cb).reshape(b, r, i3, i2)
        g2wtw = g2 * wtw
        model = (g2wtw * grams[2]) @ B
        model -= (C[:, :, None, :] @ t)[:, :, 0]  # (b, r, I2)
        gB += model
        model = (g2wtw * grams[1]) @ C
        model -= (t @ B[..., None])[..., 0]  # (b, r, I3)
        gC += model
        cv *= 2.0 * h.xi
        gC += cv
        core2 = V @ f2.transpose(0, 2, 1)  # (b, r, I4): shared by U and sigma
        gw[:, r:] = _pair_dots(U, core2)
        core2 *= g2w[:, r:]
        gU += core2
        model = us @ f2  # (b, r, I3)
        model *= g2
        gV += model
        gV -= cv
        gw *= g2
        gw += h.beta * w / root_w
        return q, g


def _gram(m: np.ndarray) -> np.ndarray:
    return m @ m.transpose(0, 2, 1)


def _pair_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(b, r)`` dot products of the rows of two ``(b, r, n)`` stacks."""
    return (a[:, :, None, :] @ b[..., None])[:, :, 0, 0]


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
    """Exact gradient of Q, laid out as :func:`pack` lays out the factors."""
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


# Phase of a line search.
_BRACKET, _ZOOM, _FALLBACK = 0, 1, 2
# Strong-Wolfe constants: sufficient decrease, curvature, and the
# evaluations after which a search falls back to backtracking.
_C1, _C2, _MAX_EVALS = 1e-4, 0.1, 50


class _LineSearch:
    """One strong-Wolfe line search (bracket + zoom), one trial step at a time.

    The search runs from step 0, of value ``f0`` and slope ``dphi0``, and
    takes ``init`` as its first trial step, or 1 where ``init`` is not
    finite and positive.  :meth:`advance` takes the value and slope at the
    trial step ``step`` and sets the next one.  The search brackets by
    extrapolating the step: it takes the secant step on the slope through
    the previous bracket point and the trial (More & Thuente 1994, "Line
    search algorithms with guaranteed sufficient decrease"), clamped to
    1.1 to 4 times the trial step, and doubles the step where the slope did
    not rise.  It zooms by quadratic interpolation with a bisection
    safeguard, and after ``_MAX_EVALS`` evaluations, or once the bracket is
    narrower than 1e-16, falls back to backtracking for plain decrease.  A
    trial point whose value or slope is not finite fails sufficient
    decrease, so the search zooms or backs off from it and never returns it.

    Its state is Python floats: (step, value, slope) at lo, the bracket end
    of lower value (while bracketing, the previous step); (step, value) at
    the other end, hi, whose step is +inf while bracketing, and at
    ``best``, the lowest finite value seen and the result once done.  The
    CG loop runs one search per row of its batch.  A search's update is
    about a microsecond of scalar arithmetic, where the same decisions as
    masked operations on ``(b,)`` arrays take some seventy numpy calls per
    round whatever the batch size.  Python floats are IEEE doubles, so the
    steps are those of the same formulas on float64 arrays, bit for bit.
    """

    __slots__ = ("step", "lo", "hi", "best", "f0", "d0", "curv", "phase", "evals")

    def __init__(self, f0: float, dphi0: float, init: float):
        self.step = init if math.isfinite(init) and init > 0 else 1.0
        self.lo = (0.0, f0, dphi0)
        self.hi = (math.inf, math.inf)
        self.best = (0.0, math.inf)
        self.f0, self.d0, self.curv = f0, dphi0, -_C2 * dphi0
        self.phase = _BRACKET
        self.evals = 0

    def advance(self, value: float, slope: float) -> bool:
        """Take the value and slope at ``step``; True once the search is done.

        A done search's step and value are in ``best``, and its step meets
        the strong Wolfe conditions unless its phase is ``_FALLBACK``.  If
        that value is below ``f0``, the step is the trial step just
        evaluated: a fallback that starts from an earlier step evaluates it
        again and stops there.  A search that saw no finite trial point
        returns the zero step at ``f0``.  Until it is done, the next trial
        step is in ``step``.
        """
        a, f0 = self.step, self.f0
        self.evals += 1
        if not (math.isfinite(value) and math.isfinite(slope)):
            value = math.inf
        if value < self.best[1]:
            self.best = (a, value)
        if self.phase == _FALLBACK:
            if value > f0 and a > 1e-16:  # backtrack further
                self.step = a * 0.5
                return False
            if self.best[1] == math.inf:
                self.best = (0.0, f0)
            return True
        lo_a, lo_f, lo_d = self.lo
        grow = False
        # Sufficient decrease fails, or (past the first bracket step) the
        # value does not improve on lo: the trial step becomes hi.
        if value > f0 + _C1 * a * self.d0 or (value >= lo_f and self.evals > 1):
            self.hi = (a, value)
        elif abs(slope) <= self.curv:
            self.best = (a, value)
            return True
        else:
            # A slope that points back past lo, towards hi (while
            # bracketing, a slope >= 0): lo becomes hi.
            if not slope * (self.hi[0] - lo_a) < 0.0:
                self.hi = (lo_a, lo_f)
            self.lo = (a, value, slope)
            grow = self.hi[0] == math.inf  # bracketing goes on
        # Out of evaluations, or a zoom whose bracket has shrunk below 1e-16.
        if self.evals >= _MAX_EVALS or (
                not grow and self.phase == _ZOOM
                and abs(self.hi[0] - self.lo[0]) < 1e-16):
            self.phase = _FALLBACK
            # Backtrack from the best step seen if it decreased, else from 1.
            best_a, best_f = self.best
            self.step = best_a if best_f < f0 else 1.0
        elif grow:
            # The root of the secant through (lo step, lo slope) and (a,
            # slope), clamped to [1.1a, 4a], where the slope rose; twice a
            # where it did not.
            rise = slope - lo_d
            if rise > 0:
                self.step = min(max(a - (a - lo_a) * slope / rise, 1.1 * a), 4.0 * a)
            else:
                self.step = 2.0 * a
        else:
            self.phase = _ZOOM
            self.step = self._zoom_step()
        return False

    def _zoom_step(self) -> float:
        """Minimizer of the quadratic through lo (value, slope) and hi (value).

        Bisects where the minimizer is undefined or outside the middle 80 %
        of the bracket.
        """
        lo_a, lo_f, lo_d = self.lo
        hi_a, hi_f = self.hi
        width = hi_a - lo_a
        mid = (lo_a + hi_a) * 0.5
        denom = (hi_f - lo_f - lo_d * width) * 2.0
        if denom == 0:
            return mid
        try:
            a = lo_a - width ** 2 * lo_d / denom
        except OverflowError:  # width ** 2 beyond the float64 range
            return mid
        tenth = abs(width) * 0.1
        if min(lo_a, hi_a) + tenth <= a <= max(lo_a, hi_a) - tenth:
            return a
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


def _conjugate_gradient(ev: _Evaluator, x: np.ndarray, h: AcmtfHyperParams):
    """The Hestenes-Stiefel CG loop from every row of ``x``, as one batch.

    Row k runs from ``x[k]`` on sample k of ``ev``.  Its point, direction
    and gradient are rows of ``(b, n)`` arrays; its objective history, a
    Python list, grows with the iterations it takes; its line search is one
    :class:`_LineSearch`.  Each round evaluates every row's trial point,
    written into one preallocated block, in one ``ev`` call; the line
    searches take the values and slopes, and the rows whose searches
    accepted a step update their point, gradient and direction in one
    gathered block.  A row that stops leaves the batch, and ``ev`` with it.

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
    gradient.  Trial points may overflow, and the Hestenes-Stiefel ratio
    divides by the denominator that the guard then replaces, so the run
    ignores floating-point warnings, under one ``np.errstate``.
    """
    b = x.shape[0]
    f, G = ev(x)
    bad = ~(np.isfinite(f) & np.isfinite(G).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        if not np.isfinite(f[k]):
            raise NumericalError("non-finite objective at initialization", 0)
        raise NumericalError("non-finite objective or gradient", 0)
    G = G.copy()  # ev rewrites its gradient block on the next call
    X, D, P = x.copy(), -G, np.empty_like(x)
    histories = [[v] for v in f.tolist()]
    searches = [None] * b
    ids = list(range(b))  # each row's position in x
    results = [None] * b
    stopped = {}  # row -> stop reason, for the rows that stopped this round
    rounds = 0

    def steepest(k):
        # Row k's direction becomes steepest descent; returns its slope.
        D[k] = -G[k]
        return _row_dot(G[k:k + 1], D[k:k + 1]).item()

    def begin(k, norm, dphi, decrease):
        # Start row k's next iteration, from the norm of its gradient and
        # the slope dphi along its direction: zero-gradient stop, descent
        # check, and the initial step guess.  That is 1/||g|| on the first
        # iteration (decrease None) and later keeps the directional
        # decrease step * dphi of the previous accepted step (dphi < 0 here).
        if norm == 0.0:
            stopped[k] = "zero_grad"
            return
        if dphi >= 0:  # restart on a non-descent direction
            dphi = steepest(k)
        init = 1.0 / norm if decrease is None else decrease / dphi
        searches[k] = _LineSearch(histories[k][-1], dphi, init)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norms = np.sqrt(_row_dot(G, G)).tolist()
        for k, (norm, dphi) in enumerate(zip(norms, _row_dot(G, D).tolist())):
            begin(k, norm, dphi, None)
        while True:
            if stopped:
                for k, stop in stopped.items():
                    history = histories[k]
                    results[ids[k]] = (X[k].copy(), tuple(history),
                                       SolveStats(len(history) - 1, rounds + 1, stop))
                rows = [k for k in range(len(ids)) if k not in stopped]
                stopped.clear()
                if not rows:
                    return results
                X, D, G = X[rows], D[rows], G[rows]
                P = np.empty_like(X)
                ids, histories, searches = (
                    [v[k] for k in rows] for v in (ids, histories, searches))
                ev.keep(rows)

            steps = np.array([ls.step for ls in searches])
            np.einsum("ij,i->ij", D, steps, out=P)  # x + a d, a the trial step
            P += X
            q, g = ev(P)
            rounds += 1
            move = []
            for k, (ls, value, slope) in enumerate(
                    zip(searches, q.tolist(), _row_dot(g, D).tolist())):
                if not ls.advance(value, slope):
                    continue
                if ls.best[1] < ls.f0:
                    move.append(k)
                elif (D[k] == -G[k]).all():
                    stopped[k] = "no_descent"
                else:  # stagnant CG direction: retry along steepest descent
                    searches[k] = _LineSearch(ls.f0, steepest(k), 1.0)
            if not move:
                continue

            # The rows that move, gathered.  A step that decreases the
            # objective is the trial step just evaluated, so P and g hold
            # the new x and gradient.
            rows = np.array(move)
            X[rows] = P[rows]
            g_new, d_new = g[rows], D[rows]
            # Hestenes-Stiefel: with y = g_new - g, beta = g_new.y / d.y and
            # d_new = beta d - g_new, or steepest descent at a small d.y.
            y = g_new - G[rows]
            denom = _row_dot(d_new, y)
            d_new *= (_row_dot(g_new, y) / denom)[:, None]
            d_new -= g_new
            guard = np.abs(denom) < HS_DENOM_GUARD
            if guard.any():
                d_new[guard] = -g_new[guard]
            D[rows], G[rows] = d_new, g_new
            norms = np.sqrt(_row_dot(g_new, g_new)).tolist()
            for k, norm, dphi in zip(move, norms, _row_dot(g_new, d_new).tolist()):
                ls = searches[k]
                step, value = ls.best
                history = histories[k]
                history.append(value)
                if abs(value - ls.f0) < h.cg_tol:
                    stopped[k] = "tol"
                elif len(history) > h.max_iters:
                    stopped[k] = "max_iters"
                else:
                    begin(k, norm, dphi, step * ls.d0)


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
        *factors, zeta, sigma = unpack(x, dims, h.rank)
        A, B, C, U, V = map(np.ascontiguousarray, factors)
        u1 = KruskalTensor(zeta * scale_t, (A, B, C)).normalized()
        u2 = KruskalTensor(sigma * scale_m, (U, V)).normalized()
        out.append(AcmtfFactors(u1, u2, history, stats))
    return out
