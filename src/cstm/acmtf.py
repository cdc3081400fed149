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

The solver evaluates Q and its gradient on the flat parameter vector
directly (see :class:`_Evaluator`), sharing intermediates the way CMTF-OPT
does (Acar, Kolda & Dunlavy 2011, "All-at-once optimization for coupled
matrix and tensor factorizations"): the tensor residual is formed once, in
mode-1 unfolded form, and one GEMM of it with ``A diag(zeta)`` serves the
mode-2 and mode-3 MTTKRPs (matricized tensor times Khatri-Rao products).
Inputs are validated at the boundary, by :class:`CoupledSample` and the
public functions; the CG loop raises :class:`NumericalError` on a
non-finite objective or gradient, and nothing inside it checks further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor_core import KruskalTensor, _khatri_rao

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
        one component is always kept.
        """
        if rel_tol <= 0:
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
    """Objective and gradient of Q at a flat parameter vector, for one sample.

    The five factor blocks are consecutive C-ordered ``(rows, r)`` slices of
    ``x``, so ``x[:nf].reshape(-1, r)`` is the stacked factor matrix F.  All
    ten column norms come from one ``np.add.reduceat`` of F*F over the block
    offsets, and the five unit-norm penalty gradients from one expression
    written straight into the gradient vector; the two weight vectors share
    one smoothed-l1 expression the same way.

    The tensor residual exists only in mode-1 unfolded form,
    ``E1 = (A zeta) (C kr B)^T - X1_(1)``.  ``E1 (C kr B)`` gives the A-block
    and zeta gradients.  One more GEMM, ``T = (A zeta)^T E1`` reshaped to
    (r, I2, I3), is shared by the other two tensor modes: the mode-2 and
    mode-3 MTTKRPs are its small contractions with C and with B.  No fold,
    no further unfolding and no other Khatri-Rao product is formed.

    The sample is validated once, by :class:`CoupledSample`; a call checks
    nothing, so the caller tests the result for finiteness.
    """

    def __init__(self, sample: CoupledSample, h: AcmtfHyperParams):
        i1, i2, i3, i4 = sample.dims
        r = h.rank
        self.h = h
        self.dims = sample.dims
        self.rank = r
        rows = (i1, i2, i3, i4, i3)
        bounds = np.cumsum((0,) + rows)
        self.blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.rows = rows
        self.offsets = bounds[:-1]
        self.nf = int(bounds[-1]) * r
        self.size = self.nf + 2 * r
        self.x1_unf = sample.tensor.reshape(i1, -1, order="F")  # mode-1 unfolding
        self.x2 = sample.matrix

    def __call__(self, x: np.ndarray, need_grad: bool = True):
        h, r, nf = self.h, self.rank, self.nf
        _, i2, i3, _ = self.dims
        F = x[:nf].reshape(-1, r)
        A, B, C, U, V = (F[b] for b in self.blocks)
        w = x[nf:]  # (zeta, sigma)
        zeta, sigma = w[:r], w[r:]
        kr_cb = _khatri_rao(C, B)
        az = A * zeta
        e1 = az @ kr_cb.T
        e1 -= self.x1_unf
        us = U * sigma
        f2 = us @ V.T
        f2 -= self.x2
        cv = C - V
        norms = np.sqrt(np.add.reduceat(F * F, self.offsets, axis=0))
        dn = norms - 1.0
        root_w = np.sqrt(w * w + h.epsilon)
        q = h.gamma * (np.vdot(e1, e1) + np.vdot(f2, f2))
        q += h.xi * np.vdot(cv, cv)
        q += h.beta * root_w.sum()
        q += h.theta * np.vdot(dn, dn)
        if not need_grad:
            return float(q), None

        g = np.empty(x.size)
        gF = g[:nf].reshape(-1, r)
        gA, gB, gC, gU, gV = (gF[b] for b in self.blocks)
        # d/dF theta (||f_k|| - 1)^2 = 2 theta (F - Fbar), Fbar column-
        # normalized.  Zero columns sit at a non-differentiable point and
        # take the 0 subgradient: dividing them by 1 keeps Fbar = F = 0.
        safe = np.where(norms > 0, norms, 1.0)
        np.subtract(F, F / np.repeat(safe, self.rows, axis=0), out=gF)
        gF *= 2.0 * h.theta
        g2 = 2.0 * h.gamma
        core1 = e1 @ kr_cb  # shared by the A-block and zeta gradients
        gA += g2 * core1 * zeta
        T = (az.T @ e1).reshape(r, i2, i3, order="F")
        gB += g2 * np.einsum("rjk,kr->jr", T, C)
        gC += g2 * np.einsum("rjk,jr->kr", T, B)
        gC += (2.0 * h.xi) * cv
        core2 = f2 @ V  # shared by the U-block and sigma gradients
        gU += g2 * core2 * sigma
        gV += g2 * (f2.T @ us)
        gV -= (2.0 * h.xi) * cv
        gw = g[nf:]
        gw[:r] = (A * core1).sum(axis=0)
        gw[r:] = (U * core2).sum(axis=0)
        gw *= g2
        gw += h.beta * w / root_w
        return float(q), g


def _factors_to_vector(f: AcmtfFactors) -> np.ndarray:
    return pack((*f.u1.factors, *f.u2.factors, f.u1.weights, f.u2.weights))


def _check_compat(s: CoupledSample, f: AcmtfFactors):
    if f.dims != s.dims:
        raise ValueError(f"factor dims {f.dims} do not match sample dims {s.dims}")


def acmtf_objective(s: CoupledSample, f: AcmtfFactors, h: AcmtfHyperParams) -> float:
    """Value of the unconstrained coupled-factorization objective Q."""
    _check_compat(s, f)
    return _Evaluator(s, h)(_factors_to_vector(f), need_grad=False)[0]


def acmtf_gradient(s: CoupledSample, f: AcmtfFactors, h: AcmtfHyperParams) -> np.ndarray:
    """Exact gradient of Q, flattened as (A, B, C, U, V, zeta, sigma)."""
    _check_compat(s, f)
    return _Evaluator(s, h)(_factors_to_vector(f))[1]


# ---------------------------------------------------------------------------
# Strong-Wolfe line search and the conjugate-gradient loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LineSearchResult:
    step: float
    value: float
    gradient: np.ndarray
    wolfe_satisfied: bool


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
    """Strong-Wolfe line search (bracket + zoom).

    ``fg(x)`` returns (value, gradient).  A trial point whose value or
    slope is not finite fails the sufficient-decrease test, so the search
    zooms or backs off from it, and it is never returned.  If no Wolfe point
    is found within ``max_evals`` evaluations, the best simple-decrease step
    seen is returned with ``wolfe_satisfied=False``; if no finite trial
    point was seen at all, the zero step at ``(f0, g0)``.
    """
    dphi0 = float(g0 @ direction)
    if dphi0 >= 0:
        raise ValueError("direction is not a descent direction")

    evals = 0
    best = None  # (step, value, gradient) with the lowest value seen

    def phi(a: float):
        nonlocal evals, best
        evals += 1
        val, grad = fg(x + a * direction)
        slope = float(grad @ direction)
        if not (np.isfinite(val) and np.isfinite(slope)):
            return np.inf, slope, grad
        if best is None or val < best[1]:
            best = (a, val, grad)
        return val, slope, grad

    def fallback() -> LineSearchResult:
        # Backtrack from the smallest bracketing point for plain decrease.
        a = best[0] if best is not None and best[1] < f0 else 1.0
        val, _, grad = phi(a)
        while val > f0 and a > 1e-16:
            a *= 0.5
            val, _, grad = phi(a)
        if best is None:
            return LineSearchResult(0.0, f0, g0, False)
        step, value, gradient = best
        return LineSearchResult(step, value, gradient, False)

    def zoom(a_lo, f_lo, d_lo, a_hi, f_hi) -> LineSearchResult:
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
            f_a, d_a, g_a = phi(a)
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
        return fallback()

    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    a = init_step if np.isfinite(init_step) and init_step > 0 else 1.0
    first = True
    while evals < max_evals:
        f_a, d_a, g_a = phi(a)
        if f_a > f0 + c1 * a * dphi0 or (not first and f_a >= f_prev):
            return zoom(a_prev, f_prev, d_prev, a, f_a)
        if abs(d_a) <= -c2 * dphi0:
            return LineSearchResult(a, f_a, g_a, True)
        if d_a >= 0:
            return zoom(a, f_a, d_a, a_prev, f_prev)
        a_prev, f_prev, d_prev = a, f_a, d_a
        a *= 2.0
        first = False
    return fallback()


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
    fg = _Evaluator(s, h)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fg.size,):
        raise ValueError(f"parameter vector has shape {x.shape}, expected ({fg.size},)")
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
    """
    scale_t = scale_m = 1.0
    if normalize:
        nt = float(np.linalg.norm(s.tensor))
        nm = float(np.linalg.norm(s.matrix))
        if nt > 0 or nm > 0:
            scale_t = nt if nt > 0 else 1.0
            scale_m = nm if nm > 0 else 1.0
            s = CoupledSample(s.tensor / scale_t, s.matrix / scale_m, s.label)
    dims = s.dims
    rank = h.rank
    fg = _Evaluator(s, h)
    x = _initial_point(dims, rank, seed)
    f_val, grad = fg(x)
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
        ls = _wolfe_search(fg, x, direction, f_val, grad, init_step=init)
        if ls.value >= f_val and not np.array_equal(direction, -grad):
            # Stagnant CG direction: retry once along steepest descent.
            direction = -grad
            dphi = float(grad @ direction)
            ls = _wolfe_search(fg, x, direction, f_val, grad)
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

    A, B, C, U, V, zeta, sigma = unpack(x, dims, rank)
    u1 = KruskalTensor(zeta * scale_t, (A, B, C)).normalized()
    u2 = KruskalTensor(sigma * scale_m, (U, V)).normalized()
    return AcmtfFactors.from_kruskals(
        u1, u2, objective_history=tuple(history), converged=converged
    )
