"""The array-state CG driver against a reference copy of the per-sample loop.

``_reference_cg`` is the Hestenes-Stiefel CG loop with its strong-Wolfe line
search written one sample at a time, as generators that yield each point to
evaluate.  The search brackets by the secant step on the slope, written in
scalar form, and doubles where the slope did not rise.  Its dot products and
norms are plain 1-D BLAS products, which the driver's row helper
reproduces, so the driver must match it bit for bit, and its own iteration
and evaluation counts and stop reason must equal the driver's
``SolveStats``.  It also counts the paths it takes, so the tests can check
that their inputs reach each one.
"""

from collections import Counter, namedtuple

import numpy as np
import pytest

from cstm.acmtf import (
    HS_DENOM_GUARD,
    AcmtfFactors,
    AcmtfHyperParams,
    CoupledSample,
    NumericalError,
    SolveStats,
    _ZOOM,
    _Evaluator,
    _LineSearch,
    _conjugate_gradient,
    _frobenius,
    _initial_point,
    acmtf_decompose,
    acmtf_decompose_many,
    unpack,
)
from cstm.tensor_core import KruskalTensor

DIMS = (4, 3, 5, 6)

LineSearchResult = namedtuple("LineSearchResult", "step value gradient wolfe_satisfied")


def _wolfe_steps(x, direction, f0, g0, paths, c1=1e-4, c2=0.1, max_evals=50,
                 init_step=1.0):
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
        paths["fallback"] += 1
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
        paths["zoom"] += 1
        while evals < max_evals:
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
        if d_a > d_prev:  # the secant root of the slope, clamped to [1.1a, 4a]
            paths["secant"] += 1
            a_next = min(max(a - d_a * (a - a_prev) / (d_a - d_prev), 1.1 * a), 4.0 * a)
        else:
            paths["double"] += 1
            a_next = 2.0 * a
        a_prev, f_prev, d_prev = a, f_a, d_a
        a = a_next
        first = False
    return (yield from fallback())


def _cg_steps(x, h, paths):
    f_val, grad = yield x
    if not np.isfinite(f_val):
        raise NumericalError("non-finite objective at initialization", 0)
    history = [f_val]

    delta = -grad
    direction = delta
    stop = "max_iters"
    prev_step = None
    prev_dphi = None
    for it in range(h.max_iters):
        if not np.isfinite(f_val) or not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite objective or gradient", it)
        grad_norm = np.linalg.norm(grad)
        if grad_norm == 0.0:
            paths["zero_grad"] += 1
            stop = "zero_grad"
            break
        if float(grad @ direction) >= 0:
            paths["restart"] += 1
            direction = -grad
        dphi = float(grad @ direction)
        if prev_step is None:
            init = 1.0 / grad_norm
        else:
            init = prev_step * prev_dphi / dphi if dphi != 0 else 1.0
        ls = yield from _wolfe_steps(x, direction, f_val, grad, paths, init_step=init)
        if ls.value >= f_val and not np.array_equal(direction, -grad):
            paths["sd_retry"] += 1
            direction = -grad
            dphi = float(grad @ direction)
            ls = yield from _wolfe_steps(x, direction, f_val, grad, paths)
        if ls.value >= f_val:
            paths["no_descent"] += 1
            stop = "no_descent"
            break
        x = x + ls.step * direction
        prev_step, prev_dphi = ls.step, dphi
        f_new, grad_new = ls.value, ls.gradient
        if not np.isfinite(f_new):
            raise NumericalError("non-finite objective after step", it)
        history.append(f_new)
        if abs(f_new - f_val) < h.cg_tol:
            paths["cg_tol"] += 1
            f_val, grad = f_new, grad_new
            stop = "tol"
            break
        delta_new = -grad_new
        y = delta_new - delta
        denom = float(-direction @ y)
        if abs(denom) < HS_DENOM_GUARD:
            paths["hs_guard"] += 1
            direction = delta_new
        else:
            beta_hs = float(delta_new @ y) / denom
            direction = delta_new + beta_hs * direction
        delta = delta_new
        f_val, grad = f_new, grad_new
    else:
        paths["max_iters"] += 1
    return x, history, stop


def _scales(sample):
    return tuple(n if n > 0 else 1.0 for n in map(_frobenius, (sample.tensor, sample.matrix)))


def _reference_cg(sample, h, seed, paths):
    """``(x, history, stop, evaluations)`` of one sample by the reference loop."""
    ev = _Evaluator([sample], h, [_scales(sample)])
    run = _cg_steps(_initial_point(sample.dims, h.rank, seed), h, paths)
    point = next(run)
    evaluations = 0
    try:
        while True:
            q, g = ev(point[None])
            evaluations += 1
            point = run.send((float(q[0]), g[0].copy()))
    except StopIteration as done:
        return (*done.value, evaluations)


def _arrays(f):
    return (f.u1.weights, f.u2.weights, *f.u1.factors, *f.u2.factors)


def _samples(rng, n, noises, rank=2, dims=DIMS):
    out = []
    for k in range(n):
        cols = [rng.standard_normal((d, rank)) for d in dims]
        tensor = np.einsum("ir,jr,kr->ijk", *cols[:3])
        matrix = cols[3] @ cols[2].T
        noise = noises[k % len(noises)]
        out.append(CoupledSample(
            tensor + noise * rng.standard_normal(tensor.shape),
            matrix + noise * rng.standard_normal(matrix.shape), 1,
        ))
    return out


CASES = [
    # (data seed, samples, noise levels, hyperparameters)
    (0, 6, (0.0, 0.3), AcmtfHyperParams(rank=2, cg_tol=1e-6, max_iters=60)),
    (1, 5, (0.0, 0.5, 1.0), AcmtfHyperParams(rank=3, max_iters=40)),
    (2, 4, (0.2,), AcmtfHyperParams(rank=1, beta=0.05, xi=10.0, max_iters=25)),
    (3, 4, (0.0, 2.0), AcmtfHyperParams(rank=3, theta=5.0, cg_tol=1e-3, max_iters=5)),
    # A nearly unsmoothed l1 term: near its kink no step along a CG
    # direction decreases the objective, so steepest descent is retried.
    (3, 6, (0.0, 0.3, 1.0), AcmtfHyperParams(rank=2, beta=1.0, epsilon=1e-300,
                                             max_iters=60)),
    (3, 6, (0.0, 0.3, 1.0), AcmtfHyperParams(rank=2, beta=1.0, epsilon=1e-300,
                                             cg_tol=1e-300, max_iters=60)),
    # Every term weighed by zero: the gradient at the start is exactly zero.
    (4, 2, (0.1,), AcmtfHyperParams(rank=2, gamma=0.0, beta=0.0, xi=0.0, theta=0.0)),
]


def _run_case(case):
    data_seed, n, noises, h = case
    rng = np.random.default_rng(data_seed)
    samples = _samples(rng, n, noises)
    seeds = [int(v) for v in rng.integers(0, 2**31, n)]
    paths = Counter()
    ref = [_reference_cg(s, h, seed, paths) for s, seed in zip(samples, seeds)]
    ref_factors = [acmtf_decompose(s, h, seed) for s, seed in zip(samples, seeds)]
    return samples, seeds, h, paths, ref, ref_factors


@pytest.fixture(scope="module")
def runs():
    return [_run_case(case) for case in CASES]


def test_driver_matches_the_reference_bit_for_bit(runs):
    for samples, seeds, h, _, ref, _ in runs:
        got = acmtf_decompose_many(samples, h, seeds)
        for (x, history, stop, evaluations), f, s in zip(ref, got, samples):
            assert f.objective_history == tuple(history)
            assert f.stats == SolveStats(len(history) - 1, evaluations, stop)
            assert f.converged == (stop != "max_iters")
            for a, b in zip(_arrays(f), _arrays(_factors_of(x, s, h))):
                assert a.tobytes() == b.tobytes()


def _factors_of(x, sample, h):
    """The reference x through the output step of the driver."""
    st, sm = _scales(sample)
    A, B, C, U, V, zeta, sigma = unpack(x, sample.dims, h.rank)
    return AcmtfFactors.from_kruskals(
        KruskalTensor(zeta * st, (A, B, C)).normalized(),
        KruskalTensor(sigma * sm, (U, V)).normalized(),
    )


def test_reference_inputs_reach_every_path(runs):
    paths = sum((r[3] for r in runs), Counter())
    for name in ("cg_tol", "max_iters", "zoom", "sd_retry", "fallback",
                 "no_descent", "hs_guard", "secant", "double", "zero_grad"):
        assert paths[name] > 0, dict(paths)


def test_non_finite_objective_at_iteration_zero_raises():
    # One overflowing row in a batch stops the whole batch.  The evaluator
    # is unscaled, so the huge tensor reaches the objective as it is.
    rng = np.random.default_rng(4)
    good = _samples(rng, 2, (0.1,))
    huge = CoupledSample(1e160 * rng.standard_normal((4, 3, 5)),
                         rng.standard_normal((6, 5)), 1)
    h = AcmtfHyperParams(rank=2, max_iters=10)
    samples = [good[0], huge, good[1]]
    x = np.stack([_initial_point(DIMS, h.rank, seed) for seed in (1, 2, 3)])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError) as err:
        _conjugate_gradient(_Evaluator(samples, h), x, h)
    assert err.value.iteration == 0


def test_a_large_iteration_cap_allocates_nothing_for_it():
    # The objective histories grow with the iterations taken, so a cap of
    # 10**12 runs as a cap the rows never reach.  The third row takes more
    # than 128 iterations, past two doublings of the history.
    rng = np.random.default_rng(5)
    samples = _samples(rng, 3, (0.0, 0.3, 1.0))
    runs = [acmtf_decompose_many(samples, AcmtfHyperParams(rank=2, cg_tol=1e-6,
                                                           max_iters=cap), [1, 2, 3])
            for cap in (10**12, 1000)]
    assert max(f.stats.iterations for f in runs[1]) > 128
    for big, small in zip(*runs):
        assert big.stats == small.stats and big.stats.stop == "tol"
        assert big.objective_history == small.objective_history
        for a, b in zip(_arrays(big), _arrays(small)):
            assert a.tobytes() == b.tobytes()


class _Scripted:
    """An evaluator that answers the driver's calls from a script of
    ``(value, gradient)`` pairs, whatever the point, and keeps the points."""

    def __init__(self, script):
        self.script, self.points = list(script), []

    def __call__(self, x):
        self.points.append(x[0].copy())
        value, grad = self.script[len(self.points) - 1]
        return np.array([value]), np.array([grad], dtype=float)


def test_non_descent_direction_restarts_along_steepest_descent():
    # One row in two dimensions.  Iteration 1 takes steepest descent from
    # g0 and accepts its first trial step with gradient g1.  Iteration 2
    # accepts its first trial step with a gradient g2 made of a small
    # positive slope s along the HS direction d1 and a part w across it
    # that points against g1, so that the next HS direction d2 goes uphill
    # (g2 . d2 = (g1 . d1) |w|^2 - s (w . g1) > 0).  The driver then steps
    # along -g2, and the third step stops on cg_tol.
    g0, g1 = np.array([-1.0, 0.0]), np.array([0.05, -0.5])
    d0 = -g0
    y = g1 - g0
    d1 = (g1 @ y) / (d0 @ y) * d0 - g1
    assert g1 @ d1 < 0
    across = np.array([d1[1], -d1[0]]) / np.hypot(*d1)
    w = -0.01 * np.sign(across @ g1) * across
    g2 = 0.02 * d1 / (d1 @ d1) + w
    y = g2 - g1
    d2 = (g2 @ y) / (d1 @ y) * d1 - g2
    assert abs(d1 @ y) > HS_DENOM_GUARD and g2 @ d2 > 0  # pins the uphill d2
    ev = _Scripted([(0.0, g0), (-1.0, g1), (-2.0, g2), (-2.0002, np.zeros(2))])
    h = AcmtfHyperParams(cg_tol=1e-3)
    [(x, history, stats)] = _conjugate_gradient(ev, np.zeros((1, 2)), h)
    assert history == (0.0, -1.0, -2.0, -2.0002)
    assert stats == SolveStats(3, 4, "tol")
    # The first trial step is 1/||g0|| = 1 along d0; the third leaves the
    # second point along -g2, not along d2.
    p0, p1, p2, p3 = ev.points
    assert p1.tolist() == d0.tolist()
    step = p3 - p2
    assert abs(step[0] * g2[1] - step[1] * g2[0]) < 1e-12 * np.hypot(*step) * np.hypot(*g2)
    assert step @ g2 < 0
    assert x.tolist() == p3.tolist()


def test_zoom_bisects_a_zero_denominator():
    # A slope of -1e-320 over a bracket 1e-10 wide underflows to zero, and
    # the values at both ends are equal, so the quadratic's denominator is
    # zero.  The first step keeps f0 and the slope (lo), and the doubled
    # step finds no lower value (hi).
    ls = _LineSearch(1.0, -1e-320, 1e-10)
    assert not ls.advance(1.0, -1e-320)
    assert (ls.lo, ls.step) == ((1e-10, 1.0, -1e-320), 2e-10)
    assert not ls.advance(1.0, -1e-320)
    assert ls.phase == _ZOOM and ls.hi == (2e-10, 1.0)
    assert ls.step == 1.5e-10


def test_zoom_bisects_an_overflowing_width():
    # A first step of 1e160 (1/||g|| for a gradient norm of 1e-160) that
    # fails sufficient decrease: the bracket [0, 1e160] has a squared
    # width beyond the float64 range.
    ls = _LineSearch(0.0, -1.0, 1e160)
    assert not ls.advance(1.0, 1.0)
    assert ls.phase == _ZOOM and ls.hi == (1e160, 1.0)
    assert ls.step == 5e159
