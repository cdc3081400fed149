"""Coupled factorization tests: objective, gradient, line search, decomposition."""

from collections import namedtuple

import numpy as np
import pytest

from cstm.acmtf import (
    AcmtfFactors,
    AcmtfHyperParams,
    CoupledSample,
    NumericalError,
    SolveStats,
    _BRACKET,
    _FALLBACK,
    _Evaluator,
    _frobenius,
    _LineSearch,
    _row_dot,
    acmtf_decompose,
    acmtf_decompose_many,
    acmtf_gradient,
    acmtf_objective,
    pack,
    unpack,
)
from cstm.tensor_core import KruskalTensor, _khatri_rao, unfold

DIMS = (4, 3, 5, 6)  # (I1, I2, I3, I4)


def naive_objective(s, f, h):
    """Straight-line transcription of the unconstrained objective."""
    zeta, (A, B, C) = f.u1.weights, f.u1.factors
    sigma, (U, V) = f.u2.weights, f.u2.factors
    r = zeta.size
    recon = np.zeros(s.tensor.shape)
    for m in range(r):
        recon += zeta[m] * np.einsum("i,j,k->ijk", A[:, m], B[:, m], C[:, m])
    q = h.gamma * np.linalg.norm(s.tensor - recon) ** 2
    q += h.gamma * np.linalg.norm(s.matrix - U @ np.diag(sigma) @ V.T) ** 2
    q += h.xi * np.linalg.norm(C - V) ** 2
    for k in range(r):
        q += h.beta * np.sqrt(zeta[k] ** 2 + h.epsilon)
        q += h.beta * np.sqrt(sigma[k] ** 2 + h.epsilon)
        for F in (A, B, C, U, V):
            q += h.theta * (np.linalg.norm(F[:, k]) - 1.0) ** 2
    return q


def random_instance(rng, rank=2, dims=DIMS, beta=0.004):
    i1, i2, i3, i4 = dims
    sample = CoupledSample(
        rng.standard_normal((i1, i2, i3)), rng.standard_normal((i4, i3)), 1
    )
    h = AcmtfHyperParams(
        gamma=float(rng.uniform(0.5, 2.0)),
        beta=beta,
        xi=float(rng.uniform(0.1, 2.0)),
        theta=float(rng.uniform(0.1, 2.0)),
        rank=rank,
    )
    u1 = KruskalTensor(
        rng.uniform(0.5, 1.5, rank) * rng.choice([-1.0, 1.0], rank),
        tuple(rng.standard_normal((d, rank)) for d in (i1, i2, i3)),
    )
    u2 = KruskalTensor(
        rng.uniform(0.5, 1.5, rank) * rng.choice([-1.0, 1.0], rank),
        tuple(rng.standard_normal((d, rank)) for d in (i4, i3)),
    )
    return sample, AcmtfFactors.from_kruskals(u1, u2), h


def reference_evaluation(sample, blocks, h):
    """Objective and gradient by explicit unfoldings and Khatri-Rao products.

    The straightforward form of the evaluation: the residual is folded back
    into a tensor and unfolded along each mode for the three MTTKRPs, and
    every penalty term has its own pass.
    """
    A, B, C, U, V, zeta, sigma = blocks
    kr_cb = _khatri_rao(C, B)
    e1 = (A * zeta) @ kr_cb.T - unfold(sample.tensor, 1)
    f2 = (U * sigma) @ V.T - sample.matrix
    cv = C - V
    norms = [np.linalg.norm(F, axis=0) for F in (A, B, C, U, V)]
    root_z = np.sqrt(zeta**2 + h.epsilon)
    root_s = np.sqrt(sigma**2 + h.epsilon)
    q = h.gamma * (np.sum(e1 * e1) + np.sum(f2 * f2))
    q += h.xi * np.sum(cv * cv)
    q += h.beta * (root_z.sum() + root_s.sum())
    q += h.theta * sum(np.sum((n - 1.0) ** 2) for n in norms)

    def penalty_grad(F, n):
        unit = np.where(n > 0, F / np.where(n > 0, n, 1.0), 0.0)
        return 2.0 * (F - unit)

    g2 = 2.0 * h.gamma
    err = e1.reshape(sample.tensor.shape, order="F")  # the inverse of unfold(., 1)
    core1 = e1 @ kr_cb
    grad_a = g2 * core1 * zeta + h.theta * penalty_grad(A, norms[0])
    grad_zeta = g2 * np.sum(A * core1, axis=0) + h.beta * zeta / root_z
    grad_b = g2 * unfold(err, 2) @ (_khatri_rao(C, A) * zeta)
    grad_b += h.theta * penalty_grad(B, norms[1])
    grad_c = g2 * unfold(err, 3) @ (_khatri_rao(B, A) * zeta)
    grad_c += 2.0 * h.xi * cv + h.theta * penalty_grad(C, norms[2])
    core2 = f2 @ V
    grad_u = g2 * core2 * sigma + h.theta * penalty_grad(U, norms[3])
    grad_sigma = g2 * np.sum(U * core2, axis=0) + h.beta * sigma / root_s
    grad_v = g2 * f2.T @ (U * sigma)
    grad_v += -2.0 * h.xi * cv + h.theta * penalty_grad(V, norms[4])
    grad = pack((grad_a, grad_b, grad_c, grad_u, grad_v, grad_zeta, grad_sigma))
    return float(q), grad


def exact_fit_instance(rng, rank=1, dims=DIMS):
    """Noiseless coupled pair with unit-norm generating factors and C = V."""
    i1, i2, i3, i4 = dims
    cols = {}
    for name, d in (("a", i1), ("b", i2), ("c", i3), ("u", i4)):
        m = rng.standard_normal((d, rank))
        cols[name] = m / np.linalg.norm(m, axis=0)
    zeta = rng.uniform(1.0, 2.0, rank)
    sigma = rng.uniform(1.0, 2.0, rank)
    tensor = np.einsum("r,ir,jr,kr->ijk", zeta, cols["a"], cols["b"], cols["c"])
    matrix = (cols["u"] * sigma) @ cols["c"].T
    sample = CoupledSample(tensor, matrix, 1)
    u1 = KruskalTensor(zeta, (cols["a"], cols["b"], cols["c"]))
    u2 = KruskalTensor(sigma, (cols["u"], cols["c"]))
    return sample, AcmtfFactors.from_kruskals(u1, u2), cols


class TestTypes:
    def test_coupled_mode_mismatch(self):
        with pytest.raises(ValueError):
            CoupledSample(np.zeros((2, 3, 4)), np.zeros((5, 3)), 1)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            CoupledSample(np.zeros((2, 3, 4)), np.zeros((5, 4)), 2)

    def test_hyperparams_validation(self):
        with pytest.raises(ValueError):
            AcmtfHyperParams(beta=-0.1)
        with pytest.raises(ValueError):
            AcmtfHyperParams(epsilon=0.0)
        with pytest.raises(ValueError):
            AcmtfHyperParams(rank=0)

    @pytest.mark.parametrize("name, value", [
        ("cg_tol", float("nan")), ("cg_tol", float("inf")), ("cg_tol", 0.0),
        ("epsilon", float("nan")), ("epsilon", float("inf")),
        ("rank", 2.5), ("rank", 3.0), ("rank", True),
        ("max_iters", 10.0), ("max_iters", False), ("max_iters", 0),
    ])
    def test_bad_solver_settings_rejected(self, name, value):
        # A NaN cg_tol would switch the early stop off, and a float rank or
        # max_iters would fail inside the decomposition.
        with pytest.raises(ValueError, match=name):
            AcmtfHyperParams(**{name: value})

    def test_numpy_integers_accepted(self):
        h = AcmtfHyperParams(rank=np.int64(3), max_iters=np.int32(7))
        assert h.rank == 3 and h.max_iters == 7

    def test_shared_must_be_average(self):
        # shared is derived from the coupled factors; it cannot be passed.
        rng = np.random.default_rng(0)
        _, f, _ = random_instance(rng)
        np.testing.assert_array_equal(f.shared, (f.u1.factors[2] + f.u2.factors[1]) / 2)
        with pytest.raises(TypeError):
            AcmtfFactors(f.u1, f.u2, shared=f.shared + 1.0)

    def test_parameter_vector_length(self):
        rng = np.random.default_rng(1)
        _, f, h = random_instance(rng)
        x = pack(
            (
                *f.u1.factors,
                *f.u2.factors,
                f.u1.weights,
                f.u2.weights,
            )
        )
        i1, i2, i3, i4 = DIMS
        r = h.rank
        assert x.size == r * (i1 + i2 + i3 + i4 + i3) + 2 * r
        blocks = unpack(x, DIMS, r)
        np.testing.assert_array_equal(blocks[0], f.u1.factors[0])
        np.testing.assert_array_equal(blocks[6], f.u2.weights)


class TestObjective:
    def test_exact_fit_zero_penalties(self):
        # The residual-free tensor term is accurate to about 1e-16 ||X1||^2
        # and may read slightly below zero at an exact fit.
        rng = np.random.default_rng(2)
        sample, factors, _ = exact_fit_instance(rng)
        h = AcmtfHyperParams(beta=0.0, rank=1)
        q = acmtf_objective(sample, factors, h)
        assert abs(q) <= 1e-14 * np.linalg.norm(sample.tensor) ** 2

    def test_all_zero_closed_form(self):
        # Zero data and all-zero factors, beta=1, eps=1e-8, r=2:
        # Q = 4*sqrt(eps) + 10*theta
        i1, i2, i3, i4 = DIMS
        sample = CoupledSample(np.zeros((i1, i2, i3)), np.zeros((i4, i3)), 0)
        u1 = KruskalTensor(np.zeros(2), tuple(np.zeros((d, 2)) for d in (i1, i2, i3)))
        u2 = KruskalTensor(np.zeros(2), tuple(np.zeros((d, 2)) for d in (i4, i3)))
        factors = AcmtfFactors.from_kruskals(u1, u2)
        h = AcmtfHyperParams(beta=1.0, theta=1.0, epsilon=1e-8, rank=2)
        expected = 4 * np.sqrt(1e-8) + 10.0
        assert abs(acmtf_objective(sample, factors, h) - expected) < 1e-12

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            sample, factors, h = random_instance(rng)
            got = acmtf_objective(sample, factors, h)
            want = naive_objective(sample, factors, h)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        sample, factors, h = random_instance(rng)
        other = CoupledSample(np.zeros((2, 3, 5)), np.zeros((6, 5)), 0)
        with pytest.raises(ValueError):
            acmtf_objective(other, factors, h)


def fd_gradient(sample, factors, h, step=1e-6):
    x = pack((*factors.u1.factors, *factors.u2.factors,
              factors.u1.weights, factors.u2.weights))
    out = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        blocks_p = unpack(x + e, sample.dims, h.rank)
        blocks_m = unpack(x - e, sample.dims, h.rank)
        f_p = _objective_from_blocks(sample, blocks_p, h)
        f_m = _objective_from_blocks(sample, blocks_m, h)
        out[k] = (f_p - f_m) / (2 * step)
    return out


def _objective_from_blocks(sample, blocks, h):
    A, B, C, U, V, zeta, sigma = blocks
    u1 = KruskalTensor(zeta, (A, B, C))
    u2 = KruskalTensor(sigma, (U, V))
    return acmtf_objective(sample, AcmtfFactors.from_kruskals(u1, u2), h)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            sample, factors, h = random_instance(rng)
            g = acmtf_gradient(sample, factors, h)
            fd = fd_gradient(sample, factors, h)
            rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-4

    def test_zero_at_exact_minimizer(self):
        rng = np.random.default_rng(6)
        sample, factors, _ = exact_fit_instance(rng)
        h = AcmtfHyperParams(beta=0.0, rank=1)
        g = acmtf_gradient(sample, factors, h)
        assert np.linalg.norm(g) < 1e-6

    def test_sparsity_term_vanishes_at_zero_weight(self):
        rng = np.random.default_rng(7)
        sample, factors, h0 = random_instance(rng)
        u1 = KruskalTensor(np.zeros(2), factors.u1.factors)
        factors0 = AcmtfFactors.from_kruskals(u1, factors.u2)
        r = 2
        with_beta = AcmtfHyperParams(
            gamma=h0.gamma, beta=0.5, xi=h0.xi, theta=h0.theta, rank=r
        )
        without_beta = AcmtfHyperParams(
            gamma=h0.gamma, beta=0.0, xi=h0.xi, theta=h0.theta, rank=r
        )
        g1 = acmtf_gradient(sample, factors0, with_beta)
        g0 = acmtf_gradient(sample, factors0, without_beta)
        i1, i2, i3, i4 = DIMS
        start = r * (i1 + i2 + i3 + i4 + i3)
        # zeta block: smoothed-l1 derivative is beta * 0 / sqrt(eps) = 0
        np.testing.assert_allclose(g1[start:start + r], g0[start:start + r], atol=1e-12)
        # sigma block differs because sigma != 0 there
        assert not np.allclose(g1[start + r:], g0[start + r:])


class TestEvaluatorAgainstReference:
    """The batched evaluator on flat vectors against the unfolding form."""

    @staticmethod
    def check(samples, xs, h):
        # One call for the whole batch; every row within 1e-12 of the
        # reference, and the objective-only call equal to the gradient
        # call's objectives.
        got_q, got_g = _Evaluator(samples, h)(np.stack(xs))
        assert got_q.shape == (len(xs),) and got_g.shape == (len(xs), xs[0].size)
        for sample, x, q, g in zip(samples, xs, got_q, got_g):
            want_q, want_g = reference_evaluation(sample, unpack(x, sample.dims, h.rank), h)
            assert abs(q - want_q) <= 1e-12 * max(1.0, abs(want_q))
            tol = 1e-12 * np.maximum(1.0, np.abs(want_g))
            assert np.all(np.abs(g - want_g) <= tol)
        q_only, g_none = _Evaluator(samples, h)(np.stack(xs), need_grad=False)
        assert g_none is None and np.array_equal(q_only, got_q)

    @staticmethod
    def point(factors):
        return pack((*factors.u1.factors, *factors.u2.factors,
                     factors.u1.weights, factors.u2.weights))

    @pytest.mark.parametrize("rank", [1, 5])
    def test_random_instances(self, rank):
        rng = np.random.default_rng(40 + rank)
        for dims in (DIMS, (7, 2, 3, 9)):  # I3 != I4 in both
            batch = [random_instance(rng, rank=rank, dims=dims) for _ in range(4)]
            # Each instance under its own hyperparameter draw, then all
            # four in one batch (which shares one set of hyperparameters).
            for sample, factors, h in batch:
                self.check([sample], [self.point(factors)], h)
            self.check([s for s, _, _ in batch], [self.point(f) for _, f, _ in batch],
                       batch[0][2])

    def test_batch_independence_at_real_dims(self):
        # Case-3 dims at the default rank: each row of a batch of 1, 7 or 32
        # is byte-equal to its own batch-of-one call, whatever blocking the
        # stacked products pick for the batch, and within 1e-12 of the
        # reference.
        rng = np.random.default_rng(48)
        dims = (30, 20, 10, 50)
        batch = [random_instance(rng, rank=5, dims=dims) for _ in range(32)]
        h = batch[0][2]
        samples = [s for s, _, _ in batch]
        xs = [self.point(f) for _, f, _ in batch]
        alone = [_Evaluator([s], h)(x[None]) for s, x in zip(samples, xs)]
        for sample, x, (q, g) in zip(samples, xs, alone):
            want_q, want_g = reference_evaluation(sample, unpack(x, dims, 5), h)
            assert abs(q[0] - want_q) <= 1e-12 * max(1.0, abs(want_q))
            assert np.all(np.abs(g[0] - want_g) <= 1e-12 * np.maximum(1.0, np.abs(want_g)))
        for b in (1, 7, 32):
            q, g = _Evaluator(samples[:b], h)(np.stack(xs[:b]))
            for k in range(b):
                assert q[k].tobytes() == alone[k][0][0].tobytes()
                assert g[k].tobytes() == alone[k][1][0].tobytes()

    def test_zero_factor_column(self):
        # A zero column sits where the unit-norm penalty is not
        # differentiable; both forms take the 0 subgradient there.
        rng = np.random.default_rng(46)
        sample, factors, h = random_instance(rng, rank=3)
        x = self.point(factors)
        blocks = unpack(x, DIMS, 3)
        blocks[1][:, 2] = 0.0  # B's last column
        blocks[4][:, 0] = 0.0  # V's first column
        self.check([sample], [x], h)
        g = _Evaluator([sample], h)(x[None])[1]
        assert np.all(np.isfinite(g))

    def test_zero_weights(self):
        rng = np.random.default_rng(47)
        sample, factors, h = random_instance(rng, rank=4, beta=0.5)
        x = self.point(factors)
        x[-8:] = 0.0  # zeta and sigma
        self.check([sample], [x], h)


Search = namedtuple("Search", "step value gradient wolfe_satisfied")


def wolfe_search(fg, x, direction, f0, g0, init_step=1.0):
    """One strong-Wolfe search along ``direction``: one _LineSearch.

    Every trial point is evaluated by ``fg(x) -> (value, gradient)``.  A
    search that saw no finite trial point returns the zero step at
    ``(f0, g0)``.
    """
    d = direction[None]
    ls = _LineSearch(f0, _row_dot(g0[None], d)[0], init_step)
    done = False
    while not done:
        value, grad = fg(x + ls.step * direction)
        done = ls.advance(value, _row_dot(np.asarray(grad)[None], d)[0])
    step, value = ls.best
    if step == 0.0:
        return Search(0.0, f0, g0, False)
    if value >= f0 and step != ls.step:  # no decrease: an earlier step
        grad = fg(x + step * direction)[1]
    return Search(step, value, grad, ls.phase != _FALLBACK)


def sample_fg(sample, h):
    """``fg`` of one sample's objective on the batched evaluator."""
    ev = _Evaluator([sample], h)

    def fg(x):
        q, g = ev(x[None])
        return float(q[0]), g[0]

    return fg


class TestLineSearch:
    def test_quadratic_minimizer(self):
        def fg(x):
            return float((x[0] - 1.0) ** 2), np.array([2.0 * (x[0] - 1.0)])

        x0 = np.zeros(1)
        f0, g0 = fg(x0)
        res = wolfe_search(fg, x0, np.ones(1), f0, g0)
        assert res.wolfe_satisfied
        # Strong Wolfe with c2=0.1 around the exact minimizer phi*=1
        assert 0.8 <= res.step <= 1.2

    def test_descent_decreases_objective(self):
        rng = np.random.default_rng(8)
        sample, factors, h = random_instance(rng)
        x = pack((*factors.u1.factors, *factors.u2.factors,
                  factors.u1.weights, factors.u2.weights))
        g = acmtf_gradient(sample, factors, h)
        f0 = acmtf_objective(sample, factors, h)
        res = wolfe_search(sample_fg(sample, h), x, -g, f0, g)
        assert res.value < f0

    def test_near_stationary_non_increase(self):
        rng = np.random.default_rng(9)
        sample, factors, _ = exact_fit_instance(rng)
        h = AcmtfHyperParams(beta=0.0, rank=1)
        x = pack((*factors.u1.factors, *factors.u2.factors,
                  factors.u1.weights, factors.u2.weights))
        # Nudge off the minimizer so the gradient is tiny but nonzero.
        x = x + 1e-9
        blocks = unpack(x, sample.dims, 1)
        f0 = _objective_from_blocks(sample, blocks, h)
        g = acmtf_gradient(
            sample,
            AcmtfFactors.from_kruskals(
                KruskalTensor(blocks[5], blocks[:3]),
                KruskalTensor(blocks[6], blocks[3:5]),
            ),
            h,
        )
        fg = sample_fg(sample, h)
        res = wolfe_search(fg, x, -g, *fg(x))
        assert res.value <= f0

    def test_non_finite_trial_is_rejected(self):
        # (x - 1)^2 below x = 3 and NaN above it; the first trial step of 8
        # lands in the NaN region, so the search must back off from it.
        def fg(x):
            if x[0] > 3.0:
                return float("nan"), np.array([float("nan")])
            return float((x[0] - 1.0) ** 2), np.array([2.0 * (x[0] - 1.0)])

        x0 = np.zeros(1)
        f0, g0 = fg(x0)
        res = wolfe_search(fg, x0, np.ones(1), f0, g0, init_step=8.0)
        assert np.isfinite(res.value) and np.all(np.isfinite(res.gradient))
        assert res.step <= 3.0
        assert res.value < f0

    @staticmethod
    def counted(phi, dphi):
        """``fg`` of the 1-D function phi, recording every step evaluated."""
        steps = []

        def fg(x):
            steps.append(float(x[0]))
            return phi(x[0]), np.array([dphi(x[0])])

        return fg, steps

    def test_secant_bracketing_reaches_a_far_minimizer_in_three_evaluations(self):
        # phi = (a - 10)^2 from a first step of 1: the secant step on the
        # slope is clamped to 4, then lands on 10.  Doubling would try 1, 2,
        # 4, 8 and 16, then zoom to 10: six evaluations.
        fg, steps = self.counted(lambda a: (a - 10.0) ** 2, lambda a: 2.0 * (a - 10.0))
        f0, g0 = fg(np.zeros(1))
        steps.clear()
        res = wolfe_search(fg, np.zeros(1), np.ones(1), f0, g0)
        assert res.wolfe_satisfied and abs(res.gradient[0]) <= 0.1 * abs(g0[0])
        assert steps == [1.0, 4.0, 10.0]

    def test_bracket_steps_grow_by_1_1_to_4(self):
        # A quartic whose slope flattens towards its minimizer at 30: the
        # secant steps are sometimes clamped and sometimes taken as is.
        ls = _LineSearch(30.0 ** 4, -4 * 30.0 ** 3, 1.0)
        factors = []
        done = False
        while not done:
            a = ls.step
            bracketing = ls.phase == _BRACKET
            done = ls.advance((a - 30.0) ** 4, 4 * (a - 30.0) ** 3)
            if bracketing and not done and ls.phase == _BRACKET:
                factors.append(ls.step / a)
        assert len(factors) >= 2
        assert all(1.1 <= k <= 4.0 for k in factors), factors
        assert min(factors) < 2.0, factors  # a secant step; doubling never is

    @pytest.mark.parametrize("phi, dphi", [
        # phi' = -1 - a + a^3 / 100 falls until a = sqrt(100 / 3); the
        # minimizer is near 11.
        (lambda a: -a - a * a / 2 + a ** 4 / 400, lambda a: -1.0 - a + a ** 3 / 100),
        # phi' = -1 up to a = 6, then a - 7: the slope stays equal.
        (lambda a: -a if a < 6 else (a - 7) ** 2 / 2 - 6.5,
         lambda a: -1.0 if a < 6 else a - 7.0),
    ])
    def test_slope_that_does_not_rise_doubles_and_ends_on_a_wolfe_point(self, phi, dphi):
        fg, steps = self.counted(phi, dphi)
        f0, g0 = fg(np.zeros(1))
        steps.clear()
        res = wolfe_search(fg, np.zeros(1), np.ones(1), f0, g0)
        assert steps[:4] == [1.0, 2.0, 4.0, 8.0]
        assert res.wolfe_satisfied
        assert abs(res.gradient[0]) <= 0.1 * abs(g0[0])
        assert res.value <= f0 + 1e-4 * res.step * g0[0]

    def test_no_finite_trial_returns_zero_step(self):
        def fg(x):
            if x[0] > 0.0:
                return float("inf"), np.array([float("nan")])
            return float(-x[0]), np.array([-1.0])

        x0 = np.zeros(1)
        f0, g0 = fg(x0)
        res = wolfe_search(fg, x0, np.ones(1), f0, g0)
        assert res.step == 0.0 and res.value == f0 and not res.wolfe_satisfied


class TestDecompose:
    def test_rank1_recovery(self):
        rng = np.random.default_rng(11)
        sample, _, cols = exact_fit_instance(rng)
        h = AcmtfHyperParams(beta=0.0, rank=1, cg_tol=1e-14, max_iters=2000)
        fac = acmtf_decompose(sample, h, seed=5)
        truth = cols["c"][:, 0]
        est = fac.shared[:, 0]
        cos = abs(float(est @ truth)) / (np.linalg.norm(est) * np.linalg.norm(truth))
        assert cos > 0.999
        assert fac.objective_history[-1] < 1e-6

    def test_synthetic_rank3_objective_drop(self):
        rng = np.random.default_rng(12)
        r = 3
        f1 = rng.standard_normal((8, r)) + 1.0
        f2 = rng.standard_normal((6, r)) + 1.0
        fs = rng.standard_normal((5, r)) + 1.0
        fm = rng.standard_normal((9, r)) + 1.0
        sample = CoupledSample(
            np.einsum("ir,jr,kr->ijk", f1, f2, fs), fm @ fs.T, 1
        )
        h = AcmtfHyperParams(rank=3, cg_tol=1e-10, max_iters=1000)
        fac = acmtf_decompose(sample, h, seed=6)
        hist = fac.objective_history
        assert hist[-1] < 0.01 * hist[0]

    def test_zero_data_drives_weights_to_zero(self):
        sample = CoupledSample(np.zeros((4, 3, 5)), np.zeros((6, 5)), 0)
        h = AcmtfHyperParams(beta=0.001, rank=2, cg_tol=1e-12, max_iters=1500)
        fac = acmtf_decompose(sample, h, seed=7)
        assert np.all(np.abs(fac.u1.weights) < 1e-3)
        assert np.all(np.abs(fac.u2.weights) < 1e-3)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        sample, _, _ = random_instance(rng)
        h = AcmtfHyperParams(rank=2, max_iters=50)
        a = acmtf_decompose(sample, h, seed=9)
        b = acmtf_decompose(sample, h, seed=9)
        np.testing.assert_array_equal(a.shared, b.shared)
        np.testing.assert_array_equal(a.u1.weights, b.u1.weights)
        for fa, fb in zip(a.u1.factors + a.u2.factors, b.u1.factors + b.u2.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_coupling_fidelity_with_large_xi(self):
        rng = np.random.default_rng(14)
        sample, _, _ = exact_fit_instance(rng, rank=2)
        h = AcmtfHyperParams(beta=0.0, xi=1e3, rank=2, cg_tol=1e-12, max_iters=2000)
        fac = acmtf_decompose(sample, h, seed=10)
        # Compare the normalized coupled-mode factors directly.
        cn = fac.u1.factors[2]
        vn = fac.u2.factors[1]
        rel = np.linalg.norm(cn - vn) / np.linalg.norm(vn)
        assert rel < 1e-2

    def test_history_strictly_decreasing(self):
        rng = np.random.default_rng(15)
        sample, _, h = random_instance(rng)
        fac = acmtf_decompose(sample, h, seed=11)
        hist = np.array(fac.objective_history)
        assert np.all(np.diff(hist) < 0)

    def test_unit_norm_output_columns(self):
        rng = np.random.default_rng(16)
        sample, _, h = random_instance(rng)
        fac = acmtf_decompose(sample, h, seed=12)
        for f in fac.u1.factors + fac.u2.factors:
            norms = np.linalg.norm(f, axis=0)
            np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-10)


class TestSolveStats:
    def test_stats_name_each_stop(self):
        rng = np.random.default_rng(17)
        exact, _, _ = exact_fit_instance(rng)
        noisy, _, _ = random_instance(rng)
        h = AcmtfHyperParams(rank=1, cg_tol=1e-6, max_iters=40)
        out = acmtf_decompose_many([exact, noisy], h, [1, 2])
        assert [f.stats.stop for f in out] == ["tol", "max_iters"]
        for f in out:
            assert f.converged == (f.stats.stop != "max_iters")
            assert f.stats.iterations == len(f.objective_history) - 1
            # The starting point plus at least one trial per iteration.
            assert f.stats.evaluations > f.stats.iterations

    def test_pruned_keeps_stats(self):
        rng = np.random.default_rng(18)
        _, f, _ = random_instance(rng)
        stats = SolveStats(12, 25, "max_iters")
        weak = np.array([1.0, 1e-6])
        f = AcmtfFactors.from_kruskals(
            KruskalTensor(weak, f.u1.factors), KruskalTensor(weak, f.u2.factors),
            (2.0, 1.0), stats,
        )
        pruned = f.pruned(0.5)
        assert pruned.rank == 1
        assert pruned.stats is stats and pruned.converged is False

    def test_stats_do_not_take_part_in_equality(self):
        stats = SolveStats(3, 7, "tol")
        assert stats == SolveStats(3, 7, "tol") != SolveStats(3, 8, "tol")
        rng = np.random.default_rng(19)
        _, f, _ = random_instance(rng)
        with_stats = AcmtfFactors.from_kruskals(f.u1, f.u2, stats=stats)
        assert with_stats.stats is stats and f.stats is None


class TestNormalizationAndPruning:
    def test_weights_describe_original_scale(self):
        # Internal unit-norm scaling must fold back into the weights, so
        # the returned Kruskal pair reconstructs the unscaled data.
        rng = np.random.default_rng(30)
        sample, _, _ = exact_fit_instance(rng)
        h = AcmtfHyperParams(beta=0.0, rank=1, cg_tol=1e-14, max_iters=2000)
        fac = acmtf_decompose(sample, h, seed=3)
        recon_t = fac.u1.full()
        recon_m = (fac.u2.factors[0] * fac.u2.weights) @ fac.u2.factors[1].T
        assert np.linalg.norm(recon_t - sample.tensor) < 1e-5 * np.linalg.norm(sample.tensor)
        assert np.linalg.norm(recon_m - sample.matrix) < 1e-5 * np.linalg.norm(sample.matrix)

    def test_pruned_drops_joint_small_components(self):
        rng = np.random.default_rng(32)
        _, factors, _ = random_instance(rng, rank=3)
        u1 = KruskalTensor(np.array([5.0, 1e-6, 2.0]), factors.u1.factors)
        u2 = KruskalTensor(np.array([1.0, 1e-7, 1e-9]), factors.u2.factors)
        f = AcmtfFactors.from_kruskals(u1, u2)
        p = f.pruned(0.05)
        assert p.rank == 2  # middle component negligible in both modalities
        np.testing.assert_array_equal(p.u1.weights, [5.0, 2.0])

    def test_pruned_keeps_at_least_one(self):
        rng = np.random.default_rng(33)
        _, factors, _ = random_instance(rng, rank=2)
        u1 = KruskalTensor(np.array([3.0, 0.001]), factors.u1.factors)
        u2 = KruskalTensor(np.array([2.0, 0.002]), factors.u2.factors)
        f = AcmtfFactors.from_kruskals(u1, u2)
        assert f.pruned(0.5).rank == 1
        # All-zero weights: nothing exceeds nothing, everything survives.
        z1 = KruskalTensor(np.zeros(2), factors.u1.factors)
        z2 = KruskalTensor(np.zeros(2), factors.u2.factors)
        assert AcmtfFactors.from_kruskals(z1, z2).pruned(0.5).rank == 2

    def test_prune_zero_is_noop(self):
        rng = np.random.default_rng(34)
        _, factors, _ = random_instance(rng)
        assert factors.pruned(0.0) is factors

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), -0.1, 1.0, 1.5])
    def test_pruned_rejects_threshold_outside_unit_interval(self, rel_tol):
        # At 1.5 or NaN no component would pass, against "at least one kept".
        rng = np.random.default_rng(35)
        _, factors, _ = random_instance(rng)
        with pytest.raises(ValueError, match="rel_tol"):
            factors.pruned(rel_tol)

    def test_overflowing_norm_still_normalizes(self):
        # Finite entries whose sum of squares overflows: the scale is
        # computed without overflow, so the sample decomposes to finite
        # factors on the original scale.
        rng = np.random.default_rng(5)
        tensor = 1e160 * rng.standard_normal((4, 3, 5))
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(tensor))
        sample = CoupledSample(tensor, rng.standard_normal((6, 5)), 1)
        h = AcmtfHyperParams(rank=2, max_iters=20)
        f = acmtf_decompose(sample, h, seed=3)
        assert np.all(np.isfinite(f.u1.weights)) and np.all(np.isfinite(f.u2.weights))
        small = CoupledSample(tensor * 1e-160, sample.matrix, 1)
        np.testing.assert_allclose(f.u1.weights * 1e-160,
                                   acmtf_decompose(small, h, seed=3).u1.weights, rtol=1e-6)

    def test_norm_beyond_float64_range_raises(self):
        sample = CoupledSample(np.full((4, 3, 5), 1.5e308), np.ones((6, 5)), 1)
        with pytest.raises(NumericalError, match="float64 range") as err:
            acmtf_decompose(sample, AcmtfHyperParams(rank=1, max_iters=5), seed=0)
        assert err.value.iteration == 0

    def test_ordinary_scales_are_plain_norms(self):
        a = np.random.default_rng(6).standard_normal((30, 20, 10))
        assert _frobenius(a) == np.linalg.norm(a)

    def test_non_finite_objective_raises(self):
        # The data are scaled to unit norm; a data-fit weight near the
        # float64 limit still overflows the starting objective.
        big = np.full((3, 3, 3), 1e200)
        sample = CoupledSample(big, np.ones((4, 3)), 0)
        h = AcmtfHyperParams(rank=1, max_iters=10, gamma=1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match=r"non-finite objective at initialization \(iteration 0\)"
        ):
            acmtf_decompose(sample, h, seed=0)


class TestSharedFactor:
    def test_average_of_equals(self):
        rng = np.random.default_rng(17)
        c = rng.standard_normal((5, 2))
        u1 = KruskalTensor(np.ones(2), (np.ones((4, 2)), np.ones((3, 2)), c))
        u2 = KruskalTensor(np.ones(2), (np.ones((6, 2)), c))
        f = AcmtfFactors.from_kruskals(u1, u2)
        np.testing.assert_array_equal(f.shared, c)

    def test_cancellation(self):
        rng = np.random.default_rng(18)
        c = rng.standard_normal((5, 2))
        u1 = KruskalTensor(np.ones(2), (np.ones((4, 2)), np.ones((3, 2)), c))
        u2 = KruskalTensor(np.ones(2), (np.ones((6, 2)), -c))
        f = AcmtfFactors.from_kruskals(u1, u2)
        np.testing.assert_array_equal(f.shared, np.zeros((5, 2)))

    def test_elementwise_mean(self):
        rng = np.random.default_rng(19)
        c = rng.standard_normal((5, 2))
        v = rng.standard_normal((5, 2))
        u1 = KruskalTensor(np.ones(2), (np.ones((4, 2)), np.ones((3, 2)), c))
        u2 = KruskalTensor(np.ones(2), (np.ones((6, 2)), v))
        f = AcmtfFactors.from_kruskals(u1, u2)
        np.testing.assert_allclose(f.shared, (c + v) / 2, atol=1e-15)
