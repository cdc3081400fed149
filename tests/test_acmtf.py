"""Coupled factorization tests: objective, gradient, line search, decomposition."""

import numpy as np
import pytest

from cstm.acmtf import (
    AcmtfFactors,
    AcmtfHyperParams,
    CoupledSample,
    LineSearchResult,
    _Evaluator,
    _wolfe_search,
    acmtf_decompose,
    acmtf_gradient,
    acmtf_objective,
    line_search,
    pack,
    shared_factor,
    unpack,
)
from cstm.tensor_core import KruskalTensor, fold, khatri_rao, unfold

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
    kr_cb = khatri_rao(C, B)
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
    err = fold(e1, 1, sample.tensor.shape)
    core1 = e1 @ kr_cb
    grad_a = g2 * core1 * zeta + h.theta * penalty_grad(A, norms[0])
    grad_zeta = g2 * np.sum(A * core1, axis=0) + h.beta * zeta / root_z
    grad_b = g2 * unfold(err, 2) @ (khatri_rao(C, A) * zeta)
    grad_b += h.theta * penalty_grad(B, norms[1])
    grad_c = g2 * unfold(err, 3) @ (khatri_rao(B, A) * zeta)
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

    def test_shared_must_be_average(self):
        rng = np.random.default_rng(0)
        _, f, _ = random_instance(rng)
        with pytest.raises(ValueError):
            AcmtfFactors(f.u1, f.u2, f.shared + 1.0)

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
        rng = np.random.default_rng(2)
        sample, factors, _ = exact_fit_instance(rng)
        h = AcmtfHyperParams(beta=0.0, rank=1)
        assert acmtf_objective(sample, factors, h) < 1e-20

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
    """The evaluator on the flat vector against the unfolding form."""

    @staticmethod
    def check(sample, x, h):
        want_q, want_g = reference_evaluation(sample, unpack(x, sample.dims, h.rank), h)
        got_q, got_g = _Evaluator(sample, h)(x)
        assert abs(got_q - want_q) <= 1e-12 * max(1.0, abs(want_q))
        tol = 1e-12 * np.maximum(1.0, np.abs(want_g))
        assert np.all(np.abs(got_g - want_g) <= tol)
        assert _Evaluator(sample, h)(x, need_grad=False) == (got_q, None)

    @staticmethod
    def point(factors):
        return pack((*factors.u1.factors, *factors.u2.factors,
                     factors.u1.weights, factors.u2.weights))

    @pytest.mark.parametrize("rank", [1, 5])
    def test_random_instances(self, rank):
        rng = np.random.default_rng(40 + rank)
        for dims in (DIMS, (7, 2, 3, 9)):  # I3 != I4 in both
            for _ in range(4):
                sample, factors, h = random_instance(rng, rank=rank, dims=dims)
                self.check(sample, self.point(factors), h)

    def test_zero_factor_column(self):
        # A zero column sits where the unit-norm penalty is not
        # differentiable; both forms take the 0 subgradient there.
        rng = np.random.default_rng(46)
        sample, factors, h = random_instance(rng, rank=3)
        x = self.point(factors)
        blocks = unpack(x, DIMS, 3)
        blocks[1][:, 2] = 0.0  # B's last column
        blocks[4][:, 0] = 0.0  # V's first column
        self.check(sample, x, h)
        g = _Evaluator(sample, h)(x)[1]
        assert np.all(np.isfinite(g))

    def test_zero_weights(self):
        rng = np.random.default_rng(47)
        sample, factors, h = random_instance(rng, rank=4, beta=0.5)
        x = self.point(factors)
        x[-8:] = 0.0  # zeta and sigma
        self.check(sample, x, h)


class TestLineSearch:
    def test_quadratic_minimizer(self):
        def fg(x):
            return float((x[0] - 1.0) ** 2), np.array([2.0 * (x[0] - 1.0)])

        x0 = np.zeros(1)
        f0, g0 = fg(x0)
        res = _wolfe_search(fg, x0, np.ones(1), f0, g0)
        assert res.wolfe_satisfied
        # Strong Wolfe with c2=0.1 around the exact minimizer phi*=1
        assert 0.8 <= res.step <= 1.2

    def test_descent_decreases_objective(self):
        rng = np.random.default_rng(8)
        sample, factors, h = random_instance(rng)
        x = pack((*factors.u1.factors, *factors.u2.factors,
                  factors.u1.weights, factors.u2.weights))
        g = acmtf_gradient(sample, factors, h)
        res = line_search(sample, x, -g, h)
        f0 = acmtf_objective(sample, factors, h)
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
        res = line_search(sample, x, -g, h)
        assert res.value <= f0

    def test_rejects_ascent_direction(self):
        rng = np.random.default_rng(10)
        sample, factors, h = random_instance(rng)
        x = pack((*factors.u1.factors, *factors.u2.factors,
                  factors.u1.weights, factors.u2.weights))
        g = acmtf_gradient(sample, factors, h)
        with pytest.raises(ValueError):
            line_search(sample, x, g, h)

    def test_result_type(self):
        assert LineSearchResult(1.0, 0.0, np.zeros(1), True).wolfe_satisfied

    def test_non_finite_trial_is_rejected(self):
        # (x - 1)^2 below x = 3 and NaN above it; the first trial step of 8
        # lands in the NaN region, so the search must back off from it.
        def fg(x):
            if x[0] > 3.0:
                return float("nan"), np.array([float("nan")])
            return float((x[0] - 1.0) ** 2), np.array([2.0 * (x[0] - 1.0)])

        x0 = np.zeros(1)
        f0, g0 = fg(x0)
        res = _wolfe_search(fg, x0, np.ones(1), f0, g0, init_step=8.0)
        assert np.isfinite(res.value) and np.all(np.isfinite(res.gradient))
        assert res.step <= 3.0
        assert res.value < f0

    def test_no_finite_trial_returns_zero_step(self):
        def fg(x):
            if x[0] > 0.0:
                return float("inf"), np.array([float("nan")])
            return float(-x[0]), np.array([-1.0])

        x0 = np.zeros(1)
        f0, g0 = fg(x0)
        res = _wolfe_search(fg, x0, np.ones(1), f0, g0)
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

    def test_normalize_flag_changes_only_conditioning(self):
        rng = np.random.default_rng(31)
        sample, _, _ = exact_fit_instance(rng)
        h = AcmtfHyperParams(beta=0.0, rank=1, cg_tol=1e-14, max_iters=2000)
        f_on = acmtf_decompose(sample, h, seed=4, normalize=True)
        f_off = acmtf_decompose(sample, h, seed=4, normalize=False)
        cos = abs(float(f_on.shared[:, 0] @ f_off.shared[:, 0]))
        cos /= np.linalg.norm(f_on.shared[:, 0]) * np.linalg.norm(f_off.shared[:, 0])
        assert cos > 0.999

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

    def test_non_finite_objective_raises(self):
        big = np.full((3, 3, 3), 1e200)
        sample = CoupledSample(big, np.ones((4, 3)), 0)
        h = AcmtfHyperParams(rank=1, max_iters=10)
        with np.errstate(over="ignore"), pytest.raises(Exception, match="iteration"):
            acmtf_decompose(sample, h, seed=0, normalize=False)


class TestSharedFactor:
    def test_average_of_equals(self):
        rng = np.random.default_rng(17)
        c = rng.standard_normal((5, 2))
        u1 = KruskalTensor(np.ones(2), (np.ones((4, 2)), np.ones((3, 2)), c))
        u2 = KruskalTensor(np.ones(2), (np.ones((6, 2)), c))
        f = AcmtfFactors.from_kruskals(u1, u2)
        np.testing.assert_array_equal(shared_factor(f), c)

    def test_cancellation(self):
        rng = np.random.default_rng(18)
        c = rng.standard_normal((5, 2))
        u1 = KruskalTensor(np.ones(2), (np.ones((4, 2)), np.ones((3, 2)), c))
        u2 = KruskalTensor(np.ones(2), (np.ones((6, 2)), -c))
        f = AcmtfFactors.from_kruskals(u1, u2)
        np.testing.assert_array_equal(shared_factor(f), np.zeros((5, 2)))

    def test_elementwise_mean(self):
        rng = np.random.default_rng(19)
        c = rng.standard_normal((5, 2))
        v = rng.standard_normal((5, 2))
        u1 = KruskalTensor(np.ones(2), (np.ones((4, 2)), np.ones((3, 2)), c))
        u2 = KruskalTensor(np.ones(2), (np.ones((6, 2)), v))
        f = AcmtfFactors.from_kruskals(u1, u2)
        np.testing.assert_allclose(shared_factor(f), (c + v) / 2, atol=1e-15)
