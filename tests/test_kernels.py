"""Kernel tests: vector kernels, CP kernel, coupled kernel, Gram assembly."""

import tracemalloc

import numpy as np
import pytest

from cstm.acmtf import AcmtfFactors
from cstm.kernels import (
    CoupledKernelSpec,
    KernelSpec,
    coupled_kernel,
    cp_kernel,
    default_coupled_spec,
    default_cp_specs,
    gram_cross,
    gram_matrix,
    kernel_matrix,
    median_bandwidth,
    vector_kernel,
)
from cstm.tensor_core import KruskalTensor

RNG = np.random.default_rng(0)


def random_coupled_factors(rng, rank=2, dims=(4, 3, 5, 6), unit=True):
    i1, i2, i3, i4 = dims
    u1 = KruskalTensor(
        rng.uniform(0.5, 2.0, rank),
        tuple(rng.standard_normal((d, rank)) for d in (i1, i2, i3)),
    )
    u2 = KruskalTensor(
        rng.uniform(0.5, 2.0, rank),
        tuple(rng.standard_normal((d, rank)) for d in (i4, i3)),
    )
    if unit:
        u1, u2 = u1.normalized(), u2.normalized()
    return AcmtfFactors.from_kruskals(u1, u2)


def brute_cp_kernel(a, b, specs):
    total = 0.0
    for k in range(a.rank):
        for l in range(b.rank):
            p = 1.0
            for j, spec in enumerate(specs):
                p *= vector_kernel(a.factors[j][:, k], b.factors[j][:, l], spec)
            total += p
    return total


def brute_coupled_kernel(fa, fb, spec):
    w1, w2, w3 = spec.weights
    total = 0.0
    for k in range(fa.rank):
        for l in range(fb.rank):
            total += w1 * vector_kernel(
                fa.u1.factors[0][:, k], fb.u1.factors[0][:, l], spec.k1_mode1
            ) * vector_kernel(
                fa.u1.factors[1][:, k], fb.u1.factors[1][:, l], spec.k1_mode2
            )
            total += w2 * vector_kernel(fa.shared[:, k], fb.shared[:, l], spec.k2)
            total += w3 * vector_kernel(
                fa.u2.factors[0][:, k], fb.u2.factors[0][:, l], spec.k3
            )
    return total


class TestVectorKernel:
    def test_rbf_zero_distance(self):
        x = RNG.standard_normal(5)
        for bw in (0.1, 1.0, 7.0):
            assert vector_kernel(x, x, KernelSpec("rbf", bw)) == 1.0

    def test_linear_orthogonal(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert vector_kernel(e1, e2, KernelSpec("linear")) == 0.0

    def test_rbf_unit_distance(self):
        val = vector_kernel(np.array([0.0]), np.array([1.0]), KernelSpec("rbf", 1.0))
        assert abs(val - np.exp(-0.5)) < 1e-15
        assert abs(val - 0.6065306597126334) < 1e-12

    def test_polynomial(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 0.5])
        spec = KernelSpec("polynomial", degree=3, offset=2.0)
        assert abs(vector_kernel(x, y, spec) - (x @ y + 2.0) ** 3) < 1e-12

    def test_symmetry(self):
        x, y = RNG.standard_normal(4), RNG.standard_normal(4)
        for spec in (KernelSpec("rbf", 0.7), KernelSpec("linear"),
                     KernelSpec("polynomial", degree=2, offset=1.0)):
            assert vector_kernel(x, y, spec) == vector_kernel(y, x, spec)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vector_kernel(np.zeros(3), np.zeros(4), KernelSpec("linear"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")

    def test_rbf_bandwidth_whose_square_underflows_rejected(self):
        # 2 * (1e-170)^2 is 0.0: every self-similarity would be 0/0 = NaN.
        with pytest.raises(ValueError, match="underflows"):
            KernelSpec("rbf", 1e-170)
        # (1e200)^2 is out of float range, which Python reports as OverflowError;
        # an infinite bandwidth would make every rbf value exp(-0) = 1.
        for big in (1e200, np.float64(1e200), 10**400, float("inf"), np.inf):
            with pytest.raises(ValueError, match="overflows"):
                KernelSpec("rbf", big)
        # The smallest bandwidths kept still give finite kernel values.
        spec = KernelSpec("rbf", 1e-150)
        x = np.array([[0.0, 1e-150]])
        assert np.isfinite(kernel_matrix(x, x, spec)).all()


class TestCpKernel:
    def test_identical_rank1_unit_linear(self):
        factors = tuple(
            np.ones((d, 1)) / np.sqrt(d) for d in (4, 3, 5)
        )
        k = KruskalTensor(np.ones(1), factors)
        specs = (KernelSpec("linear"),) * 3
        assert abs(cp_kernel(k, k, specs) - 1.0) < 1e-12

    def test_orthogonal_mode_zero(self):
        base = tuple(np.ones((d, 1)) / np.sqrt(d) for d in (4, 3, 5))
        a = KruskalTensor(np.ones(1), base)
        other = list(base)
        v = np.zeros((4, 1))
        v[0, 0], v[1, 0] = 1.0, -1.0
        other[0] = v / np.linalg.norm(v)
        # First column of a's mode 1 is constant, so this is orthogonal.
        b = KruskalTensor(np.ones(1), tuple(other))
        specs = (KernelSpec("linear"),) * 3
        assert abs(cp_kernel(a, b, specs)) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        specs = (KernelSpec("rbf", 0.8), KernelSpec("linear"),
                 KernelSpec("polynomial", degree=2, offset=0.5))
        for _ in range(20):
            a = KruskalTensor(
                np.ones(2), tuple(rng.standard_normal((d, 2)) for d in (4, 3, 5))
            )
            b = KruskalTensor(
                np.ones(2), tuple(rng.standard_normal((d, 2)) for d in (4, 3, 5))
            )
            got = cp_kernel(a, b, specs)
            want = brute_cp_kernel(a, b, specs)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_different_ranks_allowed(self):
        rng = np.random.default_rng(2)
        a = KruskalTensor(np.ones(2), tuple(rng.standard_normal((d, 2)) for d in (4, 3, 5)))
        b = KruskalTensor(np.ones(3), tuple(rng.standard_normal((d, 3)) for d in (4, 3, 5)))
        specs = (KernelSpec("rbf", 1.0),) * 3
        got = cp_kernel(a, b, specs)
        assert abs(got - brute_cp_kernel(a, b, specs)) < 1e-12

    def test_dimension_mismatch(self):
        a = KruskalTensor(np.ones(1), (np.ones((4, 1)), np.ones((3, 1)), np.ones((5, 1))))
        b = KruskalTensor(np.ones(1), (np.ones((4, 1)), np.ones((3, 1)), np.ones((6, 1))))
        with pytest.raises(ValueError):
            cp_kernel(a, b, (KernelSpec("linear"),) * 3)


class TestCoupledKernel:
    def test_identical_rank1_unit_linear_weights111(self):
        i1, i2, i3, i4 = 4, 3, 5, 6
        u1 = KruskalTensor(
            np.ones(1),
            (np.ones((i1, 1)) / 2, np.ones((i2, 1)) / np.sqrt(3), np.ones((i3, 1)) / np.sqrt(5)),
        )
        u2 = KruskalTensor(
            np.ones(1), (np.ones((i4, 1)) / np.sqrt(6), np.ones((i3, 1)) / np.sqrt(5))
        )
        f = AcmtfFactors.from_kruskals(u1, u2)
        spec = CoupledKernelSpec(
            KernelSpec("linear"), KernelSpec("linear"),
            KernelSpec("linear"), KernelSpec("linear"), (1.0, 1.0, 1.0),
        )
        assert abs(coupled_kernel(f, f, spec) - 3.0) < 1e-12

    def test_weight_masking_reduces_to_cp_kernel(self):
        rng = np.random.default_rng(3)
        fa = random_coupled_factors(rng)
        fb = random_coupled_factors(rng)
        k1 = KernelSpec("rbf", 0.9)
        k2 = KernelSpec("rbf", 1.1)
        spec = CoupledKernelSpec(k1, k2, KernelSpec("rbf"), KernelSpec("rbf"), (1.0, 0.0, 0.0))
        got = coupled_kernel(fa, fb, spec)
        two_mode_a = KruskalTensor(fa.u1.weights, fa.u1.factors[:2])
        two_mode_b = KruskalTensor(fb.u1.weights, fb.u1.factors[:2])
        want = cp_kernel(two_mode_a, two_mode_b, (k1, k2))
        assert abs(got - want) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        spec = CoupledKernelSpec(
            KernelSpec("rbf", 0.8), KernelSpec("rbf", 1.3),
            KernelSpec("rbf", 0.9), KernelSpec("linear"), (0.5, 0.3, 0.2),
        )
        for _ in range(20):
            fa = random_coupled_factors(rng)
            fb = random_coupled_factors(rng)
            got = coupled_kernel(fa, fb, spec)
            want = brute_coupled_kernel(fa, fb, spec)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        spec = default_coupled_spec([random_coupled_factors(rng) for _ in range(3)])
        fa = random_coupled_factors(rng)
        fb = random_coupled_factors(rng)
        assert abs(coupled_kernel(fa, fb, spec) - coupled_kernel(fb, fa, spec)) < 1e-12

    def test_weight_linearity(self):
        rng = np.random.default_rng(6)
        fa = random_coupled_factors(rng)
        fb = random_coupled_factors(rng)
        kernels = (KernelSpec("rbf", 0.7), KernelSpec("rbf", 1.2),
                   KernelSpec("rbf", 0.9), KernelSpec("rbf", 1.4))
        w = (0.6, 0.3, 0.1)
        combined = coupled_kernel(fa, fb, CoupledKernelSpec(*kernels, w))
        parts = [
            coupled_kernel(fa, fb, CoupledKernelSpec(*kernels, mask))
            for mask in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        ]
        want = w[0] * parts[0] + w[1] * parts[1] + w[2] * parts[2]
        assert abs(combined - want) < 1e-12

    def test_boundedness_for_rbf_unit_factors(self):
        # AS.3-style bound: every coupled value <= r^2 * (w1 + w2 + w3)
        rng = np.random.default_rng(7)
        spec = CoupledKernelSpec(
            KernelSpec("rbf", 0.8), KernelSpec("rbf", 1.0),
            KernelSpec("rbf", 1.2), KernelSpec("rbf", 0.9), (0.4, 0.4, 0.2),
        )
        r = 3
        for _ in range(20):
            fa = random_coupled_factors(rng, rank=r)
            fb = random_coupled_factors(rng, rank=r)
            val = coupled_kernel(fa, fb, spec)
            assert 0.0 <= val <= r * r * sum(spec.weights) + 1e-12

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            CoupledKernelSpec(weights=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            CoupledKernelSpec(weights=(-0.1, 0.5, 0.6))


class TestGram:
    def test_single_sample(self):
        rng = np.random.default_rng(8)
        f = random_coupled_factors(rng)
        spec = default_coupled_spec([f])
        g = gram_matrix([f], spec)
        assert g.shape == (1, 1)
        assert abs(g[0, 0] - coupled_kernel(f, f, spec)) < 1e-12

    def test_duplicated_sample_constant(self):
        rng = np.random.default_rng(9)
        f = random_coupled_factors(rng)
        spec = default_coupled_spec([f, f])
        g = gram_matrix([f, f], spec)
        assert np.ptp(g) < 1e-12

    def test_matches_pairwise_and_symmetric(self):
        rng = np.random.default_rng(10)
        fs = [random_coupled_factors(rng) for _ in range(5)]
        spec = default_coupled_spec(fs)
        g = gram_matrix(fs, spec)
        np.testing.assert_array_equal(g, g.T)
        for i in range(5):
            for j in range(5):
                assert abs(g[i, j] - coupled_kernel(fs[i], fs[j], spec)) < 1e-12

    def test_mixed_rank_path(self):
        rng = np.random.default_rng(11)
        fs = [random_coupled_factors(rng, rank=2), random_coupled_factors(rng, rank=3)]
        spec = CoupledKernelSpec(weights=(0.4, 0.3, 0.3))
        g = gram_matrix(fs, spec)
        for i in range(2):
            for j in range(2):
                assert abs(g[i, j] - coupled_kernel(fs[i], fs[j], spec)) < 1e-12

    def test_uniform_rank_matches_brute_kernel(self):
        rng = np.random.default_rng(18)
        fs = [random_coupled_factors(rng, rank=3) for _ in range(4)]
        spec = default_coupled_spec(fs)
        g = gram_matrix(fs, spec)
        cross = gram_cross(fs[:3], fs[1:], spec)
        for i in range(4):
            for j in range(4):
                want = brute_coupled_kernel(fs[i], fs[j], spec)
                assert abs(g[i, j] - want) < 1e-12 * max(1.0, abs(want))
        np.testing.assert_allclose(cross, g[:3, 1:], rtol=0, atol=1e-12)

    def test_mixed_rank_costs_no_more_memory_than_uniform_rank(self):
        # Case-3 dims, 320 stacked components on both sides: a mix of ranks
        # must not pay for a zero-padded (samples x max rank)^2 copy.
        rng = np.random.default_rng(19)
        dims = (30, 20, 10, 50)
        mixed = [random_coupled_factors(rng, 3 + 2 * (i % 2), dims) for i in range(80)]
        uniform = [random_coupled_factors(rng, 5, dims) for _ in range(64)]
        spec = default_coupled_spec(mixed)

        def peak(fs):
            tracemalloc.start()
            try:
                gram_matrix(fs, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(mixed) <= 1.10 * peak(uniform)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(12)
        fs = [random_coupled_factors(rng) for _ in range(8)]
        spec = default_coupled_spec(fs)
        g = gram_matrix(fs, spec)
        ev = np.linalg.eigvalsh(g)
        assert ev.min() >= -1e-8 * ev.max()

    def test_gram_cross_consistency(self):
        rng = np.random.default_rng(13)
        fs = [random_coupled_factors(rng) for _ in range(4)]
        spec = default_coupled_spec(fs)
        full = gram_matrix(fs, spec)
        cross = gram_cross(fs[:2], fs[2:], spec)
        np.testing.assert_allclose(cross, full[:2, 2:], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix([], CoupledKernelSpec())

    def test_dim_mismatch_names_offender(self):
        rng = np.random.default_rng(16)
        fs = [
            random_coupled_factors(rng),
            random_coupled_factors(rng, dims=(4, 3, 5, 7)),
        ]
        with pytest.raises(ValueError, match=r"a\[1\]"):
            gram_matrix(fs, CoupledKernelSpec())

    def test_psd_with_linear_and_polynomial(self):
        rng = np.random.default_rng(17)
        fs = [random_coupled_factors(rng) for _ in range(6)]
        for kind in (KernelSpec("linear"), KernelSpec("polynomial", degree=2, offset=1.0)):
            spec = CoupledKernelSpec(kind, kind, kind, kind, (0.4, 0.3, 0.3))
            g = gram_matrix(fs, spec)
            ev = np.linalg.eigvalsh(g)
            assert ev.min() >= -1e-8 * max(ev.max(), 1.0)


class TestDefaults:
    def test_median_bandwidth_positive(self):
        rng = np.random.default_rng(14)
        cols = rng.standard_normal((6, 20))
        bw = median_bandwidth(cols)
        dists = []
        for i in range(20):
            for j in range(i + 1, 20):
                dists.append(np.linalg.norm(cols[:, i] - cols[:, j]))
        assert abs(bw - np.median(dists)) < 1e-12

    def test_median_bandwidth_degenerate(self):
        assert median_bandwidth(np.ones((3, 4))) == 1.0

    def test_median_bandwidth_repeated_random_columns(self):
        # A column's distance to its copy comes out of the distance product
        # as rounding, not 0; it must still count as 0.
        col = np.random.default_rng(7).standard_normal((30, 1))
        assert median_bandwidth(np.repeat(col, 4, axis=1)) == 1.0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            col = rng.standard_normal((rng.integers(1, 40), 1)) * 10.0 ** rng.uniform(-3, 3)
            assert median_bandwidth(np.repeat(col, rng.integers(2, 30), axis=1)) == 1.0

    def test_tiny_bandwidths_give_identity_on_unit_columns(self):
        # Coordinate unit columns: a squared distance of 2 divided by 2 bw^2
        # is far beyond 745 (below bw = 7.5e-155 the division overflows to
        # inf, which exp takes to the exact 0), and a column's distance to
        # itself cancels exactly.
        eye = np.eye(5)
        with np.errstate(over="ignore"):
            for bw in (1e-150, 1e-155, 1e-160):
                assert np.array_equal(kernel_matrix(eye, eye, KernelSpec("rbf", bw)), eye)

    def test_default_specs_are_rbf(self):
        rng = np.random.default_rng(15)
        fs = [random_coupled_factors(rng) for _ in range(3)]
        spec = default_coupled_spec(fs)
        for k in (spec.k1_mode1, spec.k1_mode2, spec.k2, spec.k3):
            assert k.kind == "rbf"
            assert k.bandwidth > 0
        ts = [f.u1 for f in fs]
        for k in default_cp_specs(ts):
            assert k.kind == "rbf" and k.bandwidth > 0
