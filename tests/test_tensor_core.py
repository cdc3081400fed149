"""Tensor algebra tests: unfoldings, Khatri-Rao, Kruskal reconstruction, CP-ALS."""

import numpy as np
import pytest

import cstm
from cstm.acmtf import NumericalError
from cstm.experiments import gen_case
from cstm.tensor_core import (
    KruskalTensor,
    _khatri_rao,
    _normalize_columns,
    _unfold,
    cp_als,
    cp_als_many,
    unfold,
)


def brute_unfold(t, mode):
    """Fiber-by-fiber unfolding straight from the definition."""
    dims = t.shape
    other = [m for m in range(3) if m != mode - 1]
    out = np.zeros((dims[mode - 1], dims[other[0]] * dims[other[1]]))
    col = 0
    # Lower-numbered remaining modes vary fastest.
    for c in range(dims[other[1]]):
        for b in range(dims[other[0]]):
            idx = [0, 0, 0]
            idx[other[0]], idx[other[1]] = b, c
            for a in range(dims[mode - 1]):
                idx[mode - 1] = a
                out[a, col] = t[tuple(idx)]
            col += 1
    return out


def fold(matrix, mode, dims):
    """Inverse of ``_unfold`` (0-based mode): rebuild a tensor of shape ``dims``."""
    rest = tuple(d for i, d in enumerate(dims) if i != mode)
    return np.moveaxis(matrix.reshape((dims[mode],) + rest, order="F"), 0, mode)


class TestUnfold:
    def test_counting_tensor_mode1(self):
        # x_{ijk} = i + 2(j-1) + 4(k-1), 1-based indices
        t = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    t[i, j, k] = (i + 1) + 2 * j + 4 * k
        expected = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        np.testing.assert_array_equal(unfold(t, 1), expected)
        np.testing.assert_array_equal(brute_unfold(t, 1), expected)

    def test_degenerate_dims(self):
        t = np.arange(5.0).reshape(5, 1, 1)
        np.testing.assert_array_equal(unfold(t, 1), t.reshape(5, 1))

    def test_zero_tensor(self):
        t = np.zeros((3, 4, 2))
        for mode, shape in ((1, (3, 8)), (2, (4, 6)), (3, (2, 12))):
            m = unfold(t, mode)
            assert m.shape == shape
            assert not m.any()

    def test_matches_brute_force_all_modes(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 3, 5))
        for mode in (1, 2, 3):
            np.testing.assert_array_equal(unfold(t, mode), brute_unfold(t, mode))

    def test_fold_inverts_unfold(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            dims = tuple(rng.integers(2, 6, size=3))
            t = rng.standard_normal(dims)
            for mode in (0, 1, 2):
                np.testing.assert_array_equal(fold(_unfold(t, mode), mode, dims), t)

    def test_invalid_mode(self):
        t = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            unfold(t, 0)
        with pytest.raises(ValueError):
            unfold(t, 4)

    def test_non_finite_rejected(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            unfold(t, 1)


class TestKhatriRao:
    def test_unit_vector_columns(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[1.0], [1.0]])
        np.testing.assert_array_equal(
            _khatri_rao(a, b), np.array([[1.0], [1.0], [0.0], [0.0]])
        )

    def test_identity_columns(self):
        eye = np.eye(2)
        out = _khatri_rao(eye, eye)
        expected = np.zeros((4, 2))
        expected[:, 0] = np.kron(eye[:, 0], eye[:, 0])
        expected[:, 1] = np.kron(eye[:, 1], eye[:, 1])
        np.testing.assert_array_equal(out, expected)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((4, 2))
        out = _khatri_rao(a, b)
        for k in range(2):
            for p in range(3):
                for q in range(4):
                    assert out[p * 4 + q, k] == a[p, k] * b[q, k]


class TestKruskal:
    def test_rank1_all_ones(self):
        k = KruskalTensor(np.ones(1), (np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1))))
        np.testing.assert_array_equal(k.full(), np.ones((2, 2, 2)))

    def test_zero_weights(self):
        rng = np.random.default_rng(3)
        k = KruskalTensor(
            np.zeros(2),
            tuple(rng.standard_normal((d, 2)) for d in (3, 4, 2)),
        )
        assert not k.full().any()

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(3)
        a, b, c = (rng.standard_normal((d, 3)) for d in (4, 2, 5))
        k = KruskalTensor(w, (a, b, c))
        full = k.full()
        oracle = np.zeros((4, 2, 5))
        for i in range(4):
            for j in range(2):
                for l in range(5):
                    oracle[i, j, l] = sum(
                        w[m] * a[i, m] * b[j, m] * c[l, m] for m in range(3)
                    )
        np.testing.assert_allclose(full, oracle, atol=1e-12)

    def test_inner_product_gram_identity(self):
        # <full, full> equals sum_{m,n} w_m w_n prod_j (F_j^T F_j)[m, n]
        rng = np.random.default_rng(5)
        w = rng.standard_normal(3)
        factors = tuple(rng.standard_normal((d, 3)) for d in (4, 3, 5))
        k = KruskalTensor(w, factors)
        full = k.full()
        lhs = float(np.sum(full * full))
        gram = np.ones((3, 3))
        for f in factors:
            gram *= f.T @ f
        rhs = float(w @ gram @ w)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_factor_shape_validation(self):
        with pytest.raises(ValueError):
            KruskalTensor(np.ones(2), (np.zeros((3, 2)), np.zeros((3, 1))))

    def test_normalized_preserves_tensor(self):
        rng = np.random.default_rng(6)
        k = KruskalTensor(
            rng.standard_normal(3),
            tuple(rng.standard_normal((d, 3)) for d in (4, 3, 5)),
        )
        kn = k.normalized()
        np.testing.assert_allclose(kn.full(), k.full(), atol=1e-12)
        for f in kn.factors:
            np.testing.assert_allclose(
                np.linalg.norm(f, axis=0), np.ones(3), atol=1e-10
            )
            assert np.all(f.sum(axis=0) >= 0)


class TestNormalizeColumns:
    def test_three_four_five(self):
        unit, w = _normalize_columns(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(unit, np.array([[0.6], [0.8]]))
        np.testing.assert_allclose(w, [5.0])

    def test_unit_column_unchanged(self):
        m = np.array([[1.0], [0.0]])
        unit, w = _normalize_columns(m)
        np.testing.assert_array_equal(unit, m)
        np.testing.assert_allclose(w, [1.0])

    def test_zero_column(self):
        unit, w = _normalize_columns(np.zeros((3, 1)))
        np.testing.assert_array_equal(unit, np.zeros((3, 1)))
        np.testing.assert_array_equal(w, [0.0])

    def test_rejects_non_matrix(self):
        # KruskalTensor.normalized takes its factors from the constructor,
        # which admits only matrices.
        for shape in ((3,), (2, 3, 4)):
            with pytest.raises(ValueError, match="factor shape"):
                KruskalTensor(np.ones(3), (np.ones(shape),))

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 4))
        unit, w = _normalize_columns(m)
        np.testing.assert_allclose(unit * w, m, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=0), np.ones(4), atol=1e-10)


class TestCpAls:
    def test_exact_rank1(self):
        rng = np.random.default_rng(8)
        a, b, c = (rng.standard_normal(d) for d in (6, 5, 4))
        a, b, c = (v / np.linalg.norm(v) for v in (a, b, c))
        t = 3.0 * np.einsum("i,j,k->ijk", a, b, c)
        k = cp_als(t, 1, tol=1e-12, max_iter=100, seed=1)
        err = np.linalg.norm(k.full() - t) / np.linalg.norm(t)
        assert err < 1e-8

    def test_zero_tensor(self):
        k = cp_als(np.zeros((3, 4, 2)), 2, seed=0)
        np.testing.assert_array_equal(k.weights, np.zeros(2))

    def test_exact_rank3_synthetic(self):
        # Same construction as the benchmark generator: rank-3 sum of
        # outer products of unit-covariance normal draws around mean 1.
        rng = np.random.default_rng(9)
        f1 = rng.standard_normal((30, 3)) + 1.0
        f2 = rng.standard_normal((20, 3)) + 1.0
        f3 = rng.standard_normal((10, 3)) + 1.0
        t = np.einsum("ir,jr,kr->ijk", f1, f2, f3)
        k = cp_als(t, 3, tol=1e-14, max_iter=500, seed=2)
        err = np.linalg.norm(k.full() - t) / np.linalg.norm(t)
        assert err < 1e-6

    def test_error_history_is_the_reconstruction_error(self):
        # The history comes from the last mode's unfolding, not a dense
        # reconstruction; check it against one, near and away from an
        # exact fit.
        rng = np.random.default_rng(7)
        cols = [rng.standard_normal((d, 3)) for d in (6, 5, 4)]
        exact = np.einsum("ir,jr,kr->ijk", *cols)
        for t in (exact, exact + 0.1 * rng.standard_normal(exact.shape)):
            norm = np.linalg.norm(t)
            for sweeps in (1, 2, 5, 20):
                k = cp_als(t, 3, max_iter=sweeps, seed=1)
                dense = np.linalg.norm(t - k.full())
                assert abs(k.objective_history[-1] * norm - dense) <= 1e-12 * norm

    def test_error_history_non_increasing(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((5, 6, 4))
        history = cp_als(t, 3, tol=1e-12, max_iter=60, seed=3).objective_history
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-12)

    def test_reproducible_for_fixed_seed(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((4, 5, 3))
        k1 = cp_als(t, 2, seed=42)
        k2 = cp_als(t, 2, seed=42)
        np.testing.assert_array_equal(k1.weights, k2.weights)
        for f1, f2 in zip(k1.factors, k2.factors):
            np.testing.assert_array_equal(f1, f2)

    def test_invalid_args(self):
        t = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            cp_als(t, 0)
        with pytest.raises(ValueError):
            cp_als(t, 1, tol=0.0)

    # cp_als and cp_als_many share one entry check; each bad argument is
    # tried through both.
    @pytest.mark.parametrize("kwargs, match", [
        (dict(max_iter=0), "max_iter"),
        (dict(max_iter=-3), "max_iter"),
        (dict(tol=float("nan")), "tol"),
        (dict(tol=-1e-3), "tol"),
    ])
    def test_rejects_bad_settings(self, kwargs, match):
        t = np.ones((2, 3, 2))
        with pytest.raises(ValueError, match=match):
            cp_als(t, 2, **kwargs)
        with pytest.raises(ValueError, match=match):
            cp_als_many([t], 2, [0], **kwargs)

    @pytest.mark.parametrize("shape, match", [
        ((4,), "order"),
        ((), "order"),
        ((3, 0, 2), "empty mode"),
        ((0, 4), "empty mode"),
    ])
    def test_rejects_bad_tensors(self, shape, match):
        t = np.ones(shape)
        with pytest.raises(ValueError, match=match):
            cp_als(t, 1)
        with pytest.raises(ValueError, match=match):
            cp_als_many([t, t], 1, [0, 1])

    def test_rejects_non_finite_tensor(self):
        t = np.ones((2, 3, 2))
        t[1, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            cp_als(t, 1)
        with pytest.raises(ValueError, match="non-finite"):
            cp_als_many([np.ones((2, 3, 2)), t], 1, [0, 1])

    def test_sum_of_squares_overflow_raises(self):
        # At entries up to 1e160 a case-3 tensor's norm is finite but its sum
        # of squares is not; at 1e150 it fits.
        t = gen_case(3, 1, 0)[0].tensor
        t = t / np.abs(t).max()
        assert np.isfinite(cp_als(t * 1e150, 3, max_iter=100).weights).all()
        with pytest.raises(NumericalError, match="sample 0: sum of squares overflows"):
            cp_als(t * 1e160, 3)
        with pytest.raises(NumericalError, match="sample 1: sum of squares overflows") as err:
            cp_als_many([t, t * 1e160, t], 3, [0, 1, 2])
        assert (err.value.sample, err.value.iteration) == (1, None)
        assert cstm.NumericalError is NumericalError

    def test_a_large_sweep_cap_allocates_nothing_for_it(self):
        # The error histories grow with the sweeps taken, so a cap of 10**12
        # runs as a cap the tensors never reach, past several doublings.
        ts = [np.random.default_rng(k).standard_normal((5, 6, 4)) for k in range(3)]
        big, small = (cp_als_many(ts, 3, [1, 2, 3], tol=1e-8, max_iter=cap)
                      for cap in (10**12, 5000))
        assert max(k.stats.iterations for k in small) > 1000
        for a, b in zip(big, small):
            assert a.stats == b.stats and a.stats.stop == "tol"
            assert a.objective_history == b.objective_history
            assert a.weights.tobytes() == b.weights.tobytes()
            for fa, fb in zip(a.factors, b.factors):
                assert fa.tobytes() == fb.tobytes()

    def test_batch_arguments(self):
        a, b = np.ones((2, 3, 2)), np.ones((2, 3, 3))
        with pytest.raises(ValueError, match="one shape"):
            cp_als_many([a, b], 1, [0, 1])
        with pytest.raises(ValueError, match="seeds"):
            cp_als_many([a, a], 1, [0])
        with pytest.raises(ValueError, match="seeds"):
            cp_als_many([], 1, [0])
        assert cp_als_many([], 1, []) == []
