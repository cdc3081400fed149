"""Property tests: the Gram engine against a pairwise reference, vector
kernels and the median bandwidth against reference formulas bit for bit,
squared distances against the direct sum within their rounding bound, the SMO
solver against a reference copy of its plain masked-index loop, batched SMO
against single solves (rows retired in array rounds and the last few that
finish alone), the KKT conditions of every converged SMO solution,
batched ACMTF decomposition against single-sample runs, degenerate ACMTF
samples, batched CP-ALS (factors, error history and stop) against single
runs and a reference copy of the one-tensor loop, and container readers on
corrupted files."""

import os
import tempfile
import warnings
from functools import reduce
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cstm import container, stm  # noqa: E402
from cstm.acmtf import (  # noqa: E402
    AcmtfFactors,
    AcmtfHyperParams,
    CoupledSample,
    acmtf_decompose,
    acmtf_decompose_many,
)
from cstm.container import FormatError  # noqa: E402
from cstm.kernels import (  # noqa: E402
    CoupledKernelSpec,
    KernelSpec,
    _neg_sq_dists,
    coupled_kernel,
    cp_gram,
    cp_gram_cross,
    cp_kernel,
    gram_cross,
    gram_matrix,
    kernel_matrix,
    median_bandwidth,
)
from cstm.stm import QpProblem, StmModel, solve_qp, solve_qp_many  # noqa: E402
from cstm.tensor_core import (  # noqa: E402
    ALS_RIDGE,
    KruskalTensor,
    SolveStats,
    cp_als,
    cp_als_many,
)

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
EPS = np.finfo(np.float64).eps
DIMS = (4, 3, 5, 6)


# ---------------------------------------------------------------------------
# Pairwise reference: one kernel_matrix per sample pair and mode
# ---------------------------------------------------------------------------

def ref_cp_kernel(a, b, specs):
    prod = np.ones((a.rank, b.rank))
    for fa, fb, spec in zip(a.factors, b.factors, specs):
        prod *= kernel_matrix(fa, fb, spec)
    return float(prod.sum())


def ref_coupled_kernel(fa, fb, spec):
    w1, w2, w3 = spec.weights
    m1 = kernel_matrix(fa.u1.factors[0], fb.u1.factors[0], spec.k1_mode1)
    m2 = kernel_matrix(fa.u1.factors[1], fb.u1.factors[1], spec.k1_mode2)
    ms = kernel_matrix(fa.shared, fb.shared, spec.k2)
    mu = kernel_matrix(fa.u2.factors[0], fb.u2.factors[0], spec.k3)
    return (w1 * float((m1 * m2).sum()) + w2 * float(ms.sum())
            + w3 * float(mu.sum()))


def ref_gram(a, b, kernel):
    return np.array([[kernel(x, z) for z in b] for x in a])


def close(got, ref):
    return np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def assert_symmetric_psd(g):
    assert np.array_equal(g, g.T)
    scale = float(np.max(np.abs(g)))
    assert np.linalg.eigvalsh(g)[0] >= -1e-9 * g.shape[0] * scale


def unit_columns(rng, rows, rank):
    m = rng.standard_normal((rows, rank))
    return m / np.linalg.norm(m, axis=0)


def coupled_factors(rng, rank):
    i1, i2, i3, i4 = DIMS
    u1 = KruskalTensor(np.ones(rank), tuple(unit_columns(rng, d, rank) for d in (i1, i2, i3)))
    u2 = KruskalTensor(np.ones(rank), (unit_columns(rng, i4, rank), unit_columns(rng, i3, rank)))
    return AcmtfFactors.from_kruskals(u1, u2)


kernel_specs = st.one_of(
    st.builds(KernelSpec, st.just("rbf"), st.floats(0.3, 3.0)),
    st.just(KernelSpec("linear")),
    st.builds(
        lambda d, o: KernelSpec("polynomial", degree=d, offset=o),
        st.integers(1, 3), st.floats(0.0, 1.0),
    ),
)
weights = st.tuples(*[st.sampled_from((0.0, 0.25, 1.0))] * 3).filter(any)
rank_lists = st.lists(st.integers(1, 5), min_size=1, max_size=6)


@st.composite
def factor_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = [coupled_factors(rng, r) for r in draw(rank_lists)]
    b = [coupled_factors(rng, r) for r in draw(rank_lists)]
    return a, b


class TestGramEngine:
    @PROPS
    @given(factor_sets(), st.tuples(*[kernel_specs] * 4), weights)
    def test_coupled_matches_pairwise(self, sets, ks, w):
        a, b = sets
        spec = CoupledKernelSpec(*ks, w)
        kern = lambda x, z: ref_coupled_kernel(x, z, spec)  # noqa: E731
        assert close(gram_cross(a, b, spec), ref_gram(a, b, kern))
        g = gram_matrix(a, spec)
        assert close(g, ref_gram(a, a, kern))
        assert_symmetric_psd(g)
        assert gram_cross(a, a, spec).tobytes() == g.tobytes()
        assert close(coupled_kernel(a[0], b[0], spec), kern(a[0], b[0]))

    @PROPS
    @given(factor_sets(), st.tuples(*[kernel_specs] * 3))
    def test_cp_matches_pairwise(self, sets, specs):
        for part, s in ((lambda f: f.u1, specs), (lambda f: f.u2, specs[:2])):
            a = [part(f) for f in sets[0]]
            b = [part(f) for f in sets[1]]
            kern = lambda x, z: ref_cp_kernel(x, z, s)  # noqa: E731
            assert close(cp_gram_cross(a, b, s), ref_gram(a, b, kern))
            g = cp_gram(a, s)
            assert close(g, ref_gram(a, a, kern))
            assert_symmetric_psd(g)
            assert cp_gram_cross(a, a, s).tobytes() == g.tobytes()
            assert close(cp_kernel(a[0], b[0], s), kern(a[0], b[0]))


def test_rank_zero_sample_scores_zero():
    rng = np.random.default_rng(0)
    fs = [coupled_factors(rng, 2), coupled_factors(rng, 0), coupled_factors(rng, 3),
          coupled_factors(rng, 0)]
    spec = CoupledKernelSpec(weights=(0.4, 0.3, 0.3))
    kern = lambda x, z: ref_coupled_kernel(x, z, spec)  # noqa: E731
    g = gram_matrix(fs, spec)
    assert close(g, ref_gram(fs, fs, kern))
    assert not g[[1, 3]].any() and not g[:, [1, 3]].any()
    assert gram_cross(fs[1:2], fs[3:], spec).tolist() == [[0.0]]


@pytest.mark.parametrize("ranks_a, ranks_b", [
    pytest.param([0, 2, 3], [0, 0, 1, 4], id="leading"),
    pytest.param([2, 0, 0, 3], [1, 3, 0, 0, 0, 2], id="consecutive"),
    pytest.param([3, 1, 0], [2, 0, 0], id="trailing"),
    pytest.param([2, 0, 3], [0, 0], id="b-all-zero"),
    pytest.param([0, 0, 0], [0, 1], id="a-all-zero"),
])
def test_rank_zero_patterns_match_pairwise(ranks_a, ranks_b):
    rng = np.random.default_rng(0)
    a = [coupled_factors(rng, r) for r in ranks_a]
    b = [coupled_factors(rng, r) for r in ranks_b]
    za, zb = np.equal(ranks_a, 0), np.equal(ranks_b, 0)
    spec = CoupledKernelSpec(
        KernelSpec("rbf", 0.8), KernelSpec("polynomial", degree=2, offset=0.5),
        KernelSpec("linear"), KernelSpec("rbf", 1.5), weights=(0.4, 0.3, 0.3))

    def check(got, ref, zero_rows, zero_cols):
        assert close(got, ref)
        assert not got[zero_rows].any() and not got[:, zero_cols].any()

    kern = lambda x, z: ref_coupled_kernel(x, z, spec)  # noqa: E731
    check(gram_cross(a, b, spec), ref_gram(a, b, kern), za, zb)
    for s, z in ((a, za), (b, zb)):
        check(gram_matrix(s, spec), ref_gram(s, s, kern), z, z)
    specs = (spec.k1_mode1, spec.k1_mode2, spec.k3)
    for part, sp in ((lambda f: f.u1, specs), (lambda f: f.u2, specs[:2])):
        ta, tb = [part(f) for f in a], [part(f) for f in b]
        kern = lambda x, z: ref_cp_kernel(x, z, sp)  # noqa: E731
        check(cp_gram_cross(ta, tb, sp), ref_gram(ta, tb, kern), za, zb)
        for s, z in ((ta, za), (tb, zb)):
            check(cp_gram(s, sp), ref_gram(s, s, kern), z, z)


rbf_specs = st.builds(KernelSpec, st.just("rbf"), st.floats(0.3, 3.0))


def scaled_factors(f, scales):
    """f with the columns of its tensor modes 1, 2, shared mode and matrix
    mode multiplied by the four scales."""
    (a, b, c), (u, c2) = f.u1.factors, f.u2.factors
    s1, s2, s3, s4 = scales
    return AcmtfFactors.from_kruskals(
        KruskalTensor(f.u1.weights, (a * s1, b * s2, c * s3)),
        KruskalTensor(f.u2.weights, (u * s4, c2 * s3)))


def exponent_size(columns, specs):
    """Largest sum over modes of |x|^2 / (2 bw^2) of any stacked column."""
    return float(np.max(sum(np.sum(x * x, axis=0) / (2.0 * s.bandwidth**2)
                            for x, s in zip(columns, specs))))


def close_to_conditioning(got, ref, rows, size):
    """``got`` is within the rounding that an rbf exponent's conditioning allows.

    An exponent -sum |a - b|^2 / (2 bw^2) is formed from terms that cancel,
    of size up to S = sum (|a|^2 + |b|^2) / (2 bw^2) over the role's modes;
    ``size`` bounds S by half.  A dot product of n terms errs by at most
    about n eps times the sum of their magnitudes.  The engine's exponent
    is one dot product of n = ``rows`` + 2 per mode terms, which sum to at
    most 2 S in magnitude, so it errs by 2 n eps S; the reference's
    per-mode distances err by up to 2 (``rows`` + 2) eps S; each side's
    scale factor, sqrt(2) bw or 2 bw^2, moves the exponent by a few
    eps times |exponent| <= 2 S more.  With at most three modes a role,
    k = 4 (``rows`` + 8) covers it all, so a kernel value may differ by
    k eps S relative.  A Gram entry sums nonnegative values, so it inherits
    that bound, plus 64 eps for the exps, products and sums, plus 1e-300
    for values that underflow into subnormals, whose relative precision is
    lost.  Unit columns at these bandwidths keep this below 1e-12; columns
    of norm 10^2 at bandwidth 0.3 take it to about 6e-9.
    """
    k = 4 * (rows + 8)
    tol = EPS * (k * 2.0 * size + 64.0) * np.abs(ref) + 1e-300
    return np.all(np.abs(got - ref) <= tol)


class TestGramEngineScaled:
    """The engine against the pairwise reference on columns of norm 10^-2
    to 10^2, a different scale per mode, so that the exponents of a role's
    modes differ in size."""

    scales = st.tuples(*[st.floats(-2.0, 2.0).map(lambda e: 10.0**e)] * 4)

    @PROPS
    @given(factor_sets(), scales, st.tuples(*[rbf_specs] * 4), weights)
    def test_coupled_matches_pairwise(self, sets, scales, ks, w):
        a, b = ([scaled_factors(f, scales) for f in fs] for fs in sets)
        spec = CoupledKernelSpec(*ks, w)
        kern = lambda x, z: ref_coupled_kernel(x, z, spec)  # noqa: E731
        cols = [np.concatenate(m, axis=1) for m in zip(*(
            (f.u1.factors[0], f.u1.factors[1], f.shared, f.u2.factors[0]) for f in a + b))]
        size = max(exponent_size(cols[:2], ks[:2]), exponent_size(cols[2:3], ks[2:3]),
                   exponent_size(cols[3:], ks[3:]))
        rows = DIMS[0] + DIMS[1]
        assert close_to_conditioning(gram_cross(a, b, spec), ref_gram(a, b, kern), rows, size)
        assert close_to_conditioning(gram_matrix(a, spec), ref_gram(a, a, kern), rows, size)

    @PROPS
    @given(factor_sets(), scales, st.tuples(*[rbf_specs] * 3))
    def test_cp_matches_pairwise(self, sets, scales, specs):
        sets = [[scaled_factors(f, scales) for f in fs] for fs in sets]
        for part, s in ((lambda f: f.u1, specs), (lambda f: f.u2, specs[:2])):
            a, b = ([part(f) for f in fs] for fs in sets)
            kern = lambda x, z: ref_cp_kernel(x, z, s)  # noqa: E731
            cols = [np.concatenate(m, axis=1) for m in zip(*(t.factors for t in a + b))]
            size, rows = exponent_size(cols, s), sum(a[0].shape)
            assert close_to_conditioning(cp_gram_cross(a, b, s), ref_gram(a, b, kern), rows, size)
            assert close_to_conditioning(cp_gram(a, s), ref_gram(a, a, kern), rows, size)


@pytest.mark.parametrize("bw", [1e-150, 1e-155, 1e-160])
def test_tiny_bandwidths_stay_finite(bw):
    # Below bw = 5e-155, 1 / (2 bw^2) overflows float64, so the engine must
    # not form it.  Each column has one entry, near 1e-150, and zeros, so a
    # column's distance to itself cancels exactly on both sides; at 1e-150
    # the other kernel values lie strictly between 0 and 1.
    values = 1e-150 * np.array([1.0, 1.3, 0.8, 1.1])

    def factors(cols):
        one = lambda d: np.eye(d)[:, np.arange(cols.size) % d] * cols  # noqa: E731
        return AcmtfFactors.from_kruskals(
            KruskalTensor(np.ones(cols.size), tuple(one(d) for d in DIMS[:3])),
            KruskalTensor(np.ones(cols.size), (one(DIMS[3]), one(DIMS[2]))))

    fs = [factors(values[:2]), factors(values[1:]), factors(values[::-1][:3])]
    k = KernelSpec("rbf", bw)
    spec = CoupledKernelSpec(k, k, k, k)
    kern = lambda x, z: ref_coupled_kernel(x, z, spec)  # noqa: E731
    cp_kern = lambda x, z: ref_cp_kernel(x, z, (k,) * 3)  # noqa: E731
    ts = [f.u1 for f in fs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [(gram_matrix(fs, spec), ref_gram(fs, fs, kern)),
               (gram_cross(fs, fs[1:], spec), ref_gram(fs, fs[1:], kern)),
               (cp_gram(ts, (k,) * 3), ref_gram(ts, ts, cp_kern))]
    for g, ref in got:
        assert np.isfinite(g).all() and close(g, ref)
    if bw == 1e-150:
        assert ((got[0][0] > 0) & (got[0][0] % 1 != 0)).any()


@pytest.mark.parametrize("bw", [1e-154, 1e-155, 1e-160])
def test_bandwidth_too_small_for_columns_rejected(bw):
    # Unit columns divided by sqrt(2) bw have squared norms beyond the float
    # range: the engine names the bandwidth before forming them (RuntimeWarnings
    # are errors here), also when the other modes' bandwidths are fine.
    rng = np.random.default_rng(3)
    fs = [coupled_factors(rng, r) for r in (1, 3)]
    k, ok = KernelSpec("rbf", bw), KernelSpec("rbf", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: gram_matrix(fs, CoupledKernelSpec(ok, k, ok, ok)),
                     lambda: gram_cross(fs, fs[:1], CoupledKernelSpec(ok, ok, ok, k)),
                     lambda: cp_gram([f.u1 for f in fs], (ok, ok, k))):
            with pytest.raises(ValueError, match=f"rbf bandwidth {bw!r} is too small"):
                call()


def test_spec_count_must_match_order():
    rng = np.random.default_rng(1)
    t = coupled_factors(rng, 2).u1
    with pytest.raises(ValueError, match="kernel specs"):
        cp_gram([t, t], (KernelSpec("linear"),) * 2)


# ---------------------------------------------------------------------------
# Vector kernels and the median heuristic: reference formulas, bit for bit
# ---------------------------------------------------------------------------

def ref_sq_dists(a, b):
    """|a_i|^2 + |b_j|^2 - 2 a_i.b_j as one product of the columns augmented
    with their squared norms and a row of ones, clamped at 0; a column's
    distance to itself is 0 when ``a`` and ``b`` are one array."""
    na, nb = np.sum(a * a, axis=0), np.sum(b * b, axis=0)
    left = np.vstack([a, na, np.ones(a.shape[1])])
    right = np.vstack([2.0 * b, -np.ones(b.shape[1]), -nb])
    sq = np.maximum(-(left.T @ right), 0.0)
    if a is b:
        np.fill_diagonal(sq, 0.0)
    return sq


def ref_kernel_matrix(a, b, spec):
    if spec.kind == "rbf":
        return np.exp(-ref_sq_dists(a, b) / (2.0 * spec.bandwidth**2))
    inner = a.T @ b
    if spec.kind == "linear":
        return inner
    return (inner + spec.offset) ** spec.degree


def ref_median_bandwidth(c):
    sq = ref_sq_dists(c, c)[np.triu_indices(c.shape[1], k=1)]
    top = np.max(np.sum(c * c, axis=0), initial=0.0)
    d = np.sqrt(sq[sq > 8.0 * (c.shape[0] + 2) * EPS * top])
    return float(np.median(d)) if d.size else 1.0


@st.composite
def column_sets(draw):
    """Up to 150 columns of 1 to 6 entries, scaled by 10^-3 to 10^3: sets
    with odd and even pair counts, with repeated columns, and sets whose
    distances are all 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 150))
    shape = draw(st.sampled_from(("random", "repeats", "all equal")))
    if shape == "all equal":
        return np.repeat(rng.standard_normal((rows, 1)), n, axis=1)
    cols = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3, 3)
    if shape == "repeats":
        cols = cols[:, rng.integers(0, max(1, n // 3), n)]
    return cols


class TestKernelReferences:
    @PROPS
    @example(np.zeros((3, 4)))
    @example(np.ones((2, 2)))
    @given(column_sets())
    def test_median_bandwidth_matches_reference_bit_for_bit(self, cols):
        got = median_bandwidth(cols)
        assert np.float64(got).tobytes() == np.float64(ref_median_bandwidth(cols)).tobytes()

    @PROPS
    @given(column_sets(), column_sets(), kernel_specs)
    def test_kernel_matrix_matches_reference_bit_for_bit(self, a, b, spec):
        b = np.resize(b, (a.shape[0], b.shape[1]))
        for x, z in ((a, b), (a, a), (b, a)):
            assert kernel_matrix(x, z, spec).tobytes() == ref_kernel_matrix(x, z, spec).tobytes()

    @PROPS
    @given(st.lists(st.tuples(column_sets(), column_sets()), min_size=1, max_size=3))
    def test_sq_dists_within_rounding_bound(self, sets):
        # The stacked product's P = sum (p + 2) terms have magnitudes that sum
        # to at most 2 S, S = sum (|a|^2 + |b|^2) over the pairs, so it errs
        # by 2 P eps S; each squared norm errs by p eps times itself.  The
        # direct sum of (a - b)^2 is formed in extended precision.
        m, n = sets[0][0].shape[1], sets[0][1].shape[1]
        pairs = [(np.resize(a, (a.shape[0], m)), np.resize(b, (a.shape[0], n)))
                 for a, b in sets]
        got = -_neg_sq_dists(pairs)
        direct = sum(np.sum((a.astype(np.longdouble)[:, :, None] - b[:, None, :]) ** 2, axis=0)
                     for a, b in pairs)
        size = sum(np.sum(a * a, axis=0)[:, None] + np.sum(b * b, axis=0) for a, b in pairs)
        rows = sum(a.shape[0] + 2 for a, _ in pairs)
        assert np.all(got >= 0.0)
        assert np.all(np.abs(got - direct) <= 4 * rows * EPS * size)


# ---------------------------------------------------------------------------
# SMO: reference copy of the loop that recomputes masks every step
# ---------------------------------------------------------------------------

def ref_solve_qp(p, tol=1e-6, max_passes=1000):
    k = p.gram
    y = p.labels
    n = y.size
    c = p.box
    alpha = np.zeros(n)
    grad = -np.ones(n)
    feas = 1e-12 * max(c, 1.0)
    updates = 0
    budget = max_passes * n
    converged = False
    gap = np.inf
    while updates < budget:
        minus_yg = -y * grad
        up = ((y > 0) & (alpha < c - feas)) | ((y < 0) & (alpha > feas))
        low = ((y < 0) & (alpha < c - feas)) | ((y > 0) & (alpha > feas))
        if not up.any() or not low.any():
            converged = True
            gap = 0.0
            break
        i = int(np.flatnonzero(up)[np.argmax(minus_yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(minus_yg[low])])
        gap = minus_yg[i] - minus_yg[j]
        if gap <= tol:
            converged = True
            break
        quad = k[i, i] + k[j, j] - 2.0 * k[i, j]
        delta = gap / quad if quad > 1e-12 else np.inf
        cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
        delta = min(delta, cap_i, cap_j)
        if delta <= 0:
            converged = True
            break
        alpha[i] += y[i] * delta
        alpha[j] -= y[j] * delta
        grad += delta * y * (k[:, i] - k[:, j])
        updates += 1
    else:
        converged = False
    np.clip(alpha, 0.0, c, out=alpha)
    return alpha, converged, max(gap, 0.0), updates


QP_LAMBDAS = (1e-6, 1e-3, 1e-1, 1.0, 1e3, 1e13)


@st.composite
def qp_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    x = rng.standard_normal((n, draw(st.integers(1, 6))))
    kind = draw(st.sampled_from(("rbf", "linear", "polynomial")))
    gram = kernel_matrix(x.T, x.T, KernelSpec(kind, 1.0, 2, 1.0))
    gram = np.tril(gram) + np.tril(gram, -1).T
    labels = draw(st.sampled_from(("mixed", "one class", "one minority")))
    y = rng.choice([-1.0, 1.0], n)
    if labels == "one class":
        y[:] = y[0]
    elif labels == "one minority":
        y[:] = 1.0
        y[0] = -1.0
    # Small lambdas leave the box loose; large ones put the minority class
    # (or every index) at the bound, and 1e13 makes the box narrower than
    # the feasibility margin.
    lam = draw(st.sampled_from(QP_LAMBDAS))
    max_passes = draw(st.sampled_from((1, 1000)))
    return QpProblem(gram, y, lam), max_passes


@st.composite
def qp_batches(draw):
    """Problems of mixed size, labels and lambda in a shuffled batch.  Some
    share one Gram array across lambdas, as a cross-validation fold does."""
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        p, _ = draw(qp_problems())
        problems.append(p)
        for lam in draw(st.lists(st.sampled_from(QP_LAMBDAS), max_size=2)):
            problems.append(QpProblem(p.gram, p.labels, lam))
    order = draw(st.permutations(range(len(problems))))
    return [problems[i] for i in order], draw(st.sampled_from((1, 1000)))


def assert_kkt(p, sol, tol=1e-6):
    """Check a converged solution against the dual's optimality conditions,
    with the gradient recomputed from alpha, not taken from the solver.

    Rounding slack: the solver updates its gradient incrementally, so after
    U updates its gap differs from the recomputed one by a small multiple
    of eps * (U + n) * (1 + max|K| * sum(alpha)); 0.17 times that was the
    largest difference on 3000 random problems, and the slack is 4 times
    it.  Each update also moves y^T alpha by the rounding of an entry no
    larger than C.
    """
    y, k, a, c = p.labels, p.gram, sol.alpha, p.box
    steps = sol.n_updates + y.size
    assert 0.0 <= a.min() and a.max() <= c
    assert abs(y @ a) <= 4 * EPS * steps * c
    minus_yg = -y * ((k * np.outer(y, y)) @ a - 1.0)
    feas = 1e-12 * max(c, 1.0)
    up = np.where(y > 0, a < c - feas, a > feas)
    low = np.where(y > 0, a > feas, a < c - feas)
    if up.any() and low.any():
        gap = minus_yg[up].max() - minus_yg[low].min()
        slack = 4 * EPS * steps * (1.0 + np.abs(k).max() * a.sum())
        assert gap <= tol + slack, (gap, slack)


class TestSolveQp:
    @settings(PROPS, max_examples=150)
    @given(qp_problems())
    def test_matches_reference_bit_for_bit(self, case):
        p, max_passes = case
        sol = solve_qp(p, max_passes=max_passes)
        alpha, converged, kkt, updates = ref_solve_qp(p, max_passes=max_passes)
        assert sol.alpha.tobytes() == alpha.tobytes()
        assert sol.n_updates == updates
        assert sol.converged == converged
        assert sol.kkt_violation == kkt

    @settings(PROPS, max_examples=80)
    @given(qp_batches())
    def test_batch_matches_single_solves(self, case):
        # solve_qp does not depend on a batch, so this also shows that a
        # problem's result does not depend on the rest of its batch.
        problems, max_passes = case
        solutions = solve_qp_many(problems, max_passes=max_passes)
        assert len(solutions) == len(problems)
        for p, sol in zip(problems, solutions):
            ref = solve_qp(p, max_passes=max_passes)
            assert sol.alpha.tobytes() == ref.alpha.tobytes()
            assert sol.n_updates == ref.n_updates
            assert sol.converged == ref.converged
            assert sol.kkt_violation == ref.kkt_violation

    @settings(PROPS, max_examples=60)
    @given(qp_batches())
    def test_converged_solutions_meet_kkt(self, case):
        # At the 1e-6 default of a model fit and at the looser CV_TOL of
        # the cross-validation duals, each at its own tolerance.
        problems, _ = case
        for tol in (1e-6, stm.CV_TOL):
            batch = solve_qp_many(problems, tol=tol)
            for p, sol in zip(problems, batch):
                if sol.converged:
                    assert_kkt(p, sol, tol)
                single = solve_qp(p, tol)
                if single.converged:
                    assert_kkt(p, single, tol)

    @settings(PROPS, max_examples=60)
    @given(qp_batches())
    def test_last_row_finishes_alone_as_single_solve(self, case):
        # Rows that stop in an array round are retired there.  Round s
        # starts with the rows whose single solve makes at least s updates;
        # the first round that starts with no more than _ALONE_ROWS of them
        # hands each row's state to _finish_alone with s updates made, after
        # the array update of the round before.  A batch that small from
        # the start never makes an array round.  A handoff is recorded as
        # the row's size and its update counts in and out.
        problems, max_passes = case
        singles = [solve_qp(p, max_passes=max_passes) for p in problems]
        counts = [s.n_updates for s in singles]
        start = next(s for s in range(max(counts) + 2)
                     if sum(u >= s for u in counts) <= stm._ALONE_ROWS)
        calls = []
        finish = stm._finish_alone

        def recording(grad, z, mask, bound, top, cols, quad, updates, *rest):
            done = finish(grad, z, mask, bound, top, cols, quad, updates, *rest)
            calls.append((grad.shape[1], updates, done[0]))
            return done
        with mock.patch.object(stm, "_finish_alone", recording):
            batch = solve_qp_many(problems, max_passes=max_passes)
        alone = [(p.labels.size, start, u) for p, u in zip(problems, counts) if u >= start]
        assert sorted(calls) == sorted(alone)
        for sol, ref in zip(batch, singles):
            assert sol.alpha.tobytes() == ref.alpha.tobytes()
            assert sol.n_updates == ref.n_updates
            assert sol.converged == ref.converged
            assert sol.kkt_violation == ref.kkt_violation

    def test_rows_retire_in_array_rounds_as_single_solves(self):
        # One batch (max_passes=1, so each budget is its problem's size)
        # whose rows stop in array rounds for each of the four reasons,
        # while the four 30-sample rows keep more than _ALONE_ROWS live.
        x = np.random.default_rng(5).standard_normal((30, 3))
        gram = kernel_matrix(x.T, x.T, KernelSpec("rbf", 1.0))
        y = np.where(x[:, 0] + 0.5 * x[:, 1] > 0, 1.0, -1.0)
        small = np.random.default_rng(0).standard_normal((3, 2))
        reasons = {
            "budget": QpProblem(gram[:8, :8], y[:8], 1e-2),
            "no candidate": QpProblem(np.eye(3), np.ones(3), 0.1),
            "gap <= tol": QpProblem(kernel_matrix(small.T, small.T, KernelSpec("rbf", 1.0)),
                                    np.array([1.0, -1.0, 1.0]), 1e-2),
            # The curvature 1e308 + 1e308 overflows to inf: delta = 2 / inf = 0.
            "delta <= 0": QpProblem(1e308 * np.eye(2), np.array([1.0, -1.0]), 0.1),
        }
        problems = [QpProblem(gram, y, lam) for lam in (1e-3, 1e-2, 0.1, 1.0)]
        problems += reasons.values()
        passed = []
        finish = stm._finish_alone

        def recording(grad, *rest):
            passed.append(grad.shape[1])
            return finish(grad, *rest)
        with mock.patch.object(stm, "_finish_alone", recording):
            batch = solve_qp_many(problems, max_passes=1)
        # Only 30-sample rows reach the scalar finish; every reason's row
        # is smaller and stopped in an array round.
        assert passed and set(passed) == {30}
        for p, sol in zip(problems, batch):
            ref = solve_qp(p, max_passes=1)
            assert sol.alpha.tobytes() == ref.alpha.tobytes()
            assert sol.n_updates == ref.n_updates
            assert sol.converged == ref.converged
            assert sol.kkt_violation == ref.kkt_violation
        got = dict(zip(reasons, batch[4:]))
        assert (got["budget"].converged, got["budget"].n_updates) == (False, 8)
        assert got["budget"].kkt_violation > 0
        assert (got["no candidate"].converged, got["no candidate"].n_updates,
                got["no candidate"].kkt_violation) == (True, 0, 0.0)
        assert got["gap <= tol"].converged and got["gap <= tol"].n_updates >= 1
        assert 0 < got["gap <= tol"].kkt_violation <= 1e-6
        assert (got["delta <= 0"].converged, got["delta <= 0"].n_updates,
                got["delta <= 0"].kkt_violation) == (True, 0, 2.0)

    def test_zero_curvature_pair_matches_reference(self):
        # k[0, 0] + k[1, 1] - 2 k[0, 1] = 0: the first step is unbounded and
        # only the box caps it, alone and as a row of an array round.
        p = QpProblem(np.ones((2, 2)), np.array([1.0, -1.0]), 0.1)
        x = np.random.default_rng(3).standard_normal((6, 2))
        others = [QpProblem(kernel_matrix(x.T, x.T, KernelSpec("rbf", 1.0)),
                            np.array([1.0, -1.0] * 3), lam) for lam in (1e-3, 1e-2, 0.1, 1.0)]
        alpha, converged, kkt, updates = ref_solve_qp(p)
        assert updates >= 1
        for batch in ([p], [p] + others, others + [p]):
            assert len(batch) == 1 or len(batch) > stm._ALONE_ROWS
            sol = solve_qp_many(batch)[batch.index(p)]
            assert sol.alpha.tobytes() == alpha.tobytes()
            assert (sol.n_updates, sol.converged, sol.kkt_violation) == (updates, converged, kkt)

    def test_batch_edge_cases(self):
        assert solve_qp_many([]) == []
        p = QpProblem(np.eye(2), np.array([1.0, -1.0]), lam=0.25)
        for solve in (solve_qp, lambda p, tol: solve_qp_many([p], tol=tol)):
            for tol in (-1.0, np.nan):
                with pytest.raises(ValueError, match="tol must be >= 0"):
                    solve(p, tol=tol)


# ---------------------------------------------------------------------------
# Batched decomposition: a sample's result does not depend on its batch
# ---------------------------------------------------------------------------

def factor_arrays(f):
    return (f.u1.weights, f.u2.weights, *f.u1.factors, *f.u2.factors)


def same_factors(a, b):
    return (a.objective_history == b.objective_history and a.converged == b.converged
            and a.stats == b.stats
            and all(x.tobytes() == y.tobytes()
                    for x, y in zip(factor_arrays(a), factor_arrays(b))))


@st.composite
def decompose_batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    samples = []
    for _ in range(n):
        # Exact low-rank data stops early on cg_tol; noisy data runs on, so
        # the samples leave the batch after different iteration counts.
        cols = [rng.standard_normal((d, 2)) for d in DIMS]
        tensor = np.einsum("ir,jr,kr->ijk", cols[0], cols[1], cols[2])
        matrix = cols[3] @ cols[2].T
        noise = draw(st.sampled_from((0.0, 0.0, 0.3)))
        samples.append(CoupledSample(
            tensor + noise * rng.standard_normal(tensor.shape),
            matrix + noise * rng.standard_normal(matrix.shape), 1,
        ))
    h = AcmtfHyperParams(rank=draw(st.integers(1, 3)), cg_tol=1e-6,
                         max_iters=draw(st.integers(5, 60)))
    seeds = [int(v) for v in rng.integers(0, 2**31, n)]
    return samples, h, seeds, draw(st.integers(1, n - 1))


@settings(PROPS, max_examples=25)
@given(decompose_batches())
def test_decomposition_does_not_depend_on_the_batch(case):
    samples, h, seeds, cut = case
    alone = [acmtf_decompose(s, h, seed) for s, seed in zip(samples, seeds)]
    halves = (acmtf_decompose_many(samples[:cut], h, seeds[:cut])
              + acmtf_decompose_many(samples[cut:], h, seeds[cut:]))
    full = acmtf_decompose_many(samples, h, seeds)
    for a, b, c in zip(alone, halves, full):
        assert same_factors(a, b) and same_factors(a, c)


def test_batches_mix_iteration_counts():
    # The batch property above is only telling if samples leave a batch at
    # different times; check that its inputs make them do so.
    rng = np.random.default_rng(0)
    cols = [rng.standard_normal((d, 2)) for d in DIMS]
    exact = CoupledSample(np.einsum("ir,jr,kr->ijk", *cols[:3]), cols[3] @ cols[2].T, 1)
    noisy = CoupledSample(exact.tensor + 0.3 * rng.standard_normal(exact.tensor.shape),
                          exact.matrix + 0.3 * rng.standard_normal(exact.matrix.shape), 1)
    h = AcmtfHyperParams(rank=2, cg_tol=1e-6, max_iters=60)
    fs = acmtf_decompose_many([exact, noisy], h, [1, 2])
    iters = [len(f.objective_history) - 1 for f in fs]
    assert iters[0] != iters[1], iters


# ---------------------------------------------------------------------------
# Degenerate samples: finite factors and a stated stop
# ---------------------------------------------------------------------------

def degenerate_samples():
    """A rank-2 sample, then its zero-matrix, zero-tensor, all-zero and
    constant variants."""
    rng = np.random.default_rng(5)
    cols = [rng.standard_normal((d, 2)) for d in DIMS]
    tensor = np.einsum("ir,jr,kr->ijk", *cols[:3])
    matrix = cols[3] @ cols[2].T
    zt, zm = np.zeros_like(tensor), np.zeros_like(matrix)
    return [CoupledSample(t, m, 1) for t, m in (
        (tensor, matrix), (tensor, zm), (zt, matrix), (zt, zm),
        (np.full(tensor.shape, 2.5), np.full(matrix.shape, -1.0)),
    )]


# Rank 7 is above every mode size of DIMS.
@pytest.mark.parametrize("rank", [3, 7])
def test_degenerate_samples_give_finite_factors_and_a_stop(rank):
    samples = degenerate_samples()
    fs = acmtf_decompose_many(samples, AcmtfHyperParams(rank=rank), range(len(samples)))
    for f in fs:
        assert all(np.isfinite(a).all() for a in factor_arrays(f))
        assert f.stats.stop in ("tol", "max_iters", "no_descent", "zero_grad")
        assert f.converged == (f.stats.stop != "max_iters")
    _, zero_matrix, zero_tensor, all_zero, constant = fs
    # A zero modality's weights are driven to zero.
    for w in (zero_matrix.u2.weights, zero_tensor.u1.weights,
              all_zero.u1.weights, all_zero.u2.weights):
        assert np.abs(w).max() < 1e-3
    # Constant data are rank one, and are fit.
    for k, data in ((constant.u1, samples[4].tensor), (constant.u2, samples[4].matrix)):
        assert np.linalg.norm(k.full() - data) < 0.01 * np.linalg.norm(data)


# ---------------------------------------------------------------------------
# Batched CP-ALS: bit-equal to single runs and to the one-tensor loop
# ---------------------------------------------------------------------------

def ref_cp_als(t, rank, tol, max_iter, seed):
    """The one-tensor CP-ALS loop that cp_als_many batches."""
    def normalize(m):
        norms = np.linalg.norm(m, axis=0)
        return m / np.where(norms > 0, norms, 1.0), norms

    def kr(a, b):
        return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])

    n_modes = t.ndim
    rng = np.random.default_rng(seed)
    factors = [normalize(rng.standard_normal((d, rank)))[0] for d in t.shape]
    # Fortran-order unfoldings: the layout of every item of cp_als_many's stack.
    unfoldings = [np.asfortranarray(np.moveaxis(t, n, 0).reshape((d, -1), order="F"))
                  for n, d in enumerate(t.shape)]
    norm_x = np.linalg.norm(t)
    history, prev = [], np.inf
    for _ in range(max_iter):
        for n in range(n_modes):
            k = reduce(kr, [factors[j] for j in range(n_modes - 1, -1, -1) if j != n])
            gram = np.ones((rank, rank))
            for j in range(n_modes):
                if j != n:
                    gram *= factors[j].T @ factors[j]
            sol = np.linalg.solve(gram + ALS_RIDGE * np.eye(rank), (unfoldings[n] @ k).T).T
            factors[n], weights = normalize(sol)
        err = np.linalg.norm(unfoldings[-1] - (factors[-1] * weights) @ k.T)
        if norm_x > 0:
            err /= norm_x
        history.append(err)
        if prev - err < tol:
            stop = "tol"
            break
        prev = err
    else:
        stop = "max_iters"
    stats = SolveStats(len(history), len(history), stop)
    return KruskalTensor(weights, tuple(factors), tuple(history), stats).normalized()


def same_cp(a, b):
    return (a.objective_history == b.objective_history and a.stats == b.stats
            and a.weights.tobytes() == b.weights.tobytes()
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.factors, b.factors)))


@st.composite
def cp_batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    letters = "ijkl"[: len(shape)]
    spec = ",".join(c + "r" for c in letters) + "->" + letters
    tensors = []
    for _ in range(draw(st.integers(2, 5))):
        # A zero tensor stops after two sweeps, with weight 0; exact and
        # noisy rank-2 data stop on tol or at max_iter, depending on the
        # rank and tol drawn.  So rows leave the batch at different sweeps.
        kind = draw(st.sampled_from(("exact", "exact", "noisy", "zero")))
        t = np.einsum(spec, *(rng.standard_normal((d, 2)) + 1.0 for d in shape))
        if kind == "noisy":
            t = t + 0.3 * rng.standard_normal(shape)
        tensors.append(np.zeros(shape) if kind == "zero" else t)
    seeds = [int(v) for v in rng.integers(0, 2**31, len(tensors))]
    # Ranks up to 6 exceed every mode size of 5 or less.
    return (tensors, draw(st.integers(1, 6)), seeds,
            draw(st.sampled_from((1e-8, 1e-4))), draw(st.integers(1, 40)),
            draw(st.integers(1, len(tensors) - 1)))


@settings(PROPS, max_examples=60)
@given(cp_batches())
def test_cp_als_batch_matches_single_runs(case):
    tensors, rank, seeds, tol, max_iter, cut = case
    full = cp_als_many(tensors, rank, seeds, tol, max_iter)
    halves = (cp_als_many(tensors[:cut], rank, seeds[:cut], tol, max_iter)
              + cp_als_many(tensors[cut:], rank, seeds[cut:], tol, max_iter))
    for t, seed, a, b in zip(tensors, seeds, full, halves):
        single = cp_als(t, rank, tol, max_iter, seed)
        assert same_cp(a, single) and same_cp(b, single)
        assert same_cp(single, ref_cp_als(t, rank, tol, max_iter, seed))


def test_cp_batches_mix_stop_sweeps():
    # The batch property above is only telling if tensors leave a batch at
    # different sweeps; check that its kinds of input make them do so.
    rng = np.random.default_rng(0)
    exact = np.einsum("ir,jr,kr->ijk", *(rng.standard_normal((d, 2)) + 1.0 for d in (4, 3, 5)))
    noisy = exact + 0.3 * rng.standard_normal(exact.shape)
    out = cp_als_many([exact, noisy, np.zeros(exact.shape)], 2, [1, 2, 3],
                      tol=1e-4, max_iter=20)
    sweeps = [len(k.objective_history) for k in out]
    assert sweeps[0] == 20 and len(set(sweeps)) == 3, sweeps
    assert np.all(out[2].weights == 0)
    # ... and that they stop for both reasons.
    assert [k.stats.stop for k in out] == ["max_iters", "tol", "tol"]


# ---------------------------------------------------------------------------
# Container readers on truncated and byte-flipped files
# ---------------------------------------------------------------------------

def pristine_files():
    """Small valid files of every container kind, as bytes."""
    rng = np.random.default_rng(7)
    factors = [coupled_factors(rng, r) for r in (2, 1)]
    k = KernelSpec("rbf", 0.7)
    model = StmModel(np.array([0.3, 0.6]), np.array([1.0, -1.0]), tuple(factors),
                     CoupledKernelSpec(k, k, k, KernelSpec("linear"), (0.5, 0.25, 0.25)), 0.1, 0.2)
    sample = CoupledSample(rng.standard_normal((2, 3, 2)), rng.standard_normal((3, 2)), -1)
    writers = {
        "sample": lambda p: container.write_sample(p, sample),
        "factors": lambda p: container.write_factors(p, factors[0]),
        "model": lambda p: container.write_model(p, model, AcmtfHyperParams(rank=2), 0.05),
    }
    out = {}
    with tempfile.TemporaryDirectory() as d:
        for kind, write in writers.items():
            path = os.path.join(d, kind)
            write(path)
            with open(path, "rb") as fh:
                out[kind] = fh.read()
    return out


PRISTINE = pristine_files()
READERS = {
    "sample": container.read_sample,
    "factors": container.read_factors,
    "model": container.read_model,
}


@st.composite
def corrupted_files(draw):
    kind = draw(st.sampled_from(sorted(PRISTINE)))
    data = bytearray(PRISTINE[kind])
    for _ in range(draw(st.integers(0, 4))):
        # Half the flips land in the first 64 bytes, where the headers,
        # lengths and dims are.
        pos = draw(st.one_of(st.integers(0, 63), st.integers(0, len(data) - 1)))
        data[pos] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data) - 1))]
    return kind, bytes(data)


# A factors file whose first array record (right after the 12-byte header)
# has order 0, which every reader must reject, `inspect_file` included.
ORDER_0_FACTORS = PRISTINE["factors"][:12] + bytes(4) + PRISTINE["factors"][16:]


@settings(PROPS, max_examples=400)
@given(corrupted_files())
@example(("factors", ORDER_0_FACTORS))
def test_corrupt_files_raise_only_format_error(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.cstm")
        with open(path, "wb") as fh:
            fh.write(data)
        for read in (READERS[kind], container.inspect_file):
            try:
                read(path)
            except FormatError:
                pass
