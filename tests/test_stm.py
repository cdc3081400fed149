"""Classifier tests: SMO dual solver, coupled and single-modality models."""

import numpy as np
import pytest

from cstm import stm
from cstm.acmtf import AcmtfFactors
from cstm.kernels import CoupledKernelSpec, KernelSpec, cp_gram, gram_matrix
from cstm.stm import (
    QpProblem,
    StmModel,
    box_bound,
    decision,
    decision_many,
    default_lambda,
    fit,
    matrix_to_kruskal,
    predict_label,
    recover_bias,
    select_lambda,
    solve_qp,
)
from cstm.tensor_core import KruskalTensor


def project_feasible(v, y, c):
    """Projection onto {alpha^T y = 0, 0 <= alpha <= c} by bisection."""
    lo, hi = -1e8, 1e8
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(y @ np.clip(v - mid * y, 0, c)) > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * y, 0, c)


def pg_oracle(gram, y, lam, iters=200_000, tol=1e-13):
    """Plain projected gradient on the dual, run to stagnation."""
    n = y.size
    c = box_bound(n, lam)
    q = gram * np.outer(y, y)
    lip = max(float(np.linalg.eigvalsh(q).max()), 1e-12)
    a = project_feasible(np.zeros(n), y, c)
    f_prev = np.inf
    for it in range(iters):
        a = project_feasible(a - (q @ a - 1.0) / lip, y, c)
        if it % 50 == 0:
            f = float(0.5 * a @ q @ a - a.sum())
            if f_prev - f < tol * max(1.0, abs(f)):
                break
            f_prev = f
    return a, float(0.5 * a @ q @ a - a.sum())


def unit_rank1_factors(direction_seed, dims=(4, 3, 5, 6), flip=False):
    rng = np.random.default_rng(direction_seed)
    i1, i2, i3, i4 = dims
    cols = [rng.standard_normal((d, 1)) for d in (i1, i2, i3, i4)]
    cols = [c / np.linalg.norm(c) for c in cols]
    if flip:
        cols = [-c for c in cols]
    u1 = KruskalTensor(np.ones(1), (cols[0], cols[1], cols[2]))
    u2 = KruskalTensor(np.ones(1), (cols[3], cols[2]))
    return AcmtfFactors.from_kruskals(u1, u2)


def jittered(base: AcmtfFactors, seed: int, scale=0.05) -> AcmtfFactors:
    rng = np.random.default_rng(seed)

    def wobble(m):
        out = m + scale * rng.standard_normal(m.shape)
        return out / np.linalg.norm(out, axis=0)

    a, b, c = (wobble(f) for f in base.u1.factors)
    u = wobble(base.u2.factors[0])
    u1 = KruskalTensor(base.u1.weights, (a, b, c))
    u2 = KruskalTensor(base.u2.weights, (u, c))
    return AcmtfFactors.from_kruskals(u1, u2)


LINEAR_SPEC = CoupledKernelSpec(
    KernelSpec("linear"), KernelSpec("linear"),
    KernelSpec("linear"), KernelSpec("linear"), (1 / 3, 1 / 3, 1 / 3),
)


class TestSolveQp:
    def test_analytic_two_point(self):
        # Reduced problem alpha1=alpha2=a, minimize a^2 - 2a -> a=1, obj -1.
        p = QpProblem(np.eye(2), np.array([1.0, -1.0]), lam=0.25)  # C = 1
        sol = solve_qp(p)
        np.testing.assert_allclose(sol.alpha, [1.0, 1.0], atol=1e-8)
        assert abs(sol.objective(p) + 1.0) < 1e-8

    def test_zero_gram_balanced(self):
        p = QpProblem(np.zeros((4, 4)), np.array([1.0, 1.0, -1.0, -1.0]), lam=0.125)
        sol = solve_qp(p)
        np.testing.assert_allclose(sol.alpha, np.full(4, p.box), atol=1e-10)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(4, 21))
            x = rng.standard_normal((n, n + 5))
            gram = x @ x.T
            y = np.ones(n)
            y[rng.permutation(n)[: n // 2]] = -1.0
            lam = float(10 ** rng.uniform(-2, 0.5))
            p = QpProblem(gram, y, lam)
            sol = solve_qp(p, tol=1e-9, max_passes=5000)
            _, f_pg = pg_oracle(gram, y, lam)
            assert sol.converged
            assert abs(sol.objective(p) - f_pg) < 1e-6

    def test_constraints_after_solve(self):
        rng = np.random.default_rng(1)
        n = 12
        x = rng.standard_normal((n, n))
        gram = x @ x.T
        y = np.array([1.0, -1.0] * 6)
        p = QpProblem(gram, y, lam=0.05)
        sol = solve_qp(p)
        assert abs(sol.alpha @ y) <= 1e-8
        assert sol.alpha.min() >= 0.0
        assert sol.alpha.max() <= p.box + 1e-10
        assert sol.kkt_violation <= 1e-6

    def test_non_symmetric_rejected(self):
        g = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            QpProblem(g, np.array([1.0, -1.0]), lam=1.0)

    def test_budget_exhaustion_flag(self):
        rng = np.random.default_rng(2)
        n = 10
        x = rng.standard_normal((n, n))
        gram = x @ x.T
        y = np.array([1.0, -1.0] * 5)
        sol = solve_qp(QpProblem(gram, y, lam=0.01), tol=1e-14, max_passes=1)
        assert not sol.converged
        assert sol.n_updates == n

    @pytest.mark.parametrize("max_passes", [0, -3])
    def test_max_passes_below_one_rejected(self, max_passes):
        # A zero or negative budget used to return alpha = 0, unconverged.
        p = QpProblem(np.eye(2), np.array([1.0, -1.0]), lam=0.25)
        with pytest.raises(ValueError, match="max_passes must be >= 1"):
            solve_qp(p, max_passes=max_passes)
        with pytest.raises(ValueError, match="max_passes must be >= 1"):
            stm.solve_qp_many([p], max_passes=max_passes)

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.array([1.0, 0.5]), lam=1.0)

    def test_unbalanced_zero_gram_respects_equality(self):
        # Two positives, one negative: the negative caps the positive mass.
        p = QpProblem(np.zeros((3, 3)), np.array([1.0, 1.0, -1.0]), lam=1 / 6)
        sol = solve_qp(p)
        assert abs(sol.alpha @ p.labels) <= 1e-8
        assert sol.alpha.max() <= p.box + 1e-10
        assert abs(sol.alpha[2] - p.box) < 1e-10

    def test_lambda_positive_required(self):
        # 1e-320 is positive, but 1 / (2 n lambda) overflows to inf.
        for lam in (0.0, -1.0, float("nan"), 1e-320):
            with pytest.raises(ValueError):
                QpProblem(np.eye(2), np.array([1.0, -1.0]), lam=lam)

    def test_non_finite_gram_rejected(self):
        # NaN and inf pass a symmetry check that compares max|K - K^T|.
        y = np.array([1.0, -1.0] * 3)
        samples = [unit_rank1_factors(s) for s in range(6)]
        for bad in (np.nan, np.inf):
            gram = np.eye(6)
            gram[2, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                QpProblem(gram, y, lam=0.1)
            with pytest.raises(ValueError, match="non-finite"):
                select_lambda(gram, y, k=2)
            with pytest.raises(ValueError, match="non-finite"):
                fit(samples, y, LINEAR_SPEC, 0.1, gram=gram)


class TestFitDecision:
    def test_separable_rank1_training_accuracy(self):
        pos = [jittered(unit_rank1_factors(0), s) for s in range(5)]
        neg = [jittered(unit_rank1_factors(0, flip=True), 100 + s) for s in range(5)]
        samples = pos + neg
        y = np.array([1.0] * 5 + [-1.0] * 5)
        model = fit(samples, y, LINEAR_SPEC, lam=0.01)
        scores = decision_many(model, samples)
        assert np.all(np.where(scores >= 0, 1.0, -1.0) == y)
        singles = np.array([decision(model, f) for f in samples])
        np.testing.assert_allclose(singles, scores, rtol=1e-12, atol=1e-12)

    def test_contradictory_duplicate_at_box(self):
        f = unit_rank1_factors(3)
        y = np.array([1.0, -1.0])
        model = fit([f, f], y, LINEAR_SPEC, lam=0.5)
        c = box_bound(2, 0.5)
        np.testing.assert_allclose(model.alpha, [c, c], atol=1e-10)

    def test_single_class_rejected(self):
        f = unit_rank1_factors(4)
        with pytest.raises(ValueError, match="-1"):
            fit([f, f], np.array([1.0, 1.0]), LINEAR_SPEC, lam=0.1)
        with pytest.raises(ValueError, match=r"\+1"):
            fit([f, f], np.array([-1.0, -1.0]), LINEAR_SPEC, lam=0.1)

    def test_zero_alpha_decision(self):
        f = unit_rank1_factors(5)
        model = StmModel(
            alpha=np.zeros(1), labels=np.array([1.0]), factors=(f,),
            kernel=LINEAR_SPEC, lam=1.0,
        )
        assert decision(model, f) == 0.0
        assert predict_label(decision(model, f)) == 1

    def test_predict_label_maps_ties_to_plus_one(self):
        scores = np.array([-2.0, -0.0, 0.0, 1e-300, np.nan])
        assert predict_label(scores).tolist() == [-1, 1, 1, 1, -1]

    def test_single_support_sample(self):
        from cstm.kernels import coupled_kernel

        train = unit_rank1_factors(6)
        test = unit_rank1_factors(7)
        model = StmModel(
            alpha=np.ones(1), labels=np.array([1.0]), factors=(train,),
            kernel=LINEAR_SPEC, lam=1.0,
        )
        want = coupled_kernel(train, test, LINEAR_SPEC)
        assert abs(decision(model, test) - want) < 1e-12

    def test_two_sample_hand_expansion(self):
        from cstm.kernels import coupled_kernel

        f1 = unit_rank1_factors(8)
        f2 = unit_rank1_factors(9)
        alpha = np.array([0.7, 0.4])
        model = StmModel(
            alpha=alpha, labels=np.array([1.0, -1.0]), factors=(f1, f2),
            kernel=LINEAR_SPEC, lam=1.0,
        )
        k11 = coupled_kernel(f1, f1, LINEAR_SPEC)
        k12 = coupled_kernel(f2, f1, LINEAR_SPEC)
        want = alpha[0] * k11 - alpha[1] * k12
        assert abs(decision(model, f1) - want) < 1e-12

    def test_bias_recovery_centers_margin(self):
        # Shifted similarity structure: without the intercept every score
        # is positive; with it the classes separate.
        rng = np.random.default_rng(10)
        n = 10
        y = np.array([1.0] * 5 + [-1.0] * 5)
        base = rng.standard_normal((n, 3))
        gram = base @ base.T + 5.0 * np.outer(y > 0, y > 0)
        gram = 0.5 * (gram + gram.T) + n * np.eye(n)
        p = QpProblem(gram, y, lam=0.02)
        sol = solve_qp(p)
        bias = recover_bias(gram, y, sol.alpha, p.box)
        scores = gram @ (sol.alpha * y) + bias
        assert np.all(np.where(scores >= 0, 1.0, -1.0) == y)


    @pytest.mark.parametrize("alpha, y, want", [
        ((0.0, 0.0), (1.0, 1.0), 1.0),  # lower bounds only: their maximum
        ((0.0, 0.0), (-1.0, -1.0), -1.0),  # upper bounds only: their minimum
        ((0.0, 0.0), (1.0, -1.0), 0.0),  # both: the midpoint
        ((0.5, 0.5), (1.0, -1.0), 0.25),  # both at the box c = 0.5: (-0.25 + 0.75) / 2
    ])
    def test_bias_without_margin_support_vector(self, alpha, y, want):
        # No 0 < alpha_i < c: the intercept comes from the KKT interval.
        gram = np.array([[1.0, 0.5], [0.5, 2.0]])
        assert recover_bias(gram, np.array(y), np.array(alpha), 0.5) == want


class TestCpStm:
    def _tensors(self, flip, n, seed0):
        out = []
        rng = np.random.default_rng(seed0)
        base = [rng.standard_normal((d, 1)) for d in (4, 3, 5)]
        base = [c / np.linalg.norm(c) for c in base]
        if flip:
            base = [-c for c in base]
        for s in range(n):
            cols = []
            r2 = np.random.default_rng(1000 + seed0 * 97 + s)
            for c in base:
                v = c + 0.05 * r2.standard_normal(c.shape)
                cols.append(v / np.linalg.norm(v))
            out.append(KruskalTensor(np.ones(1), tuple(cols)))
        return out

    def test_separable_training_accuracy(self):
        pos = self._tensors(False, 5, 1)
        neg = self._tensors(True, 5, 2)
        y = np.array([1.0] * 5 + [-1.0] * 5)
        specs = (KernelSpec("linear"),) * 3
        model = fit(pos + neg, y, specs, lam=0.01)
        assert model.kernel == specs
        scores = decision_many(model, pos + neg)
        assert np.all(np.where(scores >= 0, 1.0, -1.0) == y)
        singles = np.array([decision(model, t) for t in pos + neg])
        np.testing.assert_allclose(singles, scores, rtol=1e-12, atol=1e-12)
        assert np.all(np.where(singles >= 0, 1.0, -1.0) == y)

    def test_alpha_matches_coupled_with_weight_mask(self):
        # A coupled kernel with weights (1, 0, 0) on the tensor's first two
        # modes equals the two-mode CP kernel; the duals must agree.
        rng = np.random.default_rng(11)
        factors = []
        tensors = []
        for s in range(8):
            u1 = KruskalTensor(
                np.ones(2), tuple(rng.standard_normal((d, 2)) for d in (4, 3, 5))
            ).normalized()
            u2 = KruskalTensor(
                np.ones(2), (rng.standard_normal((6, 2)), u1.factors[2].copy())
            ).normalized()
            f = AcmtfFactors.from_kruskals(u1, u2)
            factors.append(f)
            tensors.append(KruskalTensor(f.u1.weights, f.u1.factors[:2]))
        y = np.array([1.0, -1.0] * 4)
        k1, k2 = KernelSpec("rbf", 0.9), KernelSpec("rbf", 1.2)
        coupled_spec = CoupledKernelSpec(k1, k2, KernelSpec("rbf"), KernelSpec("rbf"),
                                         (1.0, 0.0, 0.0))
        g_coupled = gram_matrix(factors, coupled_spec)
        g_cp = cp_gram(tensors, (k1, k2))
        np.testing.assert_allclose(g_coupled, g_cp, atol=1e-12)
        m1 = fit(factors, y, coupled_spec, lam=0.05, gram=g_coupled)
        m2 = fit(tensors, y, [k1, k2], lam=0.05, gram=g_cp)
        assert m2.kernel == (k1, k2)
        np.testing.assert_allclose(m1.alpha, m2.alpha, atol=1e-8)

    def test_zero_lambda_rejected(self):
        ts = self._tensors(False, 2, 3) + self._tensors(True, 2, 4)
        y = np.array([1.0, 1.0, -1.0, -1.0])
        with pytest.raises(ValueError):
            fit(ts, y, (KernelSpec("linear"),) * 3, lam=0.0)

    @pytest.mark.parametrize("case", ["kruskal_under_coupled", "single_spec",
                                      "factors_under_cp"])
    def test_kernel_kind_mismatch_rejected_before_any_gram(self, monkeypatch, case):
        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram was built for mismatched inputs")

        for name in ("gram_matrix", "cp_gram"):
            monkeypatch.setattr(stm, name, no_gram)
        tensors = self._tensors(False, 2, 3) + self._tensors(True, 2, 4)
        factors = [unit_rank1_factors(s, flip=s >= 2) for s in range(4)]
        y = np.array([1.0, 1.0, -1.0, -1.0])
        samples, kernel, match = {
            "kruskal_under_coupled": (tensors, LINEAR_SPEC, "KruskalTensor"),
            "single_spec": (tensors, KernelSpec("linear"), "single KernelSpec"),
            "factors_under_cp": (factors, (KernelSpec("linear"),) * 3, "AcmtfFactors"),
        }[case]
        with pytest.raises(ValueError, match=match):
            fit(samples, y, kernel, lam=0.1)

    def test_benchmark_names_are_aliases(self):
        # The CP names the benchmark calls must stay the one fit/decision path.
        assert stm.cpstm_fit is stm.fit
        assert stm.cpstm_decision_many is stm.decision_many

    def test_matrix_to_kruskal_svd(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((8, 5))
        k = matrix_to_kruskal(m, 3)
        assert k.rank == 3
        u, s, vt = np.linalg.svd(m)
        # Reconstruction matches the best rank-3 approximation.
        np.testing.assert_allclose(
            k.weights[0] * np.outer(k.factors[0][:, 0], k.factors[1][:, 0]),
            s[0] * np.outer(u[:, 0], vt[0]) * np.sign(u[:, 0].sum()) ** 2,
            atol=1e-10,
        )
        best3 = (u[:, :3] * s[:3]) @ vt[:3]
        recon = sum(
            k.weights[i] * np.outer(k.factors[0][:, i], k.factors[1][:, i])
            for i in range(3)
        )
        np.testing.assert_allclose(recon, best3, atol=1e-10)

    def test_matrix_rank_padding(self):
        m = np.outer(np.arange(1.0, 5.0), np.ones(3))  # rank 1
        k = matrix_to_kruskal(m, 3)
        assert k.rank == 3

    def test_rank_above_smaller_dim_pads_zero_components(self):
        m = np.random.default_rng(13).standard_normal((4, 3))
        k = matrix_to_kruskal(m, 5)
        assert k.rank == 5
        assert np.all(k.weights[:3] != 0)
        np.testing.assert_array_equal(k.weights[3:], 0.0)
        np.testing.assert_allclose(k.full(), m, atol=1e-12)


class TestCaseSixSignal:
    def test_accuracy_beats_permutation_null(self):
        # Class information only in the tensor's first factor (case 6).
        from cstm.acmtf import AcmtfHyperParams, acmtf_decompose
        from cstm.experiments import gen_case, stratified_split
        from cstm.kernels import default_coupled_spec
        from cstm.stm import fit as stm_fit

        from cstm.stm import select_lambda as pick_lam

        samples = gen_case(6, 25, seed=5)
        y = np.array([s.label for s in samples], dtype=float)
        h = AcmtfHyperParams(rank=5, cg_tol=1e-9, max_iters=400)
        facs = [
            acmtf_decompose(s, h, seed=i).pruned(0.05)
            for i, s in enumerate(samples)
        ]
        all_pred, all_true = [], []
        for split_seed in range(3):
            tr, te = stratified_split(y, 0.4, seed=split_seed)
            train = [facs[i] for i in tr]
            spec = default_coupled_spec(train)
            gram = gram_matrix(train, spec)
            lam = pick_lam(gram, y[tr], seed=split_seed)
            model = stm_fit(train, y[tr], spec, lam, gram=gram)
            scores = decision_many(model, [facs[i] for i in te])
            all_pred.append(np.where(scores >= 0, 1.0, -1.0))
            all_true.append(y[te])
        pred = np.concatenate(all_pred)
        true = np.concatenate(all_true)
        acc = float(np.mean(pred == true))
        # Label-permutation null on the same pooled predictions.
        rng = np.random.default_rng(99)
        null = [
            float(np.mean(pred == true[rng.permutation(true.size)]))
            for _ in range(500)
        ]
        assert acc > 0.5 + 3.0 * np.std(null)


class TestLambdaUtilities:
    def test_default_schedule_limits(self):
        # AS.4: lambda_n -> 0 and n * lambda_n -> infinity.
        ns = np.unique(np.logspace(1, 4, 40).astype(int))
        lams = np.array([default_lambda(n) for n in ns])
        assert np.all(np.diff(lams) < 0)
        assert lams[-1] < 1e-1
        assert np.all(np.diff(ns * lams) > 0)
        assert (ns * lams)[-1] > 50

    def test_select_lambda_picks_from_grid(self):
        rng = np.random.default_rng(13)
        n = 24
        x = rng.standard_normal((n, 4))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        gram = x @ x.T
        lam = select_lambda(gram, y, grid=(1e-3, 1e-1, 10.0), k=4, seed=0)
        assert lam in (1e-3, 1e-1, 10.0)

    def test_cv_over_candidates_scores_each_as_alone(self):
        # One pass over several candidate Grams gives each the accuracy row
        # of a one-candidate pass, and the table's first maximum is the
        # first best candidate.
        rng = np.random.default_rng(15)
        x = rng.standard_normal((24, 5))
        y = np.where(x[:, 0] + 0.5 * rng.standard_normal(24) > 0, 1.0, -1.0)
        grams = [x[:, c] @ x[:, c].T for c in ([1, 2], [0, 3], [0], [0, 1, 2, 3, 4], [0])]
        grid = (1e-3, 1e-1, 10.0)
        alone = [stm._cv_lambda([g], y, grid, 4, 3) for g in grams]
        assert [a.shape for a in alone] == [(1, 3)] * 5
        accs = [a.max() for a in alone]
        best = accs.index(max(accs))
        assert best == 1 and len(set(accs)) == 3  # pins a non-trivial input
        table = stm._cv_lambda(grams, y, grid, 4, 3)
        assert table.tobytes() == np.concatenate(alone).tobytes()
        assert np.argmax(table) // len(grid) == best

    def test_cv_in_chunks_picks_as_one_batch(self, monkeypatch):
        # Candidates are solved in chunks of at most CV_BATCH_DUALS duals;
        # the table does not depend on the chunks, here with the best
        # candidate (index 4) in the last one.
        rng = np.random.default_rng(15)
        x = rng.standard_normal((24, 5))
        y = np.where(x[:, 0] + 0.5 * rng.standard_normal(24) > 0, 1.0, -1.0)
        grams = [x[:, c] @ x[:, c].T for c in ([1, 2], [0], [0, 1, 2, 3, 4], [0], [0, 3])]
        grid = (1e-3, 1e-1, 10.0)
        batches = []
        solve_many = stm.solve_qp_many

        def counting(problems, **kw):
            batches.append(len(problems))
            return solve_many(problems, **kw)
        monkeypatch.setattr(stm, "solve_qp_many", counting)
        tables, calls = {}, {}
        for cap in (10**9, 24, 5):
            batches.clear()
            monkeypatch.setattr(stm, "CV_BATCH_DUALS", cap)
            tables[cap] = stm._cv_lambda(grams, y, grid, 4, 3).tobytes()
            calls[cap] = list(batches)
        # 4 folds x 3 lambdas = 12 duals per candidate; a cap below that
        # still solves one whole candidate per call.
        assert calls == {10**9: [60], 24: [24, 24, 12], 5: [12] * 5}
        table = np.frombuffer(tables[10**9]).reshape(5, 3)
        assert np.argmax(table) // len(grid) == 4
        assert tables[24] == tables[5] == tables[10**9]

    def test_cv_first_best_candidate_wins(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((12, 3))
        gram = x @ x.T
        y = np.array([1.0, -1.0] * 6)
        grid = (0.01, 1.0)
        acc = stm._cv_lambda([gram], y, grid, 3, 0)
        twins = stm._cv_lambda([gram, gram.copy()], y, grid, 3, 0)
        assert twins.tobytes() == np.concatenate([acc, acc]).tobytes()
        # np.argmax takes the first maximum: the first candidate, and in
        # its row the first (smallest) lambda among equals.
        assert np.argmax(twins) == np.argmax(acc[0]) < len(grid)
        assert select_lambda(gram, y, grid, 3, 0) == grid[np.argmax(acc[0])]
        # A class of one sample leaves no fold to score: every accuracy is
        # -1, so the pick is candidate 0 and the first grid value.
        one = np.array([1.0] + [-1.0] * 11)
        assert stm._cv_lambda([gram, 2 * gram], one, grid, 3, 0).tolist() == [[-1.0] * 2] * 2
        assert select_lambda(gram, one, grid, 3, 0) == 0.01

    def test_select_lambda_rejects_bad_grid(self):
        gram = np.eye(6)
        y = np.array([1.0, -1.0] * 3)
        with pytest.raises(ValueError, match="empty"):
            select_lambda(gram, y, grid=())
        for grid in ((0.0, 1.0), (float("nan"),)):
            with pytest.raises(ValueError, match="> 0"):
                select_lambda(gram, y, grid=grid)

    def test_prediction_invariance_under_joint_scaling(self):
        rng = np.random.default_rng(14)
        pos = [jittered(unit_rank1_factors(20), s) for s in range(4)]
        neg = [jittered(unit_rank1_factors(20, flip=True), 50 + s) for s in range(4)]
        samples = pos + neg
        y = np.array([1.0] * 4 + [-1.0] * 4)
        tests = [jittered(unit_rank1_factors(20), 200 + s) for s in range(3)]
        c = 3.7
        base = CoupledKernelSpec(
            KernelSpec("rbf", 0.9), KernelSpec("rbf", 1.1),
            KernelSpec("rbf", 1.0), KernelSpec("rbf", 0.8), (0.5, 0.3, 0.2),
        )
        scaled = CoupledKernelSpec(
            base.k1_mode1, base.k1_mode2, base.k2, base.k3,
            tuple(c * w for w in base.weights),
        )
        m1 = fit(samples, y, base, lam=0.05)
        m2 = fit(samples, y, scaled, lam=0.05 * c)
        s1 = decision_many(m1, tests)
        s2 = decision_many(m2, tests)
        assert np.all(np.sign(s1) == np.sign(s2))
        np.testing.assert_allclose(s1, s2, rtol=1e-6, atol=1e-8)
