"""Benchmark harness tests: generation, splitting, metrics, orchestration."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cstm import experiments, stm
from cstm.acmtf import AcmtfFactors, AcmtfHyperParams, CoupledSample
from cstm.experiments import (
    _ROLE_SPLIT,
    MATRIX_DIMS,
    SIM_CASES,
    TENSOR_DIMS,
    ExperimentConfig,
    _candidates,
    _weight_grid,
    compute_metrics,
    derive_seed,
    fit_methods,
    gen_case,
    run_experiment,
    stratified_split,
)
from cstm.kernels import gram_matrix
from cstm.tensor_core import KruskalTensor, unfold


class TestCaseTable:
    def test_class1_always_baseline(self):
        for spec in SIM_CASES.values():
            assert spec.class1 == (1.0, 1.0, 1.0, 1.0)

    def test_case1_row(self):
        # Class 2: tensor factor 1 mean 1.5, matrix factor mean 1.25.
        assert SIM_CASES[1].class2 == (1.5, 1.0, 1.0, 1.25)

    def test_matrix_mean_progression_cases_1_to_5(self):
        means = [SIM_CASES[c].class2[3] for c in range(1, 6)]
        assert means == [1.25, 1.5, 1.75, 2.0, 2.25]
        for c in range(1, 6):
            assert SIM_CASES[c].class2[0] == 1.5

    def test_single_modality_cases(self):
        assert SIM_CASES[6].class2 == (2.0, 1.0, 1.0, 1.0)
        assert SIM_CASES[7].class2 == (1.0, 1.0, 1.0, 2.0)

    def test_case8_shared_only(self):
        assert SIM_CASES[8].class2 == (1.0, 1.0, 2.0, 1.0)

    def test_dims_and_rank(self):
        assert TENSOR_DIMS == (30, 20, 10)
        assert MATRIX_DIMS == (50, 10)
        for spec in SIM_CASES.values():
            assert spec.rank == 3


class TestGenCase:
    def test_shapes_labels_balance(self):
        samples = gen_case(1, 4, seed=0)
        assert len(samples) == 8
        labels = [s.label for s in samples]
        assert labels.count(1) == 4 and labels.count(-1) == 4
        for s in samples:
            assert s.tensor.shape == TENSOR_DIMS
            assert s.matrix.shape == MATRIX_DIMS

    def test_deterministic(self):
        a = gen_case(3, 3, seed=7)
        b = gen_case(3, 3, seed=7)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.tensor, sb.tensor)
            np.testing.assert_array_equal(sa.matrix, sb.matrix)
            assert sa.label == sb.label

    def test_exact_rank3(self):
        # Generation is an exact rank-3 construction: every unfolding has
        # numerical rank 3, and the rank-3 SVD reconstructs the matrix.
        s = gen_case(2, 1, seed=1)[0]
        for mode in (1, 2, 3):
            sv = np.linalg.svd(unfold(s.tensor, mode), compute_uv=False)
            assert sv[3] < 1e-9 * sv[0]
        u, sv, vt = np.linalg.svd(s.matrix)
        recon = (u[:, :3] * sv[:3]) @ vt[:3]
        assert np.linalg.norm(recon - s.matrix) < 1e-9 * np.linalg.norm(s.matrix)

    def test_class_mean_shift_shows_up(self):
        # Case 7: matrix factor mean 2 for class 2 -> larger matrix entries.
        samples = gen_case(7, 30, seed=2)
        m_neg = np.mean([s.matrix.mean() for s in samples if s.label < 0])
        m_pos = np.mean([s.matrix.mean() for s in samples if s.label > 0])
        assert m_pos > 1.5 * m_neg
        t_neg = np.mean([s.tensor.mean() for s in samples if s.label < 0])
        t_pos = np.mean([s.tensor.mean() for s in samples if s.label > 0])
        assert abs(t_pos - t_neg) < 0.5 * abs(t_neg)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            gen_case(9, 2, seed=0)

    def test_n_per_class_validated(self):
        with pytest.raises(ValueError):
            gen_case(1, 0, seed=0)


class TestStratifiedSplit:
    def test_paper_scale_split(self):
        labels = np.array([1] * 50 + [-1] * 50)
        tr, te = stratified_split(labels, 0.2, seed=0)
        assert te.size == 20 and tr.size == 80
        assert np.sum(labels[te] == 1) == 10
        assert np.sum(labels[tr] == 1) == 40

    def test_disjoint_cover(self):
        labels = np.array([1, -1] * 13)
        tr, te = stratified_split(labels, 0.3, seed=3)
        together = np.sort(np.concatenate([tr, te]))
        np.testing.assert_array_equal(together, np.arange(labels.size))

    def test_exact_division(self):
        labels = np.array([1, 1, 1, -1, -1, -1])
        tr, te = stratified_split(labels, 1 / 3, seed=1)
        assert np.sum(labels[te] == 1) == 1
        assert np.sum(labels[te] == -1) == 1

    def test_fraction_bounds(self):
        labels = np.array([1, -1])
        with pytest.raises(ValueError):
            stratified_split(labels, 0.0, seed=0)
        with pytest.raises(ValueError):
            stratified_split(labels, 1.0, seed=0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.array([1, 1, 1]), 0.5, seed=0)

    @pytest.mark.parametrize("labels, fraction, message", [
        ([1, 1, -1, -1, -1, -1], 0.2, "leaves class +1 (n = 2) no test sample"),
        ([1, 1, 1, 1, -1, -1, -1], 0.9, "leaves class -1 (n = 3) no training sample"),
    ], ids=["no_test", "no_training"])
    def test_class_without_a_part_rejected(self, labels, fraction, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            stratified_split(np.array(labels), fraction, seed=0)

    def test_round_half_to_even(self):
        labels = np.array([1] * 5 + [-1] * 5)
        _, te = stratified_split(labels, 0.5, seed=0)
        # 5 * 0.5 = 2.5 rounds to 2 per class (half to even).
        assert np.sum(labels[te] == 1) == 2


class TestComputeMetrics:
    def test_perfect(self):
        y = np.array([1.0, 1.0, -1.0, -1.0])
        m = compute_metrics(y, np.array([2.0, 1.0, -1.0, -2.0]))
        assert m.accuracy == m.precision == m.sensitivity == m.specificity == 1.0
        assert m.auc == 1.0

    def test_inverted(self):
        y = np.array([1.0, 1.0, -1.0, -1.0])
        m = compute_metrics(y, np.array([-1.0, -2.0, 1.0, 2.0]))
        assert m.accuracy == 0.0
        assert m.auc == 0.0

    def test_auc_three_quarters(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        m = compute_metrics(y, np.array([0.9, 0.8, 0.3, 0.1]))
        assert m.auc == 0.75

    def test_auc_matches_pairwise_definition(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = 12
            y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
            if np.all(y > 0) or np.all(y < 0):
                continue
            scores = rng.integers(0, 4, n).astype(float)  # forces ties
            m = compute_metrics(y, scores)
            pos = scores[y > 0]
            neg = scores[y < 0]
            total = correct = 0
            for p in pos:
                for q in neg:
                    total += 1
                    correct += 1.0 if p > q else 0.5 if p == q else 0.0
            assert abs(m.auc - correct / total) < 1e-12

    def test_undefined_ratio_is_nan(self):
        y = np.array([1.0, -1.0])
        m = compute_metrics(y, np.array([-1.0, -2.0]))  # no positive predictions
        assert np.isnan(m.precision)
        assert m.sensitivity == 0.0

    def test_zero_score_predicts_positive(self):
        y = np.array([1.0, -1.0])
        m = compute_metrics(y, np.array([0.0, 0.0]))
        assert m.sensitivity == 1.0  # ties predict +1
        assert m.specificity == 0.0
        assert m.auc == 0.5

    def test_nan_rows_excluded_from_means(self):
        from cstm.experiments import MetricsRow, MetricsSummary

        s = MetricsSummary(methods=("m",))
        s.rows["m"] = [
            MetricsRow(1.0, float("nan"), 1.0, 1.0, 1.0),
            MetricsRow(0.5, 1.0, 1.0, 1.0, 1.0),
        ]
        assert s.mean("m", "precision") == 1.0
        assert s.mean("m", "accuracy") == 0.75

    def test_undefined_metric_is_nan_without_warning(self, tmp_path):
        # Precision is NaN in every repetition (no positive predictions):
        # its mean and sd are NaN, written as nan, and numpy's empty-slice
        # warnings do not reach the user.
        from cstm.experiments import MetricsRow, MetricsSummary

        s = MetricsSummary(methods=("m",))
        s.rows["m"] = [MetricsRow(0.5, float("nan"), 0.0, 1.0, 0.5)] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(s.mean("m", "precision"))
            assert np.isnan(s.sd("m", "precision"))
            s.write_summary_csv(tmp_path / "summary.csv")
        assert "m,precision,nan,nan" in (tmp_path / "summary.csv").read_text()
        assert s.mean("m", "accuracy") == 0.5 and s.sd("m", "accuracy") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics(np.array([1.0]), np.array([1.0, 2.0]))

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            compute_metrics(np.array([1.0, 0.0]), np.array([1.0, 2.0]))


def fitted_grams(monkeypatch) -> list:
    """The training Grams that stm.fit receives from here on."""
    grams, fit = [], stm.fit

    def recording(*args, **kw):
        grams.append(kw["gram"])
        return fit(*args, **kw)
    monkeypatch.setattr(stm, "fit", recording)
    return grams


def three_method_trains(seed: int, n_per_class: int = 6):
    """Training lists of all three methods on shared random factors, and
    their labels: ACMTF factors, and the tensor and matrix parts of them as
    CP tensors."""
    rng = np.random.default_rng(seed)
    y = np.array([-1.0, 1.0] * n_per_class)
    trains = {m: [] for m in ("cstm", "cpstm_tensor", "cpstm_matrix")}
    for lab in y:
        cols = [rng.standard_normal((d, 2)) + 0.5 * (lab > 0) for d in (6, 5, 4, 7)]
        u1 = KruskalTensor(np.ones(2), tuple(cols[:3])).normalized()
        u2 = KruskalTensor(np.ones(2), (cols[3], cols[2])).normalized()
        for m, rep in zip(trains, (AcmtfFactors.from_kruskals(u1, u2), u1, u2)):
            trains[m].append(rep)
    return trains, y


def tiny_config(**kw):
    defaults = dict(
        case=1,
        n_per_class=6,
        repetitions=2,
        seed=3,
        test_fraction=0.25,
        acmtf=AcmtfHyperParams(rank=3, cg_tol=1e-4, max_iters=60),
        lambda_grid=(1e-2, 1.0),
        cv_folds=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_deterministic_rerun(self):
        cfg = tiny_config(repetitions=1)
        s1 = run_experiment(cfg)
        s2 = run_experiment(cfg)
        for m in cfg.methods:
            assert s1.rows[m] == s2.rows[m]
            assert s1.lambdas[m] == s2.lambdas[m]

    def test_single_method_row(self):
        cfg = tiny_config(methods=("cpstm_tensor",))
        s = run_experiment(cfg)
        assert set(s.rows) == {"cpstm_tensor"}
        assert len(s.rows["cpstm_tensor"]) == 2

    def test_metrics_in_range(self):
        cfg = tiny_config()
        s = run_experiment(cfg)
        for m in cfg.methods:
            for row in s.rows[m]:
                for v in row.as_tuple():
                    assert np.isnan(v) or 0.0 <= v <= 1.0

    def test_csv_outputs(self, tmp_path):
        cfg = tiny_config(methods=("cpstm_matrix",))
        s = run_experiment(cfg)
        res = tmp_path / "results.csv"
        summ = tmp_path / "summary.csv"
        s.write_results_csv(res)
        s.write_summary_csv(summ)
        lines = res.read_text().strip().splitlines()
        assert lines[0] == "method,repetition,accuracy,precision,sensitivity,specificity,auc"
        assert len(lines) == 1 + 2  # header + 2 repetitions
        summary_lines = summ.read_text().strip().splitlines()
        assert summary_lines[0] == "method,metric,mean,sd"
        assert len(summary_lines) == 1 + 5  # header + 5 metrics

    def test_config_validation(self):
        # A config needs no case (cstm fit reads none); a run without one
        # and without samples fails.  cstm benchmark reports "missing: case".
        with pytest.raises(ValueError, match="no case"):
            run_experiment(ExperimentConfig())
        with pytest.raises(ValueError):
            tiny_config(methods=("nope",))
        with pytest.raises(ValueError):
            tiny_config(test_fraction=0.0)
        with pytest.raises(ValueError):
            tiny_config(lambda_grid=(0.0, 1.0))

    @pytest.mark.parametrize("kw, message", [
        (dict(n_per_class=2, test_fraction=0.2), "leaves each class (n = 2) no test sample"),
        (dict(n_per_class=3, test_fraction=0.9), "leaves each class (n = 3) no training sample"),
        (dict(methods=("cstm", "cstm")), "duplicate method"),
    ], ids=["no_test", "no_training", "duplicate_method"])
    def test_degenerate_study_rejected_at_config_time(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_config(**kw)
        if "n_per_class" in kw:
            # Without a case the class sizes come from the data, and the
            # split checks them.
            ExperimentConfig(**kw)

    def test_threads_match_serial(self):
        # 8 samples: 3 workers get uneven slices (2, 3, 3) and 9 threads
        # leave one empty slice, which starts no worker.
        for methods in (("cpstm_tensor",), ("cstm",),
                        ("cstm", "cpstm_tensor", "cpstm_matrix")):
            serial = run_experiment(tiny_config(n_per_class=4, methods=methods))
            assert (serial.acmtf_seconds > 0) == ("cstm" in methods)
            assert (serial.cp_als_seconds > 0) == ("cpstm_tensor" in methods)
            for threads in (2, 3, 9):
                s = run_experiment(
                    tiny_config(n_per_class=4, methods=methods, threads=threads)
                )
                for m in methods:
                    assert s.rows[m] == serial.rows[m]
                    assert s.lambdas[m] == serial.lambdas[m]
                assert repr(s.mean_final_objective) == repr(serial.mean_final_objective)

    def test_weight_tuning_runs_and_records(self):
        cfg = tiny_config(methods=("cstm",), repetitions=1, tune_weights=True)
        s = run_experiment(cfg)
        (w,) = s.weights
        assert len(w) == 3
        assert abs(sum(w) - 1.0) < 1e-9

    def test_weight_tuning_pick_is_pinned(self, monkeypatch):
        # One CV pass over all weight candidates picks what the former
        # separate select_lambda + accuracy passes picked on this input,
        # whose CV seed is 11.
        rng = np.random.default_rng(2024)
        y = np.array([-1.0, 1.0] * 10)
        fs = []
        for lab in y:
            rank = int(rng.integers(2, 5))
            cols = [rng.standard_normal((d, rank)) for d in (6, 5, 4, 7)]
            cols[0] += 0.5 * (lab > 0)
            cols[2] += 0.15 * (lab > 0)
            u1 = KruskalTensor(np.ones(rank), tuple(cols[:3])).normalized()
            u2 = KruskalTensor(np.ones(rank), (cols[3], cols[2])).normalized()
            fs.append(AcmtfFactors.from_kruskals(u1, u2))
        cfg = ExperimentConfig(
            case=3, tune_weights=True, cv_folds=4,
            lambda_grid=(1e-3, 1e-2, 1e-1, 1.0),
        )
        monkeypatch.setattr(experiments, "derive_seed", lambda *_: 11)
        grams = fitted_grams(monkeypatch)
        model = fit_methods({"cstm": fs}, y, cfg, 0)["cstm"]
        assert np.allclose(model.kernel.weights, (0.6, 0.2, 0.2), atol=1e-12)
        assert model.lam == 0.1
        np.testing.assert_allclose(grams, [gram_matrix(fs, model.kernel)],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("tune", [False, True], ids=["fixed_weights", "tuned_weights"])
    def test_methods_fitted_together_equal_each_alone(self, tune, monkeypatch):
        # The duals of all three methods share one CV pass, and a chunk of
        # it holds candidates of two methods; each model is still the one
        # its method gets alone, bit for bit.
        trains, y = three_method_trains(8)
        cfg = ExperimentConfig(lambda_grid=(1e-3, 0.1, 10.0), cv_folds=2, tune_weights=tune)
        alone = {m: fit_methods({m: train}, y, cfg, 4)[m] for m, train in trains.items()}
        if not tune:  # pins an input on which each method picks its own lambda
            assert len({model.lam for model in alone.values()}) == 3
        # 2 folds x 3 lambdas = 6 duals per candidate.  Untuned: cstm and
        # cpstm_tensor in the first chunk; tuned: cstm's last weight
        # candidate (index 65) and both CP candidates in the last one.
        monkeypatch.setattr(stm, "CV_BATCH_DUALS", 6 * (2 if not tune else 5))
        together = fit_methods(trains, y, cfg, 4)
        assert list(together) == list(trains)
        for m, model in together.items():
            assert model.alpha.tobytes() == alone[m].alpha.tobytes()
            assert repr(model.bias) == repr(alone[m].bias)
            assert model.lam == alone[m].lam
            assert model.kernel == alone[m].kernel

    def test_one_solve_batch_per_split(self, monkeypatch):
        # Every method's candidate x fold x lambda duals of a split go into
        # one solve_qp_many call as long as they fit the cap on duals per
        # call; the weight grid's 68 candidates do not, and are cut into
        # chunks of whole candidates.
        assert 3 * 2 * 3 <= stm.CV_BATCH_DUALS < 68 * 2 * 3
        batches = []
        solve_many = stm.solve_qp_many

        def counting(problems, tol=1e-6, max_passes=1000):
            batches.append((len(problems), tol))
            return solve_many(problems, tol, max_passes)
        monkeypatch.setattr(stm, "solve_qp_many", counting)
        trains, y = three_method_trains(8)
        cfg = ExperimentConfig(lambda_grid=(1e-3, 0.1, 10.0), cv_folds=2)
        fit_methods(trains, y, cfg, 1)
        # The CV duals stop at CV_TOL; the three final fits are batches of
        # one at solve_qp's default of 1e-6.
        cv, final = stm.CV_TOL, (1, 1e-6)
        assert cv == 1e-3
        assert batches == [(3 * 2 * 3, cv)] + [final] * 3
        batches.clear()
        fit_methods(trains, y, replace(cfg, tune_weights=True), 1)
        per_chunk = stm.CV_BATCH_DUALS // (2 * 3)
        assert batches == [(per_chunk * 6, cv), ((68 - per_chunk) * 6, cv)] + [final] * 3
        assert len(_weight_grid()) == 66

    @pytest.mark.parametrize("kernel", [
        dict(), dict(kernel_bandwidth=0.7), dict(kernel_kind="linear"),
        dict(kernel_kind="polynomial", kernel_degree=3, kernel_offset=0.5),
    ], ids=["median_rbf", "fixed_rbf", "linear", "polynomial"])
    def test_weighted_part_grams_equal_gram_matrix(self, kernel):
        # The Gram of each weight candidate is a sum of three part Grams;
        # it must equal gram_matrix of the weighted spec bit for bit, for
        # every grid point (several with zero weights) and uneven weights.
        rng = np.random.default_rng(7)
        y = np.array([-1.0, 1.0] * 6)
        fs = []
        for rank in rng.integers(1, 5, y.size):
            u1 = KruskalTensor(rng.random(rank), tuple(rng.standard_normal((d, rank))
                                                       for d in (6, 5, 4)))
            u2 = KruskalTensor(rng.random(rank), (rng.standard_normal((7, rank)),
                                                  u1.factors[2]))
            fs.append(AcmtfFactors.from_kruskals(u1.normalized(), u2.normalized()))
        cfg = ExperimentConfig(lambda_grid=(1.0,), cv_folds=2, **kernel)
        for weights in _weight_grid() + [(1 / 3, 1 / 3, 1 / 3), (0.25, 0.0, 2.0)]:
            (spec,), (gram,) = _candidates(fs, replace(cfg, kernel_weights=weights))
            assert spec.weights == weights
            assert gram.tobytes() == gram_matrix(fs, spec).tobytes()
        # Under tune_weights the candidates are the grid's, in its order.
        specs, grams = _candidates(fs, replace(cfg, tune_weights=True))
        assert [s.weights for s in specs] == _weight_grid()
        for spec, gram in zip(specs, grams):
            assert gram.tobytes() == gram_matrix(fs, spec).tobytes()

    def test_tolerated_failures_are_recorded(self):
        # The one +1 sample would go to the test part of every split, so
        # every split is refused.
        rng = np.random.default_rng(8)
        samples = [CoupledSample(rng.standard_normal((4, 3, 5)),
                                 rng.standard_normal((6, 5)), label)
                   for label in (-1, -1, 1, -1, -1)]
        cfg = tiny_config(test_fraction=0.6, repetitions=3,
                          acmtf=AcmtfHyperParams(rank=2, max_iters=20))
        message = "test_fraction 0.6 leaves class +1 (n = 1) no training sample"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg, samples)
        s = run_experiment(replace(cfg, tolerate_failures=True), samples)
        assert s.failures == [
            (rep, f"seed {derive_seed(cfg.seed, _ROLE_SPLIT, rep)}: ValueError: {message}")
            for rep in range(3)
        ]
        assert all(s.rows[m] == [] and s.lambdas[m] == [] for m in cfg.methods)

    def test_stage_timings_recorded(self):
        cfg = tiny_config(methods=("cstm",), repetitions=1)
        s = run_experiment(cfg)
        assert s.decompose_seconds > 0
        assert s.repetitions_seconds > 0
        assert np.isfinite(s.mean_final_objective)
