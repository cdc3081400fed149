"""End-to-end command-line tests."""

import csv
import dataclasses
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import cstm
from cstm import container, experiments
from cstm.acmtf import (
    AcmtfFactors,
    AcmtfHyperParams,
    CoupledSample,
    acmtf_decompose_many,
    acmtf_objective,
)
from cstm.cli import main
from cstm.config import parse_config
from cstm.experiments import _ROLE_DECOMPOSE, derive_seed, fit_methods
from cstm.kernels import CoupledKernelSpec, KernelSpec
from cstm.stm import StmModel
from cstm.tensor_core import KruskalTensor

CONFIG_SMALL = """\
[experiment]
case = 1
n_per_class = 4
test_fraction = 0.25
repetitions = 2
seed = 5

[acmtf]
rank = 3
cg_tol = 1e-4
max_iters = 60

[stm]
lambda_grid = 0.01, 1
cv_folds = 2
"""

FIT_CONFIG = """\
[experiment]
case = 1
seed = 2

[acmtf]
rank = 2
cg_tol = 1e-6
max_iters = 200

[stm]
lambda_grid = 0.01
cv_folds = 2
"""


def ones_factors(dims=(4, 3, 5, 6)):
    """Rank-1 joint factors of all-ones columns."""
    i1, i2, i3, i4 = dims
    u1 = KruskalTensor(np.ones(1), tuple(np.ones((d, 1)) for d in (i1, i2, i3)))
    u2 = KruskalTensor(np.ones(1), (np.ones((i4, 1)), np.ones((i3, 1))))
    return AcmtfFactors.from_kruskals(u1, u2)


def write_ones_model(path, alpha=(0.5, 0.5), lam=0.1, bias=0.0, dims=((4, 3, 5, 6),) * 2):
    model = StmModel(np.asarray(alpha, dtype=float), np.array([1.0, -1.0])[:len(dims)],
                     tuple(ones_factors(d) for d in dims), CoupledKernelSpec(), lam, bias)
    container.write_model(path, model, AcmtfHyperParams(rank=1, max_iters=20))
    return path


def write_order_0_factors(path):
    # The first array record, right after the 12-byte header, claims order 0.
    container.write_factors(path, ones_factors())
    data = path.read_bytes()
    path.write_bytes(data[:12] + bytes(4) + data[16:])
    return path


# Crafted files that every command must reject with exit 4.
HOSTILE = {
    "order_0_factors": write_order_0_factors,
    "empty_model": lambda p: write_ones_model(p, alpha=(), dims=()),
    "mixed_dims_model": lambda p: write_ones_model(p, dims=((4, 3, 5, 6), (4, 3, 5, 7))),
    "nan_bias_model": lambda p: write_ones_model(p, bias=float("nan")),
    "nan_alpha_model": lambda p: write_ones_model(p, alpha=(0.5, float("nan"))),
    "inf_lambda_model": lambda p: write_ones_model(p, lam=float("inf")),
}


def write_separable_samples(directory, n_per_class=4, seed=0):
    """Well-separated rank-1 coupled samples: one factor set per class."""
    rng = np.random.default_rng(seed)
    bases = {}
    for label in (1, -1):
        base = [rng.standard_normal(d) for d in (6, 5, 4, 7)]
        bases[label] = [v / np.linalg.norm(v) for v in base]
    idx = 0
    for label in (1, -1):
        for _ in range(n_per_class):
            cols = []
            for v in bases[label]:
                w = v + 0.05 * rng.standard_normal(v.size)
                cols.append(w / np.linalg.norm(w))
            a, b, c, u = cols
            tensor = 2.0 * np.einsum("i,j,k->ijk", a, b, c)
            matrix = 1.5 * np.outer(u, c)
            container.write_sample(
                directory / f"sample_{idx:04d}.cstm",
                CoupledSample(tensor, matrix, label),
            )
            idx += 1


class TestSimulate:
    def test_writes_samples_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["simulate", "--case", "1", "--n-per-class", "2",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        files = sorted(p.name for p in out.glob("sample_*.cstm"))
        assert len(files) == 4
        assert (out / "manifest.txt").exists()
        s = container.read_sample(out / files[0])
        assert s.tensor.shape == (30, 20, 10)


class TestDecompose:
    def test_reload_reproduces_objective(self, tmp_path):
        out = tmp_path / "data"
        main(["simulate", "--case", "1", "--n-per-class", "1",
              "--seed", "1", "--out", str(out)])
        sample_path = out / "sample_0000.cstm"
        factors_path = tmp_path / "f.cstm"
        rc = main(["decompose", "--in", str(sample_path), "--rank", "3",
                   "--beta", "0.001", "--max-iters", "80", "--cg-tol", "1e-4",
                   "--seed", "2", "--out", str(factors_path)])
        assert rc == 0
        manifest = (tmp_path / "f.cstm.manifest.txt").read_text()
        stored = dict(
            line.split(" = ", 1) for line in manifest.strip().splitlines()
        )
        sample = container.read_sample(sample_path)
        factors = container.read_factors(factors_path)
        params = AcmtfHyperParams(rank=3, beta=0.001, cg_tol=1e-4, max_iters=80)
        reloaded_obj = acmtf_objective(sample, factors, params)
        # The manifest records the pre-normalization objective at
        # termination; the reloaded factors reproduce the normalized
        # objective bit-for-bit across write/read.
        again = acmtf_objective(sample, container.read_factors(factors_path), params)
        assert reloaded_obj == again
        assert float(stored["final_objective"]) > 0
        # Solver counts: the starting point and at least one trial per step.
        assert int(stored["evaluations"]) > int(stored["iterations"]) >= 1
        assert stored["stop"] in ("tol", "max_iters", "no_descent", "zero_grad")
        assert stored["converged"] == str(stored["stop"] != "max_iters")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bad_cg_tol_is_config_error(self, tmp_path, value):
        out = tmp_path / "data"
        main(["simulate", "--case", "1", "--n-per-class", "1",
              "--seed", "1", "--out", str(out)])
        rc = main(["decompose", "--in", str(out / "sample_0000.cstm"), "--cg-tol", value,
                   "--out", str(tmp_path / "f.cstm")])
        assert rc == 1
        assert not (tmp_path / "f.cstm").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main(["decompose", "--in", str(tmp_path / "nope.cstm"),
                   "--out", str(tmp_path / "f.cstm")])
        assert rc == 2


class TestFitPredict:
    def test_end_to_end_training_accuracy(self, tmp_path):
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG)
        model_path = tmp_path / "model.cstm"
        rc = main(["fit", "--train", str(data), "--config", str(cfg),
                   "--out", str(model_path)])
        assert rc == 0
        out_csv = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model_path), "--in", str(data),
                   "--seed", "0", "--out", str(out_csv)])
        assert rc == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        truth = {f"sample_{i:04d}.cstm": (1 if i < 4 else -1) for i in range(8)}
        correct = sum(int(r["label"]) == truth[r["file"]] for r in rows)
        assert correct == 8

    def test_fit_and_predict_manifests_record_stop_histograms(self, tmp_path):
        # Each decomposed sample counts once, under its stop reason.
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG)
        model_path, out_csv = tmp_path / "model.cstm", tmp_path / "pred.csv"
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model_path)]) == 0
        assert main(["predict", "--model", str(model_path), "--in", str(data),
                     "--seed", "0", "--out", str(out_csv)]) == 0
        for path in (tmp_path / "model.cstm.manifest.txt", tmp_path / "pred.csv.manifest.txt"):
            manifest = dict(line.split(" = ", 1) for line in path.read_text().splitlines())
            counts = dict(item.split(": ") for item in manifest["acmtf_stops"].split(", "))
            assert set(counts) <= {"tol", "max_iters", "no_descent", "zero_grad"}
            assert sum(map(int, counts.values())) == 8
            assert float(manifest["wall_clock_decompose_s"]) >= 0

    def test_tune_weights_picks_weights_and_lambda_as_the_study(self, tmp_path):
        # `cstm fit` selects through experiments.fit_methods, as a study's
        # repetition 0 does; with tune_weights on, the model carries its pick
        # on the same factors.
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        text = FIT_CONFIG.replace("lambda_grid = 0.01", "lambda_grid = 0.01, 0.1, 1")
        text += "\n[kernel]\ntune_weights = true\n"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        model_path = tmp_path / "model.cstm"
        assert main(["fit", "--train", str(data), "--config", str(cfg_path),
                     "--out", str(model_path)]) == 0

        cfg = parse_config(text)
        samples = [container.read_sample(p) for p in sorted(data.glob("*.cstm"))]
        labels = np.array([s.label for s in samples], dtype=np.float64)
        seeds = [derive_seed(cfg.seed, _ROLE_DECOMPOSE, i) for i in range(len(samples))]
        factors = [f.pruned(cfg.prune_rel)
                   for f in acmtf_decompose_many(samples, cfg.acmtf, seeds)]
        picked = fit_methods({"cstm": factors}, labels, cfg, 0)["cstm"]
        spec, lam = picked.kernel, picked.lam
        assert spec.weights != cfg.kernel_weights
        model, _, _ = container.read_model(model_path)
        assert model.kernel == spec
        assert model.lam == lam
        manifest = dict(
            line.split(" = ", 1)
            for line in (tmp_path / "model.cstm.manifest.txt").read_text().splitlines()
        )
        assert manifest["weights"] == ", ".join(repr(v) for v in spec.weights)
        assert manifest["lambda"] == repr(lam)

    @pytest.mark.parametrize("kernel, want", [
        ("bandwidth = 0.8\n", KernelSpec("rbf", 0.8)),
        ("kind = polynomial\ndegree = 3\noffset = 0.5\n",
         KernelSpec("polynomial", degree=3, offset=0.5)),
    ], ids=["bandwidth", "polynomial"])
    def test_fixed_kernel_is_stored(self, tmp_path, kernel, want):
        # A fixed bandwidth or a non-rbf kind replaces the median heuristic
        # in every part of the coupled kernel.
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG + "\n[kernel]\n" + kernel)
        model_path = tmp_path / "model.cstm"
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model_path)]) == 0
        model, _, _ = container.read_model(model_path)
        assert model.kernel == CoupledKernelSpec(want, want, want, want)

    def test_threads_decompose_in_a_pool_to_the_same_model(self, tmp_path, monkeypatch):
        # `threads` reaches fit's decomposition: two workers start one pool,
        # and the model file is byte-identical to the serial fit's.
        pools = []

        class CountingPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        models = {}
        for threads in (1, 2):
            cfg = tmp_path / f"cfg{threads}.txt"
            cfg.write_text(FIT_CONFIG.replace("seed = 2\n", f"seed = 2\nthreads = {threads}\n"))
            models[threads] = tmp_path / f"model{threads}.cstm"
            assert main(["fit", "--train", str(data), "--config", str(cfg),
                         "--out", str(models[threads])]) == 0
        assert pools == [2]
        assert models[2].read_bytes() == models[1].read_bytes()

    def test_unlabeled_training_sample_exit1(self, tmp_path, capsys):
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        path = data / "sample_0005.cstm"
        s = container.read_sample(path)
        container.write_sample(path, CoupledSample(s.tensor, s.matrix, 0))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG)
        model_path = tmp_path / "model.cstm"
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model_path)]) == 1
        assert f"unlabeled training sample: {path}" in capsys.readouterr().err
        assert not model_path.exists()

    def test_one_class_training_set_exit1_before_decomposing(self, tmp_path, capsys,
                                                             monkeypatch):
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        for path in sorted(data.glob("*.cstm"))[:4]:  # the +1 samples
            path.unlink()
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG)

        def refuse(*args, **kwargs):
            raise AssertionError("decompose_samples called")
        monkeypatch.setattr(experiments, "decompose_samples", refuse)
        model_path = tmp_path / "model.cstm"
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model_path)]) == 1
        assert f"{data}: training set needs +1 and -1 samples" in capsys.readouterr().err
        assert not model_path.exists()

    def test_non_finite_scores_exit3_without_predictions(self, tmp_path, capsys):
        # A fitted model whose matrix-factor kernel overflows: (x + 2)^5000
        # is inf, so every score is NaN.
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG)
        model_path = tmp_path / "model.cstm"
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model_path)]) == 0
        model, params, prune_rel = container.read_model(model_path)
        k3 = KernelSpec("polynomial", degree=5000, offset=2.0)
        model = dataclasses.replace(model, kernel=dataclasses.replace(model.kernel, k3=k3))
        container.write_model(model_path, model, params, prune_rel)
        out_csv = tmp_path / "pred.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["predict", "--model", str(model_path), "--in", str(data),
                       "--out", str(out_csv)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"error: {data / 'sample_0000.cstm'}: non-finite decision score\n"
        assert not out_csv.exists()

    def test_fit_bandwidth_too_small_for_columns_exit1(self, tmp_path, capsys):
        # Accepted by KernelSpec, but unit factor columns divided by sqrt(2) bw
        # overflow; the Gram engine says so before any RuntimeWarning (which
        # fails this suite) and the model is not written.
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG + "\n[kernel]\nkind = rbf\nbandwidth = 1e-155\n")
        model_path = tmp_path / "model.cstm"
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model_path)]) == 1
        assert "rbf bandwidth 1e-155 is too small" in capsys.readouterr().err
        assert not model_path.exists()

    def test_fit_needs_no_case(self, tmp_path):
        # Only the benchmark reads case or dataset; a config of [acmtf],
        # [kernel] and [stm] sections is enough to fit.
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG.split("\n\n", 1)[1] + "\n[kernel]\nkind = rbf\n")
        assert "case" not in cfg.read_text()
        model_path = tmp_path / "model.cstm"
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model_path)]) == 0
        model, params, _ = container.read_model(model_path)
        assert len(model.factors) == 8 and params.rank == 2

    def test_predict_dim_mismatch_exit4(self, tmp_path):
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG)
        model_path = tmp_path / "model.cstm"
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model_path)]) == 0
        other = tmp_path / "other"
        other.mkdir()
        rng = np.random.default_rng(0)
        container.write_sample(
            other / "sample_0000.cstm",
            CoupledSample(rng.standard_normal((3, 3, 3)),
                          rng.standard_normal((4, 3)), 1),
        )
        rc = main(["predict", "--model", str(model_path), "--in", str(other),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 4

    def test_fit_mixed_dims_exit4_names_file(self, tmp_path, capsys):
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        odd = data / "sample_0005.cstm"
        s = container.read_sample(odd)
        container.write_sample(odd, CoupledSample(s.tensor[:, :, :-1], s.matrix[:, :-1], s.label))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG)
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "model.cstm")]) == 4
        assert f"error: {odd}: sample dims" in capsys.readouterr().err
        assert not (tmp_path / "model.cstm").exists()

    @pytest.mark.parametrize("scale, code", [(1e160, 0), (1e308, 3)])
    def test_sample_with_huge_norm(self, tmp_path, scale, code):
        # Finite entries whose Frobenius norm overflows still normalize; a
        # norm beyond the float64 range is a numerical abort.
        data = tmp_path / "train"
        data.mkdir()
        write_separable_samples(data)
        path = data / "sample_0000.cstm"
        s = container.read_sample(path)
        huge = np.full(s.tensor.shape, scale) * np.sign(s.tensor + 1e-300)
        container.write_sample(path, CoupledSample(huge, s.matrix, s.label))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FIT_CONFIG)
        with np.errstate(over="ignore"):
            rc = main(["fit", "--train", str(data), "--config", str(cfg),
                       "--out", str(tmp_path / "model.cstm")])
        assert rc == code

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_file_exit4(self, tmp_path, capsys, name):
        # Each read fails with one error line, not a traceback, an exit 1
        # or NaN scores written with exit 0.
        path = HOSTILE[name](tmp_path / "f.cstm")
        data = tmp_path / "new"
        data.mkdir()
        container.write_sample(data / "s.cstm",
                               CoupledSample(np.ones((4, 3, 5)), np.ones((6, 5)), 1))
        assert main(["inspect", "--in", str(path)]) == 4
        if name.endswith("_model"):
            assert main(["predict", "--model", str(path), "--in", str(data),
                         "--out", str(tmp_path / "p.csv")]) == 4
            assert not (tmp_path / "p.csv").exists()
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("error: ") for line in err)

    def test_version_mismatch_exit4(self, tmp_path):
        bad = tmp_path / "bad.cstm"
        bad.write_bytes(b"CSTM" + struct.pack("<I", 99) + struct.pack("<I", 3))
        rc = main(["inspect", "--in", str(bad)])
        assert rc == 4


class TestBenchmark:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CONFIG_SMALL)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["benchmark", "--config", str(cfg), "--out", str(out2)]) == 0
        res1 = (out1 / "results.csv").read_bytes()
        res2 = (out2 / "results.csv").read_bytes()
        assert res1 == res2
        with open(out1 / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        methods = {r["method"] for r in rows}
        assert methods == {"cstm", "cpstm_tensor", "cpstm_matrix"}
        for m in methods:
            assert sum(r["method"] == m for r in rows) == 2
        assert (out1 / "summary.csv").exists()
        manifest = dict(
            line.split(" = ", 1)
            for line in (out1 / "manifest.txt").read_text().strip().splitlines()
        )
        # Per-stage decomposition seconds, summed over workers (printed to
        # the millisecond, so a small run can read 0).
        assert float(manifest["acmtf_s"]) >= 0
        assert float(manifest["cp_als_s"]) >= 0

    def test_manifest_records_tuned_cstm_weights(self, tmp_path):
        text = CONFIG_SMALL + "\n[kernel]\ntune_weights = true\n"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        manifest = dict(
            line.split(" = ", 1)
            for line in (tmp_path / "o" / "manifest.txt").read_text().splitlines()
        )
        picked = [tuple(float(v) for v in triple.split(", "))
                  for triple in manifest["weights.cstm"].split("; ")]
        assert picked == experiments.run_experiment(parse_config(text)).weights
        assert len(picked) == 2 and all(abs(sum(w) - 1.0) < 1e-9 for w in picked)
        assert not any(key.startswith("weights.cpstm") for key in manifest)

    def test_manifest_records_stop_histograms(self, tmp_path):
        # Every decomposed sample counts once, under its solver's stop
        # reason; a study without a method has no histogram for its solver.
        cfg = tmp_path / "cfg.txt"
        for methods, keys in (("cstm, cpstm_tensor", {"acmtf_stops", "cp_als_stops"}),
                              ("cpstm_matrix", set())):
            cfg.write_text(CONFIG_SMALL.replace("[acmtf]", f"methods = {methods}\n\n[acmtf]"))
            out = tmp_path / methods.replace(", ", "_")
            assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
            manifest = dict(line.split(" = ", 1)
                            for line in (out / "manifest.txt").read_text().splitlines())
            assert {k for k in manifest if k.endswith("_stops")} == keys
            for key in keys:
                counts = dict(item.split(": ") for item in manifest[key].split(", "))
                assert set(counts) <= {"tol", "max_iters", "no_descent", "zero_grad"}
                assert sum(map(int, counts.values())) == 8  # 4 per class

    @pytest.mark.parametrize("kernel, want", [
        ("bandwidth = 0.8\n", KernelSpec("rbf", 0.8)),
        ("kind = linear\n", KernelSpec("linear")),
    ], ids=["bandwidth", "linear"])
    def test_fixed_kernel_reaches_every_gram(self, tmp_path, monkeypatch, kernel, want):
        # Every Gram of the study, coupled and CP, uses the configured kernel.
        seen = []

        def spy(name):
            real = getattr(experiments, name)

            def wrapped(samples, spec):
                seen.append(spec)
                return real(samples, spec)
            monkeypatch.setattr(experiments, name, wrapped)

        spy("gram_matrix")
        spy("cp_gram")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CONFIG_SMALL + "\n[kernel]\n" + kernel)
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        coupled = [s for s in seen if isinstance(s, CoupledKernelSpec)]
        cp = [s for s in seen if not isinstance(s, CoupledKernelSpec)]
        # Two repetitions: three part Grams each, and one CP Gram per method.
        assert len(coupled) == 6 and len(cp) == 4
        for spec in coupled:
            assert (spec.k1_mode1, spec.k1_mode2, spec.k2, spec.k3) == (want,) * 4
        for specs in cp:
            assert set(specs) == {want}

    def test_threads_option_overrides_config(self, tmp_path, monkeypatch):
        seen = []
        real = experiments.run_experiment

        def spy(cfg, samples=None):
            seen.append(cfg.threads)
            return real(cfg, samples)
        monkeypatch.setattr(experiments, "run_experiment", spy)
        by_flag, by_config = tmp_path / "flag.cfg", tmp_path / "config.cfg"
        by_flag.write_text(CONFIG_SMALL.replace("seed = 5\n", "seed = 5\nthreads = 1\n"))
        by_config.write_text(CONFIG_SMALL.replace("seed = 5\n", "seed = 5\nthreads = 2\n"))
        assert main(["benchmark", "--config", str(by_flag), "--threads", "2",
                     "--out", str(tmp_path / "flag")]) == 0
        assert main(["benchmark", "--config", str(by_config),
                     "--out", str(tmp_path / "config")]) == 0
        assert seen == [2, 2]
        assert ((tmp_path / "flag" / "results.csv").read_bytes()
                == (tmp_path / "config" / "results.csv").read_bytes())

    def test_dataset_directory_runs_like_its_case(self, tmp_path):
        # `cstm simulate` writes gen_case(1, 4, 5), which is what the
        # config's case, n_per_class and seed generate in memory.
        data = tmp_path / "data"
        assert main(["simulate", "--case", "1", "--n-per-class", "4",
                     "--seed", "5", "--out", str(data)]) == 0
        by_case, by_dir = tmp_path / "case.cfg", tmp_path / "dir.cfg"
        by_case.write_text(CONFIG_SMALL)
        by_dir.write_text(CONFIG_SMALL.replace("case = 1", f"dataset = {data}"))
        for cfg in (by_case, by_dir):
            assert main(["benchmark", "--config", str(cfg),
                         "--out", str(tmp_path / cfg.stem)]) == 0
        assert ((tmp_path / "dir" / "results.csv").read_bytes()
                == (tmp_path / "case" / "results.csv").read_bytes())
        missing = tmp_path / "missing.cfg"
        missing.write_text(CONFIG_SMALL.replace("case = 1", f"dataset = {tmp_path / 'no'}"))
        assert main(["benchmark", "--config", str(missing),
                     "--out", str(tmp_path / "none")]) == 2
        assert not (tmp_path / "none").exists()

    def test_dataset_split_refused_before_decomposing(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decompose_samples called")
        monkeypatch.setattr(experiments, "decompose_samples", refuse)
        small = tmp_path / "small"  # 2 per class: round(2 * 0.25) = 0 test samples
        assert main(["simulate", "--case", "1", "--n-per-class", "2",
                     "--out", str(small)]) == 0
        unlabeled = tmp_path / "unlabeled"
        assert main(["simulate", "--case", "1", "--n-per-class", "4",
                     "--out", str(unlabeled)]) == 0
        path = unlabeled / "sample_0002.cstm"
        s = container.read_sample(path)
        container.write_sample(path, CoupledSample(s.tensor, s.matrix, 0))
        for data, message in (
            (small, "test_fraction 0.25 leaves class -1 (n = 2) no test sample"),
            (unlabeled, f"unlabeled sample: {path}"),
        ):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(CONFIG_SMALL.replace("case = 1", f"dataset = {data}"))
            out = tmp_path / "run"
            assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_dataset_mixed_dims_exit4_names_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["simulate", "--case", "1", "--n-per-class", "4",
                     "--out", str(data)]) == 0
        odd = data / "sample_0003.cstm"
        s = container.read_sample(odd)
        container.write_sample(odd, CoupledSample(s.tensor[:, :, :-1], s.matrix[:, :-1], s.label))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CONFIG_SMALL.replace("case = 1", f"dataset = {data}"))
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 4
        assert f"error: {odd}: sample dims" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_exit1_no_outputs(self, tmp_path):
        empty_grid = CONFIG_SMALL.replace("lambda_grid = 0.01, 1", "lambda_grid = ,")
        no_samples = CONFIG_SMALL.replace("n_per_class = 4", "n_per_class = 0")
        zero_weights = CONFIG_SMALL + "\n[kernel]\nw1 = 0\nw2 = 0\nw3 = 0\n"
        negative_weight = CONFIG_SMALL + "\n[kernel]\nw1 = -0.5\n"
        no_test_part = CONFIG_SMALL.replace("n_per_class = 4", "n_per_class = 2")
        no_training_part = CONFIG_SMALL.replace("n_per_class = 4", "n_per_class = 3").replace(
            "test_fraction = 0.25", "test_fraction = 0.9")
        twice = CONFIG_SMALL.replace("seed = 5\n", "seed = 5\nmethods = cstm, cstm\n")
        for text in ("[acmtf]\nbeta = -1\n", empty_grid, no_samples, zero_weights,
                     negative_weight, no_test_part, no_training_part, twice):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(text)
            out = tmp_path / "run"
            rc = main(["benchmark", "--config", str(cfg), "--out", str(out)])
            assert rc == 1
            assert not out.exists()
            # fit reads the config before any sample: exit 1, not 2 for
            # the missing training directory.
            model = tmp_path / "model.cstm"
            assert main(["fit", "--train", str(tmp_path / "none"), "--config", str(cfg),
                         "--out", str(model)]) == 1
            assert not model.exists()

    @pytest.mark.parametrize("scale, methods, message", [
        (1e160, "cstm, cpstm_tensor", "sum of squares overflows float64"),
        (1e160, "cstm", None),
        (1.5e308, "cstm", "Frobenius norm exceeds the float64 range (iteration 0)"),
    ], ids=["cp_als", "acmtf_only", "acmtf_range"])
    def test_tensor_whose_sum_of_squares_overflows(self, tmp_path, capsys, scale, methods,
                                                   message):
        # A case-3 tensor at entries up to 1e160 has a finite norm but no
        # finite sum of squares: ACMTF scales it and fits, CP-ALS aborts.
        # At 1.5e308 the norm overflows too, and ACMTF aborts.  With two
        # workers, sample 7 of 10 is sample 2 of the second slice; an abort
        # names its file and makes no output directory.
        data = tmp_path / "data"
        assert main(["simulate", "--case", "3", "--n-per-class", "5", "--seed", "1",
                     "--out", str(data)]) == 0
        path = data / "sample_0007.cstm"
        s = container.read_sample(path)
        huge = s.tensor * (scale / np.abs(s.tensor).max())
        container.write_sample(path, CoupledSample(huge, s.matrix, s.label))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CONFIG_SMALL.replace("case = 1", f"dataset = {data}\nthreads = 2").replace(
            "[acmtf]", f"methods = {methods}\n\n[acmtf]"))
        out = tmp_path / "o"
        code = main(["benchmark", "--config", str(cfg), "--out", str(out)])
        if message is None:
            assert code == 0 and (out / "results.csv").exists()
        else:
            assert code == 3
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
            assert not out.exists()

    def test_missing_config_exit2(self, tmp_path):
        rc = main(["benchmark", "--config", str(tmp_path / "none.txt"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestInspect:
    def test_prints_metadata(self, tmp_path, capsys):
        path = tmp_path / "s.cstm"
        container.write_sample(path, CoupledSample(np.zeros((2, 3, 4)), np.zeros((5, 4)), -1))
        assert main(["inspect", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind: sample" in out
        assert "label: -1" in out
        assert "tensor_dims: (2, 3, 4)" in out

    def test_model_prints_classifier_fields(self, tmp_path, capsys):
        path = write_ones_model(tmp_path / "m.cstm", alpha=(0.0, 0.5), lam=0.25, bias=-0.5)
        assert main(["inspect", "--in", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"path: {path}", "version: 1", "kind: model", "lambda: 0.25", "bias: -0.5",
            "n_train: 2", "support_vectors: 1",
            "weights: 0.3333333333333333, 0.3333333333333333, 0.3333333333333333",
        ]


@pytest.mark.parametrize("command", ["simulate", "decompose", "fit", "predict", "benchmark"])
def test_negative_seed_exit1_before_any_output(tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    write_separable_samples(data)
    cfg, model = tmp_path / "cfg.txt", tmp_path / "model.cstm"
    if command == "predict":
        cfg.write_text(FIT_CONFIG)
        assert main(["fit", "--train", str(data), "--config", str(cfg),
                     "--out", str(model)]) == 0
    cfg.write_text(FIT_CONFIG.replace("seed = 2", "seed = -1"))
    argv = {
        "simulate": ["simulate", "--case", "1", "--n-per-class", "2", "--seed", "-1"],
        "decompose": ["decompose", "--in", str(data / "sample_0000.cstm"), "--seed", "-1"],
        "fit": ["fit", "--train", str(data), "--config", str(cfg)],
        "predict": ["predict", "--model", str(model), "--in", str(data), "--seed", "-1"],
        "benchmark": ["benchmark", "--config", str(cfg)],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


def test_one_version_string(tmp_path):
    # A regex, not tomllib, reads pyproject.toml: tomllib needs Python 3.11.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    version = re.search(r'(?m)^version = "([^"]+)"$', text).group(1)
    assert version == cstm.__version__
    out = tmp_path / "data"
    assert main(["simulate", "--case", "1", "--n-per-class", "1", "--out", str(out)]) == 0
    assert f"version = cstm {version}\n" in (out / "manifest.txt").read_text()
