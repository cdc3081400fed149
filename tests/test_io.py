"""Container and configuration round-trip tests."""

import dataclasses
import re
import struct
import types
from pathlib import Path

import numpy as np
import pytest

from cstm import config
from cstm.acmtf import AcmtfFactors, AcmtfHyperParams, CoupledSample
from cstm.config import (
    ConfigError,
    config_hash,
    parse_acmtf_params,
    parse_config,
    parse_coupled_spec,
    serialize_acmtf_params,
    serialize_config,
    serialize_coupled_spec,
)
from cstm.container import (
    FORMAT_VERSION,
    FormatError,
    inspect_file,
    read_factors,
    read_model,
    read_sample,
    write_factors,
    write_manifest,
    write_model,
    write_sample,
)
from cstm.experiments import ExperimentConfig
from cstm.kernels import CoupledKernelSpec, KernelSpec
from cstm.stm import StmModel
from cstm.tensor_core import KruskalTensor


def random_factors(rng, rank=2, dims=(4, 3, 5, 6)):
    i1, i2, i3, i4 = dims
    u1 = KruskalTensor(
        rng.standard_normal(rank),
        tuple(rng.standard_normal((d, rank)) for d in (i1, i2, i3)),
    )
    u2 = KruskalTensor(
        rng.standard_normal(rank),
        tuple(rng.standard_normal((d, rank)) for d in (i4, i3)),
    )
    return AcmtfFactors.from_kruskals(u1, u2)


def sample_header(label=1):
    """Bytes of a sample file up to its tensor record."""
    return (b"CSTM" + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 100)
            + struct.pack("<q", label))


class TestTensorFile:
    """Array records, through the tensor and matrix records of sample files."""

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "s.cstm"
        for shape in ((4, 3, 5), (6, 2, 1), (1, 1, 7)):
            s = CoupledSample(rng.standard_normal(shape), rng.standard_normal((3, shape[2])))
            write_sample(path, s)
            back = read_sample(path)
            np.testing.assert_array_equal(back.tensor, s.tensor)
            np.testing.assert_array_equal(back.matrix, s.matrix)
            assert back.tensor.dtype == back.matrix.dtype == np.float64

    def test_exact_byte_layout(self, tmp_path):
        # magic, version u32, kind u32, label i64, then per record order
        # u32, dims u64..., payload f64 LE with the first index fastest.
        t = np.array([[[1.0, 5.0], [3.0, 7.0]], [[2.0, 6.0], [4.0, 8.0]]])
        m = np.array([[9.0, 10.0]])
        path = tmp_path / "s.cstm"
        write_sample(path, CoupledSample(t, m, -1))
        expected = sample_header(-1) + struct.pack("<I", 3)
        expected += struct.pack("<QQQ", 2, 2, 2)
        expected += struct.pack("<8d", 1, 2, 3, 4, 5, 6, 7, 8)
        expected += struct.pack("<I", 2) + struct.pack("<QQ", 1, 2)
        expected += struct.pack("<2d", 9, 10)
        assert path.read_bytes() == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cstm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_sample(path)

    def test_version_mismatch_names_versions(self, tmp_path):
        path = tmp_path / "v9.cstm"
        path.write_bytes(b"CSTM" + struct.pack("<I", 9) + struct.pack("<I", 100))
        with pytest.raises(FormatError, match="expected 1, found 9"):
            read_sample(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.cstm"
        path.write_bytes(b"CSTM" + struct.pack("<I", FORMAT_VERSION))
        with pytest.raises(FormatError, match="truncated"):
            read_sample(path)

    def test_hostile_dims_allocate_nothing(self, tmp_path):
        # The tensor header claims 1e8 elements (800 MB) in a file of a few
        # bytes.
        import tracemalloc

        path = tmp_path / "huge.cstm"
        path.write_bytes(
            sample_header() + struct.pack("<I", 3)
            + struct.pack("<QQQ", 10**4, 10**2, 10**2) + b"\0" * 16
        )
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="remain"):
                read_sample(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_empty_array_with_huge_dim_is_format_error(self, tmp_path):
        # Zero elements pass the size bound, but numpy cannot shape them.
        path = tmp_path / "empty.cstm"
        path.write_bytes(
            sample_header() + struct.pack("<I", 3)
            + struct.pack("<QQQ", 2**64 - 1, 0, 1)
        )
        with pytest.raises(FormatError, match="dims"):
            read_sample(path)


class TestSampleAndFactors:
    def test_sample_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        s = CoupledSample(rng.standard_normal((4, 3, 5)), rng.standard_normal((6, 5)), -1)
        path = tmp_path / "s.cstm"
        write_sample(path, s)
        back = read_sample(path)
        np.testing.assert_array_equal(back.tensor, s.tensor)
        np.testing.assert_array_equal(back.matrix, s.matrix)
        assert back.label == -1

    def test_factors_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        f = random_factors(rng)
        path = tmp_path / "f.cstm"
        write_factors(path, f)
        back = read_factors(path)
        np.testing.assert_array_equal(back.u1.weights, f.u1.weights)
        np.testing.assert_array_equal(back.shared, f.shared)
        for a, b in zip(back.u1.factors + back.u2.factors,
                        f.u1.factors + f.u2.factors):
            np.testing.assert_array_equal(a, b)

    def test_wrong_kind_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        f = random_factors(rng)
        path = tmp_path / "f.cstm"
        write_factors(path, f)
        with pytest.raises(FormatError, match="expected a sample"):
            read_sample(path)

    def test_factor_width_mismatch_is_format_error(self, tmp_path):
        # Hand-written factors file: rank-3 weights but 2-column factors.
        def array(a):
            return (struct.pack("<I", a.ndim)
                    + b"".join(struct.pack("<Q", d) for d in a.shape)
                    + a.tobytes(order="F"))

        body = array(np.ones(3))
        body += b"".join(array(np.ones((d, 2))) for d in (4, 3, 5))
        body += array(np.ones(3))
        body += b"".join(array(np.ones((d, 2))) for d in (6, 5))
        body += array(np.ones((5, 2)))
        path = tmp_path / "f.cstm"
        path.write_bytes(
            b"CSTM" + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 101) + body
        )
        with pytest.raises(FormatError, match="incompatible with rank 3"):
            read_factors(path)

    def test_inspect(self, tmp_path):
        rng = np.random.default_rng(4)
        s = CoupledSample(rng.standard_normal((4, 3, 5)), rng.standard_normal((6, 5)), 1)
        path = tmp_path / "s.cstm"
        write_sample(path, s)
        info = inspect_file(path)
        assert info["kind"] == "sample"
        assert info["label"] == 1
        assert info["tensor_dims"] == (4, 3, 5)
        # A bare tensor file of an earlier layout: its array order sits
        # where the kind tag goes.
        tpath = tmp_path / "t.cstm"
        tpath.write_bytes(b"CSTM" + struct.pack("<IIQ", FORMAT_VERSION, 1, 1) + bytes(8))
        assert inspect_file(tpath)["kind"] == "unknown (1)"


class TestModelFile:
    def test_model_round_trip_identical_predictions(self, tmp_path):
        from cstm.stm import decision_many

        rng = np.random.default_rng(5)
        factors = tuple(random_factors(rng) for _ in range(4))
        spec = CoupledKernelSpec(
            KernelSpec("rbf", 0.9), KernelSpec("rbf", 1.1),
            KernelSpec("rbf", 1.3), KernelSpec("linear"), (0.5, 0.25, 0.25),
        )
        model = StmModel(
            alpha=rng.uniform(0, 1, 4),
            labels=np.array([1.0, -1.0, 1.0, -1.0]),
            factors=factors,
            kernel=spec,
            lam=0.07,
            bias=-0.3,
        )
        params = AcmtfHyperParams(rank=2)
        path = tmp_path / "m.cstm"
        write_model(path, model, params, prune_rel=0.05)
        back, back_params, back_prune = read_model(path)
        assert back_params == params
        assert back_prune == 0.05
        assert back.lam == model.lam
        assert back.bias == model.bias
        assert back.kernel == spec
        tests = [random_factors(rng) for _ in range(3)]
        np.testing.assert_array_equal(
            decision_many(back, tests), decision_many(model, tests)
        )

    @staticmethod
    def model_with(alpha, labels, n_factors):
        rng = np.random.default_rng(6)
        spec = CoupledKernelSpec(
            KernelSpec("linear"), KernelSpec("linear"), KernelSpec("linear"),
            KernelSpec("linear"), (0.5, 0.25, 0.25),
        )
        factors = tuple(random_factors(rng) for _ in range(n_factors))
        return StmModel(np.asarray(alpha, dtype=float), np.asarray(labels, dtype=float),
                        factors, spec, lam=0.1)

    def test_cp_kernel_model_is_rejected_before_writing(self, tmp_path):
        # Kind 102 stores coupled-kernel models; a CP-kernel model has
        # Kruskal tensors and per-mode specs, which it cannot hold.
        rng = np.random.default_rng(7)
        tensors = tuple(
            KruskalTensor(np.ones(2), tuple(rng.standard_normal((d, 2)) for d in (4, 3)))
            for _ in range(2)
        )
        model = StmModel(np.array([0.1, 0.2]), np.array([1.0, -1.0]), tensors,
                         (KernelSpec("linear"),) * 2, lam=0.1)
        path = tmp_path / "m.cstm"
        with pytest.raises(ValueError, match="coupled-kernel"):
            write_model(path, model, AcmtfHyperParams(rank=2))
        assert list(tmp_path.iterdir()) == []

    def test_alpha_labels_must_match_factor_count(self, tmp_path):
        path = tmp_path / "m.cstm"
        write_model(path, self.model_with([0.1, 0.2, 0.3], [1, -1, 1], 2),
                    AcmtfHyperParams(rank=2))
        with pytest.raises(FormatError, match="2 training factor sets"):
            read_model(path)

    def test_labels_must_be_plus_minus_one(self, tmp_path):
        path = tmp_path / "m.cstm"
        write_model(path, self.model_with([0.1, 0.2], [1, 7], 2),
                    AcmtfHyperParams(rank=2))
        with pytest.raises(FormatError, match="labels"):
            read_model(path)

    # The three cases below are models that `cstm predict` cannot score:
    # they would end in an IndexError, a kernel dims error (exit 1) or
    # NaN scores written with exit 0.
    def test_no_training_factor_sets_is_format_error(self, tmp_path):
        path = tmp_path / "m.cstm"
        write_model(path, self.model_with([], [], 0), AcmtfHyperParams(rank=2))
        with pytest.raises(FormatError, match="one common dims"):
            read_model(path)

    def test_mixed_factor_dims_is_format_error(self, tmp_path):
        model = self.model_with([0.1, 0.2], [1, -1], 1)
        other = random_factors(np.random.default_rng(8), dims=(4, 3, 5, 7))
        path = tmp_path / "m.cstm"
        write_model(path, dataclasses.replace(model, factors=model.factors + (other,)),
                    AcmtfHyperParams(rank=2))
        with pytest.raises(FormatError, match="one common dims"):
            read_model(path)

    @pytest.mark.parametrize("field, value, match", [
        ("lam", float("nan"), "lambda"),
        ("lam", float("inf"), "lambda"),
        ("bias", float("nan"), "bias"),
        ("bias", -float("inf"), "bias"),
        ("alpha", np.array([0.1, float("nan")]), "non-finite"),
    ])
    def test_non_finite_lambda_bias_or_alpha_is_format_error(self, tmp_path, field,
                                                             value, match):
        model = self.model_with([0.1, 0.2], [1, -1], 2)
        path = tmp_path / "m.cstm"
        write_model(path, dataclasses.replace(model, **{field: value}),
                    AcmtfHyperParams(rank=2))
        with pytest.raises(FormatError, match=match):
            read_model(path)

    def test_hostile_text_length_rejected(self, tmp_path):
        path = tmp_path / "m.cstm"
        path.write_bytes(
            b"CSTM" + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 102)
            + struct.pack("<3d", 0.1, 0.0, 0.0) + struct.pack("<I", 2**32 - 1)
        )
        with pytest.raises(FormatError, match="text block"):
            read_model(path)

    def test_non_utf8_text_is_format_error(self, tmp_path):
        path = tmp_path / "m.cstm"
        path.write_bytes(
            b"CSTM" + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 102)
            + struct.pack("<3d", 0.1, 0.0, 0.0) + struct.pack("<I", 2) + b"\xff\xfe"
        )
        with pytest.raises(FormatError, match="UTF-8"):
            read_model(path)

    @staticmethod
    def model_head(prune_rel=0.0, texts=()):
        # Header, kind, lambda, bias and pruning threshold, then text blocks.
        out = (b"CSTM" + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 102)
               + struct.pack("<3d", 0.1, 0.0, prune_rel))
        for text in texts:
            data = text.encode()
            out += struct.pack("<I", len(data)) + data
        return out

    @pytest.mark.parametrize("block", [0, 1])
    @pytest.mark.parametrize("text", ["hello", "w1 = 0.5"])
    def test_settings_text_that_is_not_config_is_format_error(self, tmp_path, block, text):
        # "hello" is not config text at all; "w1 = 0.5" lacks required keys.
        from cstm.cli import main

        texts = [serialize_coupled_spec(self.model_with([0.1], [1], 1).kernel),
                 serialize_acmtf_params(AcmtfHyperParams(rank=2))]
        texts[block] = text
        path = tmp_path / "m.cstm"
        path.write_bytes(self.model_head(texts=texts))
        with pytest.raises(FormatError, match="settings text"):
            read_model(path)
        assert main(["predict", "--model", str(path), "--in", str(tmp_path),
                     "--out", str(tmp_path / "p.csv")]) == 4

    @pytest.mark.parametrize("name, value", [("cg_tol", float("nan")),
                                             ("epsilon", float("nan")),
                                             ("epsilon", float("inf"))])
    def test_bad_solver_setting_is_format_error(self, tmp_path, name, value):
        # A NaN cg_tol would score every new sample at max_iters, and a NaN
        # epsilon would abort the decomposition; both are file faults.
        from cstm.cli import main

        params = dataclasses.asdict(AcmtfHyperParams(rank=2))
        params[name] = value
        path = tmp_path / "m.cstm"
        write_model(path, self.model_with([0.1, 0.2], [1, -1], 2),
                    types.SimpleNamespace(**params))
        assert f"{name} = {value!r}" in path.read_bytes().decode("latin-1")
        with pytest.raises(FormatError, match=name):
            read_model(path)
        samples = tmp_path / "new"
        samples.mkdir()
        write_sample(samples / "s.cstm", CoupledSample(np.ones((4, 3, 5)), np.ones((6, 5)), 1))
        assert main(["predict", "--model", str(path), "--in", str(samples),
                     "--out", str(tmp_path / "p.csv")]) == 4

    @pytest.mark.parametrize("prune_rel", [float("nan"), float("inf"), -0.1, 1.0, 1.5])
    def test_pruning_threshold_outside_unit_interval_is_format_error(
        self, tmp_path, prune_rel
    ):
        path = tmp_path / "m.cstm"
        path.write_bytes(self.model_head(prune_rel))
        with pytest.raises(FormatError, match="pruning threshold"):
            read_model(path)

    def test_manifest_write(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, {"seed": 3, "lambda": 0.1, "input": "d/é"})
        assert path.read_bytes() == "seed = 3\nlambda = 0.1\ninput = d/é\n".encode()
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.txt"]


class TestConfigText:
    def test_empty_requires_case(self, tmp_path, capsys):
        # Only the benchmark needs a case: it exits 1 before making its
        # output directory.
        from cstm.cli import main

        assert parse_config("").case is None
        cfg = tmp_path / "run.cfg"
        cfg.write_text("")
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "missing: case" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("[experiment]\ncase = 1\n[acmtf]\nbeta = -1\n")

    @pytest.mark.parametrize("line", ["cg_tol = nan", "cg_tol = inf", "epsilon = nan",
                                      "epsilon = inf"])
    def test_bad_solver_setting_rejected(self, tmp_path, line):
        from cstm.cli import main

        text = f"[experiment]\ncase = 1\n[acmtf]\n{line}\n"
        with pytest.raises(ConfigError, match=line.split(" = ")[0]):
            parse_config(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[experiment]\ncase = 1\nbogus = 2\n")

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("[experiment]\ncase = 1\nseed = banana\n")

    def test_defaults_fill_in(self):
        cfg = parse_config("[experiment]\ncase = 2\n")
        assert cfg.case == 2
        assert cfg.acmtf.gamma == 1.0
        assert cfg.acmtf.beta == 0.001
        assert cfg.acmtf.rank == 5
        assert cfg.repetitions == 50
        assert cfg.n_per_class == 50
        assert cfg.test_fraction == 0.2

    def test_full_round_trip(self):
        cfg = ExperimentConfig(
            case=3,
            n_per_class=20,
            test_fraction=0.25,
            repetitions=7,
            seed=11,
            acmtf=AcmtfHyperParams(gamma=2.0, beta=0.01, xi=0.5, theta=1.5,
                                   epsilon=1e-7, rank=4, cg_tol=1e-8, max_iters=123),
            kernel_kind="polynomial",
            kernel_bandwidth=2.5,
            kernel_degree=3,
            kernel_offset=0.5,
            kernel_weights=(0.5, 0.2, 0.3),
            tune_weights=True,
            lambda_grid=(1e-3, 1e-1),
            cv_folds=4,
            methods=("cstm", "cpstm_matrix"),
            tolerate_failures=True,
            threads=2,
        )
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert parse_config(serialize_config(parse_config(text))) == cfg
        assert config_hash(cfg) == config_hash(parse_config(text))

    def test_median_bandwidth_round_trip(self):
        cfg = ExperimentConfig(case=1)
        assert cfg.kernel_bandwidth is None
        assert parse_config(serialize_config(cfg)) == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("# hello\n\n[experiment]\ncase = 1  # trailing\n")
        assert cfg.case == 1

    def test_text_forms_are_pinned(self):
        # Model files and config hashes depend on these exact bytes.
        cfg = ExperimentConfig(case=1)
        assert serialize_config(cfg) == (
            "[experiment]\ncase = 1\nn_per_class = 50\ntest_fraction = 0.2\n"
            "repetitions = 50\nseed = 0\nmethods = cstm, cpstm_tensor, cpstm_matrix\n"
            "tolerate_failures = false\nthreads = 1\n\n"
            "[acmtf]\ngamma = 1.0\nbeta = 0.001\nxi = 1.0\ntheta = 1.0\n"
            "epsilon = 1e-08\nrank = 5\ncg_tol = 1e-09\nmax_iters = 500\n"
            "prune_rel = 0.05\n\n"
            "[kernel]\nkind = rbf\nbandwidth = median\ndegree = 2\noffset = 1.0\n"
            "w1 = 0.3333333333333333\nw2 = 0.3333333333333333\n"
            "w3 = 0.3333333333333333\ntune_weights = false\n\n"
            "[stm]\nlambda_grid = 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0\ncv_folds = 5\n"
        )
        assert config_hash(cfg) == (
            "38c7c1eb34cd004fe304d35c7b72acfe4ee089758dcb98e7cba649732221eb34"
        )
        assert serialize_acmtf_params(AcmtfHyperParams()) == (
            "gamma = 1.0\nbeta = 0.001\nxi = 1.0\ntheta = 1.0\nepsilon = 1e-08\n"
            "rank = 5\ncg_tol = 1e-09\nmax_iters = 500\n"
        )
        spec = CoupledKernelSpec(
            KernelSpec("rbf", 0.9), KernelSpec("linear"),
            KernelSpec("polynomial", degree=2, offset=1.5),
            KernelSpec("rbf", 2.0), (0.6, 0.1, 0.3),
        )
        assert serialize_coupled_spec(spec) == (
            "k1_mode1.kind = rbf\nk1_mode1.bandwidth = 0.9\nk1_mode1.degree = 2\n"
            "k1_mode1.offset = 1.0\n"
            "k1_mode2.kind = linear\nk1_mode2.bandwidth = 1.0\nk1_mode2.degree = 2\n"
            "k1_mode2.offset = 1.0\n"
            "k2.kind = polynomial\nk2.bandwidth = 1.0\nk2.degree = 2\nk2.offset = 1.5\n"
            "k3.kind = rbf\nk3.bandwidth = 2.0\nk3.degree = 2\nk3.offset = 1.0\n"
            "w1 = 0.6\nw2 = 0.1\nw3 = 0.3\n"
        )

    def test_readme_config_block_is_the_schema_with_defaults(self):
        # The README's ini block documents every key with its default value;
        # its commented-out "# key = value" lines count as documented keys.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(block) == ExperimentConfig(case=1)
        documented, section = set(), ""
        for line in block.splitlines():
            line = line.lstrip("# ")
            if line.startswith("["):
                section = line.strip("[] ")
            elif re.match(r"\w+ = ", line):
                documented.add((section, line.split(" = ", 1)[0]))
        assert documented == {(section, key) for section, key, *_ in config._SCHEMA}

    def test_spec_text_round_trips(self):
        spec = CoupledKernelSpec(
            KernelSpec("rbf", 0.9), KernelSpec("linear"),
            KernelSpec("polynomial", degree=2, offset=1.5),
            KernelSpec("rbf", 2.0), (0.6, 0.1, 0.3),
        )
        assert parse_coupled_spec(serialize_coupled_spec(spec)) == spec
        params = AcmtfHyperParams(beta=0.01, rank=3)
        assert parse_acmtf_params(serialize_acmtf_params(params)) == params
