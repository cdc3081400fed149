"""Container and configuration round-trip tests."""

import struct

import numpy as np
import pytest

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
    read_tensor,
    write_factors,
    write_manifest,
    write_model,
    write_sample,
    write_tensor,
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


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "t.cstm"
        for shape in ((4, 3, 5), (6, 2), (7,)):
            t = rng.standard_normal(shape)
            write_tensor(path, t)
            back = read_tensor(path)
            np.testing.assert_array_equal(back, t)
            assert back.dtype == np.float64

    def test_exact_byte_layout(self, tmp_path):
        # magic, version u32, order u32, dims u64..., payload f64 LE
        # with the first index varying fastest.
        t = np.array([[[1.0, 5.0], [3.0, 7.0]], [[2.0, 6.0], [4.0, 8.0]]])
        path = tmp_path / "t.cstm"
        write_tensor(path, t)
        raw = path.read_bytes()
        expected = b"CSTM" + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 3)
        expected += struct.pack("<QQQ", 2, 2, 2)
        expected += struct.pack("<8d", 1, 2, 3, 4, 5, 6, 7, 8)
        assert raw == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cstm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_tensor(path)

    def test_version_mismatch_names_versions(self, tmp_path):
        path = tmp_path / "v9.cstm"
        path.write_bytes(b"CSTM" + struct.pack("<I", 9) + struct.pack("<I", 1))
        with pytest.raises(FormatError, match="expected 1, found 9"):
            read_tensor(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.cstm"
        path.write_bytes(b"CSTM" + struct.pack("<I", FORMAT_VERSION))
        with pytest.raises(FormatError, match="truncated"):
            read_tensor(path)

    def test_hostile_dims_allocate_nothing(self, tmp_path):
        # The header claims 1e8 elements (800 MB) in a file of a few bytes.
        import tracemalloc

        path = tmp_path / "huge.cstm"
        path.write_bytes(
            b"CSTM" + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", 1) + struct.pack("<Q", 10**8) + b"\0" * 16
        )
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="remain"):
                read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


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

    def test_inspect(self, tmp_path):
        rng = np.random.default_rng(4)
        s = CoupledSample(rng.standard_normal((4, 3, 5)), rng.standard_normal((6, 5)), 1)
        path = tmp_path / "s.cstm"
        write_sample(path, s)
        info = inspect_file(path)
        assert info["kind"] == "sample"
        assert info["label"] == 1
        assert info["tensor_dims"] == (4, 3, 5)
        tpath = tmp_path / "t.cstm"
        write_tensor(tpath, s.tensor)
        tinfo = inspect_file(tpath)
        assert tinfo["kind"] == "tensor"
        assert tinfo["dims"] == (4, 3, 5)


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

    def test_hostile_text_length_rejected(self, tmp_path):
        path = tmp_path / "m.cstm"
        path.write_bytes(
            b"CSTM" + struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", 102)
            + struct.pack("<3d", 0.1, 0.0, 0.0) + struct.pack("<I", 2**32 - 1)
        )
        with pytest.raises(FormatError, match="text block"):
            read_model(path)

    def test_manifest_write(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, {"seed": 3, "lambda": 0.1})
        text = path.read_text()
        assert "seed = 3" in text
        assert "lambda = 0.1" in text


class TestConfigText:
    def test_empty_requires_case(self):
        with pytest.raises(ConfigError, match="missing: case"):
            parse_config("")

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config("[experiment]\ncase = 1\n[acmtf]\nbeta = -1\n")

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

    def test_spec_text_round_trips(self):
        spec = CoupledKernelSpec(
            KernelSpec("rbf", 0.9), KernelSpec("linear"),
            KernelSpec("polynomial", degree=2, offset=1.5),
            KernelSpec("rbf", 2.0), (0.6, 0.1, 0.3),
        )
        assert parse_coupled_spec(serialize_coupled_spec(spec)) == spec
        params = AcmtfHyperParams(beta=0.01, rank=3)
        assert parse_acmtf_params(serialize_acmtf_params(params)) == params
