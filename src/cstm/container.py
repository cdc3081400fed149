"""Binary "CSTM" container files and run manifests.

All files start with the magic bytes ``CSTM`` followed by a little-endian
u32 format version.  A standalone tensor file then holds exactly one array
record; composite files carry a u32 kind tag followed by kind-specific
fields.  Array records are:

    order: u32, dims: u64 * order, payload: f64 * prod(dims)

with the payload in the canonical layout (first index fastest, i.e. Fortran
order).  Kind tags are >= 100 so readers can tell a composite file from a
bare tensor record, whose leading u32 is its (small) order:

    100  coupled sample   (label: i64, tensor record, matrix record)
    101  joint factors    (zeta, A, B, C, sigma, U, V, shared records)
    102  fitted model     (lambda: f64, kernel text, params text,
                           alpha, labels records, n_train: u32,
                           n_train factor bodies as in kind 101)

Text blocks are a u32 byte length followed by UTF-8 data.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .acmtf import AcmtfFactors, AcmtfHyperParams, CoupledSample
from .kernels import CoupledKernelSpec
from .stm import StmModel
from .tensor_core import KruskalTensor

MAGIC = b"CSTM"
FORMAT_VERSION = 1

KIND_SAMPLE = 100
KIND_FACTORS = 101
KIND_MODEL = 102

_KIND_NAMES = {KIND_SAMPLE: "sample", KIND_FACTORS: "factors", KIND_MODEL: "model"}


class FormatError(ValueError):
    """Malformed or incompatible container content."""


def _write_u32(fh: BinaryIO, v: int):
    fh.write(struct.pack("<I", v))


def _write_u64(fh: BinaryIO, v: int):
    fh.write(struct.pack("<Q", v))


def _write_i64(fh: BinaryIO, v: int):
    fh.write(struct.pack("<q", v))


def _write_f64(fh: BinaryIO, v: float):
    fh.write(struct.pack("<d", v))


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file: wanted {n} bytes, got {len(data)}")
    return data


def _read_u32(fh: BinaryIO) -> int:
    return struct.unpack("<I", _read_exact(fh, 4))[0]


def _read_u64(fh: BinaryIO) -> int:
    return struct.unpack("<Q", _read_exact(fh, 8))[0]


def _read_i64(fh: BinaryIO) -> int:
    return struct.unpack("<q", _read_exact(fh, 8))[0]


def _read_f64(fh: BinaryIO) -> float:
    return struct.unpack("<d", _read_exact(fh, 8))[0]


def _write_array(fh: BinaryIO, arr: np.ndarray):
    a = np.asarray(arr, dtype=np.float64)
    _write_u32(fh, a.ndim)
    for d in a.shape:
        _write_u64(fh, d)
    fh.write(a.tobytes(order="F"))


def _read_sized(fh: BinaryIO, n: int, what: str) -> bytes:
    # Bound a length taken from the file by the bytes left in it before
    # reading, so a corrupt header cannot make the reader allocate more
    # than the file holds.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"{what} needs {n} bytes, only {left} remain")
    return _read_exact(fh, n)


def _read_array(fh: BinaryIO) -> np.ndarray:
    order = _read_u32(fh)
    if order == 0 or order > 32:
        raise FormatError(f"implausible array order {order}")
    dims = tuple(_read_u64(fh) for _ in range(order))
    count = math.prod(dims)
    raw = _read_sized(fh, 8 * count, f"array of dims {dims}")
    flat = np.frombuffer(raw, dtype="<f8", count=count)
    return flat.reshape(dims, order="F").copy(order="C")


def _write_text(fh: BinaryIO, text: str):
    data = text.encode("utf-8")
    _write_u32(fh, len(data))
    fh.write(data)


def _read_text(fh: BinaryIO) -> str:
    n = _read_u32(fh)
    return _read_sized(fh, n, "text block").decode("utf-8")


def _write_header(fh: BinaryIO):
    fh.write(MAGIC)
    _write_u32(fh, FORMAT_VERSION)


def _read_header(fh: BinaryIO, path):
    magic = _read_exact(fh, 4)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version = _read_u32(fh)
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format version mismatch: expected {FORMAT_VERSION}, "
            f"found {version}"
        )


class _atomic_write:
    """Write to a sibling temp file and rename into place on success."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self.tmp = self.path + ".tmp"

    def __enter__(self) -> BinaryIO:
        self.fh = open(self.tmp, "wb")
        return self.fh

    def __exit__(self, exc_type, exc, tb):
        self.fh.close()
        if exc_type is None:
            os.replace(self.tmp, self.path)
        else:
            os.unlink(self.tmp)
        return False


def write_tensor(path, tensor: np.ndarray):
    """Standalone tensor file: magic, version, one array record."""
    with _atomic_write(path) as fh:
        _write_header(fh)
        _write_array(fh, tensor)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        _read_header(fh, path)
        return _read_array(fh)


def write_sample(path, sample: CoupledSample):
    with _atomic_write(path) as fh:
        _write_header(fh)
        _write_u32(fh, KIND_SAMPLE)
        _write_i64(fh, sample.label)
        _write_array(fh, sample.tensor)
        _write_array(fh, sample.matrix)


def _expect_kind(fh: BinaryIO, path, kind: int):
    found = _read_u32(fh)
    if found != kind:
        want = _KIND_NAMES.get(kind, kind)
        got = _KIND_NAMES.get(found, f"tag {found}")
        raise FormatError(f"{path}: expected a {want} file, found {got}")


def read_sample(path) -> CoupledSample:
    with open(path, "rb") as fh:
        _read_header(fh, path)
        _expect_kind(fh, path, KIND_SAMPLE)
        label = _read_i64(fh)
        tensor = _read_array(fh)
        matrix = _read_array(fh)
    return CoupledSample(tensor, matrix, label)


def _write_factors_body(fh: BinaryIO, f: AcmtfFactors):
    _write_array(fh, f.u1.weights)
    for factor in f.u1.factors:
        _write_array(fh, factor)
    _write_array(fh, f.u2.weights)
    for factor in f.u2.factors:
        _write_array(fh, factor)
    _write_array(fh, f.shared)


def _read_factors_body(fh: BinaryIO, path) -> AcmtfFactors:
    zeta = _read_array(fh)
    t_factors = tuple(_read_array(fh) for _ in range(3))
    sigma = _read_array(fh)
    m_factors = tuple(_read_array(fh) for _ in range(2))
    shared = _read_array(fh)
    u1 = KruskalTensor(zeta, t_factors)
    u2 = KruskalTensor(sigma, m_factors)
    expected = (u1.factors[2] + u2.factors[1]) / 2
    if not np.array_equal(shared, expected):
        raise FormatError(f"{path}: stored shared factor is inconsistent")
    return AcmtfFactors(u1, u2, shared)


def write_factors(path, f: AcmtfFactors):
    with _atomic_write(path) as fh:
        _write_header(fh)
        _write_u32(fh, KIND_FACTORS)
        _write_factors_body(fh, f)


def read_factors(path) -> AcmtfFactors:
    with open(path, "rb") as fh:
        _read_header(fh, path)
        _expect_kind(fh, path, KIND_FACTORS)
        return _read_factors_body(fh, path)


def write_model(path, model: StmModel, params: AcmtfHyperParams, prune_rel: float = 0.0):
    """Model plus the factorization hyperparameters needed to score new samples."""
    from .config import serialize_acmtf_params, serialize_coupled_spec

    with _atomic_write(path) as fh:
        _write_header(fh)
        _write_u32(fh, KIND_MODEL)
        _write_f64(fh, model.lam)
        _write_f64(fh, model.bias)
        _write_f64(fh, prune_rel)
        _write_text(fh, serialize_coupled_spec(model.kernel))
        _write_text(fh, serialize_acmtf_params(params))
        _write_array(fh, model.alpha)
        _write_array(fh, model.labels)
        _write_u32(fh, len(model.factors))
        for f in model.factors:
            _write_factors_body(fh, f)


def read_model(path) -> tuple[StmModel, AcmtfHyperParams, float]:
    from .config import parse_acmtf_params, parse_coupled_spec

    with open(path, "rb") as fh:
        _read_header(fh, path)
        _expect_kind(fh, path, KIND_MODEL)
        lam = _read_f64(fh)
        bias = _read_f64(fh)
        prune_rel = _read_f64(fh)
        spec = parse_coupled_spec(_read_text(fh))
        params = parse_acmtf_params(_read_text(fh))
        alpha = _read_array(fh)
        labels = _read_array(fh)
        n = _read_u32(fh)
        if alpha.shape != (n,) or labels.shape != (n,):
            raise FormatError(
                f"{path}: {n} training factor sets but alpha of shape "
                f"{alpha.shape} and labels of shape {labels.shape}"
            )
        if not np.all(np.abs(labels) == 1.0):
            raise FormatError(f"{path}: labels must be +1 or -1")
        factors = tuple(_read_factors_body(fh, path) for _ in range(n))
    model = StmModel(alpha, labels, factors, spec, lam, bias)
    return model, params, prune_rel


def inspect_file(path) -> dict:
    """Header metadata of any container file, for the ``inspect`` command."""
    info: dict = {"path": os.fspath(path), "version": FORMAT_VERSION}
    with open(path, "rb") as fh:
        _read_header(fh, path)
        tag = _read_u32(fh)
        if tag < 100:
            dims = tuple(_read_u64(fh) for _ in range(tag))
            info["kind"] = "tensor"
            info["order"] = tag
            info["dims"] = dims
            return info
        info["kind"] = _KIND_NAMES.get(tag, f"unknown ({tag})")
        if tag == KIND_SAMPLE:
            info["label"] = _read_i64(fh)
            order = _read_u32(fh)
            info["tensor_dims"] = tuple(_read_u64(fh) for _ in range(order))
        elif tag == KIND_FACTORS:
            order = _read_u32(fh)
            dims = tuple(_read_u64(fh) for _ in range(order))
            info["rank"] = dims[0]
        elif tag == KIND_MODEL:
            info["lambda"] = _read_f64(fh)
    return info


def write_manifest(path, entries: dict):
    """Plain ``key = value`` manifest, written atomically."""
    text = "".join(f"{k} = {v}\n" for k, v in entries.items())
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
