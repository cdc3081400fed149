"""Binary "CSTM" container files and run manifests.

All files start with the magic bytes ``CSTM``, a little-endian u32 format
version and a u32 kind tag, followed by kind-specific fields.  Array
records are:

    order: u32, dims: u64 * order, payload: f64 * prod(dims)

with the payload in the canonical layout (first index fastest, i.e. Fortran
order) and every value finite.  Kind tags start at 100: a bare tensor file
of an earlier layout held an array record right after the version, so its
first u32 is a small array order: readers reject such a file, and
``cstm inspect`` reports ``kind: unknown (<order>)``.  The kinds are:

    100  coupled sample   (label: i64, tensor record, matrix record)
    101  joint factors    (zeta, A, B, C, sigma, U, V, shared records)
    102  fitted model     (lambda: f64, bias: f64, prune_rel: f64,
                           kernel text, params text, alpha, labels records,
                           n_train: u32, n_train factor bodies as in kind 101)

Text blocks are a u32 byte length followed by UTF-8 data.  Each kind has
one reader, which :func:`inspect_file` also uses.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from . import config
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


def _put(fh: BinaryIO, fmt: str, *values):
    """Write ``values`` as the little-endian ``struct`` format ``fmt``."""
    fh.write(struct.pack("<" + fmt, *values))


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file: wanted {n} bytes, got {len(data)}")
    return data


def _get(fh: BinaryIO, fmt: str) -> tuple:
    """Read the fields of the little-endian ``struct`` format ``fmt``."""
    fmt = "<" + fmt
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def _read_sized(fh: BinaryIO, n: int, what: str) -> bytes:
    # Bound a length taken from the file by the bytes left in it before
    # reading, so a corrupt header cannot make the reader allocate more
    # than the file holds.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"{what} needs {n} bytes, only {left} remain")
    return _read_exact(fh, n)


def _write_array(fh: BinaryIO, arr: np.ndarray):
    a = np.asarray(arr, dtype=np.float64)
    _put(fh, f"I{a.ndim}Q", a.ndim, *a.shape)
    fh.write(a.tobytes(order="F"))


def _read_array(fh: BinaryIO) -> np.ndarray:
    (order,) = _get(fh, "I")
    if order == 0 or order > 32:
        raise FormatError(f"implausible array order {order}")
    dims = _get(fh, f"{order}Q")
    count = math.prod(dims)
    raw = _read_sized(fh, 8 * count, f"array of dims {dims}")
    flat = np.frombuffer(raw, dtype="<f8", count=count)
    if not np.all(np.isfinite(flat)):
        raise FormatError(f"array of dims {dims} holds non-finite values")
    try:
        return flat.reshape(dims, order="F").copy(order="C")
    except (ValueError, OverflowError) as exc:  # an empty array with a huge dim
        raise FormatError(f"array of dims {dims}: {exc}") from exc


def _write_text(fh: BinaryIO, text: str):
    data = text.encode("utf-8")
    _put(fh, f"I{len(data)}s", len(data), data)


def _read_text(fh: BinaryIO) -> str:
    (n,) = _get(fh, "I")
    try:
        return _read_sized(fh, n, "text block").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"text block is not UTF-8: {exc}") from exc


def _write_header(fh: BinaryIO, kind: int):
    _put(fh, "4s2I", MAGIC, FORMAT_VERSION, kind)


def _read_header(fh: BinaryIO, path, kind: int | None = None) -> int:
    """Check magic and version; return the kind tag, which must be ``kind`` if given."""
    magic, version = _get(fh, "4sI")
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format version mismatch: expected {FORMAT_VERSION}, "
            f"found {version}"
        )
    (tag,) = _get(fh, "I")
    if kind is not None and tag != kind:
        got = _KIND_NAMES.get(tag, f"tag {tag}")
        raise FormatError(f"{path}: expected a {_KIND_NAMES[kind]} file, found {got}")
    return tag


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


def write_sample(path, sample: CoupledSample):
    with _atomic_write(path) as fh:
        _write_header(fh, KIND_SAMPLE)
        _put(fh, "q", sample.label)
        _write_array(fh, sample.tensor)
        _write_array(fh, sample.matrix)


def read_sample(path) -> CoupledSample:
    with open(path, "rb") as fh:
        _read_header(fh, path, KIND_SAMPLE)
        (label,) = _get(fh, "q")
        tensor = _read_array(fh)
        matrix = _read_array(fh)
    try:
        return CoupledSample(tensor, matrix, label)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid sample: {exc}") from exc


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
    try:
        f = AcmtfFactors(
            KruskalTensor(zeta, t_factors), KruskalTensor(sigma, m_factors)
        )
    except ValueError as exc:
        raise FormatError(f"{path}: invalid factors: {exc}") from exc
    if not np.array_equal(shared, f.shared):
        raise FormatError(f"{path}: stored shared factor is inconsistent")
    return f


def write_factors(path, f: AcmtfFactors):
    with _atomic_write(path) as fh:
        _write_header(fh, KIND_FACTORS)
        _write_factors_body(fh, f)


def read_factors(path) -> AcmtfFactors:
    with open(path, "rb") as fh:
        _read_header(fh, path, KIND_FACTORS)
        return _read_factors_body(fh, path)


def write_model(path, model: StmModel, params: AcmtfHyperParams, prune_rel: float = 0.0):
    """Model plus the factorization hyperparameters needed to score new samples."""
    if not isinstance(model.kernel, CoupledKernelSpec):
        raise ValueError("model files (kind 102) store coupled-kernel models only")
    with _atomic_write(path) as fh:
        _write_header(fh, KIND_MODEL)
        _put(fh, "3d", model.lam, model.bias, prune_rel)
        _write_text(fh, config.serialize_coupled_spec(model.kernel))
        _write_text(fh, config.serialize_acmtf_params(params))
        _write_array(fh, model.alpha)
        _write_array(fh, model.labels)
        _put(fh, "I", len(model.factors))
        for f in model.factors:
            _write_factors_body(fh, f)


def read_model(path) -> tuple[StmModel, AcmtfHyperParams, float]:
    """A model that ``cstm predict`` can score, its ACMTF settings and pruning threshold."""
    with open(path, "rb") as fh:
        _read_header(fh, path, KIND_MODEL)
        lam, bias, prune_rel = _get(fh, "3d")
        if not (math.isfinite(lam) and math.isfinite(bias)):
            raise FormatError(f"{path}: lambda {lam!r} and bias {bias!r} must be finite")
        if not 0 <= prune_rel < 1:
            raise FormatError(f"{path}: pruning threshold {prune_rel!r} is not in [0, 1)")
        spec_text, params_text = _read_text(fh), _read_text(fh)
        try:
            spec = config.parse_coupled_spec(spec_text)
            params = config.parse_acmtf_params(params_text)
        except ValueError as exc:  # ConfigError is a ValueError
            raise FormatError(f"{path}: invalid settings text: {exc!r}") from exc
        alpha = _read_array(fh)
        labels = _read_array(fh)
        (n,) = _get(fh, "I")
        if alpha.shape != (n,) or labels.shape != (n,):
            raise FormatError(
                f"{path}: {n} training factor sets but alpha of shape "
                f"{alpha.shape} and labels of shape {labels.shape}"
            )
        if not np.all(np.abs(labels) == 1.0):
            raise FormatError(f"{path}: labels must be +1 or -1")
        factors = tuple(_read_factors_body(fh, path) for _ in range(n))
    if len({f.dims for f in factors}) != 1:
        raise FormatError(f"{path}: a model needs training factor sets of one common dims")
    model = StmModel(alpha, labels, factors, spec, lam, bias)
    return model, params, prune_rel


def inspect_file(path) -> dict:
    """Kind and summary fields of a container file, for ``cstm inspect``: a
    known kind is read in full by its reader, so a malformed file raises."""
    with open(path, "rb") as fh:
        tag = _read_header(fh, path)
    info: dict = {"path": os.fspath(path), "version": FORMAT_VERSION,
                  "kind": _KIND_NAMES.get(tag, f"unknown ({tag})")}
    if tag == KIND_SAMPLE:
        s = read_sample(path)
        info.update(label=s.label, tensor_dims=s.tensor.shape)
    elif tag == KIND_FACTORS:
        info["rank"] = read_factors(path).rank
    elif tag == KIND_MODEL:
        m = read_model(path)[0]
        info.update({"lambda": m.lam, "bias": m.bias, "n_train": len(m.factors),
                     "support_vectors": m.support_indices.size,
                     "weights": ", ".join(map(repr, m.kernel.weights))})
    return info


def write_manifest(path, entries: dict):
    """Plain ``key = value`` manifest, written atomically."""
    with _atomic_write(path) as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in entries.items()).encode())
