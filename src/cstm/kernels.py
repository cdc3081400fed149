"""Vector kernels, CP-factor tensor kernels, and the coupled three-kernel.

The tensor kernel between two CP-decomposed inputs sums, over all pairs of
components, the product of per-mode vector kernel values.  The coupled
kernel combines three such measures with nonnegative weights: a two-mode
product kernel on the tensor's individual factors, a kernel on the averaged
shared factor, and a kernel on the matrix's individual factor.  All kernels
ignore the component weights; they operate on the (normalized) factor
columns themselves.

One engine, :func:`_gram`, computes every kernel value here.  A Gram is a
weighted sum over roles (coupled: the tensor's two individual modes, the
shared factor, the matrix factor; CP: all modes as one role), each role the
product over its modes of :func:`kernel_matrix` on the stacked factor
columns of all samples, segment-summed to sample pairs by per-sample
component offsets, so uniform and mixed ranks take the same path.  The six
public kernel and Gram functions only choose roles and delegate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .acmtf import AcmtfFactors
from .tensor_core import KruskalTensor

_KINDS = ("rbf", "linear", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    """A vector kernel: rbf (Gaussian), linear, or polynomial."""

    kind: str = "rbf"
    bandwidth: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; use one of {_KINDS}")
        if self.kind == "rbf" and not self.bandwidth > 0:
            raise ValueError("rbf bandwidth must be > 0")
        if self.kind == "polynomial":
            if self.degree < 1:
                raise ValueError("polynomial degree must be >= 1")
            if not np.isfinite(self.offset):
                raise ValueError("polynomial offset must be finite")


@dataclass(frozen=True)
class CoupledKernelSpec:
    """Kernels and weights for the three-part coupled similarity.

    k1_mode1/k1_mode2 act on the tensor's first/second-mode factors (their
    values are multiplied per component pair), k2 on the averaged shared
    factor, k3 on the matrix's individual factor.
    """

    k1_mode1: KernelSpec = KernelSpec()
    k1_mode2: KernelSpec = KernelSpec()
    k2: KernelSpec = KernelSpec()
    k3: KernelSpec = KernelSpec()
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if len(w) != 3:
            raise ValueError("weights must be a triple")
        if not all(np.isfinite(v) and v >= 0 for v in w):
            raise ValueError("weights must be finite and >= 0")
        if sum(w) == 0:
            raise ValueError("weights must not all be zero")
        object.__setattr__(self, "weights", w)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of a and b, clamped at 0."""
    sq = np.sum(a * a, axis=0)[:, None] + np.sum(b * b, axis=0)[None, :] - 2.0 * (a.T @ b)
    np.maximum(sq, 0.0, out=sq)
    return sq


def kernel_matrix(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel values between the columns of two (p x m), (p x n) arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    if spec.kind == "rbf":
        return np.exp(-_sq_dists(a, b) / (2.0 * spec.bandwidth**2))
    inner = a.T @ b
    if spec.kind == "linear":
        return inner
    return (inner + spec.offset) ** spec.degree


def vector_kernel(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    """Kernel value between two vectors."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    return float(kernel_matrix(x, y, spec)[0, 0])


def _check_dims(a: Sequence, b: Sequence, dims) -> None:
    if len(a) == 0 or len(b) == 0:
        raise ValueError("factor lists must be nonempty")
    ref = dims(a[0])
    for name, seq in (("a", a), ("b", b)):
        for i, x in enumerate(seq):
            if dims(x) != ref:
                raise ValueError(
                    f"factor dims differ: {name}[{i}] has {dims(x)}, a[0] has {ref}"
                )


def _columns(samples: Sequence, modes) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-sample ranks and, per mode, every sample's factor columns side by side."""
    ranks = np.array([x.rank for x in samples], dtype=np.intp)
    return ranks, [np.concatenate(m, axis=1) for m in zip(*map(modes, samples))]


def _slots(ranks: np.ndarray) -> tuple[np.ndarray, int]:
    """Where each stacked component goes when every sample gets
    ``max(ranks)`` consecutive slots, and that slot count."""
    width = int(ranks.max(initial=0))
    sample = np.repeat(np.arange(ranks.size), ranks)
    within = np.arange(sample.size) - (np.cumsum(ranks) - ranks)[sample]
    return sample * width + within, width


def _gram(a: Sequence, b: Sequence, modes, roles, symmetric: bool = False) -> np.ndarray:
    """K[i, j] = sum over roles of weight * sum over component pairs of the
    product of per-mode kernel values between a[i] and b[j].

    ``modes(x)`` gives a sample's factor matrices; a role is ``(weight,
    ((mode, spec), ...))``.  Each role's kernel matrix is computed once on
    the stacked columns of all samples, then segment-summed to sample
    pairs: the components are placed into ``max(rank)`` zero-padded slots
    per sample and each (slots x slots) block is summed.  Any mix of ranks,
    rank 0 included, takes this one path; at uniform rank the padding is
    empty.  The symmetric form (``b`` is ``a``) mirrors the lower triangle,
    so the result is exactly symmetric.
    """
    ra, xa = _columns(a, modes)
    rb, xb = (ra, xa) if symmetric else _columns(b, modes)
    (sa, wa), (sb, wb) = _slots(ra), _slots(rb)
    out = np.zeros((ra.size, rb.size))
    padded = np.zeros((ra.size * wa, rb.size * wb))
    for weight, terms in roles:
        if weight > 0:
            prod = 1.0
            for mode, spec in terms:
                prod = prod * kernel_matrix(xa[mode], xb[mode], spec)
            padded[np.ix_(sa, sb)] = prod
            out += weight * padded.reshape(ra.size, wa, rb.size, wb).sum(axis=(1, 3))
    if symmetric:
        return np.tril(out) + np.tril(out, -1).T
    return out


def _coupled_modes(f: AcmtfFactors) -> tuple[np.ndarray, ...]:
    return (f.u1.factors[0], f.u1.factors[1], f.shared, f.u2.factors[0])


def _coupled_gram(a, b, spec: CoupledKernelSpec, symmetric: bool = False) -> np.ndarray:
    _check_dims(a, b, lambda f: f.dims)
    w1, w2, w3 = spec.weights
    roles = (
        (w1, ((0, spec.k1_mode1), (1, spec.k1_mode2))),
        (w2, ((2, spec.k2),)),
        (w3, ((3, spec.k3),)),
    )
    return _gram(a, b, _coupled_modes, roles, symmetric)


def _cp_gram(a, b, specs: Sequence[KernelSpec], symmetric: bool = False) -> np.ndarray:
    _check_dims(a, b, lambda t: t.shape)
    if len(specs) != a[0].order:
        raise ValueError(f"need {a[0].order} kernel specs, got {len(specs)}")
    roles = ((1.0, tuple(enumerate(specs))),)
    return _gram(a, b, lambda t: t.factors, roles, symmetric)


def cp_kernel(
    a: KruskalTensor, b: KruskalTensor, specs: Sequence[KernelSpec]
) -> float:
    """Tensor kernel on CP factors: sum over component pairs of per-mode products.

    The inputs must have the same order and per-mode dimensions; ranks may
    differ.  Component weights are ignored.
    """
    return float(_cp_gram([a], [b], specs)[0, 0])


def coupled_kernel(
    fa: AcmtfFactors, fb: AcmtfFactors, spec: CoupledKernelSpec
) -> float:
    """Three-part similarity between two joint factorizations."""
    return float(_coupled_gram([fa], [fb], spec)[0, 0])


def gram_cross(
    a: Sequence[AcmtfFactors],
    b: Sequence[AcmtfFactors],
    spec: CoupledKernelSpec,
) -> np.ndarray:
    """Matrix of coupled-kernel values K[i, j] = K(a[i], b[j])."""
    return _coupled_gram(a, b, spec)


def gram_matrix(
    factors: Sequence[AcmtfFactors], spec: CoupledKernelSpec
) -> np.ndarray:
    """Symmetric Gram matrix of pairwise coupled-kernel values."""
    return _coupled_gram(factors, factors, spec, symmetric=True)


def cp_gram(
    tensors: Sequence[KruskalTensor], specs: Sequence[KernelSpec]
) -> np.ndarray:
    """Symmetric Gram matrix of pairwise CP tensor-kernel values."""
    return _cp_gram(tensors, tensors, specs, symmetric=True)


def cp_gram_cross(
    a: Sequence[KruskalTensor],
    b: Sequence[KruskalTensor],
    specs: Sequence[KernelSpec],
) -> np.ndarray:
    """Matrix of CP tensor-kernel values K[i, j] = K(a[i], b[j])."""
    return _cp_gram(a, b, specs)


def median_bandwidth(columns: np.ndarray) -> float:
    """Median pairwise distance between columns; the usual rbf heuristic.

    Zero distances are excluded; if every pair coincides, returns 1.0.
    """
    c = np.asarray(columns, dtype=np.float64)
    d = np.sqrt(_sq_dists(c, c)[np.triu_indices(c.shape[1], k=1)])
    d = d[d > 0]
    if d.size == 0:
        return 1.0
    return float(np.median(d))


def default_coupled_spec(factors: Sequence[AcmtfFactors]) -> CoupledKernelSpec:
    """Equal-weight rbf kernels, median-heuristic bandwidths fit on training factors."""
    if len(factors) == 0:
        raise ValueError("factor list must be nonempty")
    _, roles = _columns(factors, _coupled_modes)
    k1, k2, ks, km = (KernelSpec("rbf", median_bandwidth(r)) for r in roles)
    return CoupledKernelSpec(k1, k2, ks, km)


def default_cp_specs(tensors: Sequence[KruskalTensor]) -> tuple[KernelSpec, ...]:
    """Per-mode rbf kernels with median-heuristic bandwidths."""
    if len(tensors) == 0:
        raise ValueError("tensor list must be nonempty")
    _, modes = _columns(tensors, lambda t: t.factors)
    return tuple(KernelSpec("rbf", median_bandwidth(m)) for m in modes)
