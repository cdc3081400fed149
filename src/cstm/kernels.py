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
product over its modes of their kernel matrices on the stacked factor
columns of all samples, summed to sample pairs with one ``np.add.reduceat``
per axis at each sample's first component, so every mix of ranks, rank 0
included, takes the same path.  A product of Gaussians is one Gaussian, so
a role's rbf modes take one matrix product and one ``exp``;
:func:`kernel_matrix`, the per-mode reference, serves the other kinds.
One routine, :func:`_neg_sq_dists`, forms every squared distance.  The
six public kernel and Gram functions only choose roles and delegate.
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
        if self.kind == "rbf":
            # kernel_matrix divides by 2 bw^2, the Gram engine by sqrt(2) bw:
            # at 0 every self-similarity is 0/0, at inf (or OverflowError,
            # out of float range) every value is 1.
            try:
                scale = 2.0 * float(self.bandwidth) ** 2
            except OverflowError:
                scale = np.inf
            if scale == np.inf:
                raise ValueError(
                    f"rbf bandwidth {self.bandwidth!r} is too large: 2 bw^2 overflows")
            if not scale > 0:
                raise ValueError(
                    f"rbf bandwidth {self.bandwidth!r} is too small: 2 bw^2 underflows to 0"
                )
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


def _neg_sq_dists(pairs) -> np.ndarray:
    """-sum over the ``(a, b)`` pairs of the squared distances between the
    columns of a (p x m) and b (p x n), clamped at <= 0: one product of the
    stacked blocks ``[a; |a|^2; 1]`` and ``[2 b; -1; -|b|^2]``, whose (m x n)
    result is the only large allocation.  Each entry errs by at most about
    4 (p + 2) eps (|a|^2 + |b|^2), summed over the pairs.
    """
    left, right = [], []
    for a, b in pairs:
        left += [a, np.sum(a * a, axis=0), np.ones(a.shape[1])]
        right += [2.0 * b, -np.ones(b.shape[1]), -np.sum(b * b, axis=0)]
    neg = np.vstack(left).T @ np.vstack(right)
    return np.minimum(neg, 0.0, out=neg)


def kernel_matrix(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel values between the columns of two (p x m), (p x n) arrays.

    The result is a new array that the caller may overwrite.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    if spec.kind == "rbf":
        k = _neg_sq_dists(((a, b),))
        return np.exp(np.divide(k, 2.0 * spec.bandwidth**2, out=k), out=k)
    inner = a.T @ b
    if spec.kind == "linear":
        return inner
    inner += spec.offset
    inner **= spec.degree
    return inner


def vector_kernel(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    """Kernel value between two vectors."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    return float(kernel_matrix(x, y, spec)[0, 0])


def _check_dims(a: Sequence, b: Sequence, dims) -> None:
    if len(a) == 0 or len(b) == 0:
        raise ValueError("factor lists must be nonempty")
    ref = dims(a[0])
    for name, seq in (("a", a), ("b", b)) if b is not a else (("a", a),):
        for i, x in enumerate(seq):
            if dims(x) != ref:
                raise ValueError(
                    f"factor dims differ: {name}[{i}] has {dims(x)}, a[0] has {ref}"
                )


def _columns(samples: Sequence, modes) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-sample ranks and, per mode, every sample's factor columns side by side."""
    ranks = np.array([x.rank for x in samples], dtype=np.intp)
    return ranks, [np.concatenate(m, axis=1) for m in zip(*map(modes, samples))]


def _role_kernel(xa: list[np.ndarray], xb: list[np.ndarray], terms) -> np.ndarray:
    """The product over a role's modes of their kernel matrices.

    With each rbf mode's columns divided by sqrt(2) bw (a normal float for
    every accepted bandwidth, unlike 2 bw^2), :func:`_neg_sq_dists` of the
    role's rbf modes is its exponent -sum |a - b|^2 / (2 bw^2), which is
    exponentiated in place.  A bandwidth so small for its columns that the
    exponent's terms could overflow is a ``ValueError``.  Other modes
    multiply in :func:`kernel_matrix`.
    """
    pairs, prod = [], None
    for mode, spec in terms:
        if spec.kind == "rbf":
            scale = float(np.sqrt(2.0) * spec.bandwidth)
            # In Python floats an overflow is inf, not a RuntimeWarning.
            peak = max(float(np.abs(x[mode]).max(initial=0.0)) for x in (xa, xb)) / scale
            if not np.isfinite(4 * len(terms) * len(xa[mode]) * peak * peak):
                raise ValueError(f"rbf bandwidth {spec.bandwidth!r} is too small for its columns")
            pairs.append(tuple(x[mode] / scale for x in (xa, xb)))
    if pairs:
        prod = _neg_sq_dists(pairs)
        np.exp(prod, out=prod)
    for mode, spec in terms:
        if spec.kind != "rbf":
            k = kernel_matrix(xa[mode], xb[mode], spec)
            prod = k if prod is None else np.multiply(prod, k, out=prod)
    return prod


def _gram(a: Sequence, b: Sequence, modes, roles, symmetric: bool = False) -> np.ndarray:
    """K[i, j] = sum over roles of weight * sum over component pairs of the
    product of per-mode kernel values between a[i] and b[j].

    ``modes(x)`` gives a sample's factor matrices; a role is ``(weight,
    ((mode, spec), ...))``.  Each role's kernel matrix (:func:`_role_kernel`)
    is computed once on the stacked columns of all samples, then
    segment-summed to sample pairs with ``np.add.reduceat``, rows first, at
    the first stacked column of each sample that has components.  A rank-0
    sample owns no segment: it is left out of the index, so its row and
    column stay 0.  The symmetric form (``b`` is ``a``) mirrors the lower
    triangle, so the result is exactly symmetric.
    """
    ra, xa = _columns(a, modes)
    rb, xb = (ra, xa) if symmetric else _columns(b, modes)
    ia, ib = np.flatnonzero(ra), np.flatnonzero(rb)
    sa, sb = (np.cumsum(ra) - ra)[ia], (np.cumsum(rb) - rb)[ib]
    out, at = np.zeros((ra.size, rb.size)), np.ix_(ia, ib)
    for weight, terms in roles:
        if weight > 0:
            prod = _role_kernel(xa, xb, terms)
            block = np.add.reduceat(np.add.reduceat(prod, sa, axis=0), sb, axis=1)
            block *= weight
            out[at] += block
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

    Distances within the rounding of :func:`_neg_sq_dists` at the set's
    largest squared norm count as 0 and are excluded; if every pair
    coincides, returns 1.0.  Square roots keep the order of the squared
    distances, so the median is found among those, and only the one or two
    middle values are rooted.
    """
    c = np.asarray(columns, dtype=np.float64)
    neg = _neg_sq_dists(((c, c),))
    tol = 8 * (len(c) + 2) * np.finfo(float).eps * np.einsum("ij,ij->j", c, c).max(initial=0)
    upper = np.arange(c.shape[1])[:, None] < np.arange(c.shape[1])
    upper &= neg < -tol
    d = neg[upper]
    np.negative(d, out=d)
    if d.size == 0:
        return 1.0
    mid = d.size // 2
    if d.size % 2:
        d.partition(mid)
        return float(np.sqrt(d[mid]))
    d.partition(mid - 1)
    return float((np.sqrt(d[mid - 1]) + np.sqrt(d[mid:].min())) / 2.0)


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
