"""Quantized candidate selection with a proven exactness margin.

The batch serving engine (:mod:`repro.recommend.serving`) splits every
query into an approximate GEMM *selection* pass and an exact float64
*rescore* pass. The selection pass only has to produce a candidate
superset of the true top-k — so its matrix does not have to be float64.
This module provides the int8 (symmetric, per-topic scale)
representation of a ``(K, V)`` selection matrix together with the
machinery that keeps the end-to-end result **bitwise identical** to the
float64 path:

* :class:`QuantizedMatrix` stores the compressed matrix plus, per topic
  row, the *measured* worst-case deviation ``δ_z`` of its effective
  float32 value from the exact float64 entry, and the maximum absolute
  effective value (used to bound floating-point accumulation error).
* :func:`staged_select_gemm` computes approximate selection scores by
  dequantizing column blocks into a small reused float32 buffer — the
  full float32 matrix is never materialised, so an int8 model pages and
  keeps resident ~8× fewer selection bytes than float64.
* :func:`selection_margins` turns the stored error statistics into a
  per-row bound ``ε_r`` with ``|approx(v) − exact(v)| ≤ ε_r`` for every
  item ``v``, where *exact* is the float64 rescore score.

**Why the ``2ε`` margin is sufficient.** Let ``τ_r`` be the k-th largest
approximate score of row ``r`` and suppose some true top-k item ``v*``
had ``approx(v*) < τ_r − 2ε_r``. Then ``exact(v*) ≤ approx(v*) + ε_r <
τ_r − ε_r``. But each of the (at least) k items with ``approx ≥ τ_r``
has ``exact ≥ τ_r − ε_r > exact(v*)`` — k items with strictly larger
exact score, contradicting ``v*`` being in the exact top-k (under the
shared ``(score desc, item asc)`` tie order, which only ever *adds*
items at equal scores). Hence every item the float64 path returns
satisfies ``approx ≥ τ_r − 2ε_r`` and survives selection; the exact
rescore of any candidate superset returns identical items, scores and
tie order. See ``docs/performance.md`` for the full derivation,
including how ``ε_r`` accounts for quantization, float32 staging and
accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..typing import AnyArray, FloatArray

__all__ = [
    "ContextVector",
    "QuantizedMatrix",
    "accumulation_gamma",
    "quantize_matrix",
    "selection_margins",
    "staged_select_gemm",
]

#: Columns dequantized per staging step. ``K × 65536 × 4`` bytes of
#: float32 staging buffer (e.g. 12 MB at K = 48) regardless of ``V``.
STAGE_COLUMNS = 65_536

#: Unit roundoff of the float32 staging/accumulation arithmetic.
_UNIT32 = float(np.finfo(np.float32).eps) / 2.0

#: Measured error statistics are themselves computed in float64; inflate
#: them by this relative factor so their own rounding can never make the
#: stored bound an underestimate.
_MEASURE_SLACK = 1.0 + 2.0**-30


def accumulation_gamma(terms: int) -> float:
    """Worst-case relative error factor of summing ``terms`` products.

    The classical bound ``γ_n = n·u / (1 − n·u)`` with ``u`` the float32
    unit roundoff: any evaluation order of a dot product of length ``n``
    satisfies ``|fl(x·y) − x·y| ≤ γ_n · Σ|x_i||y_i|`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, §3.1). It is
    ordering-independent, so it covers BLAS's blocked/pairwise
    accumulation as well as sequential summation.
    """
    nu = terms * _UNIT32
    if nu >= 0.5:  # absurd K; keep the bound finite and conservative
        return 1.0
    return nu / (1.0 - nu)


@dataclass(frozen=True)
class QuantizedMatrix:
    """A ``(K, V)`` selection matrix in int8 storage.

    Attributes
    ----------
    storage:
        ``(K, V)`` int8 codes.
    scale:
        ``(K,)`` float32 per-topic dequantization scales.
    delta:
        ``(K,)`` float64 measured per-topic worst-case deviation of the
        *effective float32 value* (exactly what
        :func:`staged_select_gemm` multiplies with) from the exact
        float64 matrix entry — an upper bound by construction.
    row_abs_max:
        ``(K,)`` float64 maximum absolute effective value per topic,
        used to bound float32 accumulation error.
    """

    storage: AnyArray
    scale: AnyArray
    delta: FloatArray
    row_abs_max: FloatArray

    @property
    def dtype(self) -> str:
        """Storage dtype name (``"int8"``)."""
        return str(self.storage.dtype)

    @property
    def shape(self) -> tuple[int, int]:
        """``(K, V)`` of the represented matrix."""
        return (int(self.storage.shape[0]), int(self.storage.shape[1]))

    @property
    def nbytes(self) -> int:
        """Bytes held by the storage and its per-topic statistics."""
        return int(
            self.storage.nbytes
            + self.scale.nbytes
            + self.delta.nbytes
            + self.row_abs_max.nbytes
        )

    def dequantize_block(self, columns: slice, out: AnyArray) -> AnyArray:
        """Effective float32 values of one column block, written to ``out``.

        The effective value is ``float32(code) · float32(scale)`` — the
        exact expression the stored ``delta`` was measured against, so
        the GEMM operates on values whose deviation from float64 truth
        is bounded by construction.
        """
        block = self.storage[:, columns]
        view = out[:, : block.shape[1]]
        np.copyto(view, block, casting="same_kind")
        np.multiply(view, self.scale[:, None], out=view)
        return view


@dataclass(frozen=True)
class ContextVector:
    """Float32 per-interval context scores plus their error statistics.

    Used by the quantized selection path: ``values`` is the float32
    conversion of the exact float64 context vector ``θ′_t·Φ``; ``delta``
    the measured worst case ``max_v |values[v] − exact[v]|`` and
    ``abs_max`` the largest ``|values[v]|`` — the two numbers
    :func:`selection_margins` needs to bound the context contribution to
    every row's selection error.
    """

    values: AnyArray
    delta: float
    abs_max: float

    @property
    def nbytes(self) -> int:
        """Bytes held by the float32 vector (for byte-budget caches)."""
        return int(self.values.nbytes)

    @classmethod
    def from_exact(cls, exact: FloatArray) -> "ContextVector":
        """Convert an exact float64 vector, measuring the deviation.

        The measured statistics are inflated by the same relative slack
        as :func:`quantize_matrix`'s, so the float64 measurement cannot
        underestimate the true conversion error.
        """
        exact = np.asarray(exact, dtype=np.float64)
        values = exact.astype(np.float32)
        back = values.astype(np.float64)
        delta = float(np.abs(back - exact).max(initial=0.0)) * _MEASURE_SLACK
        abs_max = float(np.abs(back).max(initial=0.0)) * _MEASURE_SLACK
        return cls(values=values, delta=delta, abs_max=abs_max)


def _effective_values(storage: AnyArray, scale: AnyArray) -> FloatArray:
    """Float64 image of the effective float32 values (build-time only)."""
    values = storage.astype(np.float32) * scale[:, None]
    result: FloatArray = values.astype(np.float64)
    return result


def quantize_matrix(matrix: FloatArray, dtype: str) -> QuantizedMatrix:
    """Quantize a float64 ``(K, V)`` selection matrix (``dtype="int8"``).

    Uses a symmetric per-topic scale ``s_z = max_v |M[z, v]| / 127`` and
    round-to-nearest codes clipped to ``[−127, 127]``. The returned
    container carries *measured* per-topic error bounds: the deviation
    is evaluated against the effective float32 values actually used at
    serve time, then inflated by a relative slack so the measurement's
    own float64 rounding cannot flip it from an upper bound into an
    underestimate.

    This is a build/offline step — it reads the full matrix once and
    allocates freely. Serving only touches the compact result.
    """
    if dtype != "int8":
        raise ValueError(f"quantized dtype must be 'int8', got {dtype!r}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"selection matrix must be 2-D, got shape {matrix.shape}")
    abs_max = np.abs(matrix).max(axis=1)
    # A zero row quantizes to zero codes; scale 1.0 keeps the
    # dequantization well-defined (0 * 1.0 == 0, delta == 0).
    safe = np.where(abs_max > 0.0, abs_max, 1.0)
    scale64 = safe / 127.0
    scale = scale64.astype(np.float32)
    codes = np.rint(matrix / scale64[:, None])
    np.clip(codes, -127.0, 127.0, out=codes)
    storage = codes.astype(np.int8)
    effective = _effective_values(storage, scale)
    delta = np.abs(effective - matrix).max(axis=1) * _MEASURE_SLACK
    row_abs_max = np.abs(effective).max(axis=1) * _MEASURE_SLACK
    return QuantizedMatrix(
        storage=storage,
        scale=scale,
        delta=np.asarray(delta, dtype=np.float64),
        row_abs_max=np.asarray(row_abs_max, dtype=np.float64),
    )


def staged_select_gemm(
    qmatrix: QuantizedMatrix,
    weights32: AnyArray,
    scores: AnyArray,
    stage: AnyArray,
    stage_columns: int = STAGE_COLUMNS,
) -> None:
    """Approximate selection scores ``weights32 @ qmatrix`` into ``scores``.

    Dequantizes ``stage_columns`` columns at a time into the caller's
    reused float32 ``stage`` buffer and multiplies each block with one
    float32 GEMM — the float32 image of the full matrix never exists at
    once, which is what keeps a million-item catalogue's resident set
    small. ``scores`` must be a float32 ``(rows, V)`` buffer; ``stage``
    a float32 buffer of at least ``(K, min(V, stage_columns))``.
    """
    num_items = qmatrix.storage.shape[1]
    for start in range(0, num_items, stage_columns):
        columns = slice(start, min(start + stage_columns, num_items))
        block = qmatrix.dequantize_block(columns, stage)
        np.matmul(weights32, block, out=scores[:, columns])


def selection_margins(
    abs_weights: FloatArray,
    qmatrix: QuantizedMatrix,
    context_weight: FloatArray | None = None,
    context_delta: float = 0.0,
    context_abs_max: float = 0.0,
) -> FloatArray:
    """Per-row error bound ``ε_r`` of the staged quantized selection.

    For row ``r`` with non-negative weight magnitudes ``|w_r|`` (and an
    optional per-interval context vector added with weight ``c_r``, as
    the TCAM split path does), every item ``v`` satisfies
    ``|approx_r(v) − exact_r(v)| ≤ ε_r`` with::

        ε_r = Σ_z |w_rz| δ_z  +  c_r δ_ctx            (representation)
            + γ_{K+8} · (Σ_z |w_rz| m_z + c_r m_ctx)   (accumulation)

    where ``δ`` are the measured effective-value deviations, ``m`` the
    effective absolute row maxima and ``γ`` the float32 dot-product
    bound of :func:`accumulation_gamma`. The ``+8`` headroom covers the
    float32 rounding of the staged weights, the context addition, and
    the (hundreds of times smaller) float64 rounding of the exact
    rescore reference itself; the result is further inflated by a
    relative slack so that computing the bound in float64 cannot
    underestimate it. Returns one float64 margin per row.
    """
    terms = int(qmatrix.storage.shape[0]) + 8
    gamma = accumulation_gamma(terms)
    representation = abs_weights @ qmatrix.delta
    magnitude = abs_weights @ qmatrix.row_abs_max
    if context_weight is not None:
        representation = representation + context_weight * context_delta
        magnitude = magnitude + context_weight * context_abs_max
    margins: FloatArray = (representation + gamma * magnitude) * _MEASURE_SLACK
    return margins
