"""Shared static-typing vocabulary for the TCAM stack.

Every module under :mod:`repro` that touches numerical state imports its
array aliases from here instead of spelling ``npt.NDArray[...]`` inline.
That keeps the signatures short, makes ``mypy --strict`` output readable,
and gives the domain linter (:mod:`repro.tooling.lint`) a single place to
recognise hot-path markers.

The module is deliberately dependency-free beyond numpy: it must be
importable by the tooling layer without dragging in scipy or the model
code.
"""

from __future__ import annotations

import os
from typing import (
    Any,
    Callable,
    Protocol,
    TypeVar,
    runtime_checkable,
)

import numpy as np
import numpy.typing as npt

__all__ = [
    "FloatArray",
    "IntArray",
    "BoolArray",
    "AnyArray",
    "RNG",
    "ArrayState",
    "Workspace",
    "StatBlock",
    "PathLike",
    "CuboidLike",
    "SupportsQuerySpace",
    "SupportsServing",
    "bit_deterministic",
    "hot_path",
    "is_bit_deterministic",
    "is_hot_path",
]

# ---------------------------------------------------------------------------
# Array aliases
# ---------------------------------------------------------------------------

#: Dense floating-point tensor (responsibilities, parameters, scores).
FloatArray = npt.NDArray[np.float64]

#: Integer index tensor (user / interval / item ids, top-k indices).
IntArray = npt.NDArray[np.int64]

#: Boolean mask tensor (exclusion masks, convergence flags).
BoolArray = npt.NDArray[np.bool_]

#: Escape hatch for dtype-polymorphic code (float32/float64 kernels).
AnyArray = npt.NDArray[Any]

#: The only random source the stack permits (lint rule TCAM001).
RNG = np.random.Generator

#: Named bundle of model state arrays, e.g. ``{"theta": ..., "phi": ...}``.
ArrayState = dict[str, FloatArray]

#: Preallocated scratch buffers used by the blocked E-step.
#: Heterogeneous on purpose: arrays plus reusable index plans.
Workspace = dict[str, Any]

#: Sufficient-statistic accumulators produced by an E-step pass.
StatBlock = dict[str, AnyArray]

#: Anything the serialization layer accepts as a filesystem location.
PathLike = str | os.PathLike[str]


# ---------------------------------------------------------------------------
# Structural protocols
# ---------------------------------------------------------------------------


@runtime_checkable
class CuboidLike(Protocol):
    """Structural shape of the (user, interval, item) observation cuboid.

    Both :class:`repro.data.cuboid.Cuboid` and ad-hoc test doubles satisfy
    this; consumers should depend on the protocol, not the concrete class.
    """

    @property
    def users(self) -> IntArray:
        """Dense user ids, one per observation."""
        ...

    @property
    def intervals(self) -> IntArray:
        """Dense time-interval ids aligned with :attr:`users`."""
        ...

    @property
    def items(self) -> IntArray:
        """Dense item ids aligned with :attr:`users`."""
        ...

    @property
    def scores(self) -> FloatArray:
        """Observation weights (counts or item-weighted masses)."""
        ...

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(num_users, num_intervals, num_items)``."""
        ...


@runtime_checkable
class SupportsQuerySpace(Protocol):
    """A fitted model that can expand a (user, interval) query.

    Satisfied by TTCAM/ITCAM model objects and by
    :class:`repro.core.serialize.LoadedModel`.
    """

    def query_space(self, user: int, interval: int) -> Any:
        """Expanded query vector and topic-item matrix for ``(user, interval)``."""
        ...


@runtime_checkable
class SupportsServing(SupportsQuerySpace, Protocol):
    """The model surface the batch serving engine relies on."""

    @property
    def params_(self) -> Any:
        """Fitted parameter container set by ``fit()``."""
        ...

    def matrix_cache_key(self) -> Any:
        """Key saying which queries share one topic-item matrix."""
        ...


# ---------------------------------------------------------------------------
# Hot-path marker
# ---------------------------------------------------------------------------

_F = TypeVar("_F", bound=Callable[..., Any])

#: Attribute stamped onto callables decorated with :func:`hot_path`.
_HOT_ATTR = "__tcam_hot_path__"


def hot_path(func: _F) -> _F:
    """Mark ``func`` as allocation-free inner-loop code.

    The decorator is zero-cost at runtime — it only stamps an attribute —
    but it is load-bearing for static analysis: lint rule TCAM003 forbids
    array allocation (``np.zeros``/``np.empty``/``np.concatenate``,
    ``.copy()``, ...) inside any function carrying this marker.  Hot
    kernels must write into preallocated workspaces instead.
    """

    setattr(func, _HOT_ATTR, True)
    return func


def is_hot_path(func: Callable[..., Any]) -> bool:
    """Return ``True`` if ``func`` was decorated with :func:`hot_path`."""

    return bool(getattr(func, _HOT_ATTR, False))


# ---------------------------------------------------------------------------
# Bit-determinism marker
# ---------------------------------------------------------------------------

#: Attribute stamped onto callables decorated with :func:`bit_deterministic`.
_BIT_DET_ATTR = "__tcam_bit_deterministic__"


def bit_deterministic(func: _F) -> _F:
    """Mark ``func`` as carrying a bitwise-reproducibility contract.

    The decorator is zero-cost at runtime — it only stamps an attribute —
    but it roots the static determinism analyzer
    (:mod:`repro.tooling.determinism`, run by ``tcam check``): every function
    carrying this marker, and everything reachable from it through
    module-local calls, must be free of unordered iteration feeding
    reductions (TCAM030), scheduling/machine-dependent float reduction
    orders (TCAM031), unstable sorts where ties matter (TCAM032), silent
    float dtype mixing (TCAM033), and wall-clock or unseeded entropy
    (TCAM034).  Rule TCAM035 pins the marker onto the documented
    contract functions so the analyzer's roots cannot silently rot.

    The promise is: for fixed inputs and fixed configuration, two runs
    of a marked function produce bit-identical outputs — on any machine,
    any ``PYTHONHASHSEED``, any thread scheduling.
    """

    setattr(func, _BIT_DET_ATTR, True)
    return func


def is_bit_deterministic(func: Callable[..., Any]) -> bool:
    """Return ``True`` if ``func`` was decorated with :func:`bit_deterministic`."""

    return bool(getattr(func, _BIT_DET_ATTR, False))
