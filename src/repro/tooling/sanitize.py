"""Opt-in runtime sanitizer for the EM engine and serving layer.

The static analyzer (:mod:`repro.tooling.core`) proves properties of the
code it can see; this module checks the numerical invariants the EM
contract promises *dynamically*:

* **Model state** entering the E-step must be finite, row-stochastic
  where the model contract says so, and the mixing weights must live in
  ``[0, 1]``;
* the **sufficient statistics** leaving it must be finite;
* every **served score** must be finite.

Enablement is opt-in: set the environment variable ``TCAM_SANITIZE=1``
or pass ``EMEngineConfig(sanitize=True)``. When disabled, the
instrumented call sites hold a ``None`` sanitizer and skip every check
behind a single attribute test — no :class:`Sanitizer` is ever
constructed (the class-level :attr:`Sanitizer.constructed` counter
proves it, and the benchmark harness asserts it), so the sanitize-off
hot path performs zero additional allocations or per-row work.

Violations raise :class:`SanitizerError`, an :class:`AssertionError`
subclass, so they fail tests loudly while remaining distinguishable from
ordinary assertions.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..typing import ArrayState, FloatArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..recommend.ranking import TopKResult

__all__ = [
    "ENV_FLAG",
    "SanitizerError",
    "Sanitizer",
    "sanitize_enabled",
    "check_finite",
    "check_simplex",
    "check_unit_interval",
    "check_state",
    "check_topk_finite",
]

#: Environment variable that switches the sanitizer on process-wide.
ENV_FLAG = "TCAM_SANITIZE"

_FALSY = frozenset({"", "0", "false", "off", "no"})

#: State keys whose rows must sum to one when present.
_SIMPLEX_KEYS = ("theta", "phi", "theta_time", "phi_time")

#: State keys that must live in the unit interval when present.
_UNIT_KEYS = ("lambda_u",)


def sanitize_enabled() -> bool:
    """True when ``TCAM_SANITIZE`` requests process-wide sanitizing."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in _FALSY


class SanitizerError(AssertionError):
    """A runtime sanitizer invariant was violated."""


def _simplex_atol(array: FloatArray) -> float:
    """Row-sum tolerance scaled to the array's precision."""
    return 1e-4 if array.dtype == np.dtype("float32") else 1e-6


def check_finite(name: str, array: FloatArray) -> None:
    """Raise :class:`SanitizerError` if ``array`` contains NaN/Inf."""
    if not bool(np.isfinite(array).all()):
        raise SanitizerError(f"sanitizer: '{name}' contains NaN/Inf values")


def check_unit_interval(name: str, array: FloatArray) -> None:
    """Raise unless every value of ``array`` is finite and in ``[0, 1]``."""
    check_finite(name, array)
    if bool((array < 0.0).any()) or bool((array > 1.0).any()):
        raise SanitizerError(
            f"sanitizer: '{name}' leaves the unit interval "
            f"(min {float(array.min())!r}, max {float(array.max())!r})"
        )


def check_simplex(name: str, array: FloatArray, atol: float | None = None) -> None:
    """Raise unless every row of ``array`` is a probability simplex."""
    check_finite(name, array)
    if bool((array < 0.0).any()):
        raise SanitizerError(f"sanitizer: '{name}' has negative probability mass")
    sums = array.sum(axis=-1)
    tolerance = _simplex_atol(array) if atol is None else atol
    if not bool(np.allclose(sums, 1.0, atol=tolerance)):
        worst = float(np.abs(sums - 1.0).max())
        raise SanitizerError(
            f"sanitizer: '{name}' rows are not stochastic "
            f"(worst row-sum deviation {worst:.3e})"
        )


def check_state(state: ArrayState) -> None:
    """Validate the model-state invariants the EM contract guarantees.

    Row-stochastic simplexes for the topic matrices present in ``state``
    and unit-interval mixing weights; unknown keys are checked for
    finiteness only.
    """
    for name, array in state.items():
        if name in _SIMPLEX_KEYS:
            check_simplex(name, array)
        elif name in _UNIT_KEYS:
            check_unit_interval(name, array)
        else:
            check_finite(name, array)


def check_topk_finite(results: Iterable["TopKResult"]) -> None:
    """Raise if any served recommendation carries a NaN/Inf score."""
    for result in results:
        for rec in result.recommendations:
            if not np.isfinite(rec.score):
                raise SanitizerError(
                    f"sanitizer: served item {rec.item} with non-finite "
                    f"score {rec.score!r}"
                )


class Sanitizer:
    """The marker a sanitizing :class:`BlockedEStep` or
    :class:`BatchScorer` holds; its presence arms that owner's checks.

    The class-level :attr:`constructed` counter backs the
    zero-overhead-when-off guarantee: a sanitize-off run constructs no
    instances, which the benchmark harness asserts.
    """

    #: Total instances ever constructed in this process.
    constructed: int = 0

    def __init__(self, label: str) -> None:
        type(self).constructed += 1
        self.label = label
