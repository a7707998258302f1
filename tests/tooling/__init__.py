"""Tests of the static-analysis tooling (``tcam check``)."""

from repro.tooling.registry import REGISTRY


def family(name: str) -> frozenset[str]:
    """The rule codes registered to one family: what ``select=`` narrows a run to."""
    return frozenset(code for code, spec in REGISTRY.items() if spec.tool == name)
