"""Domain rules of the TCAM stack (``tcam lint``).

The reproduced guarantees — EM convergence, bit-deterministic
checkpoint/resume, TA/batch-serving score identity — rest on a handful of
coding invariants that generic linters cannot see.  This module encodes
them as AST rules, visitors of the one analysis pass in
:mod:`repro.tooling.core`:

========  ==================================================================
TCAM001   No legacy/unseeded RNG.  ``np.random.<fn>()`` module-level calls
          and ``RandomState`` are banned; randomness must flow through a
          seeded ``np.random.Generator`` (``np.random.default_rng``).
TCAM002   No unguarded ``np.log`` / ``np.divide`` on probability arrays.
          The risky operand must carry an ``EPS``/``_EPS`` guard, a
          ``safe_``-prefixed value, or a clamping call (``np.maximum``,
          ``np.clip``, ``np.where``), unless it lives inside a blessed
          ``safe_*`` helper.
TCAM003   No array allocation inside hot paths.  Functions decorated with
          :func:`repro.typing.hot_path` (or listed as built-in hot kernels
          in ``core/engine.py`` / ``recommend/serving.py``) must write into
          preallocated workspaces; ``np.zeros``/``np.empty``/
          ``np.concatenate``/``.copy()``/... are flagged.
TCAM004   ``__all__`` consistency.  Every ``__all__`` entry must resolve to
          a module-level binding, every public top-level ``def``/``class``
          must be exported, and duplicates are flagged.
TCAM005   No nondeterministic iteration.  Bare ``set``/``frozenset``
          expressions must not feed loops, comprehensions, or order-
          sensitive reductions; wrap them in ``sorted(...)`` first.
          (One visitor with TCAM030, in :mod:`repro.tooling.determinism`.)
========  ==================================================================

Suppression: append ``# tcam-lint: disable=TCAM001`` (comma-separate for
several rules) to the offending line.

Run as ``tcam lint [paths...]`` or ``python -m repro.tooling.lint``; the
same rules run inside ``tcam check``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from .core import (
    Finding,
    Module,
    Visitor,
    _attr_chain,
    _call_leaf,
    _Emitter,
    _keyword,
    _target_names,
    _walk,
    check_paths,
    check_source,
)
from .core import main as check_main
from .registry import rules_for_tool

__all__ = [
    "RULES",
    "Finding",
    "lint_source",
    "lint_paths",
    "main",
]

#: Rule code -> one-line summary, derived from the shared registry
#: (:mod:`repro.tooling.registry`).
RULES: dict[str, str] = rules_for_tool("lint")

# -- rule configuration ------------------------------------------------------

#: np.random attributes that construct seeded generator machinery.
_SEEDED_RNG_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)

#: Names whose presence inside an expression marks it as EPS-guarded.
_GUARD_NAMES = frozenset({"EPS", "_EPS"})

#: Calls whose result is considered clamped/safe for log/divide operands.
_GUARD_CALLS = frozenset({"maximum", "fmax", "clip", "where", "exp", "abs", "absolute"})

#: numpy constructors that allocate a fresh array (banned in hot paths).
#: Checked both as ``np.<name>(...)`` chains and as bare names imported
#: via ``from numpy import <name>`` (aliases included).
_ALLOCATORS = frozenset(
    {
        "zeros",
        "empty",
        "ones",
        "full",
        "zeros_like",
        "empty_like",
        "ones_like",
        "full_like",
        "array",
        "copy",
        "concatenate",
        "vstack",
        "hstack",
        "stack",
        "tile",
        "repeat",
        "append",
        "insert",
        "pad",
        "ascontiguousarray",
        "asfortranarray",
        "atleast_1d",
        "atleast_2d",
        "atleast_3d",
        "arange",
        "linspace",
    }
)

# -- small AST helpers -------------------------------------------------------


def _is_numpy_random_chain(chain: Sequence[str]) -> bool:
    """True for ``np.random.X`` / ``numpy.random.X`` style chains."""

    return len(chain) >= 2 and chain[0] in {"np", "numpy"} and chain[1] == "random"


def _is_safe_name(name: str) -> bool:
    return name in _GUARD_NAMES or name.startswith("safe_")


def _expr_is_guarded(node: ast.AST) -> bool:
    """True when an expression visibly carries a numerical guard.

    Guards recognised: an ``EPS``/``_EPS`` term, any ``safe_``-prefixed
    name or attribute, or a clamping call (``np.maximum``, ``np.clip``,
    ``np.where``, ``np.exp``, ...).
    """

    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_safe_name(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_safe_name(sub.attr):
            return True
        if isinstance(sub, ast.Call) and _call_leaf(sub.func) in _GUARD_CALLS:
            return True
    return False


# -- per-scope analysis ------------------------------------------------------


def _guarded_locals(func: ast.AST) -> set[str]:
    """Names that were EPS-guarded somewhere inside ``func``.

    Recognised shapes::

        den = interest + context + EPS      # assignment containing a guard
        den += EPS                          # additive in-place guard
        np.add(p, EPS, out=den)             # ufunc writing a guarded value
        np.maximum(den, EPS, out=den)       # clamping in place

    The scan is flow-insensitive on purpose: the repo's kernels guard a
    denominator once, immediately before use, and a flow-lite heuristic
    keeps the rule free of false negatives without a dataflow engine.
    """

    guarded: set[str] = set()
    for sub in _walk(func):
        if isinstance(sub, ast.Assign):
            if _expr_is_guarded(sub.value):
                for target in sub.targets:
                    guarded.update(_target_names(target))
        elif isinstance(sub, ast.AugAssign):
            if isinstance(sub.target, ast.Name) and _expr_is_guarded(sub.value):
                guarded.add(sub.target.id)
        elif isinstance(sub, ast.Call):
            leaf = _call_leaf(sub.func)
            out = _keyword(sub, "out")
            if out is not None and isinstance(out, ast.Name):
                clamps = leaf in {"maximum", "fmax", "clip"}
                adds_eps = leaf in {"add", "divide", "multiply"} and any(
                    _expr_is_guarded(arg) for arg in sub.args
                )
                if clamps or adds_eps:
                    guarded.add(out.id)
    return guarded


def _risky_operand(call: ast.Call, leaf: str) -> ast.expr | None:
    """The operand of ``np.log``/``np.divide`` that must not be zero."""

    if leaf == "log":
        return call.args[0] if call.args else None
    if leaf == "divide":
        return call.args[1] if len(call.args) > 1 else None
    return None


def _operand_is_guarded(operand: ast.expr, guarded: set[str]) -> bool:
    if isinstance(operand, ast.Constant):
        return True
    if _expr_is_guarded(operand):
        return True
    if isinstance(operand, ast.Name) and operand.id in guarded:
        return True
    if isinstance(operand, ast.Attribute) and operand.attr in guarded:
        return True
    return False


# -- the rules ---------------------------------------------------------------


def _check_rng(module: Module, emit: _Emitter) -> None:
    """TCAM001: ban module-level np.random calls and RandomState."""

    for node in module.nodes:
        if isinstance(node, ast.Attribute) and node.attr == "RandomState":
            emit(node, "TCAM001", "RandomState is banned; use np.random.default_rng")
        elif isinstance(node, ast.Name) and node.id == "RandomState":
            emit(node, "TCAM001", "RandomState is banned; use np.random.default_rng")
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if (
                _is_numpy_random_chain(chain)
                and len(chain) == 3
                and chain[2] not in _SEEDED_RNG_OK
            ):
                emit(
                    node,
                    "TCAM001",
                    f"np.random.{chain[2]}() uses the legacy global RNG; "
                    "thread a seeded np.random.Generator instead",
                )


def _check_calls_guarded(
    nodes: Iterable[ast.AST], guarded: set[str], where: str, emit: _Emitter
) -> None:
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) != 2 or chain[0] not in {"np", "numpy"}:
            continue
        leaf = chain[1]
        operand = _risky_operand(node, leaf)
        if operand is None:
            continue
        if not _operand_is_guarded(operand, guarded):
            emit(
                node,
                "TCAM002",
                f"unguarded np.{leaf} in {where}; add an EPS term, clamp "
                "with np.maximum/np.clip, or use a safe_* helper",
            )


def _check_safe_math(module: Module, emit: _Emitter) -> None:
    """TCAM002: np.log/np.divide operands must be visibly guarded."""

    for scope in module.scopes:
        if _is_safe_name(scope.name):
            continue  # blessed safe-math helper: the guard lives inside it
        guarded = _guarded_locals(scope.node)
        ancestor = scope.parent
        while ancestor is not None:  # closures see enclosing guards
            guarded |= _guarded_locals(ancestor.node)
            ancestor = ancestor.parent
        _check_calls_guarded(
            _walk(scope.node), guarded, f"'{scope.qualname}'", emit
        )

    # Module-level statements (outside any def/class) get the same treatment.
    module_guarded: set[str] = set()
    top: list[ast.AST] = []
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        top.append(node)
        if isinstance(node, ast.Assign) and _expr_is_guarded(node.value):
            for target in node.targets:
                module_guarded.update(_target_names(target))
    for node in top:
        _check_calls_guarded(
            [node, *_walk(node)], module_guarded, "module scope", emit
        )


def _numpy_aliases(module: Module) -> dict[str, str]:
    """Local names bound by ``from numpy import ...`` -> numpy name.

    Lets TCAM003 see allocator calls that do not spell the ``np.``
    prefix (``from numpy import concatenate as cat; cat(...)``).
    """

    aliases: dict[str, str] = {}
    for node in module.nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases


def _check_hot_alloc(module: Module, emit: _Emitter) -> None:
    """TCAM003: no array allocation inside hot paths."""

    aliases = _numpy_aliases(module)
    for scope in module.scopes:
        if not (scope.hot or scope.listed_hot):
            continue
        for node in ast.walk(scope.node):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if len(chain) == 2 and chain[0] in {"np", "numpy"} and chain[1] in _ALLOCATORS:
                emit(
                    node,
                    "TCAM003",
                    f"np.{chain[1]}() allocates inside hot path "
                    f"'{scope.qualname}'; use the preallocated workspace",
                )
            elif (
                isinstance(node.func, ast.Name)
                and aliases.get(node.func.id) in _ALLOCATORS
            ):
                emit(
                    node,
                    "TCAM003",
                    f"{node.func.id}() (numpy {aliases[node.func.id]}) "
                    f"allocates inside hot path '{scope.qualname}'; use "
                    "the preallocated workspace",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "copy":
                if not chain or chain[0] not in {"np", "numpy"}:
                    emit(
                        node,
                        "TCAM003",
                        f".copy() allocates inside hot path '{scope.qualname}'; "
                        "use the preallocated workspace",
                    )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                copy_kw = _keyword(node, "copy")
                if not (
                    isinstance(copy_kw, ast.Constant) and copy_kw.value is False
                ):
                    emit(
                        node,
                        "TCAM003",
                        f".astype() without copy=False allocates inside hot "
                        f"path '{scope.qualname}'",
                    )


def _check_all_exports(module: Module, emit: _Emitter) -> None:
    """TCAM004: __all__ and the public surface must agree."""

    tree = module.tree
    all_node: ast.Assign | None = None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    all_node = node
    if all_node is None:
        return
    if not isinstance(all_node.value, (ast.List, ast.Tuple)):
        return
    exported: list[tuple[str, ast.expr]] = []
    for element in all_node.value.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            exported.append((element.value, element))

    bound: set[str] = set()
    public_defs: list[tuple[str, ast.stmt]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public_defs.append((node.name, node))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                bound.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bound.add(sub.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        bound.update(_target_names(target))
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        bound.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        bound.add(alias.asname or alias.name)

    seen: set[str] = set()
    for name, element in exported:
        if name in seen:
            emit(element, "TCAM004", f"'{name}' listed twice in __all__")
        seen.add(name)
        if name not in bound:
            emit(
                element,
                "TCAM004",
                f"'{name}' is exported in __all__ but never defined or imported",
            )
    for name, node in public_defs:
        if name not in seen:
            emit(node, "TCAM004", f"public definition '{name}' missing from __all__")


# -- registration ------------------------------------------------------------

#: Owned rule code(s) -> visitor.  TCAM005 shares TCAM030's visitor.
VISITORS: dict[tuple[str, ...], Visitor] = {
    ("TCAM001",): _check_rng,
    ("TCAM002",): _check_safe_math,
    ("TCAM003",): _check_hot_alloc,
    ("TCAM004",): _check_all_exports,
}


# -- the preset --------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text: the one pass with this family's rules."""

    return check_source(source, path, RULES)


def lint_paths(paths: Sequence[str]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""

    return check_paths(paths, RULES)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point of ``tcam lint``; returns a shell exit status (0 clean, 1 findings)."""

    return check_main(argv, "lint")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
