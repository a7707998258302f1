"""Domain rules of the TCAM stack (the ``lint`` family).

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
TCAM012   No unlocked mutation in the concurrent serving layer.  A
          serving-layer method (the registry's ``serving`` files) that
          writes ``self``-rooted state — a subscript store, an augmented
          update, a dict/list mutator call — must do it under a ``with
          ...lock...:`` block, or its class or method docstring must
          document a single-writer / not-thread-safe contract.
          ``__init__`` is exempt: construction happens before sharing.
========  ==================================================================

Suppression: append ``# tcam-lint: disable=TCAM001`` (comma-separate for
several rules) to the offending line.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Sequence

from .core import (
    Module,
    Visitor,
    _attr_chain,
    _call_leaf,
    _Emitter,
    _keyword,
    _target_names,
    _walk,
)

__all__ = ["VISITORS"]

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

#: Dict/cache mutators checked by TCAM012 in the serving layer. The
#: counted ``get``/``put``/``discard`` cache API is deliberately absent:
#: those entry points carry the lock themselves.
_DICT_MUTATORS = frozenset(
    {"pop", "popitem", "update", "setdefault", "move_to_end", "clear", "append", "extend"}
)

#: Docstring phrases accepted as a documented concurrency contract.
_CONTRACT_RE = re.compile(
    r"single[\s-]writer|not\s+(?:thread[\s-]?safe|safe\s+for\s+concurrent)",
    re.IGNORECASE,
)

# -- small AST helpers -------------------------------------------------------


def _describe(node: ast.AST) -> str:
    chain = _attr_chain(node)
    if chain:
        return ".".join(chain)
    try:
        return ast.unparse(node)  # pragma: no cover - exotic targets only
    except Exception:  # pragma: no cover - defensive
        return "<expression>"


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


def _is_lock_guard(item: ast.withitem) -> bool:
    for sub in ast.walk(item.context_expr):
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
    return False


def _self_rooted(node: ast.AST) -> bool:
    chain = _attr_chain(node)
    return bool(chain) and chain[0] == "self"


def _scan_serving_stmts(
    stmts: Sequence[ast.stmt], method: str, emit: _Emitter
) -> None:
    """Flag unlocked self-rooted container mutation in serving methods."""

    def flag(node: ast.AST, desc: str) -> None:
        emit(
            node,
            "TCAM012",
            f"'{method}' mutates shared serving state '{desc}' without a "
            "lock; guard it with the instance lock or document a "
            "single-writer contract in the class docstring",
        )

    def check_stmt(stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and _self_rooted(target.value):
                    flag(target, _describe(target.value))
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Attribute) and _self_rooted(stmt.target):
                flag(stmt.target, _describe(stmt.target))
            elif isinstance(stmt.target, ast.Subscript) and _self_rooted(
                stmt.target.value
            ):
                flag(stmt.target, _describe(stmt.target.value))
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and _self_rooted(target.value):
                    flag(target, _describe(target.value))
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_MUTATORS
                and _self_rooted(node.func.value)
            ):
                flag(node, _describe(node.func.value))

    def scan(body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                if any(_is_lock_guard(item) for item in stmt.items):
                    continue  # everything under the lock is accounted for
                scan(stmt.body)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                check_stmt(stmt)
                scan(stmt.body)
                scan(stmt.orelse)
                continue
            if isinstance(stmt, ast.If):
                check_stmt(stmt)
                scan(stmt.body)
                scan(stmt.orelse)
                continue
            if isinstance(stmt, ast.Try):
                scan(stmt.body)
                for handler in stmt.handlers:
                    scan(handler.body)
                scan(stmt.orelse)
                scan(stmt.finalbody)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(stmt.body)
                continue
            check_stmt(stmt)

    scan(stmts)


def _check_serving_mutation(module: Module, emit: _Emitter) -> None:
    """TCAM012: serving-layer classes must lock or document their writes."""
    if not module.facts.serving:
        return
    for node in module.nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        class_doc = ast.get_docstring(node)
        if class_doc and _CONTRACT_RE.search(class_doc):
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction happens-before any sharing
            method_doc = ast.get_docstring(method)
            if method_doc and _CONTRACT_RE.search(method_doc):
                continue
            _scan_serving_stmts(
                method.body, f"{node.name}.{method.name}", emit
            )


# -- registration ------------------------------------------------------------

#: Owned rule code(s) -> visitor.
VISITORS: dict[tuple[str, ...], Visitor] = {
    ("TCAM001",): _check_rng,
    ("TCAM002",): _check_safe_math,
    ("TCAM003",): _check_hot_alloc,
    ("TCAM004",): _check_all_exports,
    ("TCAM012",): _check_serving_mutation,
}
