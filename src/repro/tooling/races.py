"""Concurrency-race rules of the TCAM stack (the ``analyze`` family).

PRs 2–3 made the hot paths concurrent: the blocked E-step fans worker
callables out on a :class:`~concurrent.futures.ThreadPoolExecutor` with
shared workspace/statistic buffer lists, and the serving layer answers
``recommend_batch`` traffic through shared LRU caches. The domain linter
(:mod:`repro.tooling.lint`) checks single-function properties only; these
visitors of the one analysis pass (:mod:`repro.tooling.core`) add the
*interprocedural* rules that protect the concurrency invariants. The
worker rule builds a call graph rooted at every callable submitted to
a thread pool, classifies how each value a worker can reach is shared
(worker-local, unique-per-worker index, per-worker slot of a shared
container, or fully shared), and follows calls to module-local functions
and methods so writes buried one or more frames below the submitted
callable are still attributed to the worker. PR 8's serving service adds
a second root kind: ``Process(target=...)`` worker entrypoints (their
``args=`` / ``kwargs=`` packs classify exactly like submit arguments),
and widens the serving-layer scope to the ``serving_service`` package.

========  ==================================================================
TCAM010   Write to shared mutable state from a pooled worker or a
          spawned process entrypoint without block-disjoint indexing
          (``self.total += x`` or ``shared[key] = v`` inside a worker;
          ``buffer[worker]`` slots are exempt).
TCAM011   Two workers handed aliasing workspace/stat buffers — a write
          through an argument every worker receives, or buffer-list
          construction that replicates one object (``[buf] * n``,
          ``[buf for _ in range(n)]``).
TCAM012   Cache/dict mutation reachable from the concurrent serving layer
          without a lock or a documented single-writer contract (scoped
          to ``recommend/serving.py`` / ``recommend/recommender.py`` and
          the ``serving_service`` package).
========  ==================================================================

Suppression reuses the linter's comment syntax: append
``# tcam-lint: disable=TCAM010`` to the offending line (the meta-test
keeps the real tree at zero findings, so every suppression is visible in
review). Lambdas submitted to pools are not descended into — submit a
named function so the analyzer can see it.  A fold over worker
results in completion order is TCAM031's, in
:mod:`repro.tooling.determinism`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterator, Sequence

from .core import (
    MAX_DEPTH,
    Module,
    Visitor,
    _attr_chain,
    _call_leaf,
    _Emitter,
    _keyword,
    _target_names,
)

__all__ = ["VISITORS"]

#: Method calls that mutate their receiver in place.
_WORKER_MUTATORS = frozenset(
    {
        "fill",
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "setdefault",
        "sort",
        "reverse",
        "move_to_end",
        "resize",
        "itemset",
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


class _Share(IntEnum):
    """How a value is shared across pooled workers (ordered by risk)."""

    LOCAL = 0  # worker-private (fresh object, literal, arithmetic result)
    UNIQUE = 1  # scalar index distinct per worker (``for w in range(n)``)
    DISJOINT = 2  # per-worker slot of a shared container (``bufs[w]``)
    SHARED = 3  # the same object is visible to every worker


#: (share class, origin) — origin is where the root object came from:
#: ``"param"`` (handed in through the submit call), ``"self"`` (reached
#: through the bound instance), ``"global"`` (closure/module binding), or
#: ``"local"`` (created inside the worker).
_Binding = tuple[_Share, str]

_LOCAL: _Binding = (_Share.LOCAL, "local")


@dataclass
class _Ctx:
    """State threaded through one worker's interprocedural analysis."""

    module: Module
    emit: _Emitter
    func: str
    depth: int
    visited: set[tuple[int, tuple[tuple[str, int], ...]]]


# -- shared-ness classification ----------------------------------------------


def _classify_expr(node: ast.AST, env: dict[str, _Binding]) -> _Binding:
    """Classify how the value of ``node`` is shared across workers."""
    if isinstance(node, ast.Constant):
        return _LOCAL
    if isinstance(node, ast.Name):
        if node.id == "self":
            return env.get("self", (_Share.SHARED, "self"))
        return env.get(node.id, (_Share.SHARED, "global"))
    if isinstance(node, ast.Attribute):
        share, origin = _classify_expr(node.value, env)
        if share in (_Share.LOCAL, _Share.UNIQUE):
            return (_Share.LOCAL, origin)
        return (share, origin)
    if isinstance(node, ast.Subscript):
        share, origin = _classify_expr(node.value, env)
        if share is _Share.SHARED and _index_is_unique(node.slice, env):
            return (_Share.DISJOINT, origin)
        if share in (_Share.LOCAL, _Share.UNIQUE):
            return (_Share.LOCAL, origin)
        return (share, origin)
    if isinstance(node, (ast.BoolOp, ast.IfExp)):
        operands: list[ast.expr]
        if isinstance(node, ast.BoolOp):
            operands = node.values
        else:
            operands = [node.body, node.orelse]
        best = _LOCAL
        for operand in operands:
            binding = _classify_expr(operand, env)
            if binding[0] > best[0]:
                best = binding
        return best
    if isinstance(node, ast.Starred):
        return _classify_expr(node.value, env)
    if isinstance(node, ast.NamedExpr):
        return _classify_expr(node.value, env)
    # Calls, arithmetic, comparisons and container displays produce fresh
    # objects; anything unrecognised is treated as local rather than
    # flooding the rule with false positives.
    return _LOCAL


def _index_is_unique(index: ast.AST, env: dict[str, _Binding]) -> bool:
    """True when a subscript index involves a per-worker-unique name."""
    for sub in ast.walk(index):
        if isinstance(sub, ast.Name):
            binding = env.get(sub.id)
            if binding is not None and binding[0] is _Share.UNIQUE:
                return True
    return False


def _element_binding(iter_expr: ast.AST, env: dict[str, _Binding]) -> _Binding:
    """Classify the *elements* produced by iterating ``iter_expr``.

    Inside a worker, ``range(n)`` yields the same values in every worker
    (local, not unique); ``container.values()`` yields objects as shared
    as the container; wrapping iterators (``enumerate``/``zip``/
    ``sorted``/...) inherit the most-shared class of their arguments.
    """
    if isinstance(iter_expr, ast.Call):
        leaf = _call_leaf(iter_expr.func)
        if leaf == "range":
            return _LOCAL
        if isinstance(iter_expr.func, ast.Attribute) and leaf in (
            "values",
            "items",
            "keys",
        ):
            return _classify_expr(iter_expr.func.value, env)
        if leaf in ("enumerate", "zip", "sorted", "reversed", "list", "tuple", "map", "filter"):
            best = _LOCAL
            for arg in iter_expr.args:
                binding = _element_binding(arg, env)
                if binding[0] > best[0]:
                    best = binding
            return best
        return _LOCAL
    binding = _classify_expr(iter_expr, env)
    if binding[0] is _Share.UNIQUE:
        return _LOCAL
    return binding


# -- submit-site discovery ---------------------------------------------------


def _submit_loop_bindings(
    target: ast.AST, iter_expr: ast.AST
) -> dict[str, _Share]:
    """Loop-variable classes at a submit site's enclosing loop.

    ``range`` targets are unique per worker; ``enumerate`` yields a
    unique index plus distinct (disjoint) elements; iterating any other
    container hands each worker a distinct element.
    """
    leaf = _call_leaf(iter_expr.func) if isinstance(iter_expr, ast.Call) else ""
    bindings: dict[str, _Share] = {}
    if leaf == "range":
        for name in _target_names(target):
            bindings[name] = _Share.UNIQUE
        return bindings
    if leaf == "enumerate" and isinstance(target, (ast.Tuple, ast.List)) and target.elts:
        for name in _target_names(target.elts[0]):
            bindings[name] = _Share.UNIQUE
        for element in target.elts[1:]:
            for name in _target_names(element):
                bindings[name] = _Share.DISJOINT
        return bindings
    for name in _target_names(target):
        bindings[name] = _Share.DISJOINT
    return bindings


def _spawn_target(call: ast.Call) -> ast.expr | None:
    """The ``target=`` callable of a ``Process(...)`` construction.

    Matches both the bare name (``Process(target=fn, ...)``) and the
    context-object form (``ctx.Process(target=fn, ...)``). Returns
    ``None`` for anything that is not a process spawn with a target.
    """
    callee = call.func
    if isinstance(callee, ast.Name):
        name = callee.id
    elif isinstance(callee, ast.Attribute):
        name = callee.attr
    else:
        return None
    return _keyword(call, "target") if name == "Process" else None


def _spawn_arg_exprs(
    call: ast.Call,
) -> tuple[list[ast.expr], dict[str, ast.expr]]:
    """The entrypoint's argument expressions from ``args=`` / ``kwargs=``.

    Only literal tuple/list (and literal dict with string keys) forms
    are unpacked; a dynamically built argument pack cannot be classified
    statically and contributes nothing.
    """
    positional: list[ast.expr] = []
    keywords: dict[str, ast.expr] = {}
    for kw in call.keywords:
        if kw.arg == "args" and isinstance(kw.value, (ast.Tuple, ast.List)):
            positional = list(kw.value.elts)
        elif kw.arg == "kwargs" and isinstance(kw.value, ast.Dict):
            for key, value in zip(kw.value.keys, kw.value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keywords[key.value] = value
    return positional, keywords


def _iter_worker_roots(
    tree: ast.Module,
) -> Iterator[tuple[ast.Call, dict[str, _Share]]]:
    """Yield every worker root call with its loop-variable env.

    A root is either a ``pool.submit(...)`` call or a
    ``Process(target=...)`` spawn — the two ways this codebase hands a
    callable to a concurrent worker.
    """

    def scan(
        node: ast.AST, loopvars: dict[str, _Share]
    ) -> Iterator[tuple[ast.Call, dict[str, _Share]]]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from scan(node.iter, loopvars)
            inner = dict(loopvars)
            inner.update(_submit_loop_bindings(node.target, node.iter))
            for stmt in [*node.body, *node.orelse]:
                yield from scan(stmt, inner)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            inner = dict(loopvars)
            for gen in node.generators:
                yield from scan(gen.iter, inner)
                inner.update(_submit_loop_bindings(gen.target, gen.iter))
                for cond in gen.ifs:
                    yield from scan(cond, inner)
            if isinstance(node, ast.DictComp):
                yield from scan(node.key, inner)
                yield from scan(node.value, inner)
            else:
                yield from scan(node.elt, inner)
            return
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "submit")
            or _spawn_target(node) is not None
        ):
            yield node, dict(loopvars)
        for child in ast.iter_child_nodes(node):
            yield from scan(child, loopvars)

    yield from scan(tree, {})


def _classify_submit_arg(arg: ast.AST, loopvars: dict[str, _Share]) -> _Binding:
    """Classify one argument of a ``pool.submit(fn, ...)`` call.

    The classification is from the worker's point of view: loop variables
    carry their per-worker class, fresh calls are disjoint across
    workers, and everything else is the *same* object handed to every
    worker (origin ``"param"``).
    """
    if isinstance(arg, ast.Constant):
        return _LOCAL
    if isinstance(arg, ast.Name):
        share = loopvars.get(arg.id)
        if share is not None:
            return (share, "param")
        return (_Share.SHARED, "param")
    if isinstance(arg, ast.Subscript):
        env = {name: (share, "param") for name, share in loopvars.items()}
        if _index_is_unique(arg.slice, env):
            return (_Share.DISJOINT, "param")
        return (_Share.SHARED, "param")
    if isinstance(arg, ast.Call):
        return (_Share.DISJOINT, "param")
    if isinstance(arg, ast.Starred):
        return _classify_submit_arg(arg.value, loopvars)
    return (_Share.SHARED, "param")


# -- the interprocedural worker pass (TCAM010 / TCAM011 writes) --------------


def _child_env(
    defn: ast.FunctionDef | ast.AsyncFunctionDef,
    arg_bindings: Sequence[_Binding],
    kw_bindings: dict[str, _Binding],
    self_binding: _Binding | None,
) -> dict[str, _Binding]:
    """Bind a callee's parameters from the classified call arguments."""
    params = [a.arg for a in defn.args.posonlyargs] + [a.arg for a in defn.args.args]
    env: dict[str, _Binding] = {}
    start = 0
    if params and params[0] in ("self", "cls") and self_binding is not None:
        env[params[0]] = self_binding
        start = 1
    for name, binding in zip(params[start:], arg_bindings):
        env[name] = binding
    for name in [a.arg for a in defn.args.kwonlyargs] + params[start:]:
        if name in kw_bindings:
            env[name] = kw_bindings[name]
        env.setdefault(name, _LOCAL)
    if defn.args.vararg is not None:
        env[defn.args.vararg.arg] = _LOCAL
    if defn.args.kwarg is not None:
        env[defn.args.kwarg.arg] = _LOCAL
    return env


def _flag_worker_write(node: ast.AST, desc: str, origin: str, ctx: _Ctx) -> None:
    if origin == "param":
        ctx.emit(
            node,
            "TCAM011",
            f"worker '{ctx.func}' writes to '{desc}', an object every "
            "worker was handed; give each worker a disjoint buffer "
            "(e.g. buffers[worker])",
        )
    else:
        where = "self" if origin == "self" else "enclosing-scope"
        ctx.emit(
            node,
            "TCAM010",
            f"worker '{ctx.func}' writes to shared {where} state '{desc}' "
            "without block-disjoint indexing; give each worker its own "
            "slot and reduce in fixed order after the join",
        )


def _describe(node: ast.AST) -> str:
    chain = _attr_chain(node)
    if chain:
        return ".".join(chain)
    try:
        return ast.unparse(node)  # pragma: no cover - exotic targets only
    except Exception:  # pragma: no cover - defensive
        return "<expression>"


def _check_store_target(
    target: ast.AST, env: dict[str, _Binding], ctx: _Ctx
) -> None:
    """Flag a subscript/attribute store whose base is shared."""
    if isinstance(target, ast.Subscript):
        share, origin = _classify_expr(target.value, env)
        if share is _Share.SHARED and not _index_is_unique(target.slice, env):
            _flag_worker_write(target, _describe(target.value), origin, ctx)
    elif isinstance(target, ast.Attribute):
        share, origin = _classify_expr(target.value, env)
        if share is _Share.SHARED:
            _flag_worker_write(target, _describe(target), origin, ctx)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _check_store_target(element, env, ctx)
    elif isinstance(target, ast.Starred):
        _check_store_target(target.value, env, ctx)


def _check_expr(expr: ast.AST, env: dict[str, _Binding], ctx: _Ctx) -> None:
    """Check every call inside ``expr``: mutators, ``out=``, descent."""
    for node in ast.walk(expr):
        if not isinstance(node, ast.Call):
            continue
        leaf = _call_leaf(node.func)
        if isinstance(node.func, ast.Attribute):
            base_chain = _attr_chain(node.func.value)
            is_numpy = bool(base_chain) and base_chain[0] in ("np", "numpy")
            # numpy ufuncs (np.add, np.clip, ...) do not mutate the module
            # they hang off; their writes surface through the out= check.
            if node.func.attr in _WORKER_MUTATORS and not is_numpy:
                share, origin = _classify_expr(node.func.value, env)
                if share is _Share.SHARED:
                    _flag_worker_write(
                        node, _describe(node.func.value), origin, ctx
                    )
        out = _keyword(node, "out")
        if out is not None:
            share, origin = _classify_expr(out, env)
            if share is _Share.SHARED:
                _flag_worker_write(node, _describe(out), origin, ctx)
        if leaf:
            _descend_call(node, leaf, env, ctx)


def _descend_call(
    call: ast.Call, leaf: str, env: dict[str, _Binding], ctx: _Ctx
) -> None:
    """Follow a call into module-local definitions with mapped bindings."""
    defs = ctx.module.resolve(leaf)
    if not defs or ctx.depth >= MAX_DEPTH:
        return
    arg_bindings = [_classify_expr(arg, env) for arg in call.args]
    kw_bindings = {
        kw.arg: _classify_expr(kw.value, env)
        for kw in call.keywords
        if kw.arg is not None
    }
    self_binding: _Binding | None = None
    if isinstance(call.func, ast.Attribute):
        self_binding = _classify_expr(call.func.value, env)
    for defn in defs:
        child = _child_env(defn, arg_bindings, kw_bindings, self_binding)
        _analyze_function(defn, child, ctx)


def _analyze_function(
    defn: ast.FunctionDef | ast.AsyncFunctionDef,
    env: dict[str, _Binding],
    ctx: _Ctx,
) -> None:
    """Analyze one function body reached from a pooled worker."""
    key = (
        id(defn),
        tuple(sorted((name, int(share)) for name, (share, _) in env.items())),
    )
    if key in ctx.visited:
        return
    ctx.visited.add(key)
    inner = replace(ctx, func=defn.name, depth=ctx.depth + 1)
    _process_body(defn.body, dict(env), inner)


def _process_body(
    body: Sequence[ast.stmt], env: dict[str, _Binding], ctx: _Ctx
) -> None:
    for stmt in body:
        _process_stmt(stmt, env, ctx)


def _bind_target(
    target: ast.AST, binding: _Binding, value: ast.AST | None, env: dict[str, _Binding]
) -> None:
    """Record what an assignment target now refers to."""
    if isinstance(target, ast.Name):
        env[target.id] = binding
    elif isinstance(target, (ast.Tuple, ast.List)):
        if (
            value is not None
            and isinstance(value, (ast.Tuple, ast.List))
            and len(value.elts) == len(target.elts)
        ):
            for element, sub_value in zip(target.elts, value.elts):
                _bind_target(element, _classify_expr(sub_value, env), sub_value, env)
        else:
            for element in target.elts:
                _bind_target(element, binding, None, env)
    elif isinstance(target, ast.Starred):
        _bind_target(target.value, binding, None, env)


def _process_stmt(stmt: ast.stmt, env: dict[str, _Binding], ctx: _Ctx) -> None:
    """Process one worker statement: bind names, check writes, descend."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        env[stmt.name] = _LOCAL
        return
    if isinstance(stmt, ast.Assign):
        _check_expr(stmt.value, env, ctx)
        binding = _classify_expr(stmt.value, env)
        for target in stmt.targets:
            _check_store_target(target, env, ctx)
            _bind_target(target, binding, stmt.value, env)
        return
    if isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            _check_expr(stmt.value, env, ctx)
            _check_store_target(stmt.target, env, ctx)
            _bind_target(stmt.target, _classify_expr(stmt.value, env), stmt.value, env)
        return
    if isinstance(stmt, ast.AugAssign):
        _check_expr(stmt.value, env, ctx)
        if isinstance(stmt.target, ast.Name):
            binding = env.get(stmt.target.id)
            if binding is not None and binding[0] is _Share.SHARED:
                _flag_worker_write(stmt.target, stmt.target.id, binding[1], ctx)
        else:
            _check_store_target(stmt.target, env, ctx)
        return
    if isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            _check_store_target(target, env, ctx)
        return
    if isinstance(stmt, ast.Expr):
        _check_expr(stmt.value, env, ctx)
        return
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        _check_expr(stmt.iter, env, ctx)
        _bind_target(stmt.target, _element_binding(stmt.iter, env), None, env)
        _process_body(stmt.body, env, ctx)
        _process_body(stmt.orelse, env, ctx)
        return
    if isinstance(stmt, ast.While):
        _check_expr(stmt.test, env, ctx)
        _process_body(stmt.body, env, ctx)
        _process_body(stmt.orelse, env, ctx)
        return
    if isinstance(stmt, ast.If):
        _check_expr(stmt.test, env, ctx)
        _process_body(stmt.body, env, ctx)
        _process_body(stmt.orelse, env, ctx)
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            _check_expr(item.context_expr, env, ctx)
            if item.optional_vars is not None:
                _bind_target(
                    item.optional_vars,
                    _classify_expr(item.context_expr, env),
                    None,
                    env,
                )
        _process_body(stmt.body, env, ctx)
        return
    if isinstance(stmt, ast.Try):
        _process_body(stmt.body, env, ctx)
        for handler in stmt.handlers:
            if handler.name is not None:
                env[handler.name] = _LOCAL
            _process_body(handler.body, env, ctx)
        _process_body(stmt.orelse, env, ctx)
        _process_body(stmt.finalbody, env, ctx)
        return
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        _check_expr(stmt.value, env, ctx)
        return
    if isinstance(stmt, ast.Raise):
        if stmt.exc is not None:
            _check_expr(stmt.exc, env, ctx)
        return
    if isinstance(stmt, ast.Assert):
        _check_expr(stmt.test, env, ctx)
        return


def _check_workers(module: Module, emit: _Emitter) -> None:
    """TCAM010/TCAM011: analyze every pooled callable or process entrypoint."""
    _check_replicated_buffers(module, emit)  # TCAM011's construction half
    for call, loopvars in _iter_worker_roots(module.tree):
        spawn_callable = _spawn_target(call)
        if spawn_callable is not None:
            callable_expr = spawn_callable
            arg_exprs, kw_exprs = _spawn_arg_exprs(call)
        elif call.args:
            callable_expr = call.args[0]
            arg_exprs = list(call.args[1:])
            kw_exprs = {
                kw.arg: kw.value for kw in call.keywords if kw.arg is not None
            }
        else:
            continue
        leaf = _call_leaf(callable_expr)
        if not leaf:
            continue  # lambdas/partials: not descended into (see module doc)
        defs = module.resolve(leaf)
        if not defs:
            continue
        arg_bindings = [
            _classify_submit_arg(arg, loopvars) for arg in arg_exprs
        ]
        kw_bindings = {
            name: _classify_submit_arg(value, loopvars)
            for name, value in kw_exprs.items()
        }
        self_binding: _Binding | None = None
        if isinstance(callable_expr, ast.Attribute):
            chain = _attr_chain(callable_expr.value)
            origin = "self" if chain and chain[0] == "self" else "param"
            self_binding = (_Share.SHARED, origin)
        ctx = _Ctx(module=module, emit=emit, func=leaf, depth=0, visited=set())
        for defn in defs:
            child = _child_env(defn, arg_bindings, kw_bindings, self_binding)
            _analyze_function(defn, child, ctx)


# -- TCAM011: aliasing buffer-list construction ------------------------------


def _module_uses_pool(module: Module) -> bool:
    for node in module.nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "submit":
                return True
        if isinstance(node, ast.Name) and node.id in ("ThreadPoolExecutor", "Process"):
            return True
        if isinstance(node, ast.Attribute) and node.attr in (
            "ThreadPoolExecutor",
            "Process",
        ):
            return True
    return False


def _is_replicating_operand(node: ast.AST) -> bool:
    """A list/tuple display containing object references (not literals)."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return False
    return any(
        isinstance(element, (ast.Name, ast.Attribute)) for element in node.elts
    )


def _check_replicated_buffers(module: Module, emit: _Emitter) -> None:
    """TCAM011: ``[buf] * n`` / ``[buf for _ in ...]`` alias one object."""
    if not _module_uses_pool(module):
        return
    message = (
        "replicating one object across a worker buffer list aliases every "
        "worker's workspace; construct a fresh buffer per worker"
    )
    for node in module.nodes:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if _is_replicating_operand(node.left) or _is_replicating_operand(node.right):
                emit(node, "TCAM011", message)
        elif isinstance(node, ast.ListComp):
            if not isinstance(node.elt, (ast.Name, ast.Attribute)):
                continue
            chain = _attr_chain(node.elt)
            root = chain[0] if chain else ""
            bound: set[str] = set()
            for gen in node.generators:
                bound.update(_target_names(gen.target))
            if root and root not in bound:
                emit(node.elt, "TCAM011", message)


# -- TCAM012: unlocked serving-layer mutation --------------------------------


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
    ("TCAM010", "TCAM011"): _check_workers,
    ("TCAM012",): _check_serving_mutation,
}
