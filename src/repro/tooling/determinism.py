"""Determinism & dtype-flow rules for the bitwise contracts (``tcam prove``).

Every layer built since PR 1 stakes its correctness on *bitwise*
contracts: checkpoint/resume identity, the fixed-order blocked
reduction, quantized selection equal to the float64 path, micro-batch
split invariance, WAL replay determinism.  The linter checks local
idioms, the race analyzer checks sharing discipline, the auditor checks
resource lifecycles — this fourth family verifies the *determinism and
dtype discipline* of the numerical core itself.

The rules are rooted at functions carrying the zero-cost
:func:`repro.typing.bit_deterministic` marker and propagate through
their call graphs: any module-local function reachable (by bare-name
resolution, like the race analyzer's descent) from a marked function is
checked under the same contract — :class:`repro.tooling.core.Module`
computes that reachability once per file.  ``@hot_path`` functions
additionally get the dtype-flow rule — a silent upcast is a hidden
allocation there.

Two visitors here each serve a pair of codes.  TCAM005 (``tcam lint``)
and TCAM030 both look for iteration over an unordered source, TCAM013
(``tcam analyze``) and TCAM031 both for folds in completion order; the
members of a pair walk the same sites (:func:`_iteration_sites`) and
differ in where they look (the whole module, or the deterministic
region only) and in which sources, loop bodies and consumers count.

========  ==================================================================
TCAM030   Unordered iteration on a deterministic path.  Iterating a
          ``set``/``frozenset`` (literal, constructor, or a local bound
          to one), ``os.listdir``/``os.scandir``/``glob``/``iterdir``
          results, or ``as_completed`` — or set algebra over any of
          them (``a - b``, ``a | b``, ``a & b``, ``a ^ b``) — where the
          loop accumulates or emits a sequence, or where the unordered
          value feeds ``sum``/``list``/``tuple``/``join`` or a
          list/generator/dict comprehension.  Wrap the source in
          ``sorted(...)``.  (Dict iteration is insertion-ordered in
          Python ≥3.7 and exempt.)
TCAM031   Scheduling/machine-dependent float reduction order: folding
          worker results in ``as_completed``/``imap_unordered`` order,
          or deriving chunk/worker counts from ``cpu_count()`` inside
          the deterministic region (operand grouping then depends on
          the machine).  The blessed pattern is the engine's: a fixed
          block grid, partials collected in submission order
          (``[f.result() for f in futures]``), reduced in worker order.
TCAM032   ``np.argsort``/``np.sort`` without ``kind="stable"`` (or
          ``"mergesort"``).  numpy's default introsort permutes equal
          keys unpredictably across platforms, so any downstream order
          built from a sort of possibly-tied keys must pin the kind.
          ``sorted``/``list.sort``/``np.lexsort`` are stable by
          specification and exempt.
TCAM033   Dtype-flow: silent float64↔float32/float16 mixing in marked
          or ``@hot_path`` code.  Mixed-dtype binary ops upcast — a
          hidden allocation plus precision drift — and narrowing casts
          (``.astype(np.float32)``, ``np.float16(...)``) are only
          allowed through the blessed quantized-selection entry points
          (``recommend/quantize.py``) or an explicit suppression.
TCAM034   Wall-clock or unseeded entropy reaching deterministic state:
          ``time.time``/``time_ns``, ``datetime.now``, ``uuid1/4``,
          ``os.urandom``, ``secrets``, the ``random`` module, a
          zero-argument ``default_rng()``, and builtin ``hash()``
          (``PYTHONHASHSEED``-dependent for str/bytes).  Monotonic
          duration clocks (``perf_counter``/``monotonic``/
          ``process_time``) are diagnostics-only by contract and exempt.
TCAM035   Coverage: the documented contract functions (``run_em``, the
          blocked E-step, batch serving, the micro-batch worker loop,
          WAL replay, streaming fold-in/resume, checkpoint load — the
          ``contracts`` column of :data:`repro.tooling.registry.TREE`)
          must carry ``@bit_deterministic`` so the roots cannot rot.
========  ==================================================================

Suppression reuses the linter's comment syntax: append
``# tcam-lint: disable=TCAM030`` (comma-separate several codes) to the
offending line; the real-tree meta-test keeps the tree at zero findings
so every suppression is visible in review.

Run as ``tcam prove [paths...]`` or ``python -m repro.tooling.determinism``;
the same rules run inside ``tcam check``.
"""

from __future__ import annotations

import ast
from typing import Container, Iterable, Iterator, Sequence

from .core import (
    Finding,
    Module,
    Scope,
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
    "prove_source",
    "prove_paths",
    "main",
]

#: Rule code -> one-line summary, derived from the shared registry
#: (:mod:`repro.tooling.registry`).
RULES: dict[str, str] = rules_for_tool("prove")

#: Call leaves whose results have no reproducible order (TCAM030).
_UNORDERED_PRODUCERS = frozenset(
    {"listdir", "scandir", "glob", "iglob", "rglob", "iterdir", "as_completed"}
)

#: Call leaves that impose a stable order on their argument.
_ORDERING_WRAPPERS = frozenset({"sorted", "lexsort"})

#: Float dtypes the dtype-flow rule tracks, by canonical name.
_FLOAT_DTYPES = frozenset({"float16", "float32", "float64"})

#: Narrow float dtypes — casting down to these needs a blessed route.
_NARROW_DTYPES = frozenset({"float16", "float32"})

#: numpy binary ufuncs checked for mixed-dtype operands (TCAM033).
_BINARY_UFUNCS = frozenset(
    {"add", "subtract", "multiply", "divide", "true_divide", "dot", "matmul"}
)

#: Monotonic duration clocks: diagnostics-only by contract, exempt from
#: TCAM034 (they never reach persisted or served state).
_DURATION_CLOCKS = frozenset({"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "process_time"})

#: Wall-clock / entropy call leaves flagged by TCAM034 when the chain
#: confirms the module (``time.time`` yes, ``self.time`` no).
_WALL_CLOCK_LEAVES = frozenset({"time", "time_ns", "ctime", "asctime"})
_DATETIME_LEAVES = frozenset({"now", "utcnow", "today"})
_ENTROPY_LEAVES = frozenset({"uuid1", "uuid4", "urandom", "getrandbits", "token_bytes", "token_hex", "token_urlsafe"})

# -- small predicates ---------------------------------------------------------


def _is_set_expr(node: ast.AST) -> bool:
    """True for set/frozenset literals, comprehensions, and constructors."""

    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _is_unordered_expr(node: ast.AST, unordered_locals: set[str]) -> bool:
    """True when iterating ``node`` has no reproducible element order."""

    if _is_set_expr(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in unordered_locals
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):  # set algebra: ``a - b`` is as unordered as its operands
        return _is_unordered_expr(node.left, unordered_locals) or _is_unordered_expr(
            node.right, unordered_locals
        )
    if isinstance(node, ast.Call):
        leaf = _call_leaf(node.func)
        if leaf in _ORDERING_WRAPPERS:
            return False
        if leaf in _UNORDERED_PRODUCERS:
            return True
        # ``set(...)``/``frozenset(...)`` are set exprs, handled above;
        # wrapping iterators propagate their argument's orderedness.
        if leaf in ("enumerate", "reversed", "iter", "list", "tuple"):
            return any(
                _is_unordered_expr(arg, unordered_locals) for arg in node.args
            )
    return False


def _unordered_locals(func: ast.AST) -> set[str]:
    """Names bound to a set or an unordered producer inside ``func``."""

    names: set[str] = set()
    for node in _walk(func):
        if isinstance(node, ast.Assign) and _is_unordered_expr(node.value, names):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_unordered_expr(node.value, names) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
    return names


def _mentions_as_completed(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "as_completed":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "as_completed":
            return True
    return False


def _mentions_completion_iter(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _call_leaf(sub.func) in ("as_completed", "imap_unordered"):
            return True
    return False


def _where(scope: Scope) -> str:
    return f"deterministic path rooted at '{scope.root}'"


def _contract_calls(module: Module) -> Iterator[tuple[ast.Call, Scope]]:
    """Every call in the deterministic region, with the scope it sits in."""

    for scope in module.scopes:
        if scope.deterministic:
            for node in _walk(scope.node):
                if isinstance(node, ast.Call):
                    yield node, scope


# -- TCAM005/030 and TCAM013/031: iteration order becoming data ----------------

_COMPREHENSIONS: dict[type, str] = {
    ast.ListComp: "list",
    ast.SetComp: "set",
    ast.GeneratorExp: "generator",
    ast.DictComp: "dict",
}

_Site = tuple[ast.expr, str, str, Sequence[ast.stmt]]


def _iteration_sites(nodes: Iterable[ast.AST]) -> Iterator[_Site]:
    """Every place an iterable's element order can become data.

    Yields ``(iterable, kind, detail, loop body)``: a ``"loop"`` over it,
    a ``"comprehension"`` of it (detail: list/set/generator/dict), a
    builtin ``"consumer"`` called on it (detail: the builtin's name), or
    a ``sep.join`` of it.
    """

    for node in nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, "loop", "", node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                yield gen.iter, "comprehension", _COMPREHENSIONS[type(node)], ()
        elif isinstance(node, ast.Call) and node.args:
            if isinstance(node.func, ast.Name):
                yield node.args[0], "consumer", node.func.id, ()
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
                yield node.args[0], "join", "", ()


def _accumulates(body: Sequence[ast.stmt], methods: Container[str], emits: bool) -> bool:
    """True when a loop body's effect depends on iteration order.

    An augmented assignment or a call of one of ``methods`` does; with
    ``emits``, so does a ``yield``.
    """

    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return True
            if emits and isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
            ):
                return True
    return False


def _contract_sites(scope: Scope) -> Iterator[_Site]:
    """The :func:`_iteration_sites` of a deterministic scope that bear order.

    A loop must accumulate or emit, a set comprehension gains no order
    to lose (set in, set out), and only the folding builtins count.
    """

    for site in _iteration_sites(_walk(scope.node)):
        _, kind, detail, body = site
        if kind == "loop":
            bears = _accumulates(body, ("append", "extend", "insert", "appendleft", "write"), True)
        elif kind == "comprehension":
            bears = detail != "set"
        else:
            bears = kind == "join" or detail in ("sum", "list", "tuple", "fsum")
        if bears:
            yield site


def _check_unordered_iteration(module: Module, emit: _Emitter) -> None:
    """TCAM005/TCAM030: an unordered source must not drive ordered output.

    TCAM005 holds anywhere in a module, for bare set expressions, whatever
    the loop does; TCAM030 holds inside the deterministic region, for
    every unordered source (directory listings, locals bound to sets, set
    algebra, ...) where the order is actually borne.
    """

    for expr, kind, detail, _ in _iteration_sites(module.nodes):
        if _is_set_expr(expr) and (kind != "consumer" or detail in ("sum", "list", "tuple")):
            emit(
                expr,
                "TCAM005",
                "iterating a bare set is nondeterministic; wrap it in sorted(...) "
                "to fix the reduction order",
            )
    for scope in module.scopes:
        if not scope.deterministic:
            continue
        unordered = _unordered_locals(scope.node)
        for expr, kind, detail, _ in _contract_sites(scope):
            # Completion-order iterators (as_completed/imap_unordered) are
            # TCAM031's job — it gives the precise fix — so they are skipped
            # here to avoid dual flags (a str.join has no TCAM031 form).
            if _is_unordered_expr(expr, unordered) and (
                kind == "join" or not _mentions_completion_iter(expr)
            ):
                message = {
                    "loop": "iteration order of this set/directory listing is not "
                    "reproducible and the loop accumulates",
                    "comprehension": f"{detail} comprehension over an unordered source "
                    "emits a nondeterministic sequence",
                    "consumer": f"{detail}() over an unordered source folds elements in "
                    "an unreproducible order",
                    "join": "str.join over an unordered source emits a "
                    "nondeterministic sequence",
                }[kind]
                emit(expr, "TCAM030", f"{message} ({_where(scope)}); wrap the source in sorted(...)")


def _check_completion_order(module: Module, emit: _Emitter) -> None:
    """TCAM013/TCAM031: folds must not follow scheduling or the machine.

    TCAM013 holds anywhere in a module, for anything that mentions
    ``as_completed``; TCAM031 holds inside the deterministic region, for
    completion-order iterator *calls* (``imap_unordered`` too), the
    folding builtins over them, and ``cpu_count()``-derived grids.
    """

    for expr, kind, _, body in _iteration_sites(module.nodes):
        if _mentions_as_completed(expr) and (
            kind == "comprehension"
            or (kind == "loop" and _accumulates(body, ("append", "extend", "add", "update", "insert"), False))
        ):
            emit(
                expr,
                "TCAM013",
                "reduction over as_completed(...) folds worker results in "
                "completion order, which thread scheduling can permute; collect "
                "by index and reduce in fixed worker order instead",
            )
    for scope in module.scopes:
        if not scope.deterministic:
            continue
        for expr, kind, detail, _ in _contract_sites(scope):
            if kind != "join" and _mentions_completion_iter(expr):
                message = {
                    "loop": "folding worker results in completion order makes the "
                    f"reduction depend on thread scheduling ({_where(scope)}); "
                    "collect partials in submission order "
                    "([f.result() for f in futures]) and reduce in fixed "
                    "worker order",
                    "comprehension": "collecting worker results in completion order emits "
                    f"a scheduling-dependent sequence ({_where(scope)}); iterate "
                    "the futures list in submission order instead",
                    "consumer": f"{detail}() over completion-ordered worker results depends "
                    f"on thread scheduling ({_where(scope)}); collect partials in "
                    "submission order and reduce in fixed worker order",
                }[kind]
                emit(expr, "TCAM031", message)
    for node, scope in _contract_calls(module):
        if _call_leaf(node.func) == "cpu_count":
            emit(
                node,
                "TCAM031",
                f"cpu_count() inside the deterministic region makes the "
                f"chunk/worker grid — and therefore the float reduction "
                f"grouping — machine-dependent ({_where(scope)}); resolve worker "
                "counts in configuration, outside the marked boundary",
            )


# -- TCAM032: unstable sorts --------------------------------------------------


def _sort_kind_is_stable(call: ast.Call) -> bool:
    kind = _keyword(call, "kind")
    return isinstance(kind, ast.Constant) and kind.value in ("stable", "mergesort")


def _check_stable_sorts(module: Module, emit: _Emitter) -> None:
    """TCAM032: sorts on a deterministic path must pin a stable kind."""

    for node, scope in _contract_calls(module):
        chain = _attr_chain(node.func)
        leaf = _call_leaf(node.func)
        is_np_sort = (
            len(chain) == 2 and chain[0] in ("np", "numpy") and chain[1] == "sort"
        )
        is_argsort = leaf == "argsort"
        if (is_argsort or is_np_sort) and not _sort_kind_is_stable(node):
            name = "np.sort" if is_np_sort else "argsort"
            emit(
                node,
                "TCAM032",
                f"{name} without kind=\"stable\" permutes tied keys "
                f"unpredictably across platforms ({_where(scope)}); pass "
                'kind="stable" so downstream order is contract-bearing',
            )


# -- TCAM033: dtype-flow ------------------------------------------------------


def _const_float_dtype(node: ast.AST | None) -> str | None:
    """Canonical float dtype named by an expression, if statically visible."""

    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in _FLOAT_DTYPES else None
    leaf = _call_leaf(node)
    return leaf if leaf in _FLOAT_DTYPES else None


def _astype_dtype(call: ast.Call) -> str | None:
    """The target dtype of an ``.astype(...)`` call, if constant."""

    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "astype"):
        return None
    target = call.args[0] if call.args else _keyword(call, "dtype")
    return _const_float_dtype(target)


def _call_result_dtype(node: ast.AST) -> str | None:
    """Float dtype of a call result, when the call spells it out."""

    if not isinstance(node, ast.Call):
        return None
    cast = _astype_dtype(node)
    if cast is not None:
        return cast
    chain = _attr_chain(node.func)
    if chain and chain[-1] in _FLOAT_DTYPES:
        return chain[-1]  # np.float32(x) constructor casts
    dtype_kw = _keyword(node, "dtype")
    return _const_float_dtype(dtype_kw)


#: Annotation names mapped to dtypes (the shared typing vocabulary).
_ANNOTATION_DTYPES = {"FloatArray": "float64"}


def _param_dtypes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    env: dict[str, str] = {}
    params = (
        list(func.args.posonlyargs) + list(func.args.args) + list(func.args.kwonlyargs)
    )
    for arg in params:
        if arg.annotation is None:
            continue
        dtype = _ANNOTATION_DTYPES.get(_call_leaf(arg.annotation))
        if dtype is not None:
            env[arg.arg] = dtype
    return env


def _local_dtypes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    """Flow-insensitive name -> float dtype map for one function body.

    A name assigned two different visible dtypes is dropped (unknown),
    matching the flow-lite philosophy: only report what is certain.
    """

    env = _param_dtypes(func)
    poisoned: set[str] = set()
    for node in _walk(func):
        if not isinstance(node, ast.Assign):
            continue
        dtype = _call_result_dtype(node.value)
        for target in node.targets:
            for name in _target_names(target):
                if dtype is None:
                    continue
                if name in env and env[name] != dtype:
                    poisoned.add(name)
                env[name] = dtype
    for name in poisoned:
        env.pop(name, None)
    return env


def _expr_dtype(node: ast.AST, env: dict[str, str]) -> str | None:
    if isinstance(node, ast.Name):
        return env.get(node.id)
    result = _call_result_dtype(node)
    if result is not None:
        return result
    return None


def _check_dtype_flow(module: Module, emit: _Emitter) -> None:
    """TCAM033: no silent float mixing or unblessed narrowing in marked code."""

    for scope in module.scopes:
        if scope.deterministic or scope.hot:
            _check_scope_dtypes(scope, module.facts.narrowing, emit)


def _check_scope_dtypes(scope: Scope, blessed_file: bool, emit: _Emitter) -> None:
    env = _local_dtypes(scope.node)
    kind = "hot path" if scope.hot and not scope.deterministic else "deterministic path"
    where = f"{kind} '{scope.qualname}'"
    for node in _walk(scope.node):
        if not isinstance(node, (ast.Call, ast.BinOp)):
            continue
        if isinstance(node, ast.BinOp):
            left = _expr_dtype(node.left, env)
            right = _expr_dtype(node.right, env)
            if left is not None and right is not None and left != right:
                emit(
                    node,
                    "TCAM033",
                    f"mixed float dtypes ({left} vs {right}) in a binary op "
                    f"silently upcast — hidden allocation plus precision "
                    f"drift on the {where}; align the dtypes explicitly",
                )
            continue
        cast = _astype_dtype(node)
        chain = _attr_chain(node.func)
        ctor = chain[-1] if chain and chain[-1] in _NARROW_DTYPES else None
        if (cast in _NARROW_DTYPES or ctor is not None) and not blessed_file:
            narrow = cast if cast in _NARROW_DTYPES else ctor
            emit(
                node,
                "TCAM033",
                f"narrowing cast to {narrow} on the {where} is not routed "
                "through the blessed quantized-selection entry points "
                "(repro.recommend.quantize); use the proven-margin path or "
                "suppress with a visible justification",
            )
            continue
        leaf = _call_leaf(node.func)
        if (
            leaf in _BINARY_UFUNCS
            and chain
            and chain[0] in ("np", "numpy")
            and len(node.args) >= 2
        ):
            first = _expr_dtype(node.args[0], env)
            second = _expr_dtype(node.args[1], env)
            if first is not None and second is not None and first != second:
                emit(
                    node,
                    "TCAM033",
                    f"np.{leaf} over mixed float dtypes ({first} vs {second}) "
                    f"silently upcasts on the {where}; align the dtypes "
                    "explicitly",
                )


# -- TCAM034: wall-clock / entropy --------------------------------------------


def _entropy_violation(call: ast.Call) -> str | None:
    """Describe the wall-clock/entropy source ``call`` taps, if any."""

    chain = _attr_chain(call.func)
    leaf = chain[-1] if chain else ""
    if isinstance(call.func, ast.Name):
        if call.func.id == "hash":
            return "builtin hash() is PYTHONHASHSEED-dependent for str/bytes"
        if call.func.id == "default_rng" and not call.args and not call.keywords:
            return "default_rng() without a seed draws OS entropy"
        return None
    if not chain or len(chain) < 2:
        return None
    root = chain[0]
    if leaf in _DURATION_CLOCKS:
        return None
    if root == "time" and leaf in _WALL_CLOCK_LEAVES:
        return f"time.{leaf}() reads the wall clock"
    if leaf in _DATETIME_LEAVES and any("date" in part for part in chain[:-1]):
        return f"{'.'.join(chain)}() reads the wall clock"
    if root == "uuid" and leaf in _ENTROPY_LEAVES:
        return f"uuid.{leaf}() draws wall-clock/OS entropy"
    if root == "os" and leaf == "urandom":
        return "os.urandom() draws OS entropy"
    if root == "secrets":
        return f"secrets.{leaf}() draws OS entropy"
    if root == "random" and len(chain) == 2:
        return f"random.{leaf}() uses the process-global unseeded RNG"
    if leaf == "default_rng" and not call.args and not call.keywords:
        return "default_rng() without a seed draws OS entropy"
    return None


def _check_entropy(module: Module, emit: _Emitter) -> None:
    """TCAM034: no wall clock or unseeded entropy on a deterministic path."""

    for node, scope in _contract_calls(module):
        reason = _entropy_violation(node)
        if reason is not None:
            emit(
                node,
                "TCAM034",
                f"{reason}, so its value differs between bit-identical "
                f"replays ({_where(scope)}); thread seeds/timestamps in from "
                "outside the deterministic boundary",
            )


# -- TCAM035: contract coverage -----------------------------------------------


def _check_coverage(module: Module, emit: _Emitter) -> None:
    """TCAM035: the file's registered contract functions carry the marker."""

    by_qualname = {scope.qualname: scope for scope in module.scopes}
    for qualname in module.facts.contracts:
        scope = by_qualname.get(qualname)
        if scope is None:
            emit(
                module.tree,
                "TCAM035",
                f"documented contract function '{qualname}' not found in "
                "this module; update the analyzer's contract table "
                "(repro.tooling.determinism._CONTRACTS) if it moved",
            )
        elif "bit_deterministic" not in scope.decorators:
            emit(
                scope.node,
                "TCAM035",
                f"contract function '{qualname}' must carry "
                "@bit_deterministic — it anchors the bitwise-reproducibility "
                "contract the determinism analyzer is rooted at",
            )


# -- registration ------------------------------------------------------------

#: Owned rule code(s) -> visitor.  TCAM005 (``tcam lint``) and TCAM013
#: (``tcam analyze``) are served by their twins' visitors here.
VISITORS: dict[tuple[str, ...], Visitor] = {
    ("TCAM005", "TCAM030"): _check_unordered_iteration,
    ("TCAM013", "TCAM031"): _check_completion_order,
    ("TCAM032",): _check_stable_sorts,
    ("TCAM033",): _check_dtype_flow,
    ("TCAM034",): _check_entropy,
    ("TCAM035",): _check_coverage,
}


# -- the preset --------------------------------------------------------------


def prove_source(source: str, path: str = "<string>") -> list[Finding]:
    """Verify one module's source text: the one pass with this family's rules."""

    return check_source(source, path, RULES)


def prove_paths(paths: Sequence[str]) -> list[Finding]:
    """Verify every ``.py`` file under the given files/directories."""

    return check_paths(paths, RULES)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point of ``tcam prove``; returns a shell exit status (0 clean, 1 findings)."""

    return check_main(argv, "prove")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
