"""Static determinism & dtype-flow verifier (``tcam prove``).

Every layer built since PR 1 stakes its correctness on *bitwise*
contracts: checkpoint/resume identity, the fixed-order blocked
reduction, quantized selection equal to the float64 path, micro-batch
split invariance, WAL replay determinism.  The linter checks local
idioms, the race analyzer checks sharing discipline, the auditor checks
resource lifecycles — this fourth layer verifies the *determinism and
dtype discipline* of the numerical core itself.

The analyzer is rooted at functions carrying the zero-cost
:func:`repro.typing.bit_deterministic` marker and propagates through
their call graphs: any module-local function reachable (by bare-name
resolution, like the race analyzer's descent) from a marked function is
checked under the same contract.  ``@hot_path`` functions additionally
get the dtype-flow rule — a silent upcast is a hidden allocation there.

========  ==================================================================
TCAM030   Unordered iteration on a deterministic path.  Iterating a
          ``set``/``frozenset`` (literal, constructor, or a local bound
          to one), ``os.listdir``/``os.scandir``/``glob``/``iterdir``
          results, or ``as_completed`` — where the loop accumulates or
          emits a sequence, or where the unordered value feeds
          ``sum``/``list``/``tuple``/``join`` or a list/generator/dict
          comprehension.  Wrap the source in ``sorted(...)``.  (Dict
          iteration is insertion-ordered in Python ≥3.7 and exempt.)
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
          WAL replay, streaming fold-in/resume) must carry
          ``@bit_deterministic`` so the analyzer's roots cannot rot.
========  ==================================================================

Suppression reuses the linter's comment syntax: append
``# tcam-lint: disable=TCAM030`` (comma-separate several codes) to the
offending line; the real-tree meta-test keeps the tree at zero findings
so every suppression is visible in review.

Run as ``tcam prove [paths...]`` or ``python -m repro.tooling.determinism``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from .lint import (
    Finding,
    _attr_chain,
    _call_leaf,
    _decorator_names,
    _Emitter,
    _is_set_expr,
    _iter_python_files,
    _keyword,
    _target_names,
    _walk_own,
)
from .races import _FunctionIndex
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

#: Interprocedural descent budget below a ``@bit_deterministic`` root.
_MAX_DEPTH = 4

#: Call leaves whose results have no reproducible order (TCAM030).
_UNORDERED_PRODUCERS = frozenset(
    {"listdir", "scandir", "glob", "iglob", "rglob", "iterdir", "as_completed"}
)

#: Call leaves that impose a stable order on their argument.
_ORDERING_WRAPPERS = frozenset({"sorted", "lexsort"})

#: Order-sensitive consumers of an iterable's element order.
_ORDER_SENSITIVE_CALLS = frozenset({"sum", "list", "tuple", "fsum"})

#: Iterators whose element order follows completion, not submission.
_COMPLETION_ORDER_ITERS = frozenset({"as_completed", "imap_unordered"})

#: Mutating calls that make a loop body order-sensitive.
_ACCUMULATORS = frozenset({"append", "extend", "insert", "appendleft", "write"})

#: Float dtypes the dtype-flow rule tracks, by canonical name.
_FLOAT_DTYPES = frozenset({"float16", "float32", "float64"})

#: Narrow float dtypes — casting down to these needs a blessed route.
_NARROW_DTYPES = frozenset({"float16", "float32"})

#: Files allowed to narrow dtypes: the proven-margin quantized-selection
#: layer narrows by design (its error bound is the whole point).
_BLESSED_NARROWING_SUFFIXES = ("recommend/quantize.py",)

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

#: The documented bitwise-contract functions (TCAM035): path suffix ->
#: qualified names that must carry ``@bit_deterministic``.  This is the
#: table that keeps the analyzer's roots honest — moving or renaming a
#: contract function without updating it fails the real-tree meta-test.
_CONTRACTS: dict[str, tuple[str, ...]] = {
    "core/em.py": ("run_em",),
    "core/engine.py": ("BlockedEStep.compute",),
    "core/model.py": ("EMModel.fit",),
    "recommend/recommender.py": ("TemporalRecommender.recommend_batch_with_status",),
    "serving_service/worker.py": ("serve_requests",),
    "streaming/wal.py": ("EventLog.read",),
    "streaming/ingestor.py": ("StreamIngestor.run", "StreamIngestor._try_resume"),
    "extensions/online.py": ("OnlineTTCAM.fold_in_user", "OnlineTTCAM.fold_in_interval"),
    "extensions/social.py": ("build_homophilous_graph",),
    "analysis/topics.py": ("match_topics",),
}


# -- scope collection and call-graph propagation ------------------------------


class _Scope:
    """One function definition plus its determinism/hot classification."""

    def __init__(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        deterministic: bool,
        hot: bool,
    ) -> None:
        self.node = node
        self.qualname = qualname
        self.deterministic = deterministic
        self.hot = hot
        #: Root qualname this scope's contract flows from (for messages).
        self.root = qualname if deterministic else ""


def _collect_scopes(tree: ast.Module) -> list[_Scope]:
    """Qualify every function and classify marker-decorated ones.

    ``deterministic``/``hot`` here reflect only the *lexical* evidence
    (decorator or enclosing marked function); call-graph reachability is
    layered on by :func:`_propagate`.
    """

    scopes: list[_Scope] = []

    def visit(node: ast.AST, prefix: str, det: bool, hot: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}" if prefix else child.name
                decorators = _decorator_names(child)
                child_det = det or "bit_deterministic" in decorators
                child_hot = hot or "hot_path" in decorators
                scopes.append(_Scope(child, qualname, child_det, child_hot))
                visit(child, f"{qualname}.<locals>.", child_det, child_hot)
            elif isinstance(child, ast.ClassDef):
                class_prefix = f"{prefix}{child.name}." if prefix else f"{child.name}."
                visit(child, class_prefix, det, hot)
            else:
                visit(child, prefix, det, hot)

    visit(tree, "", False, False)
    return scopes


def _propagate(scopes: list[_Scope], index: _FunctionIndex) -> None:
    """Mark every scope reachable from a deterministic root, breadth-first.

    Resolution is by bare callee name within the module (the race
    analyzer's over-approximation): ``self.kernel.accumulate(...)``
    descends into every ``accumulate`` defined in the file.  Cross-module
    calls are not followed — each module's contract functions carry
    their own marker (TCAM035 pins the documented ones).
    """

    by_node = {id(scope.node): scope for scope in scopes}
    frontier = [
        (scope, 0) for scope in scopes if scope.deterministic
    ]
    while frontier:
        scope, depth = frontier.pop()
        if depth >= _MAX_DEPTH:
            continue
        for node in _walk_own(scope.node):
            if not isinstance(node, ast.Call):
                continue
            leaf = _call_leaf(node.func)
            if not leaf:
                continue
            for defn in index.resolve(leaf):
                callee = by_node.get(id(defn))
                if callee is None or callee.deterministic:
                    continue
                callee.deterministic = True
                callee.root = scope.root or scope.qualname
                frontier.append((callee, depth + 1))


# -- small predicates ---------------------------------------------------------


def _is_unordered_expr(node: ast.AST, unordered_locals: set[str]) -> bool:
    """True when iterating ``node`` has no reproducible element order."""

    if _is_set_expr(node):
        return True
    if isinstance(node, ast.Name):
        return node.id in unordered_locals
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


def _unordered_locals(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound to a set or an unordered producer inside ``func``."""

    names: set[str] = set()
    for node in _walk_own(func):
        if isinstance(node, ast.Assign) and _is_unordered_expr(node.value, names):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_unordered_expr(node.value, names) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
    return names


def _accumulates_or_emits(body: Sequence[ast.stmt]) -> bool:
    """True when a loop body's effect depends on iteration order."""

    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return True
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ACCUMULATORS
            ):
                return True
    return False


def _iter_comprehension_sites(
    node: ast.AST,
) -> Iterator[tuple[ast.expr, str]]:
    """(iter expr, kind) for comprehensions that emit an ordered sequence.

    Set comprehensions are excluded (set in, set out — no order gained
    or lost); dict comprehensions are included because the resulting
    dict's insertion order *is* the unordered iteration order, which
    every later loop over it inherits.
    """

    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        kind = "list" if isinstance(node, ast.ListComp) else "generator"
        for gen in node.generators:
            yield gen.iter, kind
    elif isinstance(node, ast.DictComp):
        for gen in node.generators:
            yield gen.iter, "dict"


# -- TCAM030: unordered iteration ---------------------------------------------


def _check_unordered_iteration(scope: _Scope, emit: _Emitter) -> None:
    unordered = _unordered_locals(scope.node)
    where = f"deterministic path rooted at '{scope.root or scope.qualname}'"
    for node in _walk_own(scope.node):
        # Completion-order iterators (as_completed/imap_unordered) are
        # TCAM031's job — the scheduling-dependent-reduction rule gives
        # the precise fix — so they are skipped here to avoid dual flags.
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _mentions_completion_iter(node.iter):
                continue
            if _is_unordered_expr(node.iter, unordered) and _accumulates_or_emits(
                node.body
            ):
                emit(
                    node.iter,
                    "TCAM030",
                    f"iteration order of this set/directory listing is not "
                    f"reproducible and the loop accumulates ({where}); wrap "
                    "the source in sorted(...)",
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for iter_expr, kind in _iter_comprehension_sites(node):
                if _mentions_completion_iter(iter_expr):
                    continue
                if _is_unordered_expr(iter_expr, unordered):
                    emit(
                        iter_expr,
                        "TCAM030",
                        f"{kind} comprehension over an unordered source emits "
                        f"a nondeterministic sequence ({where}); wrap the "
                        "source in sorted(...)",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            leaf = _call_leaf(func)
            if (
                isinstance(func, ast.Name)
                and leaf in _ORDER_SENSITIVE_CALLS
                and node.args
                and not _mentions_completion_iter(node.args[0])
                and _is_unordered_expr(node.args[0], unordered)
            ):
                emit(
                    node.args[0],
                    "TCAM030",
                    f"{leaf}() over an unordered source folds elements in an "
                    f"unreproducible order ({where}); wrap the source in "
                    "sorted(...)",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and _is_unordered_expr(node.args[0], unordered)
            ):
                emit(
                    node.args[0],
                    "TCAM030",
                    f"str.join over an unordered source emits a "
                    f"nondeterministic sequence ({where}); wrap the source "
                    "in sorted(...)",
                )


# -- TCAM031: scheduling-dependent reductions ---------------------------------


def _mentions_completion_iter(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _call_leaf(sub.func) in _COMPLETION_ORDER_ITERS:
            return True
    return False


def _check_reduction_order(scope: _Scope, emit: _Emitter) -> None:
    where = f"deterministic path rooted at '{scope.root or scope.qualname}'"
    for node in _walk_own(scope.node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _mentions_completion_iter(node.iter) and _accumulates_or_emits(
                node.body
            ):
                emit(
                    node.iter,
                    "TCAM031",
                    f"folding worker results in completion order makes the "
                    f"reduction depend on thread scheduling ({where}); "
                    "collect partials in submission order "
                    "([f.result() for f in futures]) and reduce in fixed "
                    "worker order",
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                if _mentions_completion_iter(gen.iter):
                    emit(
                        gen.iter,
                        "TCAM031",
                        f"collecting worker results in completion order emits "
                        f"a scheduling-dependent sequence ({where}); iterate "
                        "the futures list in submission order instead",
                    )
        elif isinstance(node, ast.Call):
            leaf = _call_leaf(node.func)
            if (
                isinstance(node.func, ast.Name)
                and leaf in _ORDER_SENSITIVE_CALLS
                and node.args
                and _mentions_completion_iter(node.args[0])
            ):
                emit(
                    node.args[0],
                    "TCAM031",
                    f"{leaf}() over completion-ordered worker results depends "
                    f"on thread scheduling ({where}); collect partials in "
                    "submission order and reduce in fixed worker order",
                )
            elif leaf == "cpu_count":
                emit(
                    node,
                    "TCAM031",
                    f"cpu_count() inside the deterministic region makes the "
                    f"chunk/worker grid — and therefore the float reduction "
                    f"grouping — machine-dependent ({where}); resolve worker "
                    "counts in configuration, outside the marked boundary",
                )


# -- TCAM032: unstable sorts --------------------------------------------------


def _sort_kind_is_stable(call: ast.Call) -> bool:
    kind = _keyword(call, "kind")
    return isinstance(kind, ast.Constant) and kind.value in ("stable", "mergesort")


def _check_stable_sorts(scope: _Scope, emit: _Emitter) -> None:
    where = f"deterministic path rooted at '{scope.root or scope.qualname}'"
    for node in _walk_own(scope.node):
        if not isinstance(node, ast.Call):
            continue
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
                f"unpredictably across platforms ({where}); pass "
                'kind="stable" so downstream order is contract-bearing',
            )


# -- TCAM033: dtype-flow ------------------------------------------------------


def _const_float_dtype(node: ast.AST | None) -> str | None:
    """Canonical float dtype named by an expression, if statically visible."""

    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in _FLOAT_DTYPES else None
    chain = _attr_chain(node)
    if chain:
        leaf = chain[-1]
        if leaf in _FLOAT_DTYPES:
            return leaf
    return None


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
        chain = _attr_chain(arg.annotation)
        leaf = chain[-1] if chain else ""
        dtype = _ANNOTATION_DTYPES.get(leaf)
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
    for node in _walk_own(func):
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


def _check_dtype_flow(scope: _Scope, path: str, emit: _Emitter) -> None:
    normalized = path.replace("\\", "/")
    blessed_file = normalized.endswith(_BLESSED_NARROWING_SUFFIXES)
    env = _local_dtypes(scope.node)
    kind = "hot path" if scope.hot and not scope.deterministic else "deterministic path"
    where = f"{kind} '{scope.qualname}'"
    for node in _walk_own(scope.node):
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


def _check_entropy(scope: _Scope, emit: _Emitter) -> None:
    where = f"deterministic path rooted at '{scope.root or scope.qualname}'"
    for node in _walk_own(scope.node):
        if not isinstance(node, ast.Call):
            continue
        reason = _entropy_violation(node)
        if reason is not None:
            emit(
                node,
                "TCAM034",
                f"{reason}, so its value differs between bit-identical "
                f"replays ({where}); thread seeds/timestamps in from "
                "outside the deterministic boundary",
            )


# -- TCAM035: contract coverage -----------------------------------------------


def _contracts_for(path: str) -> tuple[str, ...]:
    normalized = path.replace("\\", "/")
    for suffix, qualnames in _CONTRACTS.items():
        if normalized.endswith(suffix):
            return qualnames
    return ()


def _check_coverage(
    tree: ast.Module, scopes: list[_Scope], path: str, emit: _Emitter
) -> None:
    required = _contracts_for(path)
    if not required:
        return
    by_qualname = {scope.qualname: scope for scope in scopes}
    for qualname in required:
        scope = by_qualname.get(qualname)
        if scope is None:
            emit(
                tree,
                "TCAM035",
                f"documented contract function '{qualname}' not found in "
                "this module; update the analyzer's contract table "
                "(repro.tooling.determinism._CONTRACTS) if it moved",
            )
        elif "bit_deterministic" not in _decorator_names(scope.node):
            emit(
                scope.node,
                "TCAM035",
                f"contract function '{qualname}' must carry "
                "@bit_deterministic — it anchors the bitwise-reproducibility "
                "contract the determinism analyzer is rooted at",
            )


# -- driver ------------------------------------------------------------------


def prove_source(source: str, path: str = "<string>") -> list[Finding]:
    """Verify a single module's source text and return its findings."""

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path, exc.lineno or 0, exc.offset or 0, "TCAM000", f"syntax error: {exc.msg}"
            )
        ]
    emit = _Emitter(path, source)
    scopes = _collect_scopes(tree)
    _propagate(scopes, _FunctionIndex(tree))
    for scope in scopes:
        if scope.deterministic:
            _check_unordered_iteration(scope, emit)
            _check_reduction_order(scope, emit)
            _check_stable_sorts(scope, emit)
            _check_entropy(scope, emit)
        if scope.deterministic or scope.hot:
            _check_dtype_flow(scope, path, emit)
    _check_coverage(tree, scopes, path, emit)
    unique = sorted(set(emit.findings), key=lambda f: (f.line, f.col, f.rule, f.message))
    return unique


def prove_paths(paths: Sequence[str]) -> list[Finding]:
    """Verify every ``.py`` file under the given files/directories."""

    findings: list[Finding] = []
    for file_path in _iter_python_files(paths):
        findings.extend(
            prove_source(file_path.read_text(encoding="utf-8"), str(file_path))
        )
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a shell exit status (0 clean, 1 findings)."""

    from .output import run_cli

    return run_cli(
        prog="tcam prove",
        description="Static determinism & dtype-flow verifier for the "
        "bitwise contracts (rules TCAM030-TCAM035).",
        rules=RULES,
        collect=prove_paths,
        argv=argv,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
