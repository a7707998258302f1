"""Resource-lifecycle & crash-consistency rules (the ``audit`` family).

PRs 6–8 made the TCAM reproduction a process that owns real OS state:
WAL segments and checkpoint renames (:mod:`repro.streaming.wal`,
:mod:`repro.robustness.checkpoint`), mmap ``ParamStore`` views
(:mod:`repro.recommend.paramstore`), client sockets, and spawned
worker processes with duplex pipes.  The linter checks
in-process numerics and the race analyzer checks concurrent access;
this third family — visitors of the one analysis pass in
:mod:`repro.tooling.core`, like the others — checks that every acquired
resource is *released* and that the durability protocols the
crash-safety tests assume are actually followed at every publish site.
Which files promise crash-safe publishes is a column of
:data:`repro.tooling.registry.TREE`.

========  ==================================================================
TCAM020   Resource leak.  Every ``open``/``os.open``/``mmap``/``socket``/
          ``SharedMemory``/``Pipe``/``Pool`` acquisition must reach a
          release: a ``with`` block, a later ``close()``-family call, a
          ``finally``/``except`` release, or escape to an owner (returned,
          yielded, passed to a call, stored in a container, or assigned to
          a ``self.`` attribute of a class that verifiably releases that
          attribute in some method).  Constructors get a stricter ordering
          check: a call that can raise *between* an acquisition and the end
          of ``__init__`` must be protected by a handler that releases the
          already-acquired resources, or a failed construction leaks them
          (no owner object exists yet for anyone to close).
TCAM021   Atomic-publish protocol.  In durability-scoped modules an
          ``os.replace``/``os.rename`` publish must be preceded by an
          ``os.fsync`` of the written temp file in the same function, and
          followed by a directory fsync where the module's contract
          requires it — otherwise a crash can publish a truncated file.
TCAM022   Commit-record ordering.  In durability-scoped modules, writes to
          manifest/checksum/generation files must post-date a payload
          ``os.fsync`` in the call order: the commit record goes durable
          *after* the data it describes.
TCAM024   Process lifecycle.  Every spawned/started ``Process``/``Popen``
          must reach ``join()``/``wait()``/``communicate()`` (directly, in
          a ``finally``, or via a releasing owner class), and a process
          that is ``kill()``-ed or ``terminate()``-d must still be reaped
          afterwards in the same function, or it stays a zombie with its
          pipes open.
TCAM025   mmap use-after-close.  Arrays served off a ``ParamStore`` /
          ``np.load(..., mmap_mode=...)`` store must not be used after —
          or returned past — the store's ``close()``: the views die with
          the mapping.
========  ==================================================================

The analysis is deliberately *flow-lite*, like the race analyzer: it
reasons over statement order and block structure rather than a full
dataflow lattice.  Outside constructors, a release **anywhere later in
the same function** is accepted (the tree's error paths all use
``with``/``finally`` anyway); inside ``__init__`` the ordering check
above closes the constructor-failure hole the flow-insensitive pass
would miss.  Escape transfers ownership: once a resource is returned,
yielded, passed to another callable, stored in a container, or captured
by a nested function, the receiver is assumed responsible for it —
except ``self.`` attributes, whose owning class is checked for a
release of that exact attribute.

Suppression reuses the linter's comment syntax: append
``# tcam-lint: disable=TCAM020`` (comma-separate several codes) to the
offending line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import (
    _SCOPES,
    Module,
    Scope,
    Visitor,
    _attr_chain,
    _call_leaf,
    _Emitter,
    _keyword,
    _target_names,
    _walk,
)
from .registry import STORE_CONSTRUCTORS

__all__ = ["VISITORS"]

# -- rule configuration ------------------------------------------------------

#: Identifier substrings that mark a write target as a commit record.
_COMMIT_TOKENS = ("manifest", "checksum", "generation")

#: Release method names accepted per resource kind (TCAM020/024).
_RELEASERS: dict[str, frozenset[str]] = {
    "file": frozenset({"close"}),
    "fd": frozenset(),  # released via os.close(fd)
    "socket": frozenset({"close", "detach"}),
    "shm": frozenset({"close", "unlink"}),
    "mmap": frozenset({"close"}),
    "pipe": frozenset({"close"}),
    "pool": frozenset({"shutdown", "close", "terminate", "join"}),
    "process": frozenset({"join", "wait", "communicate"}),
}

#: Every method name that releases *some* tracked kind — used when
#: verifying that an owning class releases a ``self.`` attribute, where
#: the attribute's exact kind is already known from the acquisition.
_ALL_RELEASERS = frozenset().union(*_RELEASERS.values()) | {
    "terminate",
    "kill",
    "stop",
    "release",
    "__exit__",
}

#: Human-readable label per kind, used in messages.
_KIND_LABEL = {
    "file": "file handle",
    "fd": "file descriptor",
    "socket": "socket",
    "shm": "shared-memory segment",
    "mmap": "memory map",
    "pipe": "pipe connection",
    "pool": "worker pool",
    "process": "process",
}

#: Receivers whose ``kill``/``terminate`` is not a process handle.
_KILL_EXEMPT_ROOTS = frozenset({"os", "signal"})


def _rule_for(kind: str) -> str:
    return "TCAM024" if kind == "process" else "TCAM020"


# -- acquisition classification ---------------------------------------------


def _acquisition_kind(call: ast.Call) -> str | None:
    """Classify a call as a resource acquisition, or ``None``.

    ``Process(...)`` constructors are classified ``"process"`` but the
    leak pass only tracks them once ``.start()`` runs — an unstarted
    ``multiprocessing.Process`` holds no OS resources.  ``Popen`` spawns
    at construction and is live immediately.
    """

    chain = _attr_chain(call.func)
    if not chain:
        return None
    leaf = chain[-1]
    bare = len(chain) == 1  # ``open(...)`` rather than ``module.open(...)``
    if chain[:2] == ["os", "open"]:
        return "fd"
    if leaf == "open":
        return "file"
    if leaf in {"create_connection", "socket"} and (bare or chain[0] == "socket"):
        return "socket"
    if leaf == "SharedMemory":
        return "shm"
    if leaf == "mmap" and not bare and chain[0] == "mmap":
        return "mmap"
    if leaf in {"Process", "Popen"}:
        return "process"
    if leaf in {"Pool", "ThreadPoolExecutor", "ProcessPoolExecutor"}:
        return "pool"
    if leaf == "Pipe":
        return "pipe"
    return None


def _is_inert_process_ctor(call: ast.Call) -> bool:
    """``Process(...)`` (not ``Popen``) — no OS resource until started."""

    return _call_leaf(call.func) == "Process"


def _self_attr_targets(target: ast.AST) -> Iterator[str]:
    """Yield ``attr`` for each ``self.attr`` bound by an assignment target."""

    if isinstance(target, ast.Attribute):
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _self_attr_targets(element)


def _calls(root: ast.AST) -> Iterator[ast.Call]:
    """Every call made in ``root``'s own scope (nested defs and classes excluded)."""

    return (node for node in _walk(root, _SCOPES) if isinstance(node, ast.Call))


def _scopes(module: Module) -> list[Scope]:
    """Every scope these rules cover: the module top level, then each def."""

    return [module.top, *module.scopes]


def _released_attrs(module: Module) -> dict[ast.ClassDef, set[str]]:
    """Class node -> attribute names some method verifiably releases."""

    released_attrs: dict[ast.ClassDef, set[str]] = {}
    for scope in module.scopes:
        if scope.cls is None:
            continue
        released = released_attrs.setdefault(scope.cls, set())
        for node in _calls(scope.node):
            chain = _attr_chain(node.func)
            if len(chain) == 3 and chain[0] == "self" and chain[2] in _ALL_RELEASERS:
                released.add(chain[1])
            elif chain[:2] == ["os", "close"] and node.args:
                arg_chain = _attr_chain(node.args[0])
                if len(arg_chain) == 2 and arg_chain[0] == "self":
                    released.add(arg_chain[1])
    return released_attrs


# -- TCAM020 / TCAM024: resource leaks ---------------------------------------


def _binding_of(call: ast.Call, module: Module) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """How an acquisition's result is consumed.

    Returns ``(mode, names, self_attrs)`` where mode is one of ``with``
    (context-managed), ``escape`` (ownership handed off), ``bound``
    (assigned to locals / ``self.`` attributes), ``drop`` (discarded
    expression statement), or ``temp`` (a method is called on the fresh
    resource and only that result is kept).
    """

    node: ast.AST = call
    through_call = False
    through_attr = False
    while True:
        parent = module.parents.get(node)
        if parent is None:
            return "escape", (), ()
        if isinstance(parent, ast.withitem):
            return "with", (), ()
        if isinstance(parent, ast.Call):
            if node is not parent.func:
                through_call = True
            node = parent
            continue
        if isinstance(parent, ast.Attribute):
            through_attr = True
            node = parent
            continue
        if isinstance(parent, (ast.Tuple, ast.List, ast.Set, ast.Dict, ast.Starred)):
            # Stored into a container literal: the container owns it.
            through_call = True
            node = parent
            continue
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom, ast.Await)):
            return "escape", (), ()
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            if through_attr:
                return "temp", (), ()
            if through_call:
                return "escape", (), ()
            targets = (
                parent.targets if isinstance(parent, ast.Assign) else [parent.target]
            )
            names: list[str] = []
            attrs: list[str] = []
            for target in targets:
                names.extend(_target_names(target))
                attrs.extend(_self_attr_targets(target))
            if names or attrs:
                return "bound", tuple(names), tuple(attrs)
            return "escape", (), ()
        if isinstance(parent, ast.Expr):
            if through_call:
                return "escape", (), ()
            return "temp" if through_attr else "drop", (), ()
        if isinstance(parent, ast.comprehension):
            return "escape", (), ()
        node = parent


@dataclass
class _Tracked:
    """One acquisition bound to a local name within a scope."""

    name: str
    kind: str
    node: ast.Call
    released: bool = False
    escaped: bool = False
    self_attrs: set[str] = field(default_factory=set)


def _receiver_of(chain: list[str]) -> str:
    """``["self", "_sock", "makefile"]`` -> ``"self._sock"``."""

    return ".".join(chain[:-1])


def _release_targets(node: ast.AST) -> Iterator[tuple[str, str]]:
    """Yield ``(receiver, method)`` for release-shaped calls under ``node``."""

    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        chain = _attr_chain(sub.func)
        if len(chain) >= 2 and chain[-1] in _ALL_RELEASERS:
            yield _receiver_of(chain), chain[-1]
        elif chain[:2] == ["os", "close"] and sub.args:
            arg = ".".join(_attr_chain(sub.args[0]))
            if arg:
                yield arg, "close"


def _escaping_names(expr: ast.expr) -> Iterator[str]:
    """Names whose *object* flows out of ``expr`` structurally.

    ``return handle`` escapes the handle; ``return handle.read().hex()``
    does not — the call result is new data and the handle still needs a
    release. Call arguments are deliberately excluded here: the generic
    call-argument branch of the fate scan already marks them escaped.
    """

    if isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for elt in expr.elts:
            yield from _escaping_names(elt)
    elif isinstance(expr, ast.Dict):
        for part in (*expr.keys, *expr.values):
            if part is not None:
                yield from _escaping_names(part)
    elif isinstance(expr, ast.Starred):
        yield from _escaping_names(expr.value)
    elif isinstance(expr, ast.IfExp):
        yield from _escaping_names(expr.body)
        yield from _escaping_names(expr.orelse)
    elif isinstance(expr, ast.BoolOp):
        for value in expr.values:
            yield from _escaping_names(value)
    elif isinstance(expr, (ast.NamedExpr, ast.Await)):
        yield from _escaping_names(expr.value)


def _scan_name_fates(scope: Scope, tracked: list[_Tracked]) -> None:
    """Flow-lite fate scan: mark each tracked local released or escaped."""

    by_name: dict[str, list[_Tracked]] = {}
    for item in tracked:
        by_name.setdefault(item.name, []).append(item)
    if not by_name:
        return

    def mark(name: str, attr: str) -> None:
        for item in by_name.get(name, ()):
            setattr(item, attr, True)

    for node in _walk(scope.node, _SCOPES):
        if isinstance(node, ast.withitem):
            ctx = node.context_expr
            if isinstance(ctx, ast.Name):
                mark(ctx.id, "released")
            elif isinstance(ctx, ast.Call):
                for arg in ctx.args:
                    if isinstance(arg, ast.Name):
                        mark(arg.id, "escaped")
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if len(chain) == 2 and chain[0] in by_name:
                kinds = {item.kind for item in by_name[chain[0]]}
                releasers = frozenset().union(
                    *(_RELEASERS[kind] for kind in kinds)
                ) | {"terminate", "kill"}
                if chain[1] in releasers:
                    mark(chain[0], "released")
                    continue
            if chain[:2] == ["os", "close"] and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Name):
                    mark(arg.id, "released")
                    continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id in by_name:
                        mark(sub.id, "escaped")
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None:
                for name in _escaping_names(value):
                    if name in by_name:
                        mark(name, "escaped")
        elif isinstance(node, ast.Assign):
            value_names = set(_escaping_names(node.value))
            hits = value_names & by_name.keys()
            if not hits:
                continue
            for target in node.targets:
                attrs = list(_self_attr_targets(target))
                if attrs:
                    for name in hits:
                        for item in by_name[name]:
                            item.self_attrs.update(attrs)
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    for name in hits:
                        mark(name, "escaped")
                elif isinstance(target, ast.Name) and target.id not in by_name:
                    # Aliased to another local; treat as a handoff.
                    for name in hits:
                        mark(name, "escaped")

    # A nested def capturing the name may own its release (callbacks).
    for node in (scope.node, *_walk(scope.node, _SCOPES)):
        for nested in ast.iter_child_nodes(node):
            if not isinstance(nested, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for sub in ast.walk(nested):
                if isinstance(sub, ast.Name) and sub.id in by_name:
                    mark(sub.id, "escaped")


def _started_process_names(scope: Scope) -> set[str]:
    """Receivers (``proc`` / ``self.process``) seeing a ``.start()`` call."""

    started: set[str] = set()
    for node in _calls(scope.node):
        chain = _attr_chain(node.func)
        if len(chain) >= 2 and chain[-1] == "start":
            started.add(_receiver_of(chain))
    return started


def _ownership_ok(
    released: dict[ast.ClassDef, set[str]], scope: Scope, attr: str
) -> bool:
    """True when ``self.attr`` is released by some method of the class."""

    if scope.cls is None:
        return True  # not a method; cannot resolve the owner — assume handoff
    return attr in released.get(scope.cls, set())


def _check_leaks(module: Module, emit: _Emitter) -> None:
    """TCAM020/TCAM024: every acquisition reaches a release or an owner."""

    _check_kill_reap(module, emit)
    released = _released_attrs(module)
    for scope in _scopes(module):
        tracked: list[_Tracked] = []
        started = _started_process_names(scope)
        for node in _calls(scope.node):
            kind = _acquisition_kind(node)
            if kind is None:
                continue
            mode, names, attrs = _binding_of(node, module)
            inert = kind == "process" and _is_inert_process_ctor(node)
            if mode in {"with", "escape"}:
                continue
            if mode in {"drop", "temp"}:
                if inert:
                    continue
                emit(
                    node,
                    _rule_for(kind),
                    f"{_KIND_LABEL[kind]} acquired and discarded without a "
                    "release; bind it and close it, or use a with block",
                )
                continue
            for name in names:
                if inert and name not in started:
                    continue  # constructed but never started: no OS resource
                tracked.append(_Tracked(name, kind, node))
            for attr in attrs:
                if inert and f"self.{attr}" not in started:
                    continue
                if not _ownership_ok(released, scope, attr):
                    cls_name = scope.cls.name if scope.cls is not None else "?"
                    emit(
                        node,
                        _rule_for(kind),
                        f"self.{attr} holds a {_KIND_LABEL[kind]} but no "
                        f"method of {cls_name} ever releases it; close/join "
                        "it in close()/shutdown()",
                    )
        _scan_name_fates(scope, tracked)
        for item in tracked:
            if item.released or item.escaped:
                continue
            if item.self_attrs:
                missing = [
                    attr
                    for attr in sorted(item.self_attrs)
                    if not _ownership_ok(released, scope, attr)
                ]
                if not missing:
                    continue
                cls_name = scope.cls.name if scope.cls is not None else "?"
                emit(
                    item.node,
                    _rule_for(item.kind),
                    f"'{item.name}' ({_KIND_LABEL[item.kind]}) is stored on "
                    f"self.{missing[0]} but no method of {cls_name} ever "
                    "releases it; close/join it in close()/shutdown()",
                )
                continue
            verb = "join() or terminate()" if item.kind == "process" else "close()"
            emit(
                item.node,
                _rule_for(item.kind),
                f"'{item.name}' ({_KIND_LABEL[item.kind]}) is never released "
                f"on any path; call {verb}, use a with block, or hand it to "
                "an owning object",
            )
        if scope.name == "__init__":
            _check_init_ordering(module, scope, emit)


# -- constructor-failure ordering (part of TCAM020/024) ----------------------


def _check_init_ordering(module: Module, scope: Scope, emit: _Emitter) -> None:
    """Flag fallible calls between an acquisition and ``__init__``'s end.

    ``__init__`` is the one place the flow-insensitive pass is blind: if
    construction fails after an acquisition, the half-built object is
    never returned, so the class's own ``close()`` can never run.  A
    *risky* call (a further acquisition, a ``.start()``, or any method
    on an already-acquired resource that is not itself a release) must
    therefore be wrapped in a ``try`` whose handler or ``finally``
    releases the live resources.
    """

    live: dict[str, tuple[str, ast.Call]] = {}  # identifier -> (kind, acq site)
    #: identifier -> the set of identifiers aliasing the same resource
    #: (``self.conn = parent_conn`` makes the two share protection/release).
    groups: dict[str, set[str]] = {}
    flagged: set[str] = set()

    def covered(identifier: str, receivers: frozenset[str] | set[str]) -> bool:
        return any(alias in receivers for alias in groups.get(identifier, {identifier}))

    def releases_in(stmts: Sequence[ast.stmt]) -> set[str]:
        receivers: set[str] = set()
        for stmt in stmts:
            for receiver, _method in _release_targets(stmt):
                receivers.add(receiver)
        return receivers

    def scan_statement(stmt: ast.stmt, protected: frozenset[str]) -> None:
        if isinstance(stmt, ast.Try):
            shielded = releases_in(
                [s for handler in stmt.handlers for s in handler.body]
            ) | releases_in(stmt.finalbody)
            for sub in stmt.body + stmt.orelse:
                scan_statement(sub, protected | frozenset(shielded))
            for handler in stmt.handlers:
                for sub in handler.body:
                    scan_statement(sub, protected)
            for sub in stmt.finalbody:
                scan_statement(sub, protected)
            return
        calls = list(_calls(stmt))
        # 1. risky calls endanger everything live and unprotected.
        for call in calls:
            chain = _attr_chain(call.func)
            leaf = _call_leaf(call.func)
            receiver = _receiver_of(chain) if len(chain) >= 2 else ""
            risky = (
                _acquisition_kind(call) is not None
                or leaf == "start"
                or (receiver in live and leaf not in _ALL_RELEASERS)
            )
            if not risky:
                continue
            for identifier, (kind, acq) in list(live.items()):
                if covered(identifier, protected) or identifier in flagged:
                    continue
                emit(
                    call,
                    _rule_for(kind),
                    f"if this call raises, {identifier} "
                    f"({_KIND_LABEL[kind]} acquired at line {acq.lineno}) "
                    "leaks — the object is never constructed, so close() "
                    "can never run; release it in an except/finally",
                )
                flagged.add(identifier)
        # 2. then this statement's own acquisitions go live.
        for call in calls:
            kind = _acquisition_kind(call)
            if kind is None:
                continue
            mode, names, attrs = _binding_of(call, module)
            if mode != "bound":
                continue
            inert = kind == "process" and _is_inert_process_ctor(call)
            if inert:
                continue  # goes live at .start(), handled below
            bound = [*names, *(f"self.{attr}" for attr in attrs)]
            group = set(bound)
            for identifier in bound:
                live[identifier] = (kind, call)
                groups[identifier] = group
        # 3. a .start() makes the constructed process live.
        for call in calls:
            chain = _attr_chain(call.func)
            if len(chain) >= 2 and chain[-1] == "start":
                receiver = _receiver_of(chain)
                if receiver not in live:
                    live[receiver] = ("process", call)
                    groups[receiver] = {receiver}
        # 4. releases retire live entries (every alias of the receiver).
        for receiver, _method in _release_targets(stmt):
            for alias in groups.get(receiver, {receiver}):
                live.pop(alias, None)
        # 5. a self-assignment aliases a live local onto the instance.
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
            source = stmt.value.id
            if source in live:
                for target in stmt.targets:
                    for attr in _self_attr_targets(target):
                        identifier = f"self.{attr}"
                        live[identifier] = live[source]
                        group = groups.setdefault(source, {source})
                        group.add(identifier)
                        groups[identifier] = group

    for stmt in scope.node.body:
        scan_statement(stmt, frozenset())


# -- TCAM024: kill without reap ----------------------------------------------


def _check_kill_reap(module: Module, emit: _Emitter) -> None:
    """A killed/terminated process must still be waited on afterwards."""

    for scope in _scopes(module):
        kills: list[tuple[str, ast.Call]] = []
        reaps: list[tuple[str, int]] = []
        for node in _calls(scope.node):
            chain = _attr_chain(node.func)
            if len(chain) < 2 or chain[0] in _KILL_EXEMPT_ROOTS:
                continue
            receiver, leaf = _receiver_of(chain), chain[-1]
            if leaf in {"kill", "terminate"}:
                kills.append((receiver, node))
            elif leaf in {"wait", "join", "communicate"}:
                reaps.append((receiver, node.lineno))
        for receiver, call in kills:
            if any(r == receiver and line >= call.lineno for r, line in reaps):
                continue
            emit(
                call,
                "TCAM024",
                f"{receiver}.{_call_leaf(call.func)}() is never followed by "
                "a wait()/join()/communicate() on this path; the killed "
                "process stays a zombie and its pipes stay open",
            )


# -- TCAM021 / TCAM022: durability protocols ---------------------------------


def _check_atomic_publish(module: Module, emit: _Emitter) -> None:
    """TCAM021: fsync before rename; directory fsync after where required."""

    if not module.facts.durable:
        return
    for scope in _scopes(module):
        renames: list[ast.Call] = []
        fsync_lines: list[int] = []
        dir_fsync_lines: list[int] = []
        for node in _calls(scope.node):
            chain = _attr_chain(node.func)
            leaf = _call_leaf(node.func)
            if chain[:1] == ["os"] and leaf in {"replace", "rename"}:
                renames.append(node)
            elif chain[:2] == ["os", "fsync"]:
                fsync_lines.append(node.lineno)
            elif "fsync" in leaf and "dir" in leaf:
                dir_fsync_lines.append(node.lineno)
        for rename in renames:
            leaf = _call_leaf(rename.func)
            if not any(line < rename.lineno for line in fsync_lines):
                emit(
                    rename,
                    "TCAM021",
                    f"os.{leaf}() publishes a file that was never fsynced in "
                    f"'{scope.qualname}'; flush+os.fsync the temp handle "
                    "before the rename or a crash can publish a truncated "
                    "file",
                )
            if module.facts.dir_fsync and not any(
                line > rename.lineno for line in dir_fsync_lines
            ):
                emit(
                    rename,
                    "TCAM021",
                    f"os.{leaf}() in '{scope.qualname}' is not followed by a "
                    "directory fsync; this module's contract requires the "
                    "rename itself to be durable (fsync the parent directory)",
                )


def _mentions_commit_token(expr: ast.AST) -> str | None:
    """The commit-record token an expression's names mention, if any."""

    for sub in ast.walk(expr):
        words: list[str] = []
        if isinstance(sub, ast.Name):
            words.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            words.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            words.append(sub.value)
        for word in words:
            lowered = word.lower()
            for token in _COMMIT_TOKENS:
                if token in lowered:
                    return token
    return None


def _check_commit_order(module: Module, emit: _Emitter) -> None:
    """TCAM022: the commit record goes durable after the payload fsync."""

    if not module.facts.durable:
        return
    for scope in _scopes(module):
        fsync_lines: list[int] = []
        commit_writes: list[tuple[ast.Call, str]] = []
        for node in _calls(scope.node):
            chain = _attr_chain(node.func)
            leaf = _call_leaf(node.func)
            if chain[:2] == ["os", "fsync"]:
                fsync_lines.append(node.lineno)
                continue
            target: ast.AST | None = None
            if leaf == "open" and node.args:
                # Only *writes* are commit records; reading a manifest back
                # carries no ordering obligation.
                mode = node.args[1] if len(node.args) > 1 else _keyword(node, "mode")
                if (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and any(flag in mode.value for flag in ("w", "a", "+", "x"))
                ):
                    target = node.args[0]
            elif leaf in {"write_text", "write_bytes"} and isinstance(
                node.func, ast.Attribute
            ):
                target = node.func.value
            if target is None:
                continue
            token = _mentions_commit_token(target)
            if token is not None:
                commit_writes.append((node, token))
        for node, token in commit_writes:
            if not any(line < node.lineno for line in fsync_lines):
                emit(
                    node,
                    "TCAM022",
                    f"the {token} commit record is written before any payload "
                    f"os.fsync in '{scope.qualname}'; fsync the data files "
                    "first so a crash never publishes a record describing "
                    "unsynced payload",
                )


# -- TCAM025: mmap use-after-close -------------------------------------------


def _is_store_call(call: ast.Call) -> bool:
    chain = _attr_chain(call.func)
    leaf = _call_leaf(call.func)
    if leaf in STORE_CONSTRUCTORS:
        return True
    if leaf == "load" and chain[:1] in (["np"], ["numpy"]):
        mmap_mode = _keyword(call, "mmap_mode")
        return mmap_mode is not None and not (
            isinstance(mmap_mode, ast.Constant) and mmap_mode.value is None
        )
    return False


def _view_roots(expr: ast.expr) -> Iterator[str]:
    """Names whose mmap pages may back the value of ``expr``.

    ``store.context_max(t)`` and ``archive["theta"]`` hand out views onto
    the store's mapping, so the store is a root of both. A call whose
    receiver is *not* the store — ``np.array(store.context_max(t))`` —
    returns fresh data: the copy idiom, deliberately not a view root.
    (Caveat: ``np.asarray`` may alias rather than copy; flow-lite treats
    any non-store-rooted call as a copy.)
    """

    if isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, (ast.Attribute, ast.Subscript)):
        yield from _view_roots(expr.value)
    elif isinstance(expr, ast.Call):
        chain = _attr_chain(expr.func)
        if len(chain) >= 2:
            yield chain[0]
    elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for elt in expr.elts:
            yield from _view_roots(elt)
    elif isinstance(expr, ast.IfExp):
        yield from _view_roots(expr.body)
        yield from _view_roots(expr.orelse)
    elif isinstance(expr, ast.BoolOp):
        for value in expr.values:
            yield from _view_roots(value)
    elif isinstance(expr, (ast.NamedExpr, ast.Await, ast.Starred)):
        yield from _view_roots(expr.value)


def _check_use_after_close(module: Module, emit: _Emitter) -> None:
    """TCAM025: mmap-backed views must not outlive their store."""

    for scope in _scopes(module):
        stores: set[str] = set()
        derived: dict[str, str] = {}  # derived name -> owning store
        for node in _walk(scope.node, _SCOPES):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _is_store_call(node.value):
                    for target in node.targets:
                        stores.update(_target_names(target))
            elif isinstance(node, ast.withitem):
                ctx = node.context_expr
                if (
                    isinstance(ctx, ast.Call)
                    and _is_store_call(ctx)
                    and isinstance(node.optional_vars, ast.Name)
                ):
                    stores.add(node.optional_vars.id)
        if not stores:
            continue
        for node in _walk(scope.node, _SCOPES):
            if not isinstance(node, ast.Assign):
                continue
            owners = set(_view_roots(node.value)) & stores
            if not owners:
                continue
            for target in node.targets:
                for name in _target_names(target):
                    if name not in stores:
                        derived[name] = sorted(owners)[0]

        close_lines: dict[str, int] = {}
        for node in _calls(scope.node):
            chain = _attr_chain(node.func)
            if len(chain) == 2 and chain[0] in stores and chain[1] == "close":
                line = close_lines.get(chain[0])
                close_lines[chain[0]] = (
                    node.lineno if line is None else min(line, node.lineno)
                )

        # (a) statement-order use after close().
        for node in _walk(scope.node, _SCOPES):
            if not isinstance(node, ast.Name) or not isinstance(node.ctx, ast.Load):
                continue
            store = node.id if node.id in stores else derived.get(node.id)
            if store is None or store not in close_lines:
                continue
            if node.lineno > close_lines[store]:
                emit(
                    node,
                    "TCAM025",
                    f"'{node.id}' is backed by '{store}', which was closed at "
                    f"line {close_lines[store]}; the mmap views die with the "
                    "store — copy what you need before close()",
                )

        # (b) returning a view out of a scope whose finally/with closes it.
        def _flag_escaping_returns(body: Sequence[ast.stmt], store: str) -> None:
            for stmt in body:
                # _walk yields descendants only, so include the statement
                # itself — a bare ``return view`` is the common violation.
                for sub in (stmt, *_walk(stmt, _SCOPES)):
                    if not isinstance(sub, ast.Return) or sub.value is None:
                        continue
                    for name in _view_roots(sub.value):
                        if name == store or derived.get(name) == store:
                            emit(
                                sub,
                                "TCAM025",
                                f"returning '{name}' escapes the scope "
                                f"that closes '{store}'; the caller receives "
                                "views onto an unmapped store — return a copy",
                            )
                            break

        for node in _walk(scope.node, _SCOPES):
            if isinstance(node, ast.Try):
                for receiver, method in _release_targets(
                    ast.Module(body=list(node.finalbody), type_ignores=[])
                ):
                    if method == "close" and receiver in stores:
                        _flag_escaping_returns(node.body, receiver)
            elif isinstance(node, ast.With):
                for item in node.items:
                    ctx = item.context_expr
                    store_name: str | None = None
                    if isinstance(ctx, ast.Name) and ctx.id in stores:
                        store_name = ctx.id
                    elif isinstance(ctx, ast.Call):
                        for arg in ctx.args:
                            if isinstance(arg, ast.Name) and arg.id in stores:
                                store_name = arg.id
                    if store_name is not None:
                        _flag_escaping_returns(node.body, store_name)


# -- registration ------------------------------------------------------------

#: Owned rule code(s) -> visitor.
VISITORS: dict[tuple[str, ...], Visitor] = {
    ("TCAM020", "TCAM024"): _check_leaks,
    ("TCAM021",): _check_atomic_publish,
    ("TCAM022",): _check_commit_order,
    ("TCAM025",): _check_use_after_close,
}
