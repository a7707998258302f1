"""One analysis pass for every TCAM static rule (``tcam check``).

A file is read and parsed **once** into a :class:`Module` — tree,
parent links, the per-line suppression map, one list of function
:class:`Scope` records, the bare-name function index and the file's row
of the registry's tree table — and every rule is a *visitor*
``(module, emit) -> None`` over it.  The rule bodies live in the four
rule modules (:mod:`~repro.tooling.lint`, :mod:`~repro.tooling.races`,
:mod:`~repro.tooling.lifecycle`, :mod:`~repro.tooling.determinism`),
each of which lists its visitors in a ``VISITORS`` mapping keyed by the
code(s) a visitor owns; this module knows nothing about any rule.

:func:`check_source` / :func:`check_paths` run the visitors whose codes
are selected (all of them by default).  ``tcam lint``, ``tcam analyze``,
``tcam audit`` and ``tcam prove`` are presets of that one pass —
``lint_source(s, p)`` *is* ``check_source(s, p, lint.RULES)`` — and
``tcam check`` (:func:`main`) runs all of them together.

Suppression: append ``# tcam-lint: disable=TCAM001`` (comma-separate for
several rules) to the offending line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import Callable, Container, Iterator, Sequence

from .registry import REGISTRY, TOOLS, facts_for, rules_for_tool

__all__ = [
    "MAX_DEPTH",
    "Finding",
    "Module",
    "Scope",
    "check_paths",
    "check_source",
    "main",
    "visitors",
]

#: How far the interprocedural rules (worker descent, deterministic
#: reachability) follow bare-name calls below their roots.
MAX_DEPTH = 4

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Everything that opens a new scope: what a per-scope rule must not enter.
_SCOPES = (*_DEFS, ast.ClassDef, ast.Lambda)

#: The modules whose ``VISITORS`` make up the pass, in run order.
_RULE_MODULES = ("lint", "races", "lifecycle", "determinism")

_SUPPRESS_RE = re.compile(r"#\s*tcam-lint:\s*disable=([A-Z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """A single rule violation at ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """Format the finding the way compilers do (clickable in editors)."""

        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# -- small AST helpers -------------------------------------------------------


def _attr_chain(node: ast.AST) -> list[str]:
    """Flatten ``np.random.default_rng`` into ``["np", "random", "default_rng"]``.

    Returns an empty list for anything that is not a plain name/attribute
    chain (calls, subscripts, ...).
    """

    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _call_leaf(node: ast.AST) -> str:
    """Final attribute/name of a call target (``np.log`` -> ``log``)."""

    chain = _attr_chain(node)
    return chain[-1] if chain else ""


def _target_names(target: ast.AST) -> Iterator[str]:
    """Yield plain names bound by an assignment target."""

    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _walk(root: ast.AST, stop: tuple[type, ...] = _DEFS) -> Iterator[ast.AST]:
    """Walk below ``root`` without entering nodes of the ``stop`` types.

    The default stays inside one function body but enters nested classes
    and lambdas; pass :data:`_SCOPES` to stay inside one scope proper.
    """

    stack: list[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, stop):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# -- the parsed-once module --------------------------------------------------


@dataclass(eq=False)
class Scope:
    """One function definition (or the module top level) and its standing."""

    node: ast.FunctionDef | ast.AsyncFunctionDef  # ``Module.top`` holds the tree itself
    qualname: str
    #: The class whose body directly holds this def (methods only).
    cls: ast.ClassDef | None = None
    #: The enclosing function scope, through any classes in between.
    parent: Scope | None = None
    decorators: frozenset[str] = frozenset()
    #: ``@hot_path`` here or on an enclosing function.
    hot: bool = False
    #: Listed as a hot kernel in the registry's tree table (here or enclosing).
    listed_hot: bool = False
    #: ``@bit_deterministic`` here or on an enclosing function, or reachable
    #: from such a function by bare-name calls within :data:`MAX_DEPTH`.
    deterministic: bool = False
    #: Qualname of the marked function this scope's contract flows from.
    root: str = ""

    @property
    def name(self) -> str:
        """The definition's bare name (``"<module>"`` for the top level)."""

        return self.qualname.rpartition(".")[2]


class Module:
    """Everything the rules share about one file, built once.

    Raises :class:`SyntaxError` when the source does not parse.
    """

    def __init__(self, source: str, path: str) -> None:
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.facts = facts_for(path)
        #: line -> rule codes a ``# tcam-lint: disable=`` comment silences there.
        self.suppressed: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                self.suppressed[lineno] = {
                    code.strip() for code in match.group(1).split(",") if code.strip()
                }
        #: Every node of the tree, breadth-first (``ast.walk`` order).
        self.nodes: list[ast.AST] = [self.tree]
        self.parents: dict[ast.AST, ast.AST] = {}
        self._defs: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] = {}
        for parent in self.nodes:  # grows as it is walked: one traversal
            if isinstance(parent, _DEFS):
                self._defs.setdefault(parent.name, []).append(parent)
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
                self.nodes.append(child)
        #: The module top level as a pseudo-scope, for the rules that cover
        #: it too; its ``node`` is the tree, so only walk it.
        self.top = Scope(self.tree, "<module>")  # type: ignore[arg-type]
        #: Every function definition, outermost first, in source order.
        self.scopes: list[Scope] = []
        self._collect(self.tree, "", None, None)
        self._propagate()

    def resolve(self, name: str) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function/method in the module with this bare name.

        Resolution is by final attribute name, so ``self.kernel.accumulate``
        reaches *every* ``accumulate`` defined in the module — an
        over-approximation that matches how the kernel classes dispatch.
        """

        return self._defs.get(name, [])

    def _collect(
        self, node: ast.AST, prefix: str, parent: Scope | None, cls: ast.ClassDef | None
    ) -> None:
        kernels = self.facts.hot_kernels
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualname = prefix + child.name
                decorators = frozenset(
                    _call_leaf(dec.func if isinstance(dec, ast.Call) else dec)
                    for dec in child.decorator_list
                )
                outer = parent or self.top
                marked = outer.deterministic or "bit_deterministic" in decorators
                scope = Scope(
                    child,
                    qualname,
                    cls,
                    parent,
                    decorators,
                    hot=outer.hot or "hot_path" in decorators,
                    listed_hot=outer.listed_hot
                    or qualname in kernels
                    or child.name in kernels,
                    deterministic=marked,
                    root=qualname if marked else "",
                )
                self.scopes.append(scope)
                self._collect(child, f"{qualname}.<locals>.", scope, None)
            elif isinstance(child, ast.ClassDef):
                self._collect(child, f"{prefix}{child.name}.", parent, child)
            else:
                self._collect(child, prefix, parent, cls)

    def _propagate(self) -> None:
        """Mark every scope reachable from a deterministic one.

        Cross-module calls are not followed — each module's contract
        functions carry their own marker (TCAM035 pins the documented ones).
        """

        by_node = {id(scope.node): scope for scope in self.scopes}
        frontier = [(scope, 0) for scope in self.scopes if scope.deterministic]
        while frontier:
            scope, depth = frontier.pop()
            if depth >= MAX_DEPTH:
                continue
            for node in _walk(scope.node):
                if not isinstance(node, ast.Call):
                    continue
                for defn in self.resolve(_call_leaf(node.func)):
                    callee = by_node[id(defn)]
                    if not callee.deterministic:
                        callee.deterministic = True
                        callee.root = scope.root
                        frontier.append((callee, depth + 1))


class _Emitter:
    """Collects one module's findings, honouring selection and suppression."""

    def __init__(self, module: Module, selected: Container[str]) -> None:
        self.module = module
        self.selected = selected
        self.findings: list[Finding] = []

    def __call__(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        if rule in self.selected and rule not in self.module.suppressed.get(line, ()):
            self.findings.append(Finding(self.module.path, line, col, rule, message))


Visitor = Callable[[Module, _Emitter], None]


def visitors() -> list[tuple[tuple[str, ...], Visitor]]:
    """Every ``(owned codes, visitor)`` pair of the rule modules, in run order."""

    return [
        pair
        for name in _RULE_MODULES
        for pair in import_module(f".{name}", __package__).VISITORS.items()
    ]


def _site_order(finding: Finding) -> tuple[int, int, str, str]:
    # Findings of one rule at one site: the lint rules keep the order they
    # were emitted in (the sort is stable), every other tool's sort by message.
    by_message = REGISTRY[finding.rule].tool != "lint"
    return (finding.line, finding.col, finding.rule, finding.message if by_message else "")


def check_source(
    source: str, path: str = "<string>", select: Container[str] | None = None
) -> list[Finding]:
    """Run the selected rules (default: all) over one module's source text."""

    try:
        module = Module(source, path)
    except SyntaxError as exc:
        return [
            Finding(path, exc.lineno or 0, exc.offset or 0, "TCAM000", f"syntax error: {exc.msg}")
        ]
    emit = _Emitter(module, REGISTRY if select is None else select)
    for codes, visitor in visitors():
        if any(code in emit.selected for code in codes):
            visitor(module, emit)
    return sorted(dict.fromkeys(emit.findings), key=_site_order)


def _iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def check_paths(
    paths: Sequence[str], select: Container[str] | None = None
) -> list[Finding]:
    """Run the selected rules over every ``.py`` file under the given paths."""

    findings: list[Finding] = []
    for file_path in _iter_python_files(paths):
        findings.extend(
            check_source(file_path.read_text(encoding="utf-8"), str(file_path), select)
        )
    return findings


def main(argv: Sequence[str] | None = None, tool: str = "check") -> int:
    """CLI entry point of ``tcam <tool>``; returns a shell exit status.

    ``check`` runs every rule; the other names of
    :data:`~repro.tooling.registry.TOOLS` select their own (0 clean, 1
    findings, 2 usage).
    """

    from .output import run_cli

    rules = rules_for_tool(tool)
    return run_cli(
        prog=f"tcam {tool}",
        description=f"{TOOLS[tool]} (rules {min(rules)}-{max(rules)}).",
        rules=rules,
        collect=partial(check_paths, select=rules),
        argv=argv,
    )
