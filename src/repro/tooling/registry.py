"""Single source of truth for every TCAM rule ID and every tree fact.

One analysis pass (:mod:`repro.tooling.core`, ``tcam check``) runs the
``TCAMxxx`` rules.  They fall into three families, one rule module each:
the domain linter (``lint``, TCAM001–004 and the serving-layer lock rule
TCAM012), the resource-lifecycle auditor (``audit``, TCAM020–025) and the
determinism & dtype-flow verifier (``prove``, TCAM030–035).

Every rule is declared *here* as a :class:`RuleSpec` — code, family,
rule class (the invariant it protects), one-line summary, and the
``docs/static-analysis.md`` anchor — and ``tcam check --list-rules``
prints them.

What the rules know about *this tree* beyond a file's own source is
declared here too, once: :data:`TREE` maps a path suffix to the
:class:`FileFacts` of that file (hot kernels, contract functions,
serving / durable / dir-fsync / blessed-narrowing scope).  A rule reads
them off ``module.facts``; nothing else in the package tests a path.

:func:`registry_errors` checks all of it against the package: duplicate
or malformed codes, a rule without exactly one visitor, a visitor for an
unknown code, a :data:`TREE` row that matches no file (or two), a listed
function that its file does not define.

``TCAM000`` (syntax error while parsing a file) belongs to every family
and is registered to the pseudo-family ``"shared"``; it never appears in
the ``--list-rules`` catalogue.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "REGISTRY",
    "STORE_CONSTRUCTORS",
    "TREE",
    "FileFacts",
    "RuleSpec",
    "facts_for",
    "registry_errors",
    "spec_for",
]

#: What a rule may be registered to: a family, or ``shared`` (TCAM000).
_FAMILIES = ("lint", "audit", "prove", "shared")


@dataclass(frozen=True)
class RuleSpec:
    """One registered rule: identity, family, classification and docs."""

    code: str
    #: The rule's family (``lint``/``audit``/``prove``), which
    #: SARIF reports and the per-site finding order reads.
    tool: str
    rule_class: str
    summary: str
    doc_anchor: str

    @property
    def doc_url(self) -> str:
        """Repo-relative documentation link for SARIF ``helpUri``."""

        return f"docs/static-analysis.md#{self.doc_anchor}"


#: Every TCAM rule, in code order.  Append here first when adding a rule.
_SPECS: tuple[RuleSpec, ...] = (
    RuleSpec("TCAM000", "shared", "parse", "syntax error while parsing a file", "suppressions"),
    # -- lint family (domain linter) --------------------------------------
    RuleSpec(
        "TCAM001",
        "lint",
        "determinism",
        "legacy/unseeded RNG (np.random.* module calls, RandomState)",
        "tcam001--no-legacyunseeded-rng",
    ),
    RuleSpec(
        "TCAM002",
        "lint",
        "numerical-safety",
        "unguarded np.log / np.divide on probability arrays",
        "tcam002--no-unguarded-nplog--npdivide",
    ),
    RuleSpec(
        "TCAM003",
        "lint",
        "performance",
        "array allocation inside @hot_path functions or hot kernels",
        "tcam003--no-allocation-in-hot-paths",
    ),
    RuleSpec(
        "TCAM004",
        "lint",
        "api-hygiene",
        "__all__ out of sync with public module definitions",
        "tcam004--__all__-consistency",
    ),
    RuleSpec(
        "TCAM012",
        "lint",
        "concurrency",
        "unlocked cache mutation in the concurrent serving layer",
        "tcam012--unlocked-serving-cache-mutation",
    ),
    # -- audit family (lifecycle auditor) ---------------------------------
    RuleSpec(
        "TCAM020",
        "audit",
        "resource-lifecycle",
        "acquired resource never released or handed to an owner",
        "tcam020--resource-leak",
    ),
    RuleSpec(
        "TCAM021",
        "audit",
        "crash-consistency",
        "os.replace/rename publish without fsync (atomic-publish protocol)",
        "tcam021--atomic-publish-protocol",
    ),
    RuleSpec(
        "TCAM022",
        "audit",
        "crash-consistency",
        "manifest/checksum/generation write precedes payload fsync",
        "tcam022--commit-record-ordering",
    ),
    RuleSpec(
        "TCAM024",
        "audit",
        "resource-lifecycle",
        "spawned process not joined/reaped on every exit",
        "tcam024--process-lifecycle",
    ),
    RuleSpec(
        "TCAM025",
        "audit",
        "resource-lifecycle",
        "mmap-backed array used or returned past its store's close",
        "tcam025--mmap-use-after-close",
    ),
    # -- prove family (determinism & dtype-flow verifier) ------------------
    RuleSpec(
        "TCAM030",
        "prove",
        "determinism",
        "unordered iteration feeding an accumulation or emitted sequence",
        "tcam030--unordered-iteration-on-a-deterministic-path",
    ),
    RuleSpec(
        "TCAM031",
        "prove",
        "determinism",
        "float reduction order depends on scheduling/worker/machine",
        "tcam031--scheduling-dependent-float-reduction",
    ),
    RuleSpec(
        "TCAM032",
        "prove",
        "determinism",
        "argsort/np.sort without kind='stable' where ties are possible",
        "tcam032--unstable-sort-on-a-deterministic-path",
    ),
    RuleSpec(
        "TCAM033",
        "prove",
        "dtype-flow",
        "silent float dtype mixing or unblessed narrowing cast",
        "tcam033--silent-float-dtype-mixing",
    ),
    RuleSpec(
        "TCAM034",
        "prove",
        "determinism",
        "wall-clock or unseeded entropy reaching deterministic state",
        "tcam034--wall-clock--unseeded-entropy",
    ),
    RuleSpec(
        "TCAM035",
        "prove",
        "coverage",
        "documented contract function missing the @bit_deterministic marker",
        "tcam035--bit_deterministic-coverage",
    ),
)

#: Rule code -> spec, in declaration (= code) order.
REGISTRY: dict[str, RuleSpec] = {spec.code: spec for spec in _SPECS}


def spec_for(code: str) -> RuleSpec:
    """Look up one rule's spec; raises ``KeyError`` for unregistered codes."""

    return REGISTRY[code.upper()]


# -- what the analyser knows about this tree ----------------------------------


@dataclass(frozen=True)
class FileFacts:
    """What the rules know about one file beyond its own source."""

    #: TCAM003 hot kernels besides ``@hot_path``: a qualified name, or a
    #: bare name matching every ``*.name`` method of the file.
    hot_kernels: tuple[str, ...] = ()
    #: TCAM035: qualified names that must carry ``@bit_deterministic``.
    contracts: tuple[str, ...] = ()
    #: TCAM012: the file's classes serve concurrent traffic.
    serving: bool = False
    #: TCAM021/022: the file's contract promises crash-safe publishes.
    durable: bool = False
    #: TCAM021: ... and a directory fsync after each rename (multi-file
    #: stores: the rename itself must be durable before readers rely on it).
    dir_fsync: bool = False
    #: TCAM033: may narrow float dtypes (the proven-margin quantized
    #: selection layer narrows by design).
    narrowing: bool = False


#: Path suffix (``\\`` normalised to ``/``) -> facts.  A file the table
#: does not list has none.  Moving or renaming a listed file, or a listed
#: function, without updating its row fails :func:`registry_errors`.
TREE: dict[str, FileFacts] = {
    "analysis/benchjson.py": FileFacts(durable=True),
    "analysis/topics.py": FileFacts(contracts=("match_topics",)),
    "core/em.py": FileFacts(contracts=("run_em",)),
    "core/engine.py": FileFacts(
        hot_kernels=("accumulate", "BlockedEStep.compute"),
        contracts=("BlockedEStep.compute",),
    ),
    "core/model.py": FileFacts(contracts=("EMModel.fit",)),
    "extensions/online.py": FileFacts(
        contracts=("fold_in", "OnlineTTCAM.fold_in_user", "OnlineTTCAM.fold_in_interval")
    ),
    "extensions/social.py": FileFacts(contracts=("build_homophilous_graph",)),
    "recommend/quantize.py": FileFacts(narrowing=True),
    "recommend/recommender.py": FileFacts(
        serving=True,
        contracts=("TemporalRecommender.recommend_batch_with_status",),
    ),
    "recommend/serving.py": FileFacts(hot_kernels=("BatchScorer._serve_float64",), serving=True),
    "robustness/archive.py": FileFacts(durable=True, dir_fsync=True),
    "robustness/checkpoint.py": FileFacts(durable=True, contracts=("CheckpointManager.load",)),
    "serving_service/batching.py": FileFacts(serving=True),
    "serving_service/client.py": FileFacts(serving=True),
    "serving_service/service.py": FileFacts(serving=True),
    "serving_service/worker.py": FileFacts(serving=True, contracts=("serve_requests",)),
    "streaming/ingestor.py": FileFacts(
        contracts=("StreamIngestor.run", "StreamIngestor._try_resume")
    ),
    "streaming/publisher.py": FileFacts(durable=True),
    "streaming/wal.py": FileFacts(durable=True, contracts=("EventLog.read",)),
}

#: Callables that construct lifecycle-tracked mmap stores (TCAM025).
STORE_CONSTRUCTORS = frozenset({"ParamStore"})


def facts_for(path: str) -> FileFacts:
    """The :data:`TREE` row whose suffix ``path`` ends with, if any."""

    normalized = path.replace("\\", "/")
    for suffix, facts in TREE.items():
        if normalized.endswith(suffix):
            return facts
    return FileFacts()


def _tree_errors(package: Path) -> list[str]:
    """Rows of :data:`TREE` that no longer describe ``package``."""

    from .core import Module  # lazy: core imports this module

    errors: list[str] = []
    files = sorted(path.as_posix() for path in package.rglob("*.py"))
    for suffix, facts in TREE.items():
        matches = [file for file in files if file.endswith(suffix)]
        if len(matches) != 1:
            errors.append(
                f"tree row {suffix!r} matches {len(matches)} files under "
                f"{package.name}/; expected exactly one"
            )
            continue
        scopes = Module(Path(matches[0]).read_text(encoding="utf-8"), matches[0]).scopes
        # A bare hot-kernel name matches any method; TCAM035 holds contracts
        # to their full qualname.
        defined = {scope.qualname for scope in scopes} | {scope.name for scope in scopes}
        for name in (*facts.hot_kernels, *facts.contracts):
            if name not in defined:
                errors.append(f"tree row {suffix!r} lists {name!r}, which the file does not define")
    return errors


def registry_errors(package: Path | None = None) -> list[str]:
    """Problems with the registry, checked against the package it describes.

    Returns human-readable complaints (empty when healthy): duplicate
    codes in the declaration tuple, malformed code strings, unknown
    families, codes sorted out of declaration order, a rule without exactly
    one visitor or a visitor for an unregistered code, and every
    :data:`TREE` row that matches no file or several under ``package``
    (default: the installed ``repro`` package) or lists a function its
    file does not define.  The registry test asserts this is empty.
    """

    from .core import visitors  # lazy: core imports this module

    errors: list[str] = []
    seen: set[str] = set()
    for spec in _SPECS:
        if spec.code in seen:
            errors.append(f"duplicate rule code {spec.code}")
        seen.add(spec.code)
        if not (
            spec.code.startswith("TCAM")
            and len(spec.code) == 7
            and spec.code[4:].isdigit()
        ):
            errors.append(f"malformed rule code {spec.code!r}")
        if spec.tool not in _FAMILIES:
            errors.append(f"{spec.code} registered to unknown family {spec.tool!r}")
        if not spec.summary or not spec.doc_anchor:
            errors.append(f"{spec.code} is missing a summary or doc anchor")
    codes = [spec.code for spec in _SPECS]
    if codes != sorted(codes):
        errors.append("registry is not declared in code order")
    owners = Counter(code for owned, _ in visitors() for code in owned)
    for code in sorted(owners.keys() - REGISTRY.keys()):
        errors.append(f"a visitor is registered to unknown rule code {code}")
    for spec in _SPECS:
        if spec.tool != "shared" and owners[spec.code] != 1:
            errors.append(f"{spec.code} has {owners[spec.code]} visitors; expected one")
    return errors + _tree_errors(package or Path(__file__).resolve().parents[1])
