"""The variant difference is stated in ``core/params.py`` only.

An AST walk over ``src/repro`` (the companion of ``test_api_hygiene``):
outside the container module nothing may ask *which* TCAM variant it holds
— no ``isinstance(_, TTCAMParameters | ITCAMParameters)``, no comparison
against a variant tag — because everything the variants answer differently
is a method of the container. The two exceptions are capability checks on
outside input, listed by name. And how a snapshot is opened is not an
input: no signature, dataclass field or CLI flag is called ``mmap``.
"""

import ast
from pathlib import Path

import repro
from repro.core.params import VARIANTS

PACKAGE = Path(repro.__file__).parent
DECLARATION = PACKAGE / "core" / "params.py"
CONTAINERS = {cls.__name__ for cls in VARIANTS.values()}

#: ``(file, function)`` sites allowed to test for a variant: each refuses a
#: snapshot the command cannot work on (``tcam report`` / ``tcam stream run``
#: need TTCAM's time-oriented topics).
ALLOWED = {("cli.py", "cmd_report"), ("cli.py", "cmd_stream_run")}


def _mentions(node: ast.AST, names: set[str]) -> bool:
    return any(
        (isinstance(sub, ast.Name) and sub.id in names)
        or (isinstance(sub, ast.Attribute) and sub.attr in names)
        for sub in ast.walk(node)
    )


def _is_variant_test(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _mentions(node.args[1], CONTAINERS)
        )
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        if any(
            isinstance(sub, ast.Constant) and sub.value in VARIANTS
            for operand in operands
            for sub in ast.walk(operand)
        ):
            return True
        return all(isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)) for op in node.ops) and any(
            isinstance(operand, ast.Attribute) and operand.attr.lower() == "variant"
            for operand in operands
        )
    return False


def _sources():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_container_module_asks_which_variant():
    sites = set()
    for path, tree in _sources():
        if path == DECLARATION:
            continue
        for top in tree.body:  # a site is named by its top-level def or class
            name = getattr(top, "name", "<module>")
            if any(_is_variant_test(node) for node in ast.walk(top)):
                sites.add((path.relative_to(PACKAGE).as_posix(), name))
    assert sites == ALLOWED, sorted(sites ^ ALLOWED)


def test_mmap_is_not_an_input():
    offenders = []
    for path, tree in _sources():
        where = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                    if arg.arg == "mmap":
                        offenders.append(f"{where}: {node.name}(mmap=)")
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id == "mmap"
                    ):
                        offenders.append(f"{where}: {node.name}.mmap")
            elif isinstance(node, ast.Constant) and node.value == "--mmap":
                offenders.append(f"{where}:{node.lineno}: --mmap")
    assert not offenders, offenders
    # the write side is where it is decided, and stays
    from repro.core.serialize import save_params

    assert "mmap_layout" in save_params.__annotations__


def test_base_is_declared_on_the_container_only():
    """Which fields fold-in holds fixed, and their digest, have one home.

    No ``("phi", "phi_time")`` tuple outside the container module, and
    ``digest_arrays`` — the hash a base digest and a snapshot checksum
    are made of — is called on parameter fields only by the container
    and the serializer (the checkpoint module defines it and hashes its
    own, non-parameter payloads).
    """
    base = {cls.BASE_FIELDS for cls in VARIANTS.values()}
    assert base == {("phi", "phi_time"), ("phi",)}
    may_hash = {"core/params.py", "core/serialize.py", "robustness/checkpoint.py"}
    literals, hashers = [], set()
    for path, tree in _sources():
        where = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.Tuple, ast.List, ast.Set))
                and len(node.elts) > 1
                and all(isinstance(e, ast.Constant) for e in node.elts)
                and tuple(e.value for e in node.elts) in base
                and path != DECLARATION
            ):
                literals.append(f"{where}:{node.lineno}")
            if isinstance(node, ast.Call) and _mentions(node.func, {"digest_arrays"}):
                hashers.add(where)
    assert not literals, literals
    assert hashers <= may_hash, sorted(hashers - may_hash)
    # one string: the ingestor's checkpoint digest is the container's
    from repro.streaming import ingestor

    assert not hasattr(ingestor, "_FIXED") and not hasattr(ingestor, "_fixed_digest")
    assert ingestor._FOLDED == VARIANTS["ttcam"].delta_fields()
