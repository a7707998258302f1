"""API hygiene: every public item is importable, documented and typed.

Walks the installed ``repro`` package and asserts that every public
module, class, function and method carries a docstring, that every name
exported through ``__all__`` actually resolves, and that the public
functions of the core/recommend/robustness layers are fully annotated.
This is the executable form of the "doc comments on every public item"
requirement plus a mypy-independent annotation-completeness gate.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro

EXEMPT_METHODS = {
    # dunder/dataclass machinery that needs no prose
    "__init__", "__repr__", "__str__", "__len__", "__iter__",
    "__contains__", "__post_init__", "__eq__", "__hash__", "__iadd__",
}


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_exports_resolve(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def public_members():
    seen = set()
    for module in ALL_MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", "").startswith("repro") is False:
                continue  # re-exported third-party names
            key = (obj.__module__, getattr(obj, "__qualname__", name))
            if key in seen:
                continue
            seen.add(key)
            yield key, obj


PUBLIC = list(public_members())


@pytest.mark.parametrize(
    "key_obj", PUBLIC, ids=lambda ko: f"{ko[0][0]}.{ko[0][1]}"
)
def test_public_object_documented(key_obj):
    (module, qualname), obj = key_obj
    assert obj.__doc__, f"{module}.{qualname} lacks a docstring"


def test_public_methods_documented():
    undocumented = []
    for (module, qualname), obj in PUBLIC:
        if not inspect.isclass(obj):
            continue
        for name, member in vars(obj).items():
            if name.startswith("_") and name not in EXEMPT_METHODS:
                continue
            if name in EXEMPT_METHODS:
                continue
            if inspect.isfunction(member) and not member.__doc__:
                undocumented.append(f"{module}.{qualname}.{name}")
            if isinstance(member, property) and not (member.fget and member.fget.__doc__):
                undocumented.append(f"{module}.{qualname}.{name} (property)")
    assert not undocumented, f"undocumented methods: {undocumented}"


def test_top_level_all_is_complete():
    for name in repro.__all__:
        assert hasattr(repro, name)


# ---------------------------------------------------------------------------
# Annotation completeness (no mypy required)
# ---------------------------------------------------------------------------

#: Packages whose public functions must be fully annotated.
TYPED_PACKAGES = ("repro.core", "repro.recommend", "repro.robustness", "repro.streaming")

#: Parameters that never need annotations.
IMPLICIT_PARAMS = {"self", "cls"}


def class_members(cls):
    """``name -> member`` as attribute lookup resolves it: a class's public
    surface includes what it inherits (``PartitionedTTCAM`` is mostly
    ``TTCAM``), so inherited methods are held to the same standard."""
    members = {}
    for klass in reversed(cls.__mro__):
        members.update(vars(klass))
    return members


def typed_callables():
    """Every public function/method of the strictly-typed packages."""
    for (module, qualname), obj in PUBLIC:
        if not module.startswith(TYPED_PACKAGES):
            continue
        if inspect.isfunction(obj):
            yield f"{module}.{qualname}", obj
        elif inspect.isclass(obj):
            for name, member in class_members(obj).items():
                if name.startswith("_") and name != "__init__":
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if not inspect.isfunction(member):
                    continue
                if not getattr(member, "__module__", "").startswith("repro"):
                    continue  # synthetic members (e.g. Protocol __init__)
                yield f"{module}.{qualname}.{name}", member


TYPED = sorted(typed_callables(), key=lambda pair: pair[0])


def missing_annotations(func):
    """Parameter names without an annotation, plus ``return`` if absent."""
    hints = getattr(func, "__annotations__", {})
    signature = inspect.signature(func)
    missing = [
        name
        for name in signature.parameters
        if name not in IMPLICIT_PARAMS and name not in hints
    ]
    if "return" not in hints:
        missing.append("return")
    return missing


def test_typed_surface_is_nonempty():
    # Guards against the walker silently matching nothing.
    assert len(TYPED) > 80


@pytest.mark.parametrize("name_func", TYPED, ids=lambda pair: pair[0])
def test_public_function_fully_annotated(name_func):
    name, func = name_func
    missing = missing_annotations(func)
    assert not missing, f"{name} is missing annotations for: {missing}"


@pytest.mark.parametrize("name_func", TYPED, ids=lambda pair: pair[0])
def test_public_function_has_no_bare_any_params(name_func):
    """Parameters may not be annotated as bare ``Any``.

    ``Any`` inside a composed type (``dict[str, Any]``, ``Any | None``)
    is an accepted escape hatch for heterogeneous payloads; a parameter
    that is *just* ``Any`` defeats checking entirely. The documented
    exceptions are duck-typed model/fallback objects, which are what the
    serving layer is generic over.
    """
    allowed_any = {"model", "fallback", "params"}
    name, func = name_func
    hints = getattr(func, "__annotations__", {})
    offenders = [
        param
        for param, hint in hints.items()
        if param not in ("return", *allowed_any)
        and (hint is typing.Any or hint == "Any")
    ]
    assert not offenders, f"{name} annotates {offenders} as bare Any"
