"""The benchmark tracer can still reach every function it wraps.

``benchmarks/tracer.py`` wraps each function named in its ``SPANS`` (and
counts ``fourier.spectral_norm``) by rebinding every module-level alias of
it in the loaded ``groupavg`` modules; methods are patched on their class.
A name that no longer resolves breaks the install, and a wrapped function
held in a module-level container, such as a kind -> constructor dict or a
family registry, is called past the wrapper, so its spans go missing
without an error.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import groupavg

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _spans() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.SPANS] + [
        ("groupavg.fourier", "spectral_norm")
    ]


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]  # what the tracer patches
    return getattr(owner, attr)


def _contents(value, seen: set[int]):
    """Everything reachable from ``value`` through dicts (keys and values),
    lists, tuples and sets."""
    if id(value) in seen or not isinstance(value, (dict, list, tuple, set, frozenset)):
        return
    seen.add(id(value))
    items = [*value.keys(), *value.values()] if isinstance(value, dict) else value
    for item in items:
        yield item
        yield from _contents(item, seen)


def test_every_traced_name_resolves():
    for module_name, attr in _spans():
        assert callable(_resolve(module_name, attr)), (module_name, attr)


def test_no_module_level_container_holds_a_traced_function():
    traced = {id(_resolve(m, a)): f"{m}.{a}" for m, a in _spans()}
    modules = [groupavg] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(groupavg.__path__, "groupavg.")
    ]
    assert len(modules) > 10
    for module in modules:
        for name, value in vars(module).items():
            held = {traced[id(item)] for item in _contents(value, set()) if id(item) in traced}
            assert not held, f"{module.__name__}.{name} holds {sorted(held)}"
