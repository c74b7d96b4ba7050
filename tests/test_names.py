"""One name per object: no public binding of ncalg is a second name for a function or class of ncalg.

A module that binds one of the package's functions or classes under a
public name uses that object's own __name__, and so does the package's
__all__. An alias (``Tensor = SlotTensor``) or an import under another name
(``from .algebra import inv as el_inv``) gives one object two spellings, and
a reader, a type hint or a tracer that patches functions by name can meet
either. Private names (a leading underscore) may alias, and values that are
not functions or classes, such as the gap labels X and Y, are not checked.
"""

import importlib
import inspect
import pkgutil

import ncalg


def _modules():
    """ncalg and every module under it, but for __main__, which runs the command line when imported."""
    yield ncalg
    for info in pkgutil.iter_modules(ncalg.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"ncalg.{info.name}")


def _ours(obj) -> bool:
    """True for a function or class defined in ncalg, a cached function included."""
    return (inspect.isroutine(obj) or inspect.isclass(obj)) and obj.__module__.split(".")[0] == "ncalg"


def _second_names(module, names) -> list[str]:
    return [f"{module.__name__}.{name}" for name in names
            if _ours(obj := getattr(module, name)) and obj.__name__ != name]


def test_every_public_binding_carries_its_objects_own_name():
    found = []
    for module in _modules():
        found += _second_names(module, [name for name in vars(module) if not name.startswith("_")])
    assert found == []


def test_every_name_in_all_is_its_objects_own_name():
    assert _second_names(ncalg, ncalg.__all__) == []
