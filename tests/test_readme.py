import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import szbov

README = Path(__file__).resolve().parents[1] / "README.md"
MODULE_NAMES = [info.name for info in pkgutil.iter_modules(szbov.__path__)]
MODULES = "|".join(MODULE_NAMES)


def test_module_references_resolve():
    # every backticked `module.name` of the package in README, with or
    # without the `szbov.` prefix, names something that exists
    refs = set(re.findall(rf"`(?:szbov\.)?((?:{MODULES})\.[A-Za-z_][\w.]*)`", README.read_text()))
    missing = []
    for ref in sorted(refs):
        module, *names = ref.split(".")
        obj = importlib.import_module(f"szbov.{module}")
        for name in names:
            obj = getattr(obj, name, missing)
        if obj is missing:
            missing.append(ref)
    assert len(refs) >= 10
    assert missing == []


def _class_named(name):
    """The class of that name among szbov's exports or, failing that, in one
    of its modules; None where there is none."""
    for module in [szbov, *(importlib.import_module(f"szbov.{m}") for m in MODULE_NAMES)]:
        obj = getattr(module, name, None)
        if isinstance(obj, type):
            return obj
    return None


def _has(cls, attr) -> bool:
    """A class attribute, or a dataclass field, which has none without a default."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return hasattr(cls, attr) or attr in fields


def test_class_attribute_references_resolve():
    # every backticked `Class.attr` in README, named with no module, is an
    # attribute or field of a class of that name in the package
    refs = set(re.findall(r"`(_?[A-Z]\w*)\.([A-Za-z_]\w*)`", README.read_text()))
    missing = []
    for name, attr in sorted(refs):
        cls = _class_named(name)
        if cls is None or not _has(cls, attr):
            missing.append(f"{name}.{attr}")
    assert len(refs) >= 3
    assert missing == []
