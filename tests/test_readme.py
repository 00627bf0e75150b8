import importlib
import pkgutil
import re
from pathlib import Path

import szbov

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = "|".join(info.name for info in pkgutil.iter_modules(szbov.__path__))


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
