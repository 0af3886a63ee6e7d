import importlib
import pkgutil

import cubeperc

MODULES = sorted(m.name for m in pkgutil.iter_modules(cubeperc.__path__))
REPUBLISHED = ["cube", "gen", "clusters", "stats", "critical", "experiments"]


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only `from module import *`, so check each one
    for name in MODULES:
        module = importlib.import_module(f"cubeperc.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
    # the package republishes exactly the __all__ of six modules; lemmas, reports
    # and cli are imported by module
    republished = set().union(
        *(importlib.import_module(f"cubeperc.{name}").__all__ for name in REPUBLISHED))
    public = {n for n in vars(cubeperc) if not n.startswith("_") and n not in MODULES}
    assert public == republished, sorted(public ^ republished)
