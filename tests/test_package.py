import importlib
import pkgutil

import cubeperc

MODULES = sorted(m.name for m in pkgutil.iter_modules(cubeperc.__path__))


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only `from module import *`, so check each one
    exported = set()
    for name in MODULES:
        module = importlib.import_module(f"cubeperc.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
        exported.update(module.__all__)
    # the package re-exports only names its modules export
    public = {n for n in vars(cubeperc) if not n.startswith("_") and n not in MODULES}
    assert public <= exported, sorted(public - exported)
