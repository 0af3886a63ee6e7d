import importlib
import pathlib
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


def test_readme_library_example_runs():
    # the first python block under "## Library" is the documented call; run it
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    block = library[start:library.index("```", start)]
    assert "replicate_stats(" in block
    exec(compile(block, "README.md", "exec"), {})
