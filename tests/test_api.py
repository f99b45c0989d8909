import importlib
from pathlib import Path

import pytest

import levicycles

MODULES = [
    "levicycles",
    "levicycles.arrangement",
    "levicycles.claims",
    "levicycles.cli",
    "levicycles.cycles",
    "levicycles.exact_field",
    "levicycles.families",
    "levicycles.levi",
    "levicycles.oracle",
    "levicycles.projective",
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_module_is_listed():
    shipped = {path.stem for path in Path(levicycles.__file__).parent.glob("*.py")}
    assert {f"levicycles.{stem}" for stem in shipped - {"__init__"}} == set(MODULES[1:])


def test_package_reexports_each_library_module_all():
    # The package's public names are exactly its library modules' __all__
    # (cli is a front end, not a library module) plus __version__, each
    # stated once and bound to the module's own object.
    exported = []
    for module in MODULES[1:]:
        if module == "levicycles.cli":
            continue
        mod = importlib.import_module(module)
        exported += mod.__all__
        assert [name for name in mod.__all__ if getattr(levicycles, name) is not getattr(mod, name)] == []
    assert sorted(levicycles.__all__) == sorted(exported + ["__version__"])
