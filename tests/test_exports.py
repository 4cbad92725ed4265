"""The package's public names: a stale entry in `netsig.__all__` fails here
rather than in a user's import."""

import sys
from pathlib import Path
from types import ModuleType

import pytest

import netsig


def test_every_export_resolves():
    assert len(netsig.__all__) == len(set(netsig.__all__))
    missing = [name for name in netsig.__all__ if not hasattr(netsig, name)]
    assert missing == []
    assert set(netsig.__all__) <= set(dir(netsig))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from netsig import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(netsig.__all__)


def test_public_names_are_exported():
    # Every public class, function and constant the package binds is in
    # `__all__`; only its submodules are left out.  The package binds a name
    # on first use, so every name is resolved first, whatever ran before.
    for name in netsig.__all__:
        getattr(netsig, name)
    public = {
        name for name, value in vars(netsig).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(netsig.__all__) - {"__version__"}


def test_exports_are_their_modules_objects():
    # `netsig.X` is the object its defining submodule binds, not a copy.
    for name in set(netsig.__all__) - {"__version__"}:
        value = getattr(netsig, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_removed_names_stay_removed():
    # Removed within 0.4.0: the Fubini recurrence behind `n_star` is the
    # only count of the orders.
    assert not hasattr(netsig, "stirling2")
    assert not hasattr(netsig.combinatorics, "stirling2")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == netsig.__version__
