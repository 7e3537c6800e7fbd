"""The public surface: every ``__all__`` entry and every package re-export resolves."""

import pkgutil

import pytest

import krylov_echo

MODULES = ["krylov_echo"] + [
    f"krylov_echo.{info.name}" for info in pkgutil.iter_modules(krylov_echo.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # A stale ``__all__`` entry makes the star import raise AttributeError.
    exec(f"from {module} import *", {})
