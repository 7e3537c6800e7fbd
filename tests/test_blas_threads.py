"""The suite runs each bundled OpenBLAS on one thread unless the user set a count."""

import ctypes.util
import os

import pytest

from conftest import THREAD_VARIABLES, bundled_openblas, openblas_threads


def test_each_bundled_openblas_runs_one_thread():
    if any(name in os.environ for name in THREAD_VARIABLES):
        pytest.skip("a BLAS thread count is set in the environment")
    libraries = bundled_openblas()
    if not libraries:
        pytest.skip("numpy and scipy ship no OpenBLAS of their own here")
    assert [get_threads() for get_threads, _ in libraries] == [1] * len(libraries)


def test_library_without_the_setter_is_left_alone():
    assert openblas_threads(ctypes.util.find_library("c")) is None
