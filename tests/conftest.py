"""Shared test settings: a NumPy overflow, invalid value or division by
zero is a failure, not a line on stderr."""

import pathlib

import pytest

TESTS = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
