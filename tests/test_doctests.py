"""The docstring examples of every module run and give what they show."""

import doctest
import importlib
import pkgutil

import pytest

import symshadows

MODULES = sorted(
    name for _, name, _ in pkgutil.walk_packages(symshadows.__path__, "symshadows.")
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_every_docstring_with_examples_is_found():
    # haar_unitary, haar_symplectic, channel_weights, pair_partitions, ...
    finder = doctest.DocTestFinder()
    found = [
        test.name
        for name in MODULES
        for test in finder.find(importlib.import_module(name))
        if test.examples
    ]
    assert len(found) >= 9, found
    assert "symshadows.haar.haar_symplectic" in found


@pytest.mark.parametrize("name", ["symshadows"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
