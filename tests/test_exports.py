"""Every name that the package and its modules export resolves."""

import importlib

import pytest

MODULES = [
    "gfisher",
    "gfisher.dependence",
    "gfisher.glm",
    "gfisher.harness",
    "gfisher.kernels",
    "gfisher.methods",
    "gfisher.omnibus",
    "gfisher.qform",
    "gfisher.statistic",
    "gfisher.surrogates",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
