"""Every name a package lists in ``__all__`` resolves on that package.

A deleted module or function whose export stays behind would otherwise
fail only in a user's ``from repro.<package> import *``.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg)


def test_every_subpackage_is_checked():
    assert {"repro.snn", "repro.snn.inference", "repro.systolic"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", ())
    assert [item for item in exported if not hasattr(package, item)] == []
