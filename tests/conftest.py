"""Child processes started by the tests import ``chaoscalc`` from the tree under test."""

import os
from pathlib import Path

import pytest

import chaoscalc


@pytest.fixture(autouse=True, scope="session")
def _package_on_child_pythonpath():
    src = str(Path(chaoscalc.__file__).resolve().parent.parent)
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield
