"""Shared test setup.

The CLI tests run ``python -m curvekit.cli`` as subprocesses with the
pytest temporary directory as their working directory. A relative
``PYTHONPATH`` (such as ``PYTHONPATH=src`` from the repository root) would
be resolved against that directory and the child could not import
``curvekit``. Every test therefore gets this checkout's ``src`` as an
absolute path at the front of ``PYTHONPATH``, so child processes import the
code under test wherever pytest was started and whether or not the package
is installed.
"""

import json
import os
from pathlib import Path

import pytest


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _children_import_checkout_src(monkeypatch):
    inherited = os.environ.get("PYTHONPATH")
    path = str(SRC) + (os.pathsep + inherited if inherited else "")
    monkeypatch.setenv("PYTHONPATH", path)


@pytest.fixture(scope="session")
def ledger():
    """The committed output ledger (``tests/ledger.json``), entry name -> value."""
    return json.loads(Path(__file__).with_name("ledger.json").read_text(encoding="utf-8"))
