"""Shared fixtures: every test starts from empty process-global memos and
writes character files only under its own temporary ``WG_CACHE_DIR``."""

import os
import sys
from pathlib import Path

import pytest

import weingarten
from weingarten import young


@pytest.fixture(autouse=True)
def _clear_memos():
    """Clear the module-level memos after each test, so one test's entries
    (or a poisoned entry) never reach the next: every ``lru_cache`` found in
    a loaded ``weingarten`` module, and the dict memos named here."""
    yield
    young._CHAR_MEMO.clear()
    young._IDEMPOTENT_CACHE.clear()
    for name, module in list(sys.modules.items()):
        if name.startswith("weingarten."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point ``WG_CACHE_DIR`` at the test's own directory, so no test can
    write under ``~/.cache/weingarten``."""
    monkeypatch.setenv("WG_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture
def python_env():
    """Environment for a child ``python`` that imports this same package."""
    src = str(Path(weingarten.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
