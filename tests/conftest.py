"""Shared fixtures: every test starts from empty process-global memos and
writes character files only under its own temporary ``WG_CACHE_DIR``."""

import pytest

from weingarten import groupalg, orthogonal, young


@pytest.fixture(autouse=True)
def _clear_memos():
    """Clear the module-level memos after each test, so one test's entries
    (or a poisoned entry) never reach the next."""
    yield
    young._CHAR_MEMO.clear()
    young._IDEMPOTENT_CACHE.clear()
    orthogonal._HISTOGRAM_CACHE.clear()
    groupalg.hyperoctahedral_elements.cache_clear()


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point ``WG_CACHE_DIR`` at the test's own directory, so no test can
    write under ``~/.cache/weingarten``."""
    monkeypatch.setenv("WG_CACHE_DIR", str(tmp_path / "cache"))
