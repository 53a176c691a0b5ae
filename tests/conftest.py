"""Shared fixtures: every test starts from empty process-global memos."""

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
