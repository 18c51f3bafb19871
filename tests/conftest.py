from collections import Counter

import pytest

from redchar import dl, groups


@pytest.fixture
def group_builds(monkeypatch):
    """Counter of the specs GroupRealization.__init__ runs for, counted from
    empty realization and DL-context memos."""
    groups._realization.cache_clear()
    dl._context.cache_clear()
    builds = Counter()
    original = groups.GroupRealization.__init__

    def counting_init(self, spec):
        builds[str(spec)] += 1
        original(self, spec)

    monkeypatch.setattr(groups.GroupRealization, "__init__", counting_init)
    return builds
