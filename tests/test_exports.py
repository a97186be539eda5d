"""Every name that ``distreg`` exports resolves to an object."""

import distreg


def test_every_exported_name_resolves():
    missing = [name for name in distreg.__all__ if not hasattr(distreg, name)]
    assert missing == []
