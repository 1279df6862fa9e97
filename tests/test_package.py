"""The package namespace."""

import polysphere


def test_every_exported_name_exists():
    """A re-export left behind by a deleted name fails here, not at import by a user."""
    missing = [name for name in polysphere.__all__ if not hasattr(polysphere, name)]
    assert missing == []
    assert len(set(polysphere.__all__)) == len(polysphere.__all__)
