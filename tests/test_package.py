"""The public namespace."""

import momentbound


def test_every_exported_name_resolves():
    missing = [name for name in momentbound.__all__ if not hasattr(momentbound, name)]
    assert missing == []
    assert len(set(momentbound.__all__)) == len(momentbound.__all__)
