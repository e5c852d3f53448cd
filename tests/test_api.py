"""The package's public names."""

import egoloc


def test_all_names_resolve():
    missing = [name for name in egoloc.__all__ if not hasattr(egoloc, name)]
    assert missing == []
    assert len(set(egoloc.__all__)) == len(egoloc.__all__)
