"""The package's public surface."""

import ratsos


def test_every_export_is_an_attribute():
    # a name deleted from the package must leave __all__ with it
    assert [name for name in ratsos.__all__ if not hasattr(ratsos, name)] == []
    assert len(set(ratsos.__all__)) == len(ratsos.__all__)
