"""The package's public surface: every name in ``__all__`` resolves."""

import dunkl_dihedral


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from dunkl_dihedral import *", namespace)  # raises on a name that is missing
    assert set(dunkl_dihedral.__all__) <= namespace.keys()
    assert [name for name in dunkl_dihedral.__all__ if not hasattr(dunkl_dihedral, name)] == []
