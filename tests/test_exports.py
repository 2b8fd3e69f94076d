"""The package's public surface: ``__all__`` names exactly what it exports."""

import alregress


def test_star_import_binds_every_exported_name_once():
    # a star import raises AttributeError on an __all__ entry left behind by
    # a deleted import
    namespace = {}
    exec("from alregress import *", namespace)
    names = alregress.__all__
    assert len(names) == len(set(names))
    assert set(namespace) - {"__builtins__"} == set(names)
    assert all(namespace[name] is getattr(alregress, name) for name in names)
