"""The package's public surface: ``__all__`` names exactly what it exports,
and importing it loads numpy but no scipy."""

import subprocess
import sys

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


def test_import_loads_no_scipy():
    # every module of the package, in a fresh interpreter: its distances
    # and solves are numpy's, and scipy is a test dependency only
    code = (
        "import pkgutil, sys, alregress\n"
        "for m in pkgutil.iter_modules(alregress.__path__):\n"
        "    if m.name != '__main__':\n"
        "        __import__('alregress.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
