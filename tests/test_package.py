"""The package's public names."""

from __future__ import annotations

import types

import cherednik_centre


def test_every_exported_name_resolves_and_none_is_a_module():
    names = cherednik_centre.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(cherednik_centre, name), types.ModuleType), name
    public = {
        name
        for name, value in vars(cherednik_centre).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
    namespace: dict = {}
    exec("from cherednik_centre import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)
