"""The package's public names."""

from __future__ import annotations

import types
from pathlib import Path

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


def test_readme_lists_every_exported_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("* `")]
    assert sorted(listed) == sorted(cherednik_centre.__all__)
