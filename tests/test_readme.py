from __future__ import annotations

import re

from conftest import ROOT


def test_layout_lists_each_module_once():
    """README's "Layout" block names every module of the package, and no
    module that is gone."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
    package = ROOT / "src" / "eprint_oai"
    modules = [p.name for p in package.glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
