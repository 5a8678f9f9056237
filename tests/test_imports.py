"""Every name a module of ``burgers_lab`` imports is used there, apart from an explicit list with its reasons."""

import ast
from pathlib import Path

import burgers_lab

#: "module.name" -> why the module imports a name it never uses; "module.*" covers all of that module's imports
ALLOWED_UNUSED = {
    "blowup.nonlinear_direct": "perfbench/tracing.py patches blowup.nonlinear_direct to time the direct kernel",
    "blowup.power_sum": "perfbench/tracing.py patches blowup.power_sum to count its calls",
    "blowup.UnsupportedRegimeError": "cli imports UnsupportedRegimeError from blowup",
    "__init__.*": "the package re-exports its public names",
}


def unused_imports(path: Path) -> set[str]:
    """The names the module at path binds by import (``from __future__`` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_used_or_listed():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(Path(burgers_lab.__file__).parent.glob("*.py"))
        for name in unused_imports(path)
    }
    unlisted = sorted(n for n in found if n not in ALLOWED_UNUSED and f"{n.partition('.')[0]}.*" not in ALLOWED_UNUSED)
    assert not unlisted, f"imported and never used: {unlisted}"
    # the list stays exact: an entry whose name is now used, or no longer imported, is taken off it
    stale = sorted(n for n in ALLOWED_UNUSED if not n.endswith(".*") and n not in found)
    assert not stale, f"listed as unused but used or not imported: {stale}"


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\nimport numpy as np\nfrom math import pi, tau\nx = np.sin(pi)\n")
    assert unused_imports(module) == {"tau"}
