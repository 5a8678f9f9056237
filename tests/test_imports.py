"""Every name a module of ``burgers_lab`` imports is used there, apart from an explicit list with its reasons,
and no module reaches ``numpy.fft``: every transform runs through pocketfft's one binding (``spectral._load_pocketfft``)."""

import ast
from pathlib import Path

import burgers_lab

#: "module.name" -> why the module imports a name it never uses; "module.*" covers all of that module's imports
ALLOWED_UNUSED = {
    "blowup.nonlinear_direct": "perfbench/tracing.py patches blowup.nonlinear_direct to time the direct kernel",
    "blowup.power_sum": "perfbench/tracing.py patches blowup.power_sum to count its calls",
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


def fft_references(path: Path) -> list[str]:
    """Each ``np.fft``/``numpy.fft`` reference in the module at path, by import or by attribute, as "line N: source"."""
    source = path.read_text()
    tree = ast.parse(source)

    def reaches_fft(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.fft") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith("numpy.fft") or module == "numpy" and any(alias.name == "fft" for alias in node.names)
        return isinstance(node, ast.Attribute) and node.attr == "fft" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")

    hits = sorted((node.lineno, node.col_offset, ast.get_source_segment(source, node)) for node in ast.walk(tree) if reaches_fft(node))
    return [f"line {line}: {segment}" for line, _, segment in hits]


def test_no_module_reaches_numpy_fft():
    found = {
        path.stem: refs
        for path in sorted(Path(burgers_lab.__file__).parent.glob("*.py"))
        if (refs := fft_references(path))
    }
    assert not found, f"numpy.fft referenced (transforms go through spectral._load_pocketfft): {found}"


def test_the_check_sees_numpy_fft(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\nimport numpy.fft\nfrom numpy import fft\nfrom numpy.fft import rfft\n"
        "y = np.fft.rfft([1.0])\nz = numpy.fft.irfft\nw = np.linalg.norm\n"
    )
    assert [ref.partition(":")[0] for ref in fft_references(module)] == ["line 2", "line 3", "line 4", "line 5", "line 6"]


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
