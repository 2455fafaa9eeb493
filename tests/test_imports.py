"""No module imports a name it never uses.

A stdlib ``ast`` scan of the package (its ``__init__.py`` re-exports
excepted), the tests and the demos: every name an ``import`` statement
binds must be referenced somewhere in the same file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _scanned_files():
    files = [p for p in sorted((ROOT / "src" / "qrtan").rglob("*.py"))
             if p.name != "__init__.py"]
    return files + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str):
    """Names bound by an import in ``source`` and never referenced in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_only_unreferenced_names():
    source = ("import os\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau as turn\nfrom json import *\n"
              "print(np.pi, pi)\n")
    assert unused_imports(source) == [(2, "os"), (4, "turn")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _scanned_files()
             for line, name in unused_imports(path.read_text())]
    assert found == []
