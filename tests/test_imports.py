"""No module imports a name it never uses, and ``import qrtan`` stays lean.

A stdlib ``ast`` scan of the package (its ``__init__.py`` re-exports
excepted), the tests and the demos: every name an ``import`` statement
binds must be referenced somewhere in the same file.
"""

import ast
import os
import subprocess
import sys
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


def test_import_leaves_thread_pool_unloaded():
    # concurrent.futures (and the logging it pulls in) serves only a
    # multi-thread render, which imports it itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, qrtan, qrtan.cli\n"
            "print('concurrent.futures' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
