"""No module imports a name it never uses, no package function or class
goes unused, and ``import qrtan`` stays lean.

Stdlib ``ast`` scans.  Of the package (its ``__init__.py`` re-exports
excepted), the tests and the demos: every name an ``import`` statement
binds must be referenced somewhere in the same file.  Of the package:
every top-level function and class must be referenced in the package
beyond its definition, exported by ``qrtan/__init__.py``, a
``[project.scripts]`` entry point, or used from ``bench/`` or ``demos/``.
"""

import ast
import os
import re
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


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read_names(node):
    """Names the code under ``node`` reads: bare names and attributes."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unused_definitions(package: dict, kept: set):
    """Top-level functions and classes of ``package`` (file name to source)
    that no top-level statement of the package other than their own
    definition reads, and that are not in ``kept``."""
    parts = [(name, node) for name, source in sorted(package.items())
             for node in ast.parse(source).body]
    reads = [(node, _read_names(node)) for _, node in parts]
    return [f"{name}: {node.name}" for name, node in parts
            if isinstance(node, _DEFINITIONS) and node.name not in kept
            and not any(node.name in names for other, names in reads if other is not node)]


def test_definition_scan_flags_only_unused_names():
    package = {"a.py": "def f():\n    return g()\n\ndef g():\n    return g()\n\n"
                       "class C:\n    pass\n",
               "b.py": "import a\n\ndef h():\n    return a.f\n\ndef k():\n    return k\n"}
    assert unused_definitions(package, set()) == ["a.py: C", "b.py: h", "b.py: k"]
    assert unused_definitions(package, {"C", "k"}) == ["b.py: h"]


def test_no_unused_definitions():
    # kept: the names qrtan/__init__.py exports, the [project.scripts]
    # entry points, and every name that bench/ or demos/ reads
    src = ROOT / "src" / "qrtan"
    package = {p.name: p.read_text() for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    kept = {alias.asname or alias.name
            for node in ast.walk(ast.parse((src / "__init__.py").read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    kept |= set(re.findall(r":(\w+)\"", scripts))
    for path in sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        kept |= _read_names(ast.parse(path.read_text()))
    assert unused_definitions(package, kept) == []


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
