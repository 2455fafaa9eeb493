"""No module imports a name it never uses, no package function or class
goes unused, and ``import qrtan`` stays lean.

Stdlib ``ast`` scans.  Of the package (its ``__init__.py`` re-exports
excepted), the tests and the demos: every name an ``import`` statement
binds must be referenced somewhere in the same file.  Of the package:
every top-level function, class and assigned name must be referenced in
the package beyond its definition, exported by ``qrtan/__init__.py``, a
``[project.scripts]`` entry point, or used from ``bench/`` or ``demos/``;
every parameter of a function must be read in its body; and every
defaulted parameter of a function that ``qrtan/__init__.py`` does not
export must be passed by some call in the package, ``bench/`` or
``demos/``.
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


def _defined_names(node):
    """Names a top-level statement defines: a function or class, or the
    plain names an assignment binds."""
    if isinstance(node, _DEFINITIONS):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unused_definitions(package: dict, kept: set):
    """Top-level functions, classes and assigned names of ``package`` (file
    name to source) that no top-level statement of the package other than
    their own definition reads, and that are not in ``kept``."""
    parts = [(name, node) for name, source in sorted(package.items())
             for node in ast.parse(source).body]
    reads = [(node, _read_names(node)) for _, node in parts]
    return [f"{name}: {defined}" for name, node in parts for defined in _defined_names(node)
            if defined not in kept
            and not any(defined in names for other, names in reads if other is not node)]


def test_definition_scan_flags_only_unused_names():
    package = {"a.py": "def f():\n    return g()\n\ndef g():\n    return g()\n\n"
                       "class C:\n    pass\n\nLIMIT = 2.0 ** 40\nSTEP: float = LIMIT / 2\n",
               "b.py": "import a\n\ndef h():\n    return a.f\n\ndef k():\n    return k\n\n"
                       "X, (Y, Z) = 1, (2, 3)\nW = Y\n"}
    assert unused_definitions(package, set()) == [
        "a.py: C", "a.py: STEP", "b.py: h", "b.py: k", "b.py: X", "b.py: Z", "b.py: W"]
    assert unused_definitions(package, {"C", "k", "STEP", "X", "Z", "W"}) == ["b.py: h"]


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unused_parameters(source: str):
    """(line, function, parameter) for each parameter of a function or lambda
    in ``source`` that its body (nested functions included) never reads.  A
    method's first parameter, self or cls, is not counted."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, _FUNCTIONS)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, _FUNCTIONS):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg)
                  for p in params[id(node) in methods:] if p.arg not in read]
    return found


def test_parameter_scan_flags_only_unread_parameters():
    source = ("def f(a, b=1, *args, c, **kw):\n    return a + c\n\n"
              "def g(x, y):\n    def h():\n        return y\n    x = 2\n    return h\n\n"
              "class C:\n    def m(self, z):\n        return 0\n\n"
              "k = lambda u, v: u\n")
    assert unused_parameters(source) == [
        (1, "f", "b"), (1, "f", "args"), (1, "f", "kw"), (4, "g", "x"), (11, "m", "z"),
        (14, "<lambda>", "v")]


def test_no_unused_parameters():
    # exempt: the (lam, rng) signature that run_suite calls every verify
    # check with, whether or not the check draws or depends on lam
    found = [f"{path.name}:{line}: {name}({param})"
             for path in sorted((ROOT / "src" / "qrtan").glob("*.py"))
             for line, name, param in unused_parameters(path.read_text())
             if not (path.name == "verify.py" and name.startswith("check_")
                     and param in ("lam", "rng"))]
    assert found == []


def _callee(node):
    """The name a call or a dict key refers to: a bare name or an attribute."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _keys(node):
    """The keywords a ``**`` operand passes: a dict literal's string keys,
    else "**" (anything)."""
    if isinstance(node, ast.Dict) and all(isinstance(k, ast.Constant)
                                          and isinstance(k.value, str) for k in node.keys):
        return {k.value for k in node.keys}
    return {"**"}


def unpassed_defaults(package: dict, callers: list, kept: set):
    """(file, line, function, parameter) for each defaulted parameter of a
    function of ``package`` (file name to source) that no call in
    ``callers`` (sources) passes.  A call passes a parameter by keyword, by
    position, through ``*`` or ``**``, or as a string key of a dict literal
    that a dict literal maps the function to.  Calls match definitions by
    name; a method's first parameter is not counted.  Entries of ``kept``
    are function names, or (function, parameter) pairs, to skip."""
    npos, kws = {}, {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and _callee(node.func):
                name = _callee(node.func)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                npos[name] = max(npos.get(name, 0), sys.maxsize if star else len(node.args))
                for kw in node.keywords:
                    kws.setdefault(name, set()).update({kw.arg} if kw.arg else _keys(kw.value))
            elif isinstance(node, ast.Dict):
                for k, v in zip(node.keys, node.values):
                    if k is not None and _callee(k) and isinstance(v, ast.Dict):
                        kws.setdefault(_callee(k), set()).update(_keys(v))
    found = []
    for file, source in sorted(package.items()):
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) or f.name in kept:
                continue
            a = f.args
            positional = [*a.posonlyargs, *a.args][id(f) in methods:]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            passed = kws.get(f.name, set()) | {p.arg for p in positional[:npos.get(f.name, 0)]}
            found += [(file, f.lineno, f.name, p.arg) for p in defaulted
                      if "**" not in passed and p.arg not in passed
                      and (f.name, p.arg) not in kept]
    return sorted(found)


def test_default_scan_flags_only_unpassed_defaults():
    package = {"a.py": "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
                       "def g(x=0, y=0):\n    pass\n\n"
                       "def h(u=0, v=0):\n    pass\n\n"
                       "class C:\n    def m(self, z=0, w=0):\n        pass\n\n"
                       "def k(s=0, t=0):\n    pass\n\n"
                       "def kept(q=0):\n    pass\n"}
    callers = ["f(1, 2, 3, d=5)\ng(*xs)\nh(**{'v': 1})\nobj.m(1)\n",
               "TABLE = {k: {'t': 1}, other: 2}\n"]
    assert unpassed_defaults(package, callers, {"kept", ("f", "e")}) == [
        ("a.py", 7, "h", "u"), ("a.py", 11, "m", "w"), ("a.py", 14, "k", "s")]
    assert unpassed_defaults(package, callers + ["g(**options)\nk(0, 0)\n"], set()) == [
        ("a.py", 1, "f", "e"), ("a.py", 7, "h", "u"), ("a.py", 11, "m", "w"),
        ("a.py", 17, "kept", "q")]


def test_no_unpassed_defaults():
    # kept: what qrtan/__init__.py exports, and third_component_bound_violations'
    # slack, through which tests force nonzero violation counts
    src = ROOT / "src" / "qrtan"
    package = {p.name: p.read_text() for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    kept = {alias.asname or alias.name
            for node in ast.walk(ast.parse((src / "__init__.py").read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    kept.add(("third_component_bound_violations", "slack"))
    callers = [p.read_text() for p in [*sorted(src.glob("*.py")),
                                       *sorted((ROOT / "bench").rglob("*.py")),
                                       *sorted((ROOT / "demos").glob("*.py"))]]
    assert [f"{file}:{line}: {name}({param})"
            for file, line, name, param in unpassed_defaults(package, callers, kept)] == []


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
