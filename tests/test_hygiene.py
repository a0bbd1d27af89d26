"""Code hygiene, checked with `ast` and one child interpreter.

Every module of the package and of the tests uses each name it imports
(`__init__.py` is skipped there because it imports to re-export), and
every public module-level function or class of the package is named
somewhere in the package or the tests outside its own definition.
Importing the CLI loads none of SLOW_IMPORTS: each CLI run is a fresh
process, and `dataclasses` (which pulls in `inspect`, `ast` and `dis`)
and `typing` would cost it tens of milliseconds before any work starts.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOW_IMPORTS = ("dataclasses", "typing", "inspect")
PACKAGE = sorted((ROOT / "src" / "superdenom").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + TESTS


def _unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unused_import():
    source = "import os.path\nfrom a import b as c, d\nc(d)\n"
    assert _unused_imports(source) == ["os"]


def test_no_unused_imports():
    assert len(MODULES) > 20
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(p.read_text())
              for p in MODULES}
    assert {k: v for k, v in unused.items() if v} == {}


def _unreferenced_public(package: dict, others: dict) -> list:
    """Public top-level definitions in package that no statement names.

    Both arguments map a label to module source.  A name counts as read
    where it appears as a name, an attribute or an imported name, in any
    top-level statement other than the definition itself.
    """
    places = {}
    for label, source in {**package, **others}.items():
        for idx, stmt in enumerate(ast.parse(source).body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.split(".")[-1]
                else:
                    continue
                places.setdefault(name, set()).add((label, idx))
    out = []
    for label, source in package.items():
        for idx, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_") \
                    and places.get(stmt.name, set()) <= {(label, idx)}:
                out.append("%s:%s" % (label, stmt.name))
    return sorted(out)


def test_scan_flags_an_unreferenced_definition():
    package = {
        "a.py": "def used():\n    pass\n\n"
                "def recursive(n):\n    return recursive(n - 1)\n\n"
                "class Dead:\n    pass\n\n"
                "class Read:\n    pass\n\n"
                "def _private():\n    pass\n",
        "b.py": "from a import used\n",
    }
    assert _unreferenced_public(package, {"t.py": "import a\na.Read\n"}) \
        == ["a.py:Dead", "a.py:recursive"]


def test_no_unreferenced_public_definitions():
    def sources(paths):
        return {p.relative_to(ROOT).as_posix(): p.read_text() for p in paths}
    assert len(PACKAGE) > 10
    assert _unreferenced_public(sources(PACKAGE), sources(TESTS)) == []


def _slow_imports(statement: str) -> list:
    """The SLOW_IMPORTS that `python -S -c statement` leaves loaded."""
    probe = "%s\nimport sys\nprint(*(m for m in %r if m in sys.modules))" \
        % (statement, SLOW_IMPORTS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_import_check_flags_a_loaded_module():
    assert _slow_imports("import dataclasses") == ["dataclasses", "inspect"]
    assert _slow_imports("import json") == []


def test_cli_import_skips_slow_modules():
    assert _slow_imports("import superdenom.cli") == []
