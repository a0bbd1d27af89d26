"""Code hygiene, checked with `ast` and one child interpreter.

Every module of the package and of the tests uses each name it imports
(`__init__.py` is skipped there because it imports to re-export), and
every public module-level function or class of the package is named
somewhere in the package or the tests outside its own definition.  Every
name that the traced benchmark (`perfbench/spans.py`) looks up without a
default resolves to a function or method of the package, so a rename
fails here before it breaks a traced run.
Importing the CLI loads none of SLOW_IMPORTS: each CLI run is a fresh
process, and `dataclasses` (which pulls in `inspect`, `ast` and `dis`)
and `typing` would cost it tens of milliseconds before any work starts.
`argparse`, `json` and `fractions` each load `re` (and `enum`), argparse
builds `shutil` into its help formatter and `fractions` loads `decimal`:
the CLI parses its own table and writes its own JSON, and rationals are
built on first use, so `build` and `verify` runs stay clear of `re`,
`fractions` and `argparse` too.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOW_IMPORTS = ("dataclasses", "typing", "inspect", "re", "argparse",
                "json", "fractions", "decimal", "shutil")
PACKAGE = sorted((ROOT / "src" / "superdenom").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"
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
    """The SLOW_IMPORTS that `python -S -c statement` leaves loaded.

    They are read from the last line of the child's output, so the
    statement may print lines of its own.
    """
    probe = "%s\nimport sys\nprint(*(m for m in %r if m in sys.modules))" \
        % (statement, SLOW_IMPORTS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1].split()


def test_import_check_flags_a_loaded_module():
    assert _slow_imports("import dataclasses") == ["dataclasses", "inspect",
                                                   "re"]
    assert _slow_imports("import json") == ["re", "json"]
    assert _slow_imports("print('re json')\nimport math") == []


def test_cli_import_skips_slow_modules():
    assert _slow_imports("import superdenom.cli") == []


def test_build_and_verify_runs_skip_slow_modules():
    runs = [["build", "--family", "GL", "--m", "2", "--n", "1"]] + [
        ["verify", *system, "--height", "4", "--output", "json"]
        for system in (["--family", "GL", "--m", "2", "--n", "1"],
                       ["--family", "D", "--m", "2", "--n", "1"],
                       ["--family", "B", "--m", "1", "--n", "1"])]
    statement = "from superdenom.cli import main\n" + "".join(
        "assert main(%r) == 0\n" % argv for argv in runs)
    assert _slow_imports(statement) == []


def _hard_lookups(source: str) -> list:
    """The names a tracer source looks up with no default.

    Each `originals["..."]` subscript with a literal key, and each entry
    of the `METHODS` table as layer.Class.method.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "originals" \
                and isinstance(node.slice, ast.Constant):
            names.add(node.slice.value)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "METHODS"
                for t in node.targets):
            names.update("%s.%s" % (layer, method) for layer, methods
                         in ast.literal_eval(node.value).items()
                         for method in methods)
    return sorted(names)


def _resolves(name: str) -> bool:
    """Is layer.function a public function defined in superdenom.layer,
    or layer.Class.method a method defined on that module's class?"""
    layer, *path = name.split(".")
    module = importlib.import_module("superdenom." + layer)
    obj = vars(module).get(path[0])
    if len(path) == 1:
        return not path[0].startswith("_") and inspect.isfunction(obj) \
            and obj.__module__ == module.__name__
    return isinstance(obj, type) and path[1] in vars(obj)


def test_lookup_scan_finds_subscripts_and_methods():
    source = ('METHODS = {"series": ("FormalSeries.eq_report",)}\n'
              'a = originals["series.normalize"]\n'
              'b = originals[name]\n')
    assert _hard_lookups(source) == ["series.FormalSeries.eq_report",
                                     "series.normalize"]
    assert _resolves("series.normalize")
    assert _resolves("series.FormalSeries.eq_report")
    for missing in ("series.canonical_terms", "series._accumulate",
                    "series.FormalSeries.absent", "series.Weight"):
        assert not _resolves(missing)


def test_traced_benchmark_names_resolve():
    names = _hard_lookups(SPANS.read_text())
    assert {"series.normalize", "simple.SimpleSystem.cone_key"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []
