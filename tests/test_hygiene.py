"""Import hygiene: every module of the package and of the tests uses each
name it imports.  `__init__.py` is skipped because it imports to re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "superdenom").glob("*.py")
                 if p.name != "__init__.py") \
    + sorted((ROOT / "tests").glob("*.py"))


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
