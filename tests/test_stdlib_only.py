"""The runtime uses the standard library only: every absolute import in the
``deceptsim`` package names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deceptsim"
# CPython's built-in SHA-256 module, under its name on each supported
# version: _sha256 up to 3.11, _sha2 from 3.12. sys.stdlib_module_names
# lists only the running version's.
STDLIB_ELSEWHERE = {"_sha256", "_sha2"}


def absolute_imports(path):
    """The top-level module names that ``path`` imports absolutely."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names | STDLIB_ELSEWHERE
    }
    assert not outside, f"imports outside the standard library: {sorted(outside)}"


def test_a_third_party_import_is_caught(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport numpy.linalg\nfrom yaml import safe_load\n"
                      "from . import engine\n", encoding="utf-8")
    assert list(absolute_imports(module)) == ["os", "numpy", "yaml"]
