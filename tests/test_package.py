"""Package-wide rules that no single module's tests would see broken."""

import ast
import sys
from pathlib import Path

import lxray

PACKAGE = Path(lxray.__file__).resolve().parent


def test_the_package_imports_only_the_standard_library():
    # relative imports stay inside lxray; every absolute one must name a
    # standard-library module, lxray itself or __future__
    allowed = set(sys.stdlib_module_names) | {"lxray", "__future__"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in allowed, f"{path.name}:{node.lineno} imports {name}"
