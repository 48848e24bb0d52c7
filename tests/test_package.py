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


def test_every_private_module_name_is_used_in_the_package():
    # a module-level _name serves only its package: one that nothing reads
    # is left over from code that is gone
    trees = [(path.name, ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))]
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    for name, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.endswith("__"):
                    assert private in used, f"{name}:{node.lineno} {private} is never read"
