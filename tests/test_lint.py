"""Source checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import spinorsheaf

PACKAGE = Path(spinorsheaf.__file__).resolve().parent


def test_package_modules_found():
    names = {p.name for p in PACKAGE.glob("*.py")}
    assert {"exactalg.py", "spinor.py", "homalg.py", "verify.py"} <= names


def test_no_assert_statements():
    # python -O strips asserts; a package check must raise a typed error
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_broad_except_clauses():
    # a package error is caught by its own type; "except Exception" or a
    # bare "except:" would also hide programming errors
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(t is None or (isinstance(t, ast.Name)
                                     and t.id in ("Exception", "BaseException"))
                       for t in names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _unused_imports(tree):
    """Names a module imports but never reads or lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # a deleted helper must not leave its imports behind
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == []


def test_unused_import_check_reads_all_and_attributes():
    tree = ast.parse("import os\nimport sys\nfrom a import b, c as d\n"
                     "__all__ = ['b']\nos.getcwd()\n")
    assert _unused_imports(tree) == [(2, "sys"), (3, "d")]
