"""Source hygiene: no library module imports a name it never uses.

Package ``__init__.py`` files are exempt, since importing a name there is
how it is re-exported.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flashlab"


def unused_imports(source):
    """Names bound by import statements in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_passes_used():
    src = "import math\nimport os.path\nfrom x import a, b as c\nos.path.join(c)\n"
    assert unused_imports(src) == [(1, "math"), (3, "a")]


def test_no_unused_imports_in_library_modules():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = [f"{p.relative_to(SRC)}:{line}: {name}"
             for p in modules
             for line, name in unused_imports(p.read_text())]
    assert found == []
