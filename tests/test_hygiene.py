"""Source hygiene: no library or test module imports a name it never uses,
the CLI starts up without ``scipy.stats``, only ``trace.py`` turns
sectors into pages, and no library function takes a ``tables`` argument.

Package ``__init__.py`` files are exempt, since importing a name there is
how it is re-exported.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flashlab"
TESTS = ROOT / "tests"


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


def unused_imports_under(tree, pattern):
    """``unused_imports`` of every non-``__init__`` module ``pattern`` finds
    under ``tree``, as ``path:line: name``."""
    modules = sorted(p for p in tree.glob(pattern) if p.name != "__init__.py")
    assert modules
    return [f"{p.relative_to(tree)}:{line}: {name}"
            for p in modules
            for line, name in unused_imports(p.read_text())]


def test_no_unused_imports_in_library_modules():
    assert unused_imports_under(SRC, "**/*.py") == []


def test_no_unused_imports_in_test_modules():
    assert unused_imports_under(TESTS, "*.py") == []


def test_cli_start_up_does_not_import_scipy_stats():
    # A fresh interpreter: the test process itself has scipy.stats loaded.
    code = ("import sys, flashlab.cli\n"
            "from flashlab.models.tables import default_tables\n"
            "default_tables()\n"
            "print('scipy.stats' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_the_trace_module_names_sector_bytes():
    # Trace.page_spans is the one page-span rule; a second module that
    # converts sectors to pages would be a second rule
    naming = sorted(str(p.relative_to(SRC)) for p in SRC.glob("**/*.py")
                    if re.search(r"\bSECTOR_BYTES\b", p.read_text()))
    assert naming == ["trace.py"]


def parameters_named(source, name):
    """Functions and lambdas in ``source`` with a parameter ``name``, as
    ``line: function``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            if any(p.arg == name for p in params):
                hits.append(f"{node.lineno}: {getattr(node, 'name', 'lambda')}")
    return hits


def test_parameter_detector_finds_every_kind():
    src = ("def f(a, tables=None): pass\n"
           "def g(*, tables): pass\n"
           "h = lambda tables: 0\n"
           "def k(tab, **kw): pass\n")
    assert parameters_named(src, "tables") == ["1: f", "2: g", "3: lambda"]


def test_no_library_function_takes_tables():
    # the models layer evaluates each family one way: the Student's t
    # kernels read default_tables() themselves
    hits = [f"{p.relative_to(SRC)}:{hit}" for p in sorted(SRC.glob("**/*.py"))
            for hit in parameters_named(p.read_text(), "tables")]
    assert hits == []
