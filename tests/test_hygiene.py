"""Source hygiene: no library or test module imports a name it never uses,
the CLI starts up without ``scipy.stats``, only ``trace.py`` turns
sectors into pages, no library function takes a ``tables`` or ``grid``
argument, and every library function, class and method is reached from a
CLI workflow or is a named reference that the tests check other code
against.

Package ``__init__.py`` files are exempt from the import check, since
importing a name there is how it is re-exported.
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
    # kernels read default_tables() themselves; and every layer reads the
    # one read-retry step axis from the grid module's constants
    hits = [f"{p.relative_to(SRC)}:{hit}" for p in sorted(SRC.glob("**/*.py"))
            for name in ("tables", "grid")
            for hit in parameters_named(p.read_text(), name)]
    assert hits == []


def definitions(modules):
    """Top-level functions, classes, methods and assignments of
    ``modules`` ({dotted name: source}), as {qualified name: (owning
    class or None, bare name, names its body reads)}.

    A class's own reads are its bases, decorators and class-level
    statements; each method is a definition of its own.
    """
    defs = {}
    for mod, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{mod}.{node.name}"] = (None, node.name, names_read(node))
            elif isinstance(node, ast.ClassDef):
                cls = f"{mod}.{node.name}"
                own = node.bases + node.keywords + node.decorator_list
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[f"{cls}.{item.name}"] = (cls, item.name,
                                                      names_read(item))
                    else:
                        own.append(item)
                defs[cls] = (None, node.name, set().union(*map(names_read, own)))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in names_bound(target):
                        defs[f"{mod}.{name}"] = (None, name,
                                                 names_read(node.value))
    return defs


def names_bound(target):
    """Names an assignment target binds; storing into an attribute or an
    item of a name (``A.flags.writeable = False``) binds none."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return names_bound(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in names_bound(elt)]
    return []


def names_read(node):
    """Every ``Name`` id and ``Attribute`` attr under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreached(defs, roots):
    """Definitions not reached from ``roots``, in definition order.

    Reach follows bare names, whatever module or class they are read
    through, so it over-approximates: a definition is reached once a
    reached body reads its name, a method only once its class is reached
    too, and a dunder method with its class.
    """
    reached = set(roots)
    names = set().union(*(defs[r][2] for r in roots))
    grew = True
    while grew:
        grew = False
        for q, (owner, name, reads) in defs.items():
            if q in reached:
                continue
            dunder = name.startswith("__") and name.endswith("__")
            if owner is None:
                hit = name in names
            else:
                hit = owner in reached and (name in names or dunder)
            if hit:
                reached.add(q)
                names |= reads
                grew = True
    return [q for q in defs if q not in reached]


def test_reach_detector_flags_unreached_and_passes_reached():
    modules = {
        "cli": "def main():\n    return cmd_run()\n"
               "def cmd_run():\n    return lib.helper().go()\n",
        "lib": "LIMIT = cap()\n"
               "LIMIT.flag = None\n"
               "def cap():\n    return 1\n"
               "def helper():\n    return Box()\n"
               "class Box:\n"
               "    def __init__(self):\n        self.n = LIMIT\n"
               "    def go(self):\n        return self.n\n"
               "    def stale(self):\n        pass\n"
               "class Ghost:\n"
               "    def go(self):\n        pass\n"
               "def orphan():\n    return helper()\n"
               "def checked():\n    return helper_of_checked()\n"
               "def helper_of_checked():\n    pass\n",
    }
    defs = definitions(modules)
    roots = ["cli.main", "cli.cmd_run"]
    # Box.go is reached, Ghost.go is not: its class is never read
    assert unreached(defs, roots) == [
        "lib.Box.stale", "lib.Ghost.go", "lib.Ghost", "lib.orphan",
        "lib.checked", "lib.helper_of_checked"]
    assert unreached(defs, roots + ["lib.checked"]) == [
        "lib.Box.stale", "lib.Ghost.go", "lib.Ghost", "lib.orphan"]


# Library code that no workflow reaches and that stays on purpose, with
# why. Everything else in src/ feeds a CLI workflow or goes.
REFERENCE_ROOTS = {
    "channel.sample_page": "Monte Carlo cell population the analytic RBER "
                           "and the fits are checked against",
    "channel.measure_rber": "sampled RBER that estimate_rber is checked against",
    "channel.bin_cells": "histograms of sampled populations for the fit tests",
    "channel.export_histogram_csv": "writes the histogram CSV that fit reads",
    "trace.synth_hot": "seeded skewed trace the replay and CLI tests drive",
    "models.fitting.load_models_json": "reads back fit's model.json, pinning "
                                       "its format",
    "models.fitting.dynamic_from_dict": "reads back fit's dynamic.json, "
                                        "pinning its format",
    "models.applications.estimate_lifetime": "lifetime from fitted models, "
                                             "part of the north star",
    "controller.ftl.Drive.audit": "FTL invariant check the FTL tests run",
    "raid_ecc.multirate_schedule": "builds the multi-rate ECC ladder the "
                                   "analytic calculus tests check",
    "urt.fit_ea": "URT calibration from characterization (ROADMAP Direction 9)",
    "urt.fit_pvm": "URT calibration from characterization (ROADMAP Direction 9)",
    "urt.fit_srrm": "URT calibration from characterization (ROADMAP Direction 9)",
    "urt.fine_tune": "online URT refit (ROADMAP Direction 9)",
    "degradation.sample_layer_profile": "3D-NAND layer variation "
                                        "(ROADMAP Direction 10)",
    "degradation.fit_gamma": "3D-NAND layer variation (ROADMAP Direction 10)",
    "raid_ecc.layout_worst_group": "LI-RAID worst-group scoring "
                                   "(ROADMAP Direction 10)",
}


def library_definitions():
    modules = {".".join(p.relative_to(SRC).with_suffix("").parts)
               .removesuffix(".__init__"): p.read_text()
               for p in sorted(SRC.glob("**/*.py"))}
    return definitions(modules)


def cli_roots(defs):
    return ["cli.main"] + [q for q in defs if q.startswith("cli.cmd_")]


def test_every_library_definition_feeds_a_workflow_or_a_reference():
    defs = library_definitions()
    assert unreached(defs, cli_roots(defs) + list(REFERENCE_ROOTS)) == []


def test_reference_roots_name_definitions_no_workflow_reaches():
    defs = library_definitions()
    assert set(REFERENCE_ROOTS) <= set(defs)
    assert set(REFERENCE_ROOTS) <= set(unreached(defs, cli_roots(defs)))
