"""Source hygiene: no library or test module imports a name it never uses,
the CLI starts up without ``scipy.stats``, only ``trace.py`` turns
sectors into pages, only ``grid.py`` turns voltages into steps, no
library function takes a ``tables`` or ``grid`` argument, every library
function, class and method is reached from a
CLI workflow or is a named reference that some test module calls, every
definition of the tests' ``reference`` module feeds some test and no
library module imports a test module, every defaulted
library setting is set by some library or benchmark call (a setting that
only tests vary is a module constant they patch), every name a package
re-exports is imported through that package somewhere, and every function
or method the benchmark's tracer wraps by name exists.

Package ``__init__.py`` files are exempt from the import check, since
importing a name there is how it is re-exported.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flashlab"
TESTS = ROOT / "tests"
BENCH = ROOT / "bench"


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


def rounding_calls(source):
    """Lines of ``source`` that call ``round``, or ``rint``, ``round`` or
    ``around`` as an attribute (``np.rint``)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "round"
                 or getattr(node.func, "attr", None) in ("rint", "round",
                                                         "around"))]


def test_rounding_detector_finds_every_spelling():
    src = ("a = round(x)\nb = np.rint(x)\nc = np.round(x, 2)\n"
           "d = numpy.around(x)\ne = rounding(x)  # round(x)\n")
    assert rounding_calls(src) == [1, 2, 3, 4]


# Modules that round a number that is not a voltage, each with why.
ROUNDING_ALLOWED = {
    "cli.py": "prints a lifetime to one decimal",
    "urt.py": "AccelLog counts the whole chunks in a tick",
}


def test_only_the_grid_module_rounds_voltages_to_steps():
    # grid.round_to_step is the one voltage-to-step rule; a second
    # rounding call could read some policy's ties at another step
    rounding = sorted(str(p.relative_to(SRC)) for p in SRC.glob("**/*.py")
                      if rounding_calls(p.read_text()))
    assert rounding == sorted(ROUNDING_ALLOWED)


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
    "controller.ftl.Drive.audit": "FTL invariant check the FTL tests run",
    "controller.ftl.Drive.host_write": "one-page host write the FTL tests "
                                       "drive; bench/tracer.py times it "
                                       "until D1 times host_writes",
    "controller.ftl.Drive.host_read": "one-page host read (and Drive.reads, "
                                      "its count) that the FTL tests drive "
                                      "and bench/tracer.py times; the "
                                      "replay models no read effect",
    "urt.urt_predict": "one URT output, which the URT tests check and "
                       "bench/tracer.py times until D1",
}


def library_modules():
    return {".".join(p.relative_to(SRC).with_suffix("").parts)
            .removesuffix(".__init__"): p.read_text()
            for p in sorted(SRC.glob("**/*.py"))}


def library_definitions():
    return definitions(library_modules())


def cli_roots(defs):
    return ["cli.main"] + [q for q in defs if q.startswith("cli.cmd_")]


def test_every_library_definition_feeds_a_workflow_or_a_reference():
    defs = library_definitions()
    assert unreached(defs, cli_roots(defs) + list(REFERENCE_ROOTS)) == []


def test_reference_roots_name_definitions_no_workflow_reaches():
    defs = library_definitions()
    assert set(REFERENCE_ROOTS) <= set(defs)
    assert set(REFERENCE_ROOTS) <= set(unreached(defs, cli_roots(defs)))


def test_every_reference_root_is_called_by_a_test_module():
    # a kept root that no test calls is dead code, not a reference
    calls = calls_by_name(p.read_text() for p in sorted(TESTS.glob("test_*.py")))
    assert [q for q in REFERENCE_ROOTS if q.rsplit(".", 1)[1] not in calls] == []


# Reference code the tests check the library against lives in this test
# helper module, not in src/.
REFERENCE = TESTS / "reference.py"


def unread_definitions(module, readers):
    """Definitions of ``module`` (source) that no source in ``readers``
    reaches, in definition order: the roots are the definitions whose
    bare name a reader reads (a method's only if its class's is read too),
    and reach spreads inside the module as in ``unreached``."""
    defs = definitions({"reference": module})
    read = set().union(*(names_read(ast.parse(src)) for src in readers))
    return unreached(defs, [q for q, (owner, name, _) in defs.items()
                            if name in read
                            and (owner is None or defs[owner][1] in read)])


def test_unread_detector_flags_definitions_no_reader_reaches():
    module = ("def used():\n    return helper()\n"
              "def helper():\n    pass\n"
              "def dead():\n    return helper()\n"
              "class Box:\n    def go(self):\n        pass\n")
    readers = ["from reference import used, Box, dead\nused()\nBox()\n"]
    assert unread_definitions(module, readers) == ["reference.dead",
                                                   "reference.Box.go"]
    assert unread_definitions(module, readers + ["Box().go()\n"]) == [
        "reference.dead"]


def test_every_reference_definition_is_read_by_a_test_module():
    # no dead fixture: each helper feeds some test
    readers = [p.read_text() for p in sorted(TESTS.glob("*.py"))
               if p != REFERENCE]
    assert unread_definitions(REFERENCE.read_text(), readers) == []


def imported_packages(source):
    """Top-level name of every module ``source`` imports absolutely."""
    tree = ast.parse(source)
    return ({alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
            | {node.module.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 0})


def test_import_detector_skips_relative_imports():
    src = ("import os.path\nfrom reference import x\nfrom . import y\n"
           "from .grid import z\nimport tests.reference as r\n")
    assert imported_packages(src) == {"os", "reference", "tests"}


def test_no_library_module_imports_a_test_module():
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    hits = [f"{p.relative_to(SRC)}: {name}" for p in sorted(SRC.glob("**/*.py"))
            for name in sorted(imported_packages(p.read_text()) & test_modules)]
    assert hits == []


def decorator_names(node):
    """Bare names of a definition's decorators, called or not."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for d in node.decorator_list
            for n in [d.func if isinstance(d, ast.Call) else d]
            if isinstance(n, (ast.Name, ast.Attribute))}


def defaulted_settings(modules):
    """Every defaulted parameter of a top-level function or method, and
    every defaulted dataclass field, of ``modules`` ({dotted name:
    source}), as {qualified name: (call name, positional index or None)}.

    A field, like a parameter of ``__init__``, is set by calling its
    class, and is named ``module.Class.field``; a method's index leaves
    out ``self``. A keyword-only parameter has no positional index.
    """
    out = {}

    def params(fn, qual, call, skip):
        a = fn.args
        pos = a.posonlyargs + a.args
        for i in range(len(pos) - len(a.defaults), len(pos)):
            out[f"{qual}.{pos[i].arg}"] = (call, i - skip)
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out[f"{qual}.{arg.arg}"] = (call, None)

    for mod, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                params(node, f"{mod}.{node.name}", node.name, 0)
            elif isinstance(node, ast.ClassDef):
                cls = f"{mod}.{node.name}"
                if "dataclass" in decorator_names(node):
                    fields = [item for item in node.body
                              if isinstance(item, ast.AnnAssign)]
                    for i, item in enumerate(fields):
                        if item.value is not None:
                            out[f"{cls}.{item.target.id}"] = (node.name, i)
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    skip = 0 if "staticmethod" in decorator_names(item) else 1
                    if item.name == "__init__":
                        params(item, cls, node.name, skip)
                    else:
                        params(item, f"{cls}.{item.name}", item.name, skip)
    return out


def calls_by_name(sources):
    """{bare name called: [(positional count, keywords, has *args or
    **kw)]} over every call in ``sources``."""
    out = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not isinstance(f, (ast.Name, ast.Attribute)):
                continue
            star = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
            out.setdefault(f.id if isinstance(f, ast.Name) else f.attr, []).append(
                (len(node.args), {k.arg for k in node.keywords}, star))
    return out


def unset_settings(modules, call_sources):
    """Settings of ``modules`` that no call in ``call_sources`` sets, in
    definition order. A call is matched by its bare name, whatever it is
    called through; it sets a setting by keyword or by position, and a
    call with ``*args`` or ``**kw`` sets every one."""
    calls = calls_by_name(call_sources)
    return [q for q, (call, index) in defaulted_settings(modules).items()
            if not any(star or q.rsplit(".", 1)[1] in keywords
                       or (index is not None and n_pos > index)
                       for n_pos, keywords, star in calls.get(call, []))]


def test_unset_detector_flags_only_settings_no_call_sets(tmp_path):
    modules = {"lib": "def f(a, b=1, *, c=2, d=3):\n    pass\n"
                      "@dataclass\n"
                      "class Cfg:\n    x: int\n    y: int = 0\n    z: int = 1\n"
                      "class Plain:\n    w: int = 9\n"
                      "class Box:\n"
                      "    def __init__(self, n=4):\n        pass\n"
                      "    def go(self, k=5, j=6):\n        pass\n"
                      "    @staticmethod\n"
                      "    def make(m=7):\n        pass\n"
                      "def g(u=8):\n    pass\n"}
    calls = ["f(0, 1)\nf(0, c=2)\nlib.Cfg(1, 2)\nBox(n=1).go(1)\n"
             "Box.make(0)\ng(*args)\n"]
    assert unset_settings(modules, calls) == ["lib.f.d", "lib.Cfg.z",
                                              "lib.Box.go.j"]
    # a call with **kw sets every setting of its name
    assert unset_settings(modules, calls + ["f(**kw)\nCfg(**kw)\n"]) == [
        "lib.Box.go.j"]
    # only calls under src/ and bench/ count: the test's call sets q, yet q
    # stays unset
    modules = {"lib": "def h(p=1, q=2):\n    pass\n"}
    for tree, source in (("src", modules["lib"]), ("bench", "h(p=0)\n"),
                         ("tests", "h(q=0)\n")):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "m.py").write_text(source)
    callers = call_sources([tmp_path / "src", tmp_path / "bench"])
    assert unset_settings(modules, callers) == ["lib.h.q"]
    tests = call_sources([tmp_path / "tests"])
    assert unset_settings(modules, callers + tests) == []


# Defaulted settings that no library or benchmark call sets yet and that
# stay on purpose, with why: the ROADMAP direction that will set them, or
# the benchmark code that reads them. Every other default in src/ is a
# value some call changes, or it is a module constant.
KEPT_DEFAULTS = {
    "controller.refresh.RefreshConfig.include_hot":
        "bench/tracer.py's refresh-scan hook reads it",
}


def call_sources(trees):
    """The source of every module under ``trees``."""
    return [p.read_text() for tree in trees for p in sorted(tree.glob("**/*.py"))]


def unset_library_settings():
    # a setting that only a test varies is a module constant the test
    # patches, so calls from tests/ do not count
    return unset_settings(library_modules(), call_sources([SRC, BENCH]))


def test_every_library_setting_is_set_by_some_call():
    unset = unset_library_settings()
    assert [q for q in unset if q not in KEPT_DEFAULTS] == []


def test_kept_defaults_name_settings_no_call_sets():
    assert set(KEPT_DEFAULTS) <= set(unset_library_settings())
    assert [q for q, why in KEPT_DEFAULTS.items()
            if not re.search(r"Direction \d+|bench/tracer\.py", why)] == []


def test_tracer_reasons_name_what_the_tracer_reads():
    # an entry kept because bench/tracer.py uses it must go once the
    # tracer no longer names it
    source = (BENCH / "tracer.py").read_text()
    cited = [q for q, why in {**REFERENCE_ROOTS, **KEPT_DEFAULTS}.items()
             if "bench/tracer.py" in why]
    assert [q for q in cited if not re.search(
        rf"\b{q.rsplit('.', 1)[1]}\b", source)] == []


def from_imports(source, package):
    """(module, name) of every ``from`` import in ``source``, with a
    relative module resolved against ``package``, the package the source
    sits in."""
    parts = package.split(".") if package else []
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            out |= {(module, alias.asname or alias.name) for alias in node.names}
    return out


def unused_reexports(inits, importers):
    """Names a package's ``__init__`` imports that no importer imports
    through that package, as ``package.name``, sorted.

    inits: {package: its __init__ source}; importers: (source, the
    package it sits in) pairs.
    """
    through = set().union(*(from_imports(src, pkg) for src, pkg in importers))
    return sorted(f"{pkg}.{name}" for pkg, src in inits.items()
                  for _, name in from_imports(src, pkg)
                  if (pkg, name) not in through)


def test_reexport_detector_flags_names_no_importer_takes():
    inits = {"lib": "from .core import Box, helper\nfrom .aux import spare\n",
             "lib.sub": "from .deep import item, other\nfrom ..core import Box\n"}
    importers = [("from lib import Box\n", ""),
                 ("from .sub import item\n", "lib"),
                 ("from .. import helper\n", "lib.sub"),
                 ("from lib.sub import Box\nfrom lib.core import spare\n", "")]
    assert unused_reexports(inits, importers) == ["lib.spare", "lib.sub.other"]


def test_every_reexport_is_imported_through_its_package():
    # a package re-exports a name only for code that imports it from
    # there, the benchmark harness included
    def package(path):
        return ".".join(("flashlab",) + path.relative_to(SRC).parent.parts)

    inits = {package(p): p.read_text() for p in sorted(SRC.glob("**/__init__.py"))}
    importers = [(p.read_text(), package(p)) for p in sorted(SRC.glob("**/*.py"))]
    importers += [(p.read_text(), "")
                  for tree in (TESTS, BENCH) for p in sorted(tree.glob("*.py"))]
    assert unused_reexports(inits, importers) == []


def flashlab_imports(tree):
    """Local name -> dotted path of every ``from flashlab... import``."""
    return {alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "flashlab"
            for alias in node.names}


def patch_targets(source):
    """(line, object, attribute) of every ``patch_fn(obj, "name")`` and
    ``patch_method(obj, "name")`` call in ``source``, and of every direct
    rebind, ``orig = obj.name`` or ``obj.name = ...`` with ``obj`` rooted
    at a name imported from flashlab, in line order; the object is its
    source text. A name given by the variable of a ``for`` over a tuple
    of strings is each of them; any other name is None."""
    tree = ast.parse(source)
    imported = flashlab_imports(tree)
    loops = {node.target.id: [e.value for e in node.iter.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and isinstance(node.iter, (ast.Tuple, ast.List))}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("patch_fn", "patch_method")):
            obj, name = node.args[0], node.args[1]
            names = ([name.value] if isinstance(name, ast.Constant)
                     else loops.get(getattr(name, "id", None), [None]))
            out += [(node.lineno, ast.unparse(obj), n) for n in names]
        elif isinstance(node, ast.Assign):
            out += [(node.lineno, ast.unparse(attr.value), attr.attr)
                    for attr in [*node.targets, node.value]
                    if isinstance(attr, ast.Attribute)
                    and ast.unparse(attr).split(".")[0] in imported]
    return sorted(out, key=lambda t: t[0])


def resolve(dotted):
    """The object a dotted path names: the longest importable module
    prefix, then attributes; None if an attribute is missing."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part, None)
        return obj
    return None


def missing_patch_targets(source):
    """``object.attribute`` of every patch target in ``source`` that is not
    an attribute of the flashlab object it names, the object resolved
    through ``source``'s ``from flashlab... import`` statements."""
    imported = flashlab_imports(ast.parse(source))
    missing = []
    for _, obj, name in patch_targets(source):
        root, _, rest = obj.partition(".")
        target = resolve(".".join(filter(None, (imported.get(root), rest))))
        if name is None or target is None or not hasattr(target, name):
            missing.append(f"{obj}.{name}")
    return missing


def test_patch_target_detector_flags_missing_and_passes_present():
    src = ("from flashlab import urt as u\n"
           "from flashlab.controller import heatwatch\n"
           "patch_fn(u, 'urt_predict', name='urt')\n"
           "patch_method(u.AccelLog, 'update')\n"
           "patch_method(u.Gone, 'update')\n"
           "for attr in ('truth_models', 'gone'):\n"
           "    patch_fn(heatwatch, attr)\n"
           "patch_fn(u, some_name)\n"
           "orig = u.AccelLog.update\n"
           "u.AccelLog.update = wrapped\n"
           "orig_gone = heatwatch.gone_fn\n"
           "self.clock = time.perf_counter\n")
    assert [t[1:] for t in patch_targets(src)] == [
        ("u", "urt_predict"), ("u.AccelLog", "update"), ("u.Gone", "update"),
        ("heatwatch", "truth_models"), ("heatwatch", "gone"), ("u", None),
        ("u.AccelLog", "update"), ("u.AccelLog", "update"),
        ("heatwatch", "gone_fn")]
    assert missing_patch_targets(src) == ["u.Gone.update", "heatwatch.gone",
                                          "u.None", "heatwatch.gone_fn"]


def test_every_benchmark_patch_target_exists():
    # bench/tracer.py wraps these by name for the traced benchmark pass; a
    # renamed or deleted one fails that pass with an AttributeError
    source = (BENCH / "tracer.py").read_text()
    assert len(patch_targets(source)) > 20
    assert missing_patch_targets(source) == []
