import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import posetdegen


def test_no_assert_statements_in_library():
    # python -O strips asserts, so the library's bug traps must raise
    package = Path(posetdegen.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floating_point_in_library():
    # exact arithmetic only: no float literal and no float(...) call
    package = Path(posetdegen.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    assert found == []


PUBLIC_NAMES = {
    "Poset", "RelativeStructure", "antichain_poset", "build_flag_poset",
    "build_mrpp", "build_polytope", "build_poset", "canonical_interior_weight", "chain_poset",
    "chain_structure", "check_normality", "cone_position", "degeneration", "ehrhart_values",
    "enumerate_ideals", "errors", "flag", "flag_degeneration", "flag_polytope",
    "fundamental_decomposition", "ideal_presentation", "lattice", "linalg", "marked",
    "mcop_build", "mcop_recognize", "mrpp_subdivide", "order_structure", "polytopes", "posets",
    "standardize", "subdivide", "sublattice_to_order", "validate_relative_structure",
    "zhu_components",
}


def test_public_api_only_shrinks():
    # a new export has to be added here on purpose
    assert set(posetdegen.__all__) <= PUBLIC_NAMES


def test_public_names_are_the_explicit_list():
    # the lazily loaded modules' names resolve through the package's
    # __getattr__, so dir() lists and a star import binds every one of them
    assert posetdegen.__all__ == sorted(PUBLIC_NAMES)
    assert set(posetdegen.__all__) <= set(dir(posetdegen))
    namespace = {}
    exec("from posetdegen import *", namespace)
    assert set(posetdegen.__all__) <= namespace.keys()
    assert namespace["mcop_build"] is posetdegen.marked.mcop_build


def tracer_tables():
    """The SPANS and REQUIRED tables of the bench tracer, read as literals,
    not imported."""
    tracer = Path(__file__).parents[1] / "bench" / "tracer.py"
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "REQUIRED")
    }


def test_bench_spans_resolve_in_the_library():
    # the traced benchmark wraps each span by name and fails on one that a
    # refactor renamed away
    tables = tracer_tables()
    spans = tables["SPANS"]
    for name in spans:
        module, function = name.split(".")
        assert callable(getattr(import_module(f"posetdegen.{module}"), function, None)), name
    assert {span for required in tables["REQUIRED"].values() for span in required} <= set(spans)


def error_class_nodes():
    """The class definitions of errors.py, by name."""
    errors = Path(posetdegen.__file__).parent / "errors.py"
    tree = ast.parse(errors.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}


def test_every_error_class_is_raised_or_subclassed():
    # an error class left behind by a deleted check fails here: each class
    # of errors.py is raised or is a base class
    package = Path(posetdegen.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    classes = list(error_class_nodes())

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            used |= names(exc)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                used |= names(base)
    assert [name for name in classes if name not in used] == []


def test_no_validation_error_subclass_only_renames_its_base():
    # a subclass whose body holds at most a docstring or `pass` prints the
    # same `validation error: ...` line with the same exit code as
    # ValidationError, so a check raises ValidationError with its message
    classes = error_class_nodes()

    def validation(name):
        bases = [base.id for base in classes[name].bases if isinstance(base, ast.Name)]
        return "ValidationError" in bases or any(validation(b) for b in bases if b in classes)

    def empty(node):
        return all(isinstance(stmt, ast.Pass)
                   or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                   for stmt in node.body)

    assert [name for name, node in classes.items() if validation(name) and empty(node)] == []


LAZY_MODULES = ("flag", "jsontext", "linalg", "marked", "polytopes")

# Prints the lazy modules that have not run, after the import and after each
# command; reads no attribute of them, which would run them.
UNRUN_PROBE = """
import json, sys, types
import posetdegen.cli as cli

def unrun():
    return [name for name in {lazy!r}
            if type(sys.modules["posetdegen." + name]) is not types.ModuleType]

print(json.dumps(unrun()))
for argv in {commands!r}:
    if cli.main(argv) != 0:
        sys.exit(f"{{argv}} failed")
    print(json.dumps(unrun()))
for span in {spans!r}:
    module, function = span.split(".")
    if not callable(getattr(sys.modules["posetdegen." + module], function, None)):
        sys.exit(f"span {{span}} does not resolve")
"""


def unrun_after(tmp_path, commands):
    """The lazy modules that have not run in a fresh process, after
    `import posetdegen.cli` and after each command; then, in the same
    process, every span of the bench tracer must resolve as its install
    looks it up."""
    probe = UNRUN_PROBE.format(lazy=LAZY_MODULES, commands=commands,
                               spans=tracer_tables()["SPANS"])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    return list(map(json.loads, proc.stdout.splitlines()))


def test_unmarked_subdivide_runs_no_lazy_module(tmp_path):
    # the marked, flag, linear-algebra, polytope and writer modules are not
    # even compiled by an unmarked subdivide, walked or fine
    (tmp_path / "p.json").write_text('{"elements": ["a", "b"], "covers": []}')
    (tmp_path / "w.json").write_text('{"weights": {"": 0, "a": 0, "b": 0, "a,b": 1}}')
    (tmp_path / "z.json").write_text('{"weights": {}}')
    subdivide = ["--out", "r.json", "subdivide", "p.json", "--weights"]
    after = unrun_after(tmp_path, [subdivide + ["w.json"],
                                   subdivide + ["z.json", "--default-zero"]])
    assert after == [list(LAZY_MODULES)] * 3


def test_validate_runs_no_marked_flag_or_linalg_module(tmp_path):
    (tmp_path / "p.json").write_text('{"elements": ["a", "b"], "covers": [["a", "b"]]}')
    after = unrun_after(tmp_path, [["--out", "r.json", "validate", "p.json"]])
    assert {"flag", "linalg", "marked"} <= set(after[-1])
