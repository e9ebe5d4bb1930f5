import ast
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
    "Poset", "RelativeStructure", "WeightVector", "antichain_poset", "build_flag_poset",
    "build_mrpp", "build_polytope", "build_poset", "canonical_interior_weight", "chain_poset",
    "chain_structure", "check_normality", "cone_position", "degeneration", "ehrhart_values",
    "enumerate_ideals", "errors", "flag", "flag_degeneration", "flag_polytope",
    "fundamental_decomposition", "ideal_presentation", "lattice", "linalg", "marked",
    "mcop_build", "mcop_recognize", "mrpp_subdivide", "order_structure", "polytopes", "posets",
    "standardize", "star", "subdivide", "sublattice_to_order", "validate_relative_structure",
    "zhu_components",
}


def test_public_api_only_shrinks():
    # a new export has to be added here on purpose
    assert set(posetdegen.__all__) <= PUBLIC_NAMES


def test_bench_spans_resolve_in_the_library():
    # the traced benchmark wraps each span by name and fails on one that a
    # refactor renamed away; its tables are read as literals, not imported
    tracer = Path(__file__).parents[1] / "bench" / "tracer.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "REQUIRED")
    }
    spans = tables["SPANS"]
    for name in spans:
        module, function = name.split(".")
        assert callable(getattr(import_module(f"posetdegen.{module}"), function, None)), name
    assert {span for required in tables["REQUIRED"].values() for span in required} <= set(spans)


def test_every_error_class_is_raised_or_subclassed():
    # an error class left behind by a deleted check fails here: each class
    # of errors.py is raised (directly, or handed to a helper that raises
    # it, as lattice's `fail(HeightDeficient, ...)`) or is a base class
    package = Path(posetdegen.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            used |= names(exc)
        elif isinstance(node, ast.Call):
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    used.add(arg.id)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                used |= names(base)
    assert [name for name in classes if name not in used] == []
