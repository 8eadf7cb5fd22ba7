"""The package's public names, and static rules on the handlers in src/."""

import ast
from pathlib import Path

import seqscreen

SRC = Path(seqscreen.__file__).resolve().parent

PUBLIC = {
    "__version__",
    # errors
    "ToolkitError", "DomainError", "EvaluationError", "QuadratureError",
    "IntegrabilityError", "ConstructionError", "SelfCheckError",
    "DensityUnderflowError", "NearEndpointError", "LoadError",
    # numerics
    "Interval", "DerivativeEstimate", "integrate", "integrate_many",
    "differentiate", "scan_violations", "invert_monotone",
    # model_core
    "GridSpec", "ToleranceConfig", "DEFAULT_GRID", "DEFAULT_TOLERANCES",
    "resolve_config", "SignalDistribution", "UniformSignal", "BetaSignal",
    "TableSignal", "ValuationKernel", "AdditiveNoiseKernel", "PowerKernel",
    "ExpTiltKernel", "TableKernel", "ScreeningModel", "KernelEval",
    "ModelValidation", "eval_kernel", "conditional_mean",
    "conditional_mean_derivative", "conditional_mean_many",
    "conditional_mean_derivative_many", "validate_model", "make_signal",
    "make_kernel",
    # modelfile
    "load", "loads", "dumps",
    # regularity
    "hazard", "gamma", "virtual_value", "Field2D", "compute_field",
    "CheckReport", "check_assumption", "RegularityReport",
    "regularity_report", "CHECK_CODES", "FIELD_NAMES",
    # transforms
    "RELABELING_KINDS", "Relabeling", "make_relabeling", "TransformedModel",
    "apply_relabeling", "relabel", "transform_section",
    "rebuild_from_section",
    # propositions
    "DeltaField", "delta_diagnostic", "PropositionReport", "verify_prop1",
    "verify_prop2", "verify_prop3", "verify",
}


def test_public_names_are_pinned_and_resolve():
    assert len(seqscreen.__all__) == len(set(seqscreen.__all__))
    assert set(seqscreen.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(seqscreen, name) is not None, name


def _caught(handler: ast.ExceptHandler) -> list[str]:
    kinds = handler.type
    elts = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return [ast.unparse(e) for e in elts]


def test_no_handler_catches_everything():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                found.append(f"{path.name}:{node.lineno}: bare except")
            elif {"Exception", "BaseException"} & set(_caught(node)):
                found.append(f"{path.name}:{node.lineno}: "
                             f"except {ast.unparse(node.type)}")
    assert found == []


def test_only_the_kernel_readers_choose_array_or_scalar():
    """``_exact_arrays`` (whether a kernel's class has its own array
    fields) is named only inside ``ValuationKernel``, whose readers make the
    choice for every caller, and ``eval_kernel``, the scalar route, is
    called only by ``ValuationKernel._read`` and the scalar ``gamma``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if (path.name, getattr(top, "name", None)) == ("model_core.py",
                                                           "ValuationKernel"):
                continue
            for node in ast.walk(top):
                named = (getattr(node, "attr", None), getattr(node, "id", None),
                         getattr(node, "name", None))
                if "_exact_arrays" in named:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []

    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                owner = getattr(fn, "name", None)
                if fn is not top:
                    owner = f"{top.name}.{owner}"
                for node in ast.walk(fn):
                    func = getattr(node, "func", None)
                    if "eval_kernel" in (getattr(func, "id", None),
                                         getattr(func, "attr", None)):
                        callers.add((path.name, owner))
    assert callers == {("model_core.py", "ValuationKernel._read"),
                       ("regularity.py", "gamma")}


def test_only_the_point_helper_catches_inside_a_loop():
    """A point-by-point replay goes through ``numerics._pointwise``, which
    states the order, the recorded exceptions and the fill once; no other
    function has a ``try`` inside a ``for`` loop, except these loops, which
    replay no points."""
    allowed = {
        ("numerics.py", "_pointwise"),
        ("model_core.py", "validate_model"),  # the recorded checks
        ("modelfile.py", "_float_tokens"),  # the first bad token
        ("propositions.py", "verify_prop1"),  # one relabeling per kind
    }
    found = set()

    def visit(node, path, owner, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name, False)
                continue
            if in_loop and isinstance(child, ast.Try):
                found.add((path.name, owner))
            visit(child, path, owner,
                  in_loop or isinstance(child, (ast.For, ast.AsyncFor)))

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None, False)
    assert found - allowed == set()
    assert allowed <= found  # no stale entry


def test_only_the_listed_functions_catch_numeric_causes():
    """An ``except`` naming ``NUMERIC_CAUSES`` turns an array call that
    failed into a point-by-point replay, a recorded failure or a message.
    Only these functions have one, each for the reason given, and no entry
    is stale. A replay that would only choose which error is raised has no
    place here: the array call's own error stands."""
    allowed = {
        # each integral of a failed round is retried in a call of its own
        # and records its own failure
        ("numerics.py", "_gk15"),
        # names the stencil point whose evaluation failed
        ("numerics.py", "_probe"),
        # a power block whose cdf overflows goes pair by pair, and a pair
        # that fails is left out of the comparison
        ("propositions.py", "_translation_gaps"),
        # a numeric failure no evaluator named exits 2
        ("cli.py", "main"),
    }
    found = set()

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if (isinstance(child, ast.ExceptHandler) and child.type
                    and "NUMERIC_CAUSES" in _caught(child)):
                found.add((path.name, owner))
            visit(child, path, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert found - allowed == set()
    assert allowed <= found  # no stale entry


def _imported_names(name: str) -> set[str]:
    """Every name the module ``name`` imports from another module."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_relabelings_and_suite_2_use_no_scalar_evaluators():
    """Relabelings, their self-check and suite 2's shifted cdf read array
    forms alone, so each array call's own error stands: ``transforms``
    imports no scalar evaluator, stencil or point-by-point replay, and
    ``propositions`` no stencil probe."""
    assert _imported_names("transforms.py") & {
        "hazard", "gamma", "virtual_value", "eval_kernel", "differentiate",
        "_pointwise", "invert_monotone", "NUMERIC_CAUSES"} == set()
    assert _imported_names("propositions.py") & {
        "_probe", "differentiate"} == set()


def _run_on_import(tree: ast.Module):
    """Every node of a module that runs when it is imported: all but the
    bodies of its functions."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_the_suites_and_transforms_load_on_first_use():
    """``__init__``, ``cli`` and ``modelfile`` import neither
    ``propositions`` nor ``transforms`` when they load, so a command that
    calls neither does not compile them; the functions that need one import
    it themselves."""
    lazy = {"propositions", "transforms"}
    found = []
    for name in ("__init__.py", "cli.py", "modelfile.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in _run_on_import(tree):
            if isinstance(node, ast.ImportFrom):
                named = {(node.module or "").split(".")[-1]}
                if node.module is None:  # from . import transforms
                    named = {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                named = {alias.name.split(".")[-1] for alias in node.names}
            else:
                continue
            if named & lazy:
                found.append(f"{name}:{node.lineno}")
    assert found == []
