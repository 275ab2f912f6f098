"""Surface ratchets.

Parameters: the defaulted parameters of the package are exactly the
allow-list below, each with the caller that sets it.  A tolerance, cap or
margin that no caller sets is a constant of the module that reads it (or of
numerics' tolerance table when more than one module reads it), not a
parameter.  A new defaulted parameter fails here until its caller is named in
ALLOWED.

Imports: every name a module imports is used by it, apart from
UNUSED_IMPORTS, each with the reader that needs the binding.

Literals: no function body or signature default of the production modules
holds a tolerance-sized float literal; it is a named constant.

Exports: nashinduce.__all__ is the production API, the names a command runs
or a caller needs to build and read a game.

README: its Library example runs and prints what its comments state, and
its tolerance table has one row for each module-level constant.
"""

import ast
import re
from pathlib import Path

import nashinduce

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nashinduce"

ITEM_4 = "leaves with ROADMAP item 4 (the polynomial route)"

ALLOWED = {
    "cli._matrix(rows)": "load_problem and load_costs check each matrix's shape",
    "cli._matrix(cols)": "load_problem and load_costs check each matrix's shape",
    "cli._format_text(indent)": "its own recursion into nested report fields",
    "cli._format_text(key)": "its own recursion into nested report fields",
    "cli.build_parser.tol_option(note)": "the solve parser adds its --nearest note",
    "cli.main(argv)": "tests and perfbench call main(argv) in-process",
    "feasibility.stationarity_maps(players)": "solve_feasibility_projection passes its players",
    "feasibility.solve_feasibility_projection(players)": "cmd_check passes the --player indices",
    "feasibility.solve_feasibility_projection(mode)": "cmd_solve passes --mode",
    "forward.CostParameters.validate(tol)": "verify_nash passes --tol; nearest_params passes NEAREST_INPUT_TOL",
    "forward.verify_nash(tol)": "cmd_solve and cmd_verify pass --tol",
    "forward.solve_coupled_are(gain_tol)": "perfbench's ladder generator (LADDER_SOLVER_ARGS)",
    "forward.solve_coupled_are(max_sweeps)": "perfbench's ladder generator (LADDER_SOLVER_ARGS)",
    "inverse.circle_criterion(frequencies)": "analyze_phi passes the probe frequencies it counts",
    "numerics.as_matrix(name)": "every caller names the block in its error message",
    "numerics.require_square(name)": "every caller names the block in its error message",
    "numerics.symmetrize(name)": "CostParameters names each block in its error message",
    "numerics.solve_lyapunov(with_margin)": "verify_nash reads the Hurwitz margin off the solve",
    "numerics.psd_project(floor)": "tests/conftest.py's reference loop_cone_project passes "
                                   "each block's floor",
    "numerics.cone_ok(slack)": "cone_verdict passes the slack of a converged point",
    "numerics._anderson(tangent)": "project_affine_cone passes its affine set's directions",
    "polymat.poly_trim(tol)": ITEM_4,
    "polymat.is_zero_poly(tol)": ITEM_4,
    "polymat.PolyMatrix.is_zero(tol)": ITEM_4,
    "polymat.PolyMatrix.column_degrees(tol)": ITEM_4,
    "polymat.PolyMatrix.leading_column_matrix(tol)": ITEM_4,
    "polymat.PolyMatrix.is_column_reduced(tol)": ITEM_4,
    "polymat.PolyMatrix.poly_rank(tol)": ITEM_4,
    "polymat.PolyMatrix.allclose(tol)": ITEM_4,
    "polymat._trim_tensor(tol)": ITEM_4,
    "polymat.compress_columns(tol)": ITEM_4,
    "polymat.unimodular_det_constant(tol)": ITEM_4,
    "polymat.rhp_roots_poly(delta)": ITEM_4,
    "polymat.rhp_roots_matrix(delta)": ITEM_4,
    "polymat.rhp_roots_matrix(tol)": ITEM_4,
}


def defaulted_parameters() -> set:
    """Every parameter with a default, of every function and method under
    src/nashinduce (nested ones too), as "module.qualified_name(parameter)"."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found.update(f"{module}.{prefix}{child.name}({name})" for name in names)
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_defaulted_parameters_are_the_allow_list():
    found = defaulted_parameters()
    assert not found - ALLOWED.keys(), (
        f"defaulted parameters no caller is named for: {sorted(found - ALLOWED.keys())}; "
        "make each a named constant, or name its caller in ALLOWED")
    assert not ALLOWED.keys() - found, (
        f"gone from src, drop from ALLOWED: {sorted(ALLOWED.keys() - found)}")


UNUSED_IMPORTS = {
    "inverse.psd_project": "perfbench's tracing test reads nashinduce.inverse.psd_project "
                           "(until ROADMAP item 4 re-points it)",
}


def unused_imports() -> set:
    """Every name imported by a module under src/nashinduce (except
    __init__, which re-exports) that the module never references, as
    "module.name"."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.update(f"{path.stem}.{name}" for name in imported - used)
    return found


def test_every_import_is_used():
    assert unused_imports() == UNUSED_IMPORTS.keys()


LITERAL_MODULES = ("numerics", "feasibility", "forward", "cli")


def small_literals() -> set:
    """Every float literal of magnitude below 1e-2 (and not 0) inside a
    function body or a signature default of LITERAL_MODULES, as
    "module.function: value"."""
    found = set()
    for module in LITERAL_MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]
            for stmt in fn.body + defaults:
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Constant) and type(node.value) is float
                            and 0.0 < abs(node.value) < 1e-2):
                        found.add(f"{module}.{fn.name}: {node.value!r}")
    return found


def test_no_inline_tolerances():
    assert small_literals() == set()


PRODUCTION_API = [
    "CertificateSet", "CostParameters", "DimensionError", "FeasibilityResult", "GameSystem",
    "KalmanSolution", "NearestResult", "NumericalFailureError", "PlayerAnalysis",
    "RankViolation", "StrategyProfile", "analyze_player", "closed_loop",
    "coupled_are_residuals", "fold_cross_penalties", "is_stabilizing", "nearest_params",
    "newton_kleinman", "reduced_system", "solve_coupled_are", "solve_feasibility_projection",
    "unfold_cross_penalties", "verify_nash",
]


def test_exports_are_the_production_api():
    assert nashinduce.__all__ == PRODUCTION_API
    for name in nashinduce.__all__:
        assert getattr(nashinduce, name) is not None, name


def test_readme_library_example_runs():
    # Each bare expression of the example is followed by a comment whose first
    # word is the value's repr.
    text = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", text[text.index("## Library"):], re.S).group(1)
    lines = code.splitlines()
    namespace, shown = {}, []
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].partition("#")[2].split()[0]
            shown.append((source, repr(eval(source, namespace)), comment))
        else:
            exec(source, namespace)
    assert [(source, value) for source, value, _ in shown] == [
        ("analyze_player(system, profile, 0).inducible", "True"),
        ("oracle.status", "'feasible'"),
        ("oracle.solutions[0].Q", "array([[3.]])"),
    ]
    assert all(value == comment for _, value, comment in shown)


def module_constants() -> set:
    """Every module-level UPPER_CASE name bound under src/nashinduce (tuple
    targets too), as "module.NAME"; problems.py holds example data, not
    constants."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "problems.py":
            continue
        for node in ast.parse(path.read_text()).body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                found.update(f"{path.stem}.{name.id}" for name in ast.walk(target)
                             if isinstance(name, ast.Name)
                             and re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id))
    return found


def test_readme_tolerance_table_has_one_row_per_constant():
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| Constant | Value |"):].split("\n\n")[0].splitlines()[2:]
    named = [name for row in table
             for name in re.findall(r"`(\w+\.[A-Z][A-Z0-9_]*)`", row.split("|")[1])]
    assert len(named) == len(set(named)), f"named in more than one row: {sorted(named)}"
    constants = module_constants()
    assert not constants - set(named), f"no README row: {sorted(constants - set(named))}"
    assert not set(named) - constants, f"no such constant: {sorted(set(named) - constants)}"
