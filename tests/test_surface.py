"""Surface ratchets.

Parameters: the defaulted parameters of the package are exactly the
allow-list below, each with the caller that sets it.  A tolerance, cap or
margin that no caller sets is a constant of the module that reads it (or of
numerics' tolerance table when more than one module reads it), not a
parameter.  A new defaulted parameter fails here until its caller is named in
ALLOWED.

Imports: every name a module imports is used by it, apart from
UNUSED_IMPORTS, each with the reader that needs the binding.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nashinduce"

ITEM_3 = "leaves with ROADMAP item 3 (the polynomial route)"

ALLOWED = {
    "cli._matrix(rows)": "load_problem and load_costs check each matrix's shape",
    "cli._matrix(cols)": "load_problem and load_costs check each matrix's shape",
    "cli._format_text(indent)": "its own recursion into nested report fields",
    "cli._format_text(key)": "its own recursion into nested report fields",
    "cli.build_parser.tol_option(note)": "the solve parser adds its --nearest note",
    "cli.main(argv)": "tests and perfbench call main(argv) in-process",
    "feasibility.stationarity_maps(players)": "solve_feasibility_projection passes its players",
    "feasibility._kalman_map(M)": "player_feasibility passes the one-stack map",
    "feasibility.player_feasibility(mode)": "solve_feasibility_projection and solve_kalman_Q",
    "feasibility.player_feasibility(M)": "solve_feasibility_projection passes the one-stack map",
    "feasibility.solve_feasibility_projection(players)": "cmd_check passes the --player indices",
    "feasibility.solve_feasibility_projection(mode)": "cmd_solve passes --mode",
    "forward.CostParameters.validate(tol)": "verify_nash passes --tol; nearest_params passes 1e-6",
    "forward.CostParameters.validate.fails(pd)": "R_ii's positive-definite test",
    "forward.verify_nash(tol)": "cmd_solve and cmd_verify pass --tol",
    "forward.solve_coupled_are(gain_tol)": "perfbench's ladder generator (LADDER_SOLVER_ARGS)",
    "forward.solve_coupled_are(max_sweeps)": "perfbench's ladder generator (LADDER_SOLVER_ARGS)",
    "inverse.circle_criterion(frequencies)": "analyze_phi passes the probe frequencies it counts",
    "numerics.as_matrix(name)": "every caller names the block in its error message",
    "numerics.require_square(name)": "every caller names the block in its error message",
    "numerics.symmetrize(name)": "CostParameters names each block in its error message",
    "numerics.solve_lyapunov(with_margin)": "verify_nash reads the Hurwitz margin off the solve",
    "numerics.psd_project(floor)": "nearest_params passes each block's floor",
    "numerics.cone_ok(slack)": "cone_verdict passes the slack of a converged point",
    "numerics._anderson(tangent)": "project_affine_cone passes its affine set's directions",
    "polymat.poly_trim(tol)": ITEM_3,
    "polymat.is_zero_poly(tol)": ITEM_3,
    "polymat.PolyMatrix.is_zero(tol)": ITEM_3,
    "polymat.PolyMatrix.column_degrees(tol)": ITEM_3,
    "polymat.PolyMatrix.leading_column_matrix(tol)": ITEM_3,
    "polymat.PolyMatrix.is_column_reduced(tol)": ITEM_3,
    "polymat.PolyMatrix.poly_rank(tol)": ITEM_3,
    "polymat.PolyMatrix.allclose(tol)": ITEM_3,
    "polymat._trim_tensor(tol)": ITEM_3,
    "polymat.compress_columns(tol)": ITEM_3,
    "polymat.unimodular_det_constant(tol)": ITEM_3,
    "polymat.rhp_roots_poly(delta)": ITEM_3,
    "polymat.rhp_roots_matrix(delta)": ITEM_3,
    "polymat.rhp_roots_matrix(tol)": ITEM_3,
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
