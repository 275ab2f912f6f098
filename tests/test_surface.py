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

Decision path: one function of cli runs both methods, the frequency-domain
analysis and the oracle, for check and solve alike.

Packing: the stationarity maps hold no Kronecker product, and the packing
layout _sym_layout has one packer (sym_pack_stack), one unpacker
(_grouped_blocks) and the two matrices built from it (sym_basis,
_identity_columns); sym_pack and sym_unpack go through the first two.

Certificate: one function of feasibility forms the pinned block B_i'Q_iB_i
(the one Gram product L'L there), and both cone searches, the oracle's
player_feasibility and nearest_params, call it; nearest_params cuts no slice
of its own.

One owner per check: LAPACK's gees is called by numerics._schur and its
workspace query alone, so every Hurwitz test reads _schur's form; one
function raises "player index ... out of range"; and nearest_params projects
onto the cones only inside its Douglas-Rachford step, whose y is its answer.

One owner for stability and the closed loop: numerics._unstable is the one
function that reads HURWITZ_MARGIN, so is_hurwitz, _require_hurwitz,
StrategyProfile.stabilizing, both PBH tests (_pbh_failures) and
RankViolation.boundary decide by it; and every player's reduced_system
returns, bitwise, the closed loop closed_loop sums (the matrix
StrategyProfile.stabilizing certified), on every tests/data fixture.
A_tilde_i is summed by one helper, realization.frozen_loop: reduced_system
returns it, and verify_nash and solve_coupled_are, which read A_tilde_i
alone, call it instead of reduced_system, so they sum no closed loop they
drop.

One JSON library both ways: cli._read_json is the one function that calls
orjson.loads, json.load or json.loads, and cli.dumps_report the one that
calls orjson.dumps; src holds no json.dumps and no "%.12e".  So one function
decides how an input file is parsed, and one how a report is written.

README: its Library example runs and prints what its comments state, and
its tolerance table has one row for each module-level constant.
"""

import ast
import re
from pathlib import Path

import numpy as np

import nashinduce
from nashinduce.cli import load_problem
from nashinduce.realization import closed_loop, reduced_system

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
    "feasibility.solve_feasibility_projection(players)": "cli._decide passes the players "
                                                         "check lists (--player)",
    "feasibility.solve_feasibility_projection(mode)": "cli._decide passes solve's --mode",
    "forward.CostParameters.validate(tol)": "verify_nash passes --tol; nearest_params passes NEAREST_INPUT_TOL",
    "forward.verify_nash(tol)": "cmd_solve and cmd_verify pass --tol",
    "forward.solve_coupled_are(gain_tol)": "perfbench's ladder generator (LADDER_SOLVER_ARGS)",
    "forward.solve_coupled_are(max_sweeps)": "perfbench's ladder generator (LADDER_SOLVER_ARGS)",
    "inverse.circle_criterion(frequencies)": "analyze_phi passes the probe frequencies it counts",
    "numerics.as_matrix(name)": "every caller names the block in its error message",
    "numerics.require_square(name)": "every caller names the block in its error message",
    "numerics.symmetrize(name)": "CostParameters names each block in its error message",
    "numerics.psd_project(floor)": "tests/conftest.py's reference loop_cone_project passes "
                                   "each block's floor",
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


def functions(module: str) -> list:
    """Every function definition of a production module, nested ones too."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]


def callers(module: str, name: str) -> set:
    """The functions of a module whose bodies call `name`."""
    return {fn.name for fn in functions(module) for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name}


def test_check_and_solve_decide_on_one_path():
    deciders = callers("cli", "analyze_player")
    assert len(deciders) == 1, f"more than one decision path in cli: {sorted(deciders)}"
    assert callers("cli", "solve_feasibility_projection") == deciders


def gram_products(module: str) -> set:
    """The functions of a module that form a Gram product X.T @ X of a name X."""
    return {fn.name for fn in functions(module) for node in ast.walk(fn)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.right, ast.Name) and isinstance(node.left, ast.Attribute)
            and node.left.attr == "T" and isinstance(node.left.value, ast.Name)
            and node.left.value.id == node.right.id}


def test_both_cone_searches_share_one_pinned_block():
    blocks = gram_products("feasibility")
    assert len(blocks) == 1, f"more than one pinned block in feasibility: {sorted(blocks)}"
    assert callers("feasibility", *blocks) == {"player_feasibility", "nearest_params"}
    assert "nearest_params" not in callers("feasibility", "affine_slice")


def test_stationarity_maps_are_packed_without_kronecker_products():
    assert "stationarity_maps" not in callers("feasibility", "kron")
    assert "stationarity_maps" not in callers("feasibility", "sym_basis")


def test_one_packer_and_one_unpacker():
    assert callers("numerics", "_sym_layout") == {
        "sym_pack_stack", "_grouped_blocks", "sym_basis", "_identity_columns"}


def own_nodes(fn):
    """The nodes of a function's body, not those of the functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def calls_own(fn, name: str) -> bool:
    """Whether a function's own body calls `name`, a bare name or an
    attribute (such as lapack.dgees)."""
    return any(isinstance(node, ast.Call) and name == (
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        for node in own_nodes(fn))


def owners(predicate) -> set:
    """The functions under src/nashinduce, as "module.function", for which
    predicate holds."""
    return {f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
            for fn in functions(path.stem) if predicate(fn)}


def test_one_gees_call_site():
    assert owners(lambda fn: calls_own(fn, "dgees")) == {"numerics._schur",
                                                         "numerics._schur_lwork"}


def test_one_json_reader():
    def calls_any(pairs):
        return lambda fn: any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                              and isinstance(node.func.value, ast.Name)
                              and (node.func.value.id, node.func.attr) in pairs
                              for node in own_nodes(fn))

    assert owners(calls_any({("orjson", "loads"), ("json", "load"), ("json", "loads")})) == {
        "cli._read_json"}
    assert owners(calls_any({("orjson", "dumps")})) == {"cli.dumps_report"}
    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert text.count("orjson.dumps") == 1
    assert "json.dumps" not in text.replace("orjson.dumps", "") and "%.12e" not in text


def test_one_player_index_check():
    def raises_player_index(fn):
        return any(isinstance(node, ast.Raise) and re.search(r"player index.*out of range", "".join(
            c.value for c in ast.walk(node) if isinstance(c, ast.Constant)
            and isinstance(c.value, str))) for node in own_nodes(fn))

    assert owners(raises_player_index) == {"realization._listed_players"}
    assert owners(lambda fn: calls_own(fn, "_listed_players")) == {
        "realization.reduced_system", "feasibility.build_vectorized_system",
        "feasibility.stationarity_maps", "feasibility.player_feasibility",
        "feasibility.solve_feasibility_projection"}


def test_nearest_params_projects_onto_the_cones_only_in_its_step():
    nearest = next(fn for fn in functions("feasibility") if fn.name == "nearest_params")
    projecting = {fn.name for fn in ast.walk(nearest)
                  if isinstance(fn, ast.FunctionDef) and calls_own(fn, "cone_project")}
    assert projecting == {"step"}


def test_one_stability_predicate():
    def reads_margin(fn):
        return any(isinstance(node, ast.Name) and node.id == "HURWITZ_MARGIN"
                   for node in own_nodes(fn))

    assert owners(reads_margin) == {"numerics._unstable"}


def test_every_player_reads_the_certified_closed_loop():
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        system, profile, _, _ = load_problem(str(path))
        Acl = closed_loop(system, profile.K)
        for i in range(system.num_players):
            assert np.array_equal(reduced_system(system, profile, i)[1], Acl), (path.name, i)


def test_a_tilde_has_one_helper():
    assert owners(lambda fn: calls_own(fn, "frozen_loop")) == {
        "realization.reduced_system", "forward.verify_nash", "forward.solve_coupled_are"}
    assert not owners(lambda fn: calls_own(fn, "reduced_system")) & {
        "forward.verify_nash", "forward.solve_coupled_are"}


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
