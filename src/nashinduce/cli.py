"""Command-line front end.

Subcommands: check (inducibility verdict with cross-validation), solve
(recover cost matrices), verify (exact Nash check for supplied costs),
example (write a bundled problem file).

Exit codes: 0 inducible / verified, 1 not inducible / not verified,
2 input error, 3 numerical failure, 4 the two methods disagree.  check and
solve decide in two steps, _frequency_step (each listed player's circle and
rank tests, which build the player's Riccati Hamiltonian where its pinned
block is definite) and _oracle_step (the closed form's costs from those
Hamiltonians, or the search, and the one Nash check of a whole game's
answer).  check runs both and decides by the first determinate verdict,
frequency domain first, reporting a frequency stage's numerical failure as
frequency_error {player, stage, reason} and exiting 3 only when neither
method is determinate.  The tests are necessary and
sufficient, so solve runs the oracle only where every player passes them,
and exits 3 on any numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import sys
import time

import numpy as np
import orjson

from .forward import CostParameters, verify_nash
from .feasibility import (
    FeasibilityResult,
    KalmanSolution,
    nearest_params,
    solve_feasibility_projection,
)
from .inverse import analyze_player, riccati_costs
from .numerics import NASH_TOL, DimensionError, NumericalFailureError, StageError, _norm
from .problems import BUNDLED
from .realization import GameSystem, StrategyProfile, _listed_players


class InputError(ValueError):
    """Problem-file error with a field-precise message."""


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _as_json(obj):
    """What orjson cannot write itself: an array it refuses (0-d, or not
    C-contiguous) as its .tolist(); any other type is an error."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj) -> str:
    """A report as JSON text, in one orjson call: fields in their order, each
    float as its shortest round-trip text (it parses back to the value
    computed), a non-finite one as null (JSON has no inf or nan), report
    matrices from their arrays, and one final newline."""
    return orjson.dumps(obj, default=_as_json, option=orjson.OPT_SERIALIZE_NUMPY).decode() + "\n"


# ---------------------------------------------------------------------------
# Problem ingestion
# ---------------------------------------------------------------------------

# orjson recurses on the C stack once per nesting level: a list 150 000 deep
# overflows an 8 MB stack and kills the process.  A file's count of "[" and
# "{" bytes bounds its depth, so one holding more than this goes to json alone.
ORJSON_MAX_OPENERS = 10_000


def _matrix(node, path, rows=None, cols=None):
    """node, a JSON nested list, as a float matrix.  A string or boolean
    entry is no number, though numpy reads "1.0" and true as floats; a row
    mixing numbers and booleans parses to a numeric dtype and is read as
    numbers (true as 1), since telling it apart takes a walk of every entry."""
    try:
        M = np.asarray(node)
        if M.dtype.kind in "bU":
            np.asarray(node, dtype=float)  # float() names a string it rejects
            raise TypeError(f"JSON {'strings' if M.dtype.kind == 'U' else 'booleans'}"
                            " are not numbers")
        M = M.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: not a numeric matrix ({exc})") from exc
    if M.ndim != 2:
        raise InputError(f"{path}: expected a nested-list matrix")
    if not M.size:
        raise InputError(f"{path}: is empty")
    if rows is not None and M.shape[0] != rows:
        raise InputError(f"{path}: has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise InputError(f"{path}: has {M.shape[1]} columns, expected {cols}")
    if not np.isfinite(M).all():  # _read_json reads NaN, Infinity and 1e400
        raise InputError(f"{path}: has non-finite entries")
    return M


def _read_json(path: str):
    """The JSON value of the file at path, the one parse of every input file.
    Its bytes are read once and parsed by orjson, unless they hold more than
    ORJSON_MAX_OPENERS "[" and "{".  Text orjson rejects, or does not get, is
    parsed from the same bytes by the standard library, as
    open(path, encoding="utf-8") and json.load read it (UTF-8, universal
    newlines).  That path stays because only it gives these answers: NaN,
    Infinity and numbers beyond the float range, which orjson refuses, reach
    _matrix's finite-entry check under their field's name; a syntax error is
    named by json's line and column; an undecodable byte raises its
    UnicodeDecodeError.  Nesting too deep for its recursion (about 1000
    levels, which orjson parses) is an input error naming the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # "[" | 0x20 is "{", and no other byte maps to it.
    if np.count_nonzero((np.frombuffer(data, np.uint8) | 0x20) == ord("{")) <= ORJSON_MAX_OPENERS:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: nested too deeply to parse") from exc


def _per_player(node, path, N):
    """node as a list with one entry per player."""
    if not isinstance(node, list) or len(node) != N:
        raise InputError(f"{path}: must list one entry per player ({N})")
    return node


def load_problem(path: str):
    """Parse a problem file into (system, profile, costs_or_None, tol)."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise InputError(f"{path}: top level must be an object")
    if raw.get("schema_version") != "1":
        raise InputError('schema_version: must be the string "1"')
    if "A" not in raw:
        raise InputError("A: missing")
    A = _matrix(raw["A"], "A")
    if A.shape[0] != A.shape[1]:
        raise InputError("A: must be square")
    n = A.shape[0]
    players = raw.get("players")
    if not isinstance(players, list) or not players:
        raise InputError("players: must be a non-empty list")
    N = len(players)
    Bs, Ks, Qs, Rrows = [], [], [], []
    for i, pl in enumerate(players):
        if not isinstance(pl, dict):
            raise InputError(f"players[{i}]: must be an object")
        if "B" not in pl:
            raise InputError(f"players[{i}].B: missing")
        B = _matrix(pl["B"], f"players[{i}].B", rows=n)
        if "K_dagger" not in pl:
            raise InputError(f"players[{i}].K_dagger: missing")
        K = _matrix(pl["K_dagger"], f"players[{i}].K_dagger", rows=B.shape[1], cols=n)
        Bs.append(B)
        Ks.append(K)
        Qs.append(_matrix(pl["Q"], f"players[{i}].Q", rows=n, cols=n)
                  if "Q" in pl else None)
        if "R_row" in pl:
            row = _per_player(pl["R_row"], f"players[{i}].R_row", N)
            Rrows.append([_matrix(row[j], f"players[{i}].R_row[{j}]")
                          for j in range(N)])
        else:
            Rrows.append(None)
    system = GameSystem(A, Bs)  # a ValueError here is an input error in main
    profile = StrategyProfile.stabilizing(system, Ks)
    has_costs = [Qs[i] is not None and Rrows[i] is not None for i in range(N)]
    costs = None
    if all(has_costs):
        for i in range(N):
            for j in range(N):
                if Rrows[i][j].shape != (system.m[j], system.m[j]):
                    raise InputError(
                        f"players[{i}].R_row[{j}]: has shape "
                        f"{Rrows[i][j].shape}, expected {(system.m[j], system.m[j])}")
        costs = CostParameters(Qs, Rrows)
    elif any(has_costs) or any(Qs[i] is not None or Rrows[i] is not None for i in range(N)):
        raise InputError("players: Q and R_row must be supplied for every player or none")
    tol = raw.get("tol", NASH_TOL)
    if type(tol) not in (int, float) or not 0 <= tol <= sys.float_info.max:
        raise InputError("tol: must be a finite number >= 0")
    return system, profile, costs, float(tol)


def load_costs(path: str, system: GameSystem) -> CostParameters:
    """Parse a standalone cost file: {"Q": [...], "R": [[...]]} per player."""
    raw = _read_json(path)
    N = system.num_players
    if not isinstance(raw, dict) or "Q" not in raw or "R" not in raw:
        raise InputError(f"{path}: expected object with Q and R")
    Q = _per_player(raw["Q"], "Q", N)
    R = [_per_player(row, f"R[{i}]", N) for i, row in enumerate(_per_player(raw["R"], "R", N))]
    Qs = [_matrix(Q[i], f"Q[{i}]", rows=system.n, cols=system.n) for i in range(N)]
    Rs = [[_matrix(R[i][j], f"R[{i}][{j}]",
                   rows=system.m[j], cols=system.m[j]) for j in range(N)]
          for i in range(N)]
    return CostParameters(Qs, Rs)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

_FREQUENCY_FIELDS = ("circle_ok", "circle_witness", "p", "rank_ok")


def _player_report(index, pa, kalman):
    """One player's report; pa is a StageError when its frequency stages failed."""
    kal = None if kalman is None else {
        "status": kalman.status,
        "residual": float(kalman.residual),
        "kernel_dim": None if kalman.kernel_dim is None else int(kalman.kernel_dim),
        "psd_ok": bool(kalman.psd_ok),
        "Q": kalman.Q,
        "R": kalman.R,
    }
    if isinstance(pa, StageError):
        return {"index": index, **dict.fromkeys(_FREQUENCY_FIELDS),
                "rank_certificates": [], "kalman": kal}
    violations = [{
        "s0_re": float(np.real(v.s0)),
        "s0_im": float(np.imag(v.s0)),
        "boundary": bool(v.boundary),
        "x_re": np.real(v.x).tolist(),
        "x_im": np.imag(v.x).tolist(),
    } for v in pa.violations]
    return {
        "index": index,
        "circle_ok": bool(pa.circle_ok),
        "circle_witness": pa.circle_witness,
        "p": int(pa.p),
        "rank_ok": bool(pa.rank_ok),
        "rank_certificates": violations,
        "kalman": kal,
    }


def _diagnostics(oracle, analyses, declined):
    """Loop iterations and gaps of the Kalman searches (None when the oracle
    did not run), the circle criterion's probe count per player (None for a
    player whose frequency stages failed), where the closed form declined
    some player each player's reason (kalman_declined), and where the oracle
    answers with costs each player's method (kalman_method)."""
    kalmans = oracle.solutions if oracle else None
    return {"kalman_iterations": kalmans and [k.iterations for k in kalmans],
            "kalman_gaps": kalmans and [k.gap for k in kalmans],
            "circle_probes": [None if isinstance(pa, StageError) else pa.probes
                              for pa in analyses],
            **({"kalman_declined": declined} if declined else {}),
            **({"kalman_method": [k.method for k in kalmans]}
               if oracle and oracle.status == "feasible" else {})}


# The time-domain verdict of the oracle's status (solve_feasibility_projection).
_ORACLE_VERDICT = {"feasible": "inducible", "infeasible_certified_by_identity": "not_inducible",
                   "indeterminate": "indeterminate"}


def _frequency_step(system, profile, players):
    """Per listed player its PlayerAnalysis or the StageError its stages
    raised, the verdict (not_inducible where a player fails the circle or
    rank test, else "error" where a stage failed) and the seconds taken."""
    t0 = time.perf_counter()
    analyses = []
    for i in players:
        try:
            analyses.append(analyze_player(system, profile, i))
        except StageError as exc:
            analyses.append(exc)
    passed = [pa.inducible for pa in analyses if not isinstance(pa, StageError)]
    verdict = ("not_inducible" if not all(passed) else
               "error" if len(passed) < len(analyses) else "inducible")
    return analyses, verdict, time.perf_counter() - t0


def _oracle_step(system, profile, players, analyses, mode, verdict_frequency, tol):
    """The oracle's FeasibilityResult on the listed players, each player's
    reason where the closed form declined one (else None), the CertificateSet
    of its Nash check (None where none ran) and the seconds taken; its
    StageError propagates.  Where every player is listed and every frequency
    verdict is inducible, the costs are the closed form's (R_ii = I) if no
    player's analysis holds a record that declines, each built by
    inverse.riccati_costs from that record, else every player's search in
    `mode` (building none), and they are checked for Nash once, at tol:
    each player then holds the costs checked, the residual rule
    stationarity residual / max(1, |(Q_i, R_ii)|_F) and status "solved",
    or "indeterminate", as the oracle, where it fails.
    Elsewhere the oracle is the search of every listed player, unchecked."""
    t0 = time.perf_counter()
    whole = len(players) == system.num_players and verdict_frequency == "inducible"
    declined = [pa.riccati.declined for pa in analyses] if whole else None
    found = None
    if whole and not any(declined):
        declined = None
        costs = CostParameters.identity_R([riccati_costs(pa.riccati) for pa in analyses], system.m)
    else:
        found = solve_feasibility_projection(system, profile, players, mode)
        if not whole or found.status != "feasible":
            return found, declined, None, time.perf_counter() - t0
        costs = CostParameters.diagonal_R([k.Q for k in found.solutions],
                                          [k.R for k in found.solutions])
    ok, cert = verify_nash(system, profile, costs, tol=tol)
    solutions = []
    for i, r in enumerate(cert.stationarity_residuals):
        Q, R = costs.Q[i], costs.R[i][i]
        fields = {"Q": Q, "R": R, "residual": float(r) / max(1.0, math.hypot(_norm(Q), _norm(R))),
                  "status": "solved" if ok else "indeterminate"}
        solutions.append(KalmanSolution(**fields, kernel_dim=None, method="riccati")
                         if found is None else dataclasses.replace(found.solutions[i], **fields))
    oracle = FeasibilityResult("feasible" if ok else "indeterminate", tuple(solutions))
    return oracle, declined, cert, time.perf_counter() - t0


def _write_report(report, args):
    if args.format == "text":
        out = _format_text(report)
    else:
        out = dumps_report(report)
    if args.output:
        _write_file(args.output, out)
    else:
        sys.stdout.write(out)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _format_text(report, indent=0, key=None) -> str:
    """The report as indented text: one line per field, ended by a newline.
    An array is rendered as its .tolist(), inside a list too."""
    if key is None:
        return "".join(_format_text(v, 0, k) + "\n" for k, v in report.items())
    pad = "  " * indent
    head = f"{pad}{key}: "
    if isinstance(report, dict):
        return "\n".join([f"{pad}{key}:"]
                         + [_format_text(v, indent + 1, k) for k, v in report.items()])
    if isinstance(report, np.ndarray):
        report = report.tolist()
    if isinstance(report, list):
        report = [v.tolist() if isinstance(v, np.ndarray) else v for v in report]
        if not report:
            return f"{head}[]"
        if all(isinstance(v, (int, float, str, bool)) or v is None for v in report):
            return head + "[" + ", ".join(
                f"{v:.6g}" if isinstance(v, float) else str(v) for v in report) + "]"
        if all(isinstance(v, list)
               and all(isinstance(w, (int, float)) for w in v) for v in report):
            rows = ["[" + ", ".join(f"{w:.6g}" for w in v) + "]" for v in report]
            return head + "[" + "; ".join(rows) + "]"
        return "\n".join([f"{pad}{key}:"] + [_format_text(v, indent + 1, "-") for v in report])
    if isinstance(report, float):
        return f"{head}{report:.6g}"
    return f"{head}{report}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _final_tol(args, file_tol: float) -> float:
    if not 0 <= args.tol < math.inf:
        raise InputError("--tol: must be a finite number >= 0")
    return max(file_tol, args.tol)


def cmd_check(args) -> int:
    system, profile, _, tol = load_problem(args.problem)
    try:
        indices = _listed_players(system, None if args.player is None else [args.player])
    except DimensionError as exc:
        raise InputError(f"--player {args.player}: out of range") from exc
    analyses, verdict_freq, t_freq = _frequency_step(system, profile, indices)
    oracle, declined, cert, t_oracle = (None, None, None, 0.0) if args.no_oracle else _oracle_step(
        system, profile, indices, analyses, "general", verdict_freq, max(tol, NASH_TOL))
    verdict_oracle = "skipped" if oracle is None else _ORACLE_VERDICT[oracle.status]
    error = next((pa for pa in analyses if isinstance(pa, StageError)), None)
    freq_error = None if error is None else {"player": error.player, "stage": error.stage,
                                             "reason": error.reason}
    warnings = [w for pa in analyses for w in
                ([f"frequency domain failed: {pa}"] if isinstance(pa, StageError)
                 else pa.warnings)]
    if cert is not None and verdict_oracle == "indeterminate":
        warnings.append("the oracle's costs failed the Nash check: largest residual "
                        f"{max(cert.are_residuals + cert.stationarity_residuals):.3g}, "
                        f"bound {cert.residual_bound:.3g}")
    if verdict_oracle == "indeterminate":
        warnings.append("time-domain oracle did not reach a determinate verdict")
    kalmans = oracle.solutions if oracle else [None] * len(indices)

    determinate = {"inducible", "not_inducible"}
    disagreement = (verdict_freq in determinate and verdict_oracle in determinate
                    and verdict_freq != verdict_oracle)
    report = {
        "verdict_frequency": verdict_freq,
        "verdict_oracle": verdict_oracle,
        "disagreement": disagreement,
        "frequency_error": freq_error,
        "players": [_player_report(i, pa, k) for i, pa, k in zip(indices, analyses, kalmans)],
        "warnings": warnings,
        "timings_ms": {"frequency": round(1000 * t_freq, 3),
                       "oracle": round(1000 * t_oracle, 3)},
        "diagnostics": _diagnostics(oracle, analyses, declined),
    }
    _write_report(report, args)
    if disagreement:
        return 4
    verdicts = [v for v in (verdict_freq, verdict_oracle) if v in determinate]
    if not verdicts:
        print("error: no method reached a determinate verdict", file=sys.stderr)
        return 3
    return 0 if verdicts[0] == "inducible" else 1


def cmd_solve(args) -> int:
    system, profile, _, tol = load_problem(args.problem)
    tol = _final_tol(args, tol)
    if args.nearest:
        if args.mode == "q-only":
            raise InputError("--nearest searches R freely: --mode q-only does not apply")
        costs0 = load_costs(args.nearest, system)
        res = nearest_params(costs0, system, profile)
        report = {
            "status": res.status,
            "distance": float(res.distance),
            "players": [
                {"index": i,
                 "Q": res.costs.Q[i],
                 "R_row": list(res.costs.R[i])}
                for i in range(system.num_players)
            ] if res.costs is not None else [],
            "diagnostics": {"nearest_iterations": list(res.iterations),
                            "nearest_gaps": list(res.gaps)},
        }
        _write_report(report, args)
        return 0 if res.status == "feasible" else 1

    players = range(system.num_players)
    analyses, verdict_freq, _ = _frequency_step(system, profile, players)
    for pa in analyses:
        if isinstance(pa, StageError):
            raise pa
    oracle = declined = cert = None
    if verdict_freq == "inducible":
        oracle, declined, cert, _ = _oracle_step(system, profile, players, analyses, args.mode,
                                                 verdict_freq, tol)
    kalmans = oracle.solutions if oracle else [None] * len(analyses)
    diagnostics = _diagnostics(oracle, analyses, declined)
    if cert is None:
        # The first player a test fails, else the first a search certifies, else the
        # first it left undecided.
        failed = (min((k.status == "indeterminate", i) for i, k in enumerate(kalmans)
                      if k.status != "solved")[1] if oracle
                  else next(i for i, pa in enumerate(analyses) if not pa.inducible))
        pa, status = analyses[failed], oracle and kalmans[failed].status
        report = {
            "status": "indeterminate" if status == "indeterminate" else "infeasible",
            "failing_player": failed,
            "circle_ok": bool(pa.circle_ok),
            "circle_witness": pa.circle_witness,
            "phi_at_witness": pa.circle_gap,
            "rank_ok": bool(pa.rank_ok),
            "kalman_status": status,
            "players": [_player_report(p.index, p, k) for p, k in zip(analyses, kalmans)],
            "diagnostics": diagnostics,
        }
        _write_report(report, args)
        return 1

    ok = oracle.status == "feasible"
    report = {
        "status": "solved" if ok else "verification_failed",
        "players": [
            {"index": i,
             "Q": k.Q,
             "R": k.R,
             "P": cert.P[i],
             "kalman_residual": k.residual,
             "are_residual": float(cert.are_residuals[i]),
             "stationarity_residual": float(cert.stationarity_residuals[i])}
            for i, k in enumerate(kalmans)
        ],
        "verify_ok": bool(ok),
        "diagnostics": {**diagnostics, "scale": cert.scale,
                        "residual_bound": cert.residual_bound, "psd_tol": cert.psd_tol},
    }
    _write_report(report, args)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    system, profile, costs, tol = load_problem(args.problem)
    if costs is None:
        raise InputError("players: Q and R_row required for verify")
    ok, cert = verify_nash(system, profile, costs, tol=_final_tol(args, tol))
    report = {
        "verified": bool(ok),
        "hurwitz_margin": float(cert.hurwitz_margin),
        "players": [
            {"index": i,
             "P": cert.P[i],
             "are_residual": float(cert.are_residuals[i]),
             "stationarity_residual": float(cert.stationarity_residuals[i]),
             "P_psd": bool(cert.psd_ok[i])}
            for i in range(system.num_players)
        ],
        "diagnostics": {"scale": cert.scale, "residual_bound": cert.residual_bound,
                        "psd_tol": cert.psd_tol},
    }
    _write_report(report, args)
    return 0 if ok else 1


def cmd_example(args) -> int:
    if args.name not in BUNDLED:
        raise InputError(
            f"unknown example {args.name!r}; choose from {sorted(BUNDLED)}")
    path = args.output or f"{args.name}.json"
    _write_file(path, BUNDLED[args.name])
    print(f"wrote {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="nashinduce",
        description="Decide whether a feedback profile can be made a Nash "
                    "equilibrium of a linear-quadratic differential game.")
    sub = ap.add_subparsers(dest="command", required=True)

    def tol_option(p, note=""):
        p.add_argument("--tol", type=float, default=NASH_TOL,
                       help="residual tolerance of the final Nash check, a finite number >= 0; "
                            "the larger of this and the problem file's tol is used" + note)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("-o", "--output", default=None,
                       help="write the report to this path instead of stdout")

    pc = sub.add_parser(
        "check", help="inducibility verdict with cross-validation",
        description="Frequency-domain verdict and time-domain oracle side by side. Where "
                    "every player is listed and passes the frequency tests, the oracle takes "
                    "the costs of the Kalman equation's closed form (R_ii = I), or where it "
                    "declines a player (diagnostics.kalman_declined) searches every player's, "
                    "and checks them for Nash once, at the larger of the problem file's tol "
                    f"and {NASH_TOL:g} (a failed check is indeterminate); elsewhere it "
                    "searches every listed player's costs. diagnostics.kalman_method names "
                    "each player's method. Exit 0 "
                    "inducible, 1 not inducible, 4 the methods disagree, 3 neither is "
                    "determinate. A player failing a test decides its method; else a "
                    "frequency stage that fails numerically makes verdict_frequency \"error\" "
                    "(frequency_error names the player, stage and reason): the oracle decides.")
    pc.add_argument("problem")
    common(pc)
    pc.add_argument("--no-oracle", action="store_true",
                    help="skip the time-domain oracle (the closed form or the cone search): "
                         "each player's kalman and the kalman diagnostics are null")
    pc.add_argument("--player", type=int, default=None,
                    help="restrict both methods, frequency domain and oracle, to one player "
                         "(on a game of several players the oracle then searches)")

    ps = sub.add_parser(
        "solve", help="recover Nash-inducing cost matrices",
        description="Where a frequency test fails, answer \"infeasible\" (the kalman fields "
                    "null). Else take each player's costs from the Kalman equation in closed "
                    "form (R_ii = I) where it applies to every player, else search every "
                    "player's costs (diagnostics.kalman_declined says why), and check them "
                    "for Nash once. diagnostics.kalman_method names each player's method. "
                    "Exit 0 with status \"solved\", else 1: \"verification_failed\", "
                    "\"infeasible\", or \"indeterminate\" where a search stopped without a "
                    "verdict (at failing_player).")
    ps.add_argument("problem")
    common(ps)
    tol_option(ps, " (--nearest runs no final Nash check and ignores it)")
    ps.add_argument("--mode", choices=("q-only", "general"), default="general",
                    help="how the costs are searched where the closed form declines a "
                         "player: q-only pins "
                         "R_ii to I and searches Q_i; general searches Q_i and R_ii together "
                         "(the closed form's R_ii is I in both). --nearest always searches R "
                         "freely, so --nearest with --mode q-only is an input error")
    ps.add_argument("--nearest", default=None, metavar="COSTS0_JSON",
                    help="project these reference costs onto the feasible set (R "
                         "searched freely, no final Nash check)")

    pv = sub.add_parser("verify", help="exact Nash check for supplied costs")
    pv.add_argument("problem")
    common(pv)
    tol_option(pv)

    pe = sub.add_parser("example", help="write a bundled problem file")
    pe.add_argument("name")
    pe.add_argument("-o", "--output", default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so a cmd_* wrapped after the parser was built still runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    # First: numpy's LinAlgError subclasses ValueError, an input error's type.
    except (NumericalFailureError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # InputError, or a library input check
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
