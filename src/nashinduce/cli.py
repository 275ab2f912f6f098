"""Command-line front end.

Subcommands: check (inducibility verdict with cross-validation), solve
(recover cost matrices), verify (exact Nash check for supplied costs),
example (write a bundled problem file).

Exit codes: 0 inducible / verified, 1 not inducible / not verified,
2 input error, 3 numerical failure, 4 the two methods disagree.  check
decides by the first determinate verdict, frequency domain first; a
frequency stage that fails numerically is reported as
verdict_frequency "error" with frequency_error {player, stage, reason}, and
the oracle's verdict decides.  check exits 3 only when neither method is
determinate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .forward import CostParameters, verify_nash
from .feasibility import nearest_params, solve_feasibility_projection
from .inverse import analyze_player, phi_at_witness
from .numerics import NASH_TOL, NumericalFailureError, StageError
from .problems import BUNDLED
from .realization import GameSystem, StrategyProfile


class InputError(ValueError):
    """Problem-file error with a field-precise message."""


# ---------------------------------------------------------------------------
# Deterministic JSON emission: fixed field order, floats as %.12e, non-finite
# floats as null (JSON has no inf or nan)
# ---------------------------------------------------------------------------

_FLOAT = {float}


@functools.cache
def _row_format(k: int) -> str:
    """The %-format of a JSON row of k floats: "[%.12e, ..., %.12e]"."""
    return "[" + ", ".join(["%.12e"] * k) + "]"


def _emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append("%.12e" % float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for k, key in enumerate(obj):
            if k:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _emit(obj[key], parts)
        parts.append("}")
    elif (isinstance(obj, (list, tuple)) and set(map(type, obj)) == _FLOAT
          and math.isfinite(sum(obj))):
        # A row of finite floats, the bulk of a report: one format call for
        # the whole row.  A finite sum means every entry is finite; a row that
        # overflows the sum, or holds nan, inf or any other type, is emitted
        # value by value below, to the same text.
        parts.append(_row_format(len(obj)) % tuple(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj) -> str:
    parts = []
    _emit(obj, parts)
    return "".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Problem ingestion
# ---------------------------------------------------------------------------

def _matrix(node, path, rows=None, cols=None):
    try:
        M = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a numeric matrix ({exc})") from exc
    if M.ndim != 2:
        raise InputError(f"{path}: expected a nested-list matrix")
    if rows is not None and M.shape[0] != rows:
        raise InputError(f"{path}: has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise InputError(f"{path}: has {M.shape[1]} columns, expected {cols}")
    if not np.isfinite(M).all():  # json.load reads NaN, Infinity and -Infinity
        raise InputError(f"{path}: has non-finite entries")
    return M


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


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
    """One player's report; pa is None when its frequency stages failed."""
    kal = None
    if kalman is not None:
        kal = {
            "status": kalman.status,
            "residual": float(kalman.residual),
            "kernel_dim": int(kalman.kernel_dim),
            "psd_ok": bool(kalman.psd_ok),
            "Q": kalman.Q.tolist(),
            "R": kalman.R.tolist(),
        }
    if pa is None:
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
        "circle_witness": None if pa.circle_witness is None else float(pa.circle_witness),
        "p": int(pa.p),
        "rank_ok": bool(pa.rank_ok),
        "rank_certificates": violations,
        "kalman": kal,
    }


def _diagnostics(kalmans, analyses):
    """Loop iterations and gaps of the Kalman searches (None when none ran)
    and the circle criterion's probe count per player (None for a player
    whose frequency stages failed)."""
    if not kalmans:
        out = {"kalman_iterations": None, "kalman_gaps": None}
    else:
        out = {"kalman_iterations": [k.iterations for k in kalmans],
               "kalman_gaps": [k.gap for k in kalmans]}
    out["circle_probes"] = [None if pa is None else pa.probes for pa in analyses]
    return out


# The time-domain verdict of the oracle's status (solve_feasibility_projection).
_ORACLE_VERDICT = {"feasible": "inducible", "infeasible_certified_by_identity": "not_inducible",
                   "indeterminate": "indeterminate"}


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
    """The report as indented text: one line per field, ended by a newline."""
    if key is None:
        return "".join(_format_text(v, 0, k) + "\n" for k, v in report.items())
    pad = "  " * indent
    head = f"{pad}{key}: "
    if isinstance(report, dict):
        return "\n".join([f"{pad}{key}:"]
                         + [_format_text(v, indent + 1, k) for k, v in report.items()])
    if isinstance(report, list):
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
    system, profile, _, _ = load_problem(args.problem)
    if args.player is None:
        indices = list(range(system.num_players))
    elif 0 <= args.player < system.num_players:
        indices = [args.player]
    else:
        raise InputError(f"--player {args.player}: out of range")
    t0 = time.perf_counter()
    analyses, freq_error, warnings = [], None, []
    for i in indices:
        try:
            pa = analyze_player(system, profile, i)
        except StageError as exc:
            pa = None
            freq_error = freq_error or {"player": exc.player, "stage": exc.stage,
                                        "reason": exc.reason}
            warnings.append(f"frequency domain failed: {exc}")
        else:
            warnings.extend(pa.warnings)
        analyses.append(pa)
    verdict_freq = ("error" if freq_error else
                    "inducible" if all(pa.inducible for pa in analyses) else "not_inducible")
    t_freq = time.perf_counter() - t0

    t0 = time.perf_counter()
    kalmans = []
    if args.no_oracle:
        verdict_oracle = "skipped"
    else:
        oracle = solve_feasibility_projection(system, profile, indices)
        kalmans = oracle.solutions
        verdict_oracle = _ORACLE_VERDICT[oracle.status]
        if verdict_oracle == "indeterminate":
            warnings.append("time-domain oracle did not reach a determinate verdict")
    t_oracle = time.perf_counter() - t0

    determinate = {"inducible", "not_inducible"}
    disagreement = (verdict_freq in determinate and verdict_oracle in determinate
                    and verdict_freq != verdict_oracle)
    report = {
        "verdict_frequency": verdict_freq,
        "verdict_oracle": verdict_oracle,
        "disagreement": disagreement,
        "frequency_error": freq_error,
        "players": [_player_report(i, pa, k) for i, pa, k in
                    zip(indices, analyses, kalmans or [None] * len(indices))],
        "warnings": warnings,
        "timings_ms": {"frequency": round(1000 * t_freq, 3),
                       "oracle": round(1000 * t_oracle, 3)},
        "diagnostics": _diagnostics(kalmans, analyses),
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
                 "Q": res.costs.Q[i].tolist(),
                 "R_row": [Rij.tolist() for Rij in res.costs.R[i]]}
                for i in range(system.num_players)
            ] if res.costs is not None else [],
            "diagnostics": {"nearest_iterations": list(res.iterations),
                            "nearest_gaps": list(res.gaps)},
        }
        _write_report(report, args)
        return 0 if res.status == "feasible" else 1

    kalmans = solve_feasibility_projection(system, profile, mode=args.mode).solutions
    players = [analyze_player(system, profile, i) for i in range(system.num_players)]
    failed = next((i for i, (pa, k) in enumerate(zip(players, kalmans))
                   if k.status != "solved" or not pa.inducible), None)
    if failed is not None:
        pa, status = players[failed], kalmans[failed].status
        w = pa.circle_witness
        report = {
            "status": ("indeterminate" if pa.inducible and status == "indeterminate"
                       else "infeasible"),
            "failing_player": failed,
            "circle_ok": bool(pa.circle_ok),
            "circle_witness": None if w is None else float(w),
            "phi_at_witness": (None if w is None
                               else phi_at_witness(system, profile, failed, w)),
            "rank_ok": bool(pa.rank_ok),
            "kalman_status": status,
            "players": [_player_report(p.index, p, k) for p, k in zip(players, kalmans)],
            "diagnostics": _diagnostics(kalmans, players),
        }
        _write_report(report, args)
        return 1

    N = system.num_players
    costs = CostParameters.diagonal_R([k.Q for k in kalmans], [k.R for k in kalmans])
    ok, cert = verify_nash(system, profile, costs, tol=tol)
    report = {
        "status": "solved" if ok else "verification_failed",
        "players": [
            {"index": i,
             "Q": costs.Q[i].tolist(),
             "R": costs.R[i][i].tolist(),
             "P": cert.P[i].tolist(),
             "kalman_residual": float(kalmans[i].residual),
             "are_residual": float(cert.are_residuals[i]),
             "stationarity_residual": float(cert.stationarity_residuals[i])}
            for i in range(N)
        ],
        "verify_ok": bool(ok),
        "diagnostics": {**_diagnostics(kalmans, players), "scale": cert.scale,
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
             "P": cert.P[i].tolist(),
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
        description="Frequency-domain verdict and time-domain oracle side by side. Exit 0 "
                    "inducible, 1 not inducible, 4 the methods disagree, 3 neither is "
                    "determinate. A frequency stage that fails numerically is reported as "
                    "verdict_frequency \"error\" (frequency_error names the player, stage "
                    "and reason) and the oracle decides.")
    pc.add_argument("problem")
    common(pc)
    pc.add_argument("--no-oracle", action="store_true",
                    help="skip the time-domain oracle, the Kalman-equation cone search: "
                         "each player's kalman and the kalman diagnostics are null")
    pc.add_argument("--player", type=int, default=None,
                    help="restrict both methods, frequency domain and oracle, to one player")

    ps = sub.add_parser(
        "solve", help="recover Nash-inducing cost matrices",
        description="Search each player's costs, then check them for Nash. Exit 0 with "
                    "status \"solved\", else 1: \"verification_failed\", \"infeasible\" "
                    "at the first failing player, or \"indeterminate\" when that player's "
                    "frequency tests pass but its search stopped without a verdict.")
    ps.add_argument("problem")
    common(ps)
    tol_option(ps, " (--nearest runs no final Nash check and ignores it)")
    ps.add_argument("--mode", choices=("q-only", "general"), default="general",
                    help="q-only pins each R_ii to I and searches Q_i; general searches "
                         "Q_i and R_ii together. --nearest always searches R freely, so "
                         "--nearest with --mode q-only is an input error")
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
