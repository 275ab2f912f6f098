import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
import scipy.linalg

from nashinduce import (CostParameters, GameSystem, StrategyProfile, cli, feasibility,
                        inverse, numerics, realization, verify_nash)
from nashinduce.cli import dumps_report, load_costs, load_problem, main
from nashinduce.feasibility import nearest_params, solve_feasibility_projection
from nashinduce.numerics import (PROJECTION_CAP, PROJECTION_TOL, NumericalFailureError,
                                 project_affine_cone)
from nashinduce.problems import BUNDLED


DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_example(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(BUNDLED[name])
    return str(path)


def test_example_writes_bundled_files(tmp_path, capsys):
    for name, blob in BUNDLED.items():
        out = tmp_path / f"{name}.json"
        code, _, err = run_cli(capsys, "example", name, "-o", str(out))
        assert code == 0
        assert out.read_text() == blob  # byte-exact
        json.loads(blob)  # and valid JSON


def test_example_unknown_name(capsys):
    code, _, err = run_cli(capsys, "example", "nope")
    assert code == 2
    assert "unknown example" in err


def test_check_scalar_feasible(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict_frequency"] == "inducible"
    assert report["verdict_oracle"] == "inducible"
    assert report["disagreement"] is False
    assert report["players"][0]["kalman"]["Q"] == [[pytest.approx(3.0)]]


def test_check_scalar_infeasible(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_infeasible")
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 1
    report = json.loads(out)
    assert report["verdict_frequency"] == "not_inducible"
    assert report["players"][0]["circle_ok"] is False
    assert report["players"][0]["circle_witness"] == 0.0


def test_check_remark2_disagreement(tmp_path, capsys):
    path = write_example(tmp_path, "remark2")
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 4
    report = json.loads(out)
    assert report["verdict_frequency"] == "not_inducible"
    assert report["verdict_oracle"] == "inducible"
    assert report["disagreement"] is True
    cert = report["players"][0]["rank_certificates"][0]
    assert cert["s0_re"] == pytest.approx(1.0, abs=1e-7)
    assert cert["s0_im"] == pytest.approx(0.0, abs=1e-7)
    assert cert["x_re"] == pytest.approx([3 ** -0.5] * 3, abs=1e-9)
    assert cert["x_im"] == [0.0] * 3
    assert any("uncontrollable" in w for w in report["warnings"])


def test_check_keeps_the_oracle_verdict_when_a_frequency_stage_fails(
        tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalFailureError("residual 1e-3 above tolerance")

    monkeypatch.setattr(inverse, "return_difference_circle", failing)
    path = write_example(tmp_path, "two_player_scalar")
    code, out, err = run_cli(capsys, "check", path)
    assert code == 0, err
    report = json.loads(out)
    assert (report["verdict_frequency"], report["verdict_oracle"]) == ("error", "inducible")
    assert report["disagreement"] is False
    assert report["frequency_error"] == {"player": 0, "stage": "circle",
                                         "reason": "residual 1e-3 above tolerance"}
    assert [p["circle_ok"] for p in report["players"]] == [None, None]
    assert [p["kalman"]["status"] for p in report["players"]] == ["solved", "solved"]
    assert report["diagnostics"]["circle_probes"] == [None, None]
    assert any("frequency domain failed" in w for w in report["warnings"])
    # Without the oracle no method is determinate.
    code, out, _ = run_cli(capsys, "check", path, "--no-oracle")
    assert code == 3
    assert json.loads(out)["verdict_frequency"] == "error"
    # A failure of the rank condition of a p < m player names its stage too.
    monkeypatch.undo()
    rank_condition = inverse.rank_condition
    monkeypatch.setattr(inverse, "rank_condition",
                        lambda *args: failing() if args[-1] else rank_condition(*args))
    code, out, _ = run_cli(capsys, "check", write_example(tmp_path, "remark2"))
    report = json.loads(out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        0, "error", "inducible")
    assert report["frequency_error"]["stage"] == "rank_condition"
    assert report["players"][1]["rank_ok"] is True


def test_check_no_oracle(tmp_path, capsys):
    path = write_example(tmp_path, "remark2")
    code, out, _ = run_cli(capsys, "check", path, "--no-oracle")
    assert code == 1
    report = json.loads(out)
    assert report["verdict_oracle"] == "skipped"
    assert report["disagreement"] is False
    assert [p["kalman"] for p in report["players"]] == [None, None]  # no search ran


def test_check_single_player_flag(tmp_path, capsys):
    path = write_example(tmp_path, "remark2")
    code, out, _ = run_cli(capsys, "check", path, "--player", "1", "--no-oracle")
    assert code == 0  # player 2 alone passes both conditions
    report = json.loads(out)
    assert len(report["players"]) == 1
    assert report["players"][0]["index"] == 1


def test_check_player_restricts_both_methods(tmp_path, capsys):
    # Player 1 alone is inducible; player 0 is not (scalar circle criterion
    # k >= 2a fails: k = 1.2 against the reduced plant a = 1 - 0.2).
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "schema_version": "1", "A": [[1.0]],
        "players": [{"B": [[1.0]], "K_dagger": [[1.2]]},
                    {"B": [[1.0]], "K_dagger": [[0.2]]}]}))
    code, out, _ = run_cli(capsys, "check", str(path), "--player", "1")
    report = json.loads(out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        0, "inducible", "inducible")
    assert len(report["diagnostics"]["kalman_iterations"]) == 1
    for argv in (("--player", "0"), ()):
        code, out, _ = run_cli(capsys, "check", str(path), *argv)
        report = json.loads(out)
        assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
            1, "not_inducible", "not_inducible")


def test_check_determinism(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    _, out1, _ = run_cli(capsys, "check", path)
    _, out2, _ = run_cli(capsys, "check", path)
    strip = lambda r: {k: v for k, v in json.loads(r).items() if k != "timings_ms"}
    assert strip(out1) == strip(out2)
    # Floats print exactly: the Kalman costs parse back to the oracle's own.
    system, profile, _, _ = load_problem(path)
    (sol,) = solve_feasibility_projection(system, profile).solutions
    kalman = json.loads(out1)["players"][0]["kalman"]
    assert (kalman["Q"], kalman["R"]) == (sol.Q.tolist(), sol.R.tolist())


def test_parser_built_once_gives_the_reports_of_a_fresh_one(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; in-process calls in sequence,
    # options first given and then left out, write byte for byte the reports
    # of a freshly built parser (timings pinned to 0 so reports are comparable).
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    path = write_example(tmp_path, "remark2")
    sequence = [("check", path, "--player", "1"), ("check", path),
                ("solve", path, "--mode", "q-only"), ("solve", path)]
    cached = [run_cli(capsys, *argv) for argv in sequence]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cached == fresh
    assert cached[0] != cached[1] and cached[2] != cached[3]


def test_solve_two_player_scalar(tmp_path, capsys):
    path = write_example(tmp_path, "two_player_scalar")
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    report = json.loads(out)
    for pl in report["players"]:
        assert pl["Q"] == [[pytest.approx(1.0)]]
        assert pl["R"] == [[pytest.approx(1.0)]]
        assert pl["P"] == [[pytest.approx(1.0)]]


def test_solve_q_only_pins_r_to_identity(tmp_path, capsys):
    path = write_example(tmp_path, "two_player_scalar")
    code, out, _ = run_cli(capsys, "solve", path, "--mode", "q-only")
    report = json.loads(out)
    assert (code, report["status"], report["verify_ok"]) == (0, "solved", True)
    for pl in report["players"]:
        assert pl["R"] == [[1.0]]
        assert pl["Q"] == [[pytest.approx(1.0)]]


def test_solve_infeasible_scalar(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_infeasible")
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "infeasible"
    assert report["circle_witness"] == 0.0
    # The gap's lambda_min at w = 0: -0.75 / (w^2 + 0.25), the sign of Phi = -0.75.
    assert report["phi_at_witness"] == pytest.approx(-3.0)


def boundary_game():
    """(A, b, K, c) of a one-player LQR game, n = 4, whose Q = c'c has
    c(sI - A)^-1 b = (s^2 + 1)(s + 3) / det(sI - A), zero at s = +-j (w0 = 1):
    A companion with eigenvalues -1, -2, 0.5, -3, b = e_4, K = b'P from
    scipy's ARE.  The circle touches 0 at w0 = 1, so every feasible Q is
    singular and the cone search stops at its cap.  Whether it does is
    round-off on such games: with the zero at -2 instead, the search stops
    at its cap in original coordinates and converges to costs that pass
    verify_nash in Schur coordinates."""
    A = np.zeros((4, 4))
    A[:3, 1:] = np.eye(3)
    A[3] = -np.poly([-1.0, -2.0, 0.5, -3.0])[:0:-1]
    b = np.eye(4)[:, 3:]
    c = np.array([[3.0, 1.0, 3.0, 1.0]])  # (s^2 + 1)(s + 3), lowest power first
    K = b.T @ scipy.linalg.solve_continuous_are(A, b, c.T @ c, np.eye(1))
    return A, b, K, c


def write_problem(path, A, Bs, Ks):
    path.write_text(json.dumps({"schema_version": "1", "A": A.tolist(), "players": [
        {"B": B.tolist(), "K_dagger": K.tolist()} for B, K in zip(Bs, Ks)]}))
    return str(path)


def boundary_and_scalar_infeasible(tmp_path):
    """The path of a two-player game: the boundary game (player 0, n = 4)
    block-diagonal with scalar_infeasible (player 1: a = 1, b = 1, k = 1.5)."""
    A, b, K, _ = boundary_game()
    return write_problem(tmp_path / "boundary_and_scalar.json", scipy.linalg.block_diag(A, 1.0),
                         [np.vstack([b, 0.0]), np.eye(5)[:, 4:]],
                         [np.hstack([K, [[0.0]]]), np.array([[0.0] * 4 + [1.5]])])


def test_solve_says_indeterminate_where_the_search_stops_undecided(tmp_path, capsys):
    # A search that reached no verdict proves no infeasibility of a game whose
    # true costs pass the Nash check.
    A, b, K, c = boundary_game()
    path = write_problem(tmp_path / "boundary.json", A, [b], [K])
    system, profile, _, _ = load_problem(path)
    assert verify_nash(system, profile, CostParameters.identity_R([c.T @ c], system.m))[0]
    code, out, err = run_cli(capsys, "solve", path)
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert (report["status"], report["failing_player"], report["kalman_status"]) == (
        "indeterminate", 0, "indeterminate")
    assert report["circle_ok"] and report["rank_ok"]
    assert report["diagnostics"]["kalman_iterations"] == [numerics.PROJECTION_CAP]


def test_a_certified_player_decides_before_an_undecided_one(tmp_path, capsys):
    # Player 1 fails the circle test, and its pinned block b'Qb = -0.75
    # certifies its search infeasible; player 0's search stops undecided at
    # its cap.  Every player's conditions are necessary, so player 1's failure
    # decides, although player 0 comes first: solve answers infeasible there.
    code, out, err = run_cli(capsys, "solve", boundary_and_scalar_infeasible(tmp_path))
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert (report["status"], report["failing_player"], report["kalman_status"]) == (
        "infeasible", 1, "infeasible")
    assert report["diagnostics"]["kalman_iterations"] == [PROJECTION_CAP, 0]
    assert (report["circle_ok"], report["circle_witness"]) == (False, 0.0)
    assert report["phi_at_witness"] == pytest.approx(-3.0)


def test_a_certified_search_decides_before_an_undecided_one(tmp_path, monkeypatch, capsys):
    # The oracle's side of the same rule: player 0's search stops undecided,
    # player 1's is certified infeasible, so the game is infeasible.
    player_feasibility = feasibility.player_feasibility

    def stub(system, profile, i, *args):
        solution = player_feasibility(system, profile, i, *args)
        return dataclasses.replace(solution, status=("indeterminate", "infeasible")[i])

    monkeypatch.setattr(feasibility, "player_feasibility", stub)
    path = write_example(tmp_path, "two_player_scalar")
    system, profile, _, _ = load_problem(path)
    assert solve_feasibility_projection(system, profile).status == (
        "infeasible_certified_by_identity")
    code, out, _ = run_cli(capsys, "check", path)
    report = json.loads(out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        4, "inducible", "not_inducible")
    code, out, _ = run_cli(capsys, "solve", path)
    report = json.loads(out)
    assert (code, report["status"], report["failing_player"], report["kalman_status"]) == (
        1, "infeasible", 1, "infeasible")


def test_a_certified_player_decides_before_a_failed_stage(tmp_path, monkeypatch, capsys):
    # Player 0's circle stage fails numerically and player 1 fails its circle
    # test: the frequency verdict is not_inducible, with the failure reported.
    circle = inverse.return_difference_circle
    calls = []

    def failing_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalFailureError("QZ iteration failed (ggev info 1)")
        return circle(*args)

    monkeypatch.setattr(inverse, "return_difference_circle", failing_first)
    code, out, err = run_cli(capsys, "check", boundary_and_scalar_infeasible(tmp_path),
                             "--no-oracle")
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert (report["verdict_frequency"], report["verdict_oracle"]) == ("not_inducible", "skipped")
    assert report["frequency_error"] == {"player": 0, "stage": "circle",
                                         "reason": "QZ iteration failed (ggev info 1)"}
    assert [p["circle_ok"] for p in report["players"]] == [None, False]


def test_solve_exits_3_on_a_failed_stage_and_the_oracle_message_wins(
        tmp_path, monkeypatch, capsys):
    def failing(*args):
        raise NumericalFailureError("residual 1e-3 above tolerance")

    path = write_example(tmp_path, "two_player_scalar")
    monkeypatch.setattr(inverse, "return_difference_circle", failing)
    assert run_cli(capsys, "solve", path) == (
        3, "", "numerical failure: player 0: circle: residual 1e-3 above tolerance\n")
    # Both methods fail: the oracle's message is the one shown, in solve and check.
    monkeypatch.setattr(feasibility, "player_feasibility", failing)
    for command in ("solve", "check"):
        assert run_cli(capsys, command, path) == (
            3, "", "numerical failure: player 0: kalman: residual 1e-3 above tolerance\n")


def _text_report(capsys, *argv):
    """(exit code, text report) of a command, checked against its JSON report:
    one line per scalar field, each nested dict's fields indented under their
    key, no blank line, one final newline."""
    code, text, err = run_cli(capsys, *argv, "--format", "text")
    json_code, out, _ = run_cli(capsys, *argv)
    assert (code, err) == (json_code, "")
    assert text.endswith("\n") and "\n\n" not in text, text
    lines = text.splitlines()
    assert [line.split(":")[0] for line in lines if not line.startswith(" ")] == list(
        json.loads(out))
    return code, lines


def test_text_format_of_check(tmp_path, capsys):
    code, lines = _text_report(capsys, "check", write_example(tmp_path, "scalar_feasible"))
    assert code == 0
    assert lines[:4] == ["verdict_frequency: inducible", "verdict_oracle: inducible",
                         "disagreement: False", "frequency_error: None"]
    k = lines.index("timings_ms:")
    assert [line.split(":")[0] for line in lines[k:]] == [
        "timings_ms", "  frequency", "  oracle", "diagnostics", "  kalman_iterations",
        "  kalman_gaps", "  circle_probes"]
    assert lines[-3:] == ["  kalman_iterations: [0]", "  kalman_gaps: [0]",
                          "  circle_probes: [1]"]


def test_text_format_of_solve(tmp_path, capsys):
    code, lines = _text_report(capsys, "solve", write_example(tmp_path, "scalar_feasible"))
    assert code == 0
    assert lines[:5] == ["status: solved", "players:", "  -:", "    index: 0", "    Q: [[3]]"]
    assert lines[-7:] == ["diagnostics:", "  kalman_iterations: [0]", "  kalman_gaps: [0]",
                          "  circle_probes: [1]", "  scale: 3", "  residual_bound: 3e-08",
                          "  psd_tol: 1e-08"]
    code, lines = _text_report(capsys, "solve", write_example(tmp_path, "scalar_infeasible"))
    assert code == 1
    assert lines[:9] == ["status: infeasible", "failing_player: 0", "circle_ok: False",
                         "circle_witness: 0", "phi_at_witness: -3", "rank_ok: True",
                         "kalman_status: infeasible", "players:", "  -:"]
    assert "    kalman:" in lines and "      status: infeasible" in lines
    assert lines[-4:] == ["diagnostics:", "  kalman_iterations: [0]", "  kalman_gaps: [0]",
                          "  circle_probes: [1]"]


def test_text_format_of_verify(tmp_path, capsys):
    code, lines = _text_report(capsys, "verify", write_example(tmp_path, "two_player_scalar"))
    player = ["P: [[1]]", "are_residual: 0", "stationarity_residual: 0", "P_psd: True"]
    assert code == 0
    assert lines == (["verified: True", "hurwitz_margin: 1", "players:"]
                     + ["  -:", "    index: 0"] + ["    " + line for line in player]
                     + ["  -:", "    index: 1"] + ["    " + line for line in player]
                     + ["diagnostics:", "  scale: 1", "  residual_bound: 1e-08",
                        "  psd_tol: 1e-08"])


def test_solve_nearest(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    costs0 = tmp_path / "costs0.json"
    costs0.write_text('{"Q": [[[5.0]]], "R": [[[[1.0]]]]}')
    code, out, _ = run_cli(capsys, "solve", path, "--nearest", str(costs0))
    assert code == 0
    report = json.loads(out)
    assert report["players"][0]["Q"] == [[pytest.approx(4.8, abs=1e-6)]]
    assert report["players"][0]["R_row"][0] == [[pytest.approx(1.6, abs=1e-6)]]


def test_solve_nearest_rejects_q_only_mode(tmp_path, capsys):
    # --nearest searches R freely, so pinning it with --mode q-only is an input
    # error rather than a flag silently ignored; --mode general is its search.
    path = write_example(tmp_path, "scalar_feasible")
    costs0 = tmp_path / "costs0.json"
    costs0.write_text('{"Q": [[[5.0]]], "R": [[[[1.0]]]]}')
    code, out, err = run_cli(capsys, "solve", path, "--nearest", str(costs0),
                             "--mode", "q-only")
    assert (code, out) == (2, "")
    assert err.startswith("error: --nearest"), err
    general = run_cli(capsys, "solve", path, "--nearest", str(costs0), "--mode", "general")
    assert general == run_cli(capsys, "solve", path, "--nearest", str(costs0))
    assert general[0] == 0


def test_check_timings_resolve_microseconds(tmp_path, capsys, monkeypatch):
    # timings_ms are float milliseconds rounded to 1 us, read from perf_counter.
    ticks = iter([0.0, 0.0001234567, 1.0, 1.0025])
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    code, out, _ = run_cli(capsys, "check", write_example(tmp_path, "scalar_feasible"))
    assert code == 0
    assert json.loads(out)["timings_ms"] == {"frequency": 0.123, "oracle": 2.5}


def test_verify_two_player_scalar(tmp_path, capsys):
    path = write_example(tmp_path, "two_player_scalar")
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True


def test_verify_perturbed_q_fails(tmp_path, capsys):
    raw = json.loads(BUNDLED["two_player_scalar"])
    raw["players"][0]["Q"] = [[0.9]]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["verified"] is False
    # P is recomputed through the Lyapunov solve, so the defect shows up in
    # the reduced Riccati residual: P = 0.95, residual 0.9 - 0.95^2 = 0.0025.
    assert report["players"][0]["are_residual"] == pytest.approx(0.0025, abs=1e-9)
    # The diagnostics give the bound that residual missed: scale max(1, |P|) = 1.
    assert report["diagnostics"] == {"scale": 1.0, "residual_bound": 1e-8, "psd_tol": 1e-8}
    assert report["players"][0]["are_residual"] > report["diagnostics"]["residual_bound"]


def _scalar_with(tmp_path, block, value, name="costs.json"):
    """two_player_scalar with player 0's Q or R_row[0] set to value."""
    raw = json.loads(BUNDLED["two_player_scalar"])
    if block == "Q":
        raw["players"][0]["Q"] = value
    else:
        raw["players"][0]["R_row"][0] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_verify_huge_q_is_judged_on_finite_bounds(tmp_path, capsys):
    # Q = 1e160 gives P = 5e159, whose squared norm overflows: the bounds were
    # inf and the game passed as Nash.  The stationarity residual is 5e159,
    # far above tol * scale; only the Riccati residual truly overflows (its
    # P B R^-1 B' P is 2.5e319), an honest overflow reported as null, with no
    # numpy warning on stderr.
    path = _scalar_with(tmp_path, "Q", [[1e160]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", path)
    report = json.loads(out)
    assert (code, err, [str(w.message) for w in caught], report["verified"]) == (
        1, "", [], False)
    assert report["diagnostics"] == {"scale": 5e159, "residual_bound": 5e151, "psd_tol": 1e-8}
    assert report["players"][0]["stationarity_residual"] == 5e159
    assert report["players"][0]["are_residual"] is None


def test_verify_huge_r_is_positive_definite(tmp_path, capsys):
    # The positive-definite floor of R = 1e160 was +inf, so R was rejected.
    path = _scalar_with(tmp_path, "R", [[1e160]])
    code, out, err = run_cli(capsys, "verify", path)
    report = json.loads(out)
    assert (code, err, report["verified"]) == (1, "", False)
    assert report["players"][0]["stationarity_residual"] == 5e159
    assert report["players"][0]["are_residual"] == 2.5e159
    assert report["diagnostics"]["residual_bound"] == 5e151


@pytest.mark.parametrize("block,value,message", [
    # The floor tol * max(1, |Q|) was -inf, so these negative definite Q passed.
    ("Q", [[-1e160]], "Q[0] is not positive semidefinite"),
    ("Q", [[-1e200]], "Q[0] is not positive semidefinite"),
    # (M + M')/2 is inf: the symmetrized block was kept and failed unnamed later.
    ("Q", [[1.5e308]], "Q[0] overflows the float range"),
    ("R", [[1.5e308]], "R[0][0] overflows the float range"),
])
def test_verify_huge_blocks_are_named_input_errors(tmp_path, capsys, block, value, message):
    path = _scalar_with(tmp_path, block, value)
    assert run_cli(capsys, "verify", path) == (2, "", f"error: {message}\n")


def test_cost_blocks_beyond_the_float_range_are_named():
    # Blocks of 1.5e308 (n >= 2) and of 8e307 (n = 3) have a Frobenius norm past
    # the float range.  Before, validate answered "not positive semidefinite"
    # (NaN eigenvalues) or "Eigenvalues did not converge".
    for n, value in ((2, 1.5e308), (3, 1.5e308), (3, 8e307)):
        with pytest.raises(ValueError, match=r"^Q\[0\] overflows the float range$"):
            CostParameters([np.full((n, n), value)], [[np.eye(1)]])


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_negative_tol_is_input_error(tmp_path, capsys, command):
    # A negative tol turned the PSD floor positive: R_01 = 0 failed as "not
    # positive semidefinite".
    path = write_example(tmp_path, "two_player_scalar")
    assert run_cli(capsys, command, path, "--tol", "-1") == (
        2, "", "error: --tol: must be a finite number >= 0\n")
    raw = json.loads(BUNDLED["two_player_scalar"])
    raw["tol"] = -1
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(raw))
    assert run_cli(capsys, command, str(path)) == (
        2, "", "error: tol: must be a finite number >= 0\n")
    raw["tol"] = 0
    path.write_text(json.dumps(raw))
    assert run_cli(capsys, command, str(path), "--tol", "0")[0] in (0, 1)  # zero is a tolerance


def test_verify_report_diagnostics_hold_the_bounds_of_the_check(capsys):
    path = str(DATA / "closed_form_n8_N3_m1.json")
    system, profile, costs, tol = load_problem(path)
    ok, cert = verify_nash(system, profile, costs, tol=max(tol, 1e-6))
    code, out, _ = run_cli(capsys, "verify", path, "--tol", "1e-6")
    report = json.loads(out)
    assert (code, report["verified"], ok) == (0, True, True)
    assert list(report) == ["verified", "hurwitz_margin", "players", "diagnostics"]
    diag = report["diagnostics"]
    assert diag == {"scale": cert.scale, "residual_bound": cert.residual_bound,
                    "psd_tol": 1e-6}
    assert diag["scale"] == pytest.approx(max(1.0, max(np.linalg.norm(P) for P in cert.P)))
    assert diag["residual_bound"] == pytest.approx(1e-6 * diag["scale"])
    for p in report["players"]:
        assert max(p["are_residual"], p["stationarity_residual"]) <= diag["residual_bound"]


def test_solve_report_diagnostics_hold_the_bounds_of_the_check(tmp_path, monkeypatch, capsys):
    # After the loop diagnostics, solve lists the bounds its final Nash check
    # held the costs to, on "solved" and on "verification_failed" (here forced
    # by the spy); an "infeasible" answer runs no final check and lists none.
    loops = ["kalman_iterations", "kalman_gaps", "circle_probes"]
    certs, real = [], cli.verify_nash

    def spy(*args, **kwargs):
        ok, cert = real(*args, **kwargs)
        certs.append(cert)
        return ok and len(certs) == 1, cert

    monkeypatch.setattr(cli, "verify_nash", spy)
    path = str(DATA / "closed_form_n8_N3_m1.json")
    for code, status in ((0, "solved"), (1, "verification_failed")):
        got, out, _ = run_cli(capsys, "solve", path, "--tol", "1e-6")
        report = json.loads(out)
        assert (got, report["status"]) == (code, status)
        cert = certs[-1]
        assert list(report["diagnostics"]) == loops + ["scale", "residual_bound", "psd_tol"]
        assert report["diagnostics"]["scale"] == cert.scale > 1.0
        assert report["diagnostics"]["residual_bound"] == cert.residual_bound == 1e-6 * cert.scale
        assert report["diagnostics"]["psd_tol"] == 1e-6
    code, out, _ = run_cli(capsys, "solve", write_example(tmp_path, "scalar_infeasible"))
    assert (code, list(json.loads(out)["diagnostics"])) == (1, loops)
    assert len(certs) == 2


def test_verify_non_psd_q_is_input_error(tmp_path, capsys):
    # verify_nash rejects the costs with a ValueError, which main reports as
    # an input error.
    raw = json.loads(BUNDLED["two_player_scalar"])
    raw["players"][0]["Q"] = [[-1.0]]
    path = tmp_path / "non_psd.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", "error: Q[0] is not positive semidefinite\n")


def test_verify_requires_costs(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "R_row" in err or "Q" in err


def test_solve_round_trips_into_verify(tmp_path, capsys):
    # Feed the solved costs back as a problem file for verify.
    for name in ("scalar_feasible", "two_player_scalar"):
        path = write_example(tmp_path, name)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        solved = json.loads(out)
        raw = json.loads(BUNDLED[name])
        N = len(raw["players"])
        for i, pl in enumerate(raw["players"]):
            pl["Q"] = solved["players"][i]["Q"]
            pl["R_row"] = [solved["players"][i]["R"] if j == i
                           else np.zeros((len(solved["players"][j]["R"]),) * 2).tolist()
                           for j in range(N)]
        rt = tmp_path / f"{name}_rt.json"
        rt.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "verify", str(rt))
        assert code == 0


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "line" in err


def test_schema_and_dimension_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": "2", "A": [[1.0]], "players": []}')
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "schema_version" in err

    path.write_text(json.dumps({
        "schema_version": "1", "A": [[1.0]],
        "players": [{"B": [[1.0], [0.0]], "K_dagger": [[3.0]]}]}))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "players[0].B" in err


_SCALAR = {"schema_version": "1", "A": [[1.0]], "players": [{"B": [[1.0]], "K_dagger": [[3.0]]}]}


def _edited(edit):
    raw = json.loads(json.dumps(_SCALAR))
    edit(raw)
    return raw


@pytest.mark.parametrize("raw, argv, message", [
    (_edited(lambda r: r.pop("A")), [], "A: missing"),
    (_edited(lambda r: r.update(A=[[1.0, 2.0]])), [], "A: must be square"),
    (_edited(lambda r: r.update(players=[])), [], "players: must be a non-empty list"),
    (_edited(lambda r: r.update(players=[1])), [], "players[0]: must be an object"),
    (_edited(lambda r: r["players"][0].pop("B")), [], "players[0].B: missing"),
    (_edited(lambda r: r["players"][0].pop("K_dagger")), [], "players[0].K_dagger: missing"),
    ([_SCALAR], [], "{problem}: top level must be an object"),
    (_edited(lambda r: r.update(A=[["x"]])), [],
     "A: not a numeric matrix (could not convert string to float: 'x')"),
    (_edited(lambda r: r.update(A=[1.0])), [], "A: expected a nested-list matrix"),
    (_edited(lambda r: r["players"][0].update(K_dagger=[[3.0, 0.0]])), [],
     "players[0].K_dagger: has 2 columns, expected 1"),
    (_edited(lambda r: r["players"][0].update(Q=[[1.0]], R_row=[[[1.0, 0.0], [0.0, 1.0]]])),
     [], "players[0].R_row[0]: has shape (2, 2), expected (1, 1)"),
    (_edited(lambda r: r["players"][0].update(Q=[[1.0]])), [],
     "players: Q and R_row must be supplied for every player or none"),
    (None, [], "cannot read {problem}: [Errno 2] No such file or directory: '{problem}'"),
    (_SCALAR, ["--nearest", "{costs}"], "{costs}: expected object with Q and R"),
    (_SCALAR, ["--player", "1"], "--player 1: out of range"),
    # json.load reads NaN, Infinity and -Infinity; the field is named, not the block.
    (_edited(lambda r: r.update(A=[[math.nan]])), [], "A: has non-finite entries"),
    (_edited(lambda r: r["players"][0].update(B=[[math.inf]])), [],
     "players[0].B: has non-finite entries"),
    (_edited(lambda r: r["players"][0].update(K_dagger=[[-math.inf]])), [],
     "players[0].K_dagger: has non-finite entries"),
    (_edited(lambda r: r["players"][0].update(Q=[[math.nan]], R_row=[[[1.0]]])), [],
     "players[0].Q: has non-finite entries"),
    (_edited(lambda r: r["players"][0].update(Q=[[1.0]], R_row=[[[math.inf]]])), [],
     "players[0].R_row[0]: has non-finite entries"),
    (_SCALAR, ["--nearest", "{nan_costs}"], "Q[0]: has non-finite entries"),
    (_edited(lambda r: r["players"][0].update(B=[[]])), [], "players[0].B: is empty"),
    # numpy reads "1.0" and true as floats; JSON strings and booleans are no numbers.
    (_edited(lambda r: r.update(A=[["1.0"]])), [],
     "A: not a numeric matrix (JSON strings are not numbers)"),
    (_edited(lambda r: r["players"][0].update(B=[[True]])), [],
     "players[0].B: not a numeric matrix (JSON booleans are not numbers)"),
    (_edited(lambda r: r.update(A=[[10 ** 400]])), [],
     "A: not a numeric matrix (int too large to convert to float)"),
    # Nested 3000 deep, past json's recursion (a str row is the file's text).
    (json.dumps(_SCALAR)[:-1] + ', "A": ' + "[" * 3000 + "]" * 3000 + "}", [],
     "A: not a numeric matrix (setting an array element with a sequence. The requested "
     "array would exceed the maximum number of dimension of 64.)"),
    ("[" * 3000 + "]" * 3000, [], "{problem}: top level must be an object"),
])
def test_input_errors_name_their_field(tmp_path, capsys, raw, argv, message):
    problem, costs = tmp_path / "problem.json", tmp_path / "costs0.json"
    nan_costs = tmp_path / "nan_costs0.json"
    if raw is not None:
        problem.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    costs.write_text('{"Q": [[[1.0]]]}')
    nan_costs.write_text('{"Q": [[[NaN]]], "R": [[[[1.0]]]]}')
    fill = {"problem": problem, "costs": costs, "nan_costs": nan_costs}
    command = ("solve" if "--nearest" in argv else "check", str(problem),
               *(a.format(**fill) for a in argv))
    assert run_cli(capsys, *command) == (2, "", f"error: {message.format(**fill)}\n")


def test_nonstabilizing_profile_is_input_error(tmp_path, capsys):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({
        "schema_version": "1", "A": [[1.0]],
        "players": [{"B": [[1.0]], "K_dagger": [[0.5]]}]}))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "stabilize" in err


def stdlib_read_json(path):
    """_read_json before orjson: open as UTF-8 text, then json.load."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise cli.InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise cli.InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def test_read_json_gives_the_floats_json_gives(tmp_path):
    # About a million floats over 1e-304 .. 1e304 in five spellings ("%.12e",
    # which the package writes, repr, "%.17g", "%.20e", "%.15g"), the edges of
    # the float range, and integers at and past +-2^63 and 2^64, which orjson
    # returns as floats and json as ints: read as float arrays, bit for bit.
    rng = np.random.default_rng(39)
    x = (rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-304, 304, 200_000)).tolist()
    edges = ["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.4703282292062328e-324",
             "2.4703282292062327e-324", "1e-400", "2.2250738585072014e-308",
             "2.2250738585072011e-308", "1.7976931348623157e308", "-1.7976931348623157e308",
             "1.7976931348623158e308", "9007199254740993", "9007199254740993.0"]
    edges += [str(sign * (2 ** k + d)) for sign in (1, -1) for k in (63, 64)
              for d in (-1, 0, 1)]
    edges += [str(sign * (2 ** k + 1)) for sign in (1, -1) for k in range(65, 1024, 9)]
    edges += [str(10 ** k + 1) for k in range(17, 300, 13)]
    for spelling in ("%.12e", "%r", "%.17g", "%.20e", "%.15g"):
        path = tmp_path / "floats.json"
        path.write_text("[" + ", ".join([spelling % v for v in x] + edges) + "]")
        ours, theirs = (np.asarray(read(str(path)), float)
                        for read in (cli._read_json, stdlib_read_json))
        assert ours.size == len(x) + len(edges) and np.isfinite(ours).all()
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), spelling


@pytest.mark.parametrize("depth, message", [
    (cli.ORJSON_MAX_OPENERS, "{path}: top level must be an object"),
    (cli.ORJSON_MAX_OPENERS + 1, "{path}: nested too deeply to parse"),
    (200_000, "{path}: nested too deeply to parse"),
])
def test_a_list_nested_at_any_depth_is_an_input_error(tmp_path, depth, message):
    # orjson gets a file of at most ORJSON_MAX_OPENERS "[" and "{", and json
    # a deeper one, whose RecursionError is an input error.  In a child
    # process: a 200 000-deep list handed to orjson overflows an 8 MB C stack.
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    run = subprocess.run([sys.executable, "-m", "nashinduce.cli", "check", str(path)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", f"error: {message.format(path=path)}\n")


def test_files_orjson_accepts_are_not_read_again(tmp_path, monkeypatch):
    # The bundled examples and the fixtures load without json.load.
    paths = [write_example(tmp_path, name) for name in BUNDLED]
    paths += [str(path) for path in sorted(DATA.glob("*.json"))]
    monkeypatch.setattr(json, "load", None)
    for path in paths:
        load_problem(path)


_PROBLEM_TEXT = json.dumps({**_SCALAR, "players": [
    {**_SCALAR["players"][0], "Q": [[1.0]], "R_row": [[[1.0]]]}]}, indent=1)
_COSTS_TEXT = json.dumps({"Q": [[[1.0]]], "R": [[[[1.0]]]]}, indent=1)


def _bad_texts(text, field):
    """Texts orjson rejects, built from the valid JSON text: syntax errors, a
    BOM, a byte that is no UTF-8, a lone surrogate, and the non-finite
    numbers json reads, each in place of the first number after field."""
    number = re.compile(r"-?\d+\.\d+").search(text, text.index(field))
    at = lambda literal: text[:number.start()].encode() + literal + text[number.end():].encode()
    lines = text.encode().split(b"\n")
    error_on_line_3 = lines[:2] + [lines[2] + b" ,"] + lines[3:]
    return {
        "truncated": text[:-4].encode(),
        "trailing comma": text[:-1].encode() + b", }",
        "trailing data": text.encode() + b" x",
        "BOM": b"\xef\xbb\xbf" + text.encode(),
        "invalid UTF-8": at(b'"\xff"'),
        "lone surrogate": at(b'"\\ud800"'),
        "CRLF, error on line 3": b"\r\n".join(error_on_line_3),
        "CR, error on line 3": b"\r".join(error_on_line_3),
        "NaN": at(b"NaN"), "Infinity": at(b"Infinity"), "-Infinity": at(b"-Infinity"),
        "1e400": at(b"1e400"), "10**400": at(b"1" + b"0" * 400),
    }


def test_files_orjson_rejects_give_the_answers_json_gave(tmp_path, capsys, monkeypatch):
    # Every CLI call gives json's exit code and stderr on a family of texts
    # orjson rejects, in problem files (in each matrix, and as tol) and in
    # cost files.
    problem, costs = tmp_path / "problem.json", tmp_path / "costs.json"
    family = [("problem", field, name, text)
              for field in ('"A"', '"B"', '"K_dagger"', '"Q"', '"R_row"')
              for name, text in _bad_texts(_PROBLEM_TEXT, field).items()]
    family += [("problem", '"tol"', value, _PROBLEM_TEXT[:-2].encode() + b', "tol": '
                + value.encode() + b"}") for value in ("NaN", "Infinity", "1e400")]
    family += [("costs", field, name, text) for field in ('"Q"', '"R"')
               for name, text in _bad_texts(_COSTS_TEXT, field).items()]
    seen = {}
    for kind, field, name, text in family:
        problem.write_text(_PROBLEM_TEXT)
        costs.write_text(_COSTS_TEXT)
        (problem if kind == "problem" else costs).write_bytes(text)
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
        calls = ([("check", str(problem)), ("solve", str(problem)), ("verify", str(problem))]
                 if kind == "problem" else [("solve", str(problem), "--nearest", str(costs))])
        for argv in calls:
            with monkeypatch.context() as m:
                m.setattr(cli, "_read_json", stdlib_read_json)
                parent = run_cli(capsys, *argv)
            now = run_cli(capsys, *argv)
            assert now == parent and now[:2] == (2, ""), (kind, field, name, argv)
            seen[field, name, argv[0]] = now[2]
    assert seen['"A"', "CRLF, error on line 3", "check"] == \
        seen['"A"', "CR, error on line 3", "check"] == \
        f"error: {problem}: invalid JSON at line 3, column 9\n"
    assert seen['"A"', "BOM", "verify"] == f"error: {problem}: invalid JSON at line 1, column 1\n"
    assert seen['"K_dagger"', "NaN", "check"] == \
        "error: players[0].K_dagger: has non-finite entries\n"
    assert seen['"tol"', "1e400", "solve"] == "error: tol: must be a finite number >= 0\n"
    assert seen['"R"', "Infinity", "solve"] == "error: R[0][0]: has non-finite entries\n"
    assert seen['"B"', "invalid UTF-8", "check"].startswith(
        "error: 'utf-8' codec can't decode byte 0xff in position")


@pytest.fixture(scope="module")
def round0(tmp_path_factory):
    """{workload: (calls, missing cells)} of round 0 of both benchmark
    workloads, set up as perfbench/run.py sets them up."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    root = tmp_path_factory.mktemp("round0")
    out = {}
    for name, setup in workloads.WORKLOADS.items():
        (root / name).mkdir()
        out[name] = setup(0, str(root / name))
    return out


# The digest of round 0's corpus at workloads.CORPUS_SEED.
ROUND0_DIGEST = "393e277f8db3d7278fff900def34aa7b120f26085ee5c0f5d37ebd11e21e9333"


def test_benchmark_corpus_is_fingerprinted(round0):
    # Package code (GameSystem, is_stabilizing, solve_coupled_are) decides
    # which draw of each ladder cell is kept, so a change to it can change
    # the benchmark's workload unseen.  This hashes what the games are: the
    # names, the missing cells and the raw draws A, B_i of every
    # ladder-recipe game; not K, which is solver output and can move by a few
    # ulps between BLAS builds.
    digest = hashlib.sha256()
    for name, (calls, missing) in round0.items():
        digest.update(json.dumps([name, missing]).encode())
        for game in {call.problem: call.game for call in calls}.values():
            digest.update(game.name.encode())
            if game.name.startswith("ladder-"):
                for M in (game.A, *game.B):
                    digest.update(np.ascontiguousarray(M, dtype="<f8").tobytes())
    assert digest.hexdigest() == ROUND0_DIGEST, (
        "a new corpus digest means a new benchmark workload: the package now keeps "
        "other games, so timings before and after the change are not comparable")


def test_loading_a_stabilizing_profile_runs_no_pbh_test(tmp_path, monkeypatch, round0):
    # A stabilizing K witnesses that (A, [B_1 ... B_N]) is stabilizable, so
    # load_problem runs no PBH test on the bundled examples, the fixtures or
    # the round-0 problems of both benchmark workloads; every one loads.
    paths = {write_example(tmp_path, name) for name in BUNDLED}
    paths |= {str(path) for path in DATA.glob("*.json")}
    for calls, _ in round0.values():
        paths |= {call.problem for call in calls}
    calls, pbh = [], realization._pbh_failures
    monkeypatch.setattr(realization, "_pbh_failures",
                        lambda *args: calls.append(args) or pbh(*args))
    for path in sorted(paths):
        load_problem(path)
    assert len(paths) > 100 and calls == []


def test_cli_corpus_records_exit_code_stderr_and_report_without_timings(
        tmp_path, monkeypatch, capsys):
    # tools/cli_corpus.py puts src/ and perfbench/ on sys.path when imported.
    # The digest is that of the emitted text with timings_ms's value as null.
    monkeypatch.setattr(sys, "path", [str(TOOLS)] + sys.path)
    import cli_corpus

    path = write_example(tmp_path, "scalar_infeasible")
    code, out, _ = run_cli(capsys, "check", path)
    report = json.loads(out)
    masked = dumps_report({**report, "timings_ms": None})
    assert masked != out and len(masked.splitlines()) == 1
    digest = hashlib.sha256(masked.encode()).hexdigest()
    del report["timings_ms"]
    head, _, shown = cli_corpus.record(["check", path]).partition("report:\n")
    assert (head, json.loads(shown)) == (f"exit: {code}\ndigest: {digest}\nstderr:\n", report)
    assert cli_corpus.record(["verify", path]) == (
        f"exit: 2\ndigest: {hashlib.sha256(b'').hexdigest()}\n"
        "stderr:\nerror: players: Q and R_row required for verify\nreport:\n")


def test_cli_corpus_compare_allows_float_moves_only(tmp_path, monkeypatch, capsys):
    # compare passes two records whose reports differ in floats alone, and
    # prints the largest relative move of each field (a matrix as one
    # field); an integer, a string, an exit code or a missing call fails it.
    monkeypatch.setattr(sys, "path", [str(TOOLS)] + sys.path)
    import cli_corpus

    def write(root, name, code, report, digest="0"):
        path = root / "calls" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"exit: {code}\ndigest: {digest}\nstderr:\nreport:\n"
                        f"{json.dumps(report)}\n")

    base = {"status": "solved", "players": [{"Q": [[2.0, 0.5], [0.5, 4.0]], "iterations": 3}]}
    moved = {"status": "solved", "players": [{"Q": [[2.0, 0.5], [0.5, 4.0 + 4e-12]],
                                              "iterations": 3}]}
    write(tmp_path / "a", "g.json.solve", 0, base)
    write(tmp_path / "b", "g.json.solve", 0, moved)
    assert cli_corpus.compare(tmp_path / "a", tmp_path / "b") == 0
    out = capsys.readouterr().out
    assert "solve: 0 of 1 calls byte-identical" in out
    assert "  players[].Q: 1.000e-12 of at most 4.000e+00  (g.json.solve)" in out
    for code, report in ((1, base), (0, {**base, "status": "infeasible"}),
                         (0, {"status": "solved", "players": [{**base["players"][0],
                                                               "iterations": 4}]})):
        write(tmp_path / "c", "g.json.solve", code, report)
        assert cli_corpus.compare(tmp_path / "a", tmp_path / "c") == 1
        assert "DIFFERS g.json.solve" in capsys.readouterr().out
    write(tmp_path / "c", "h.json.verify", 0, base)
    assert cli_corpus.compare(tmp_path / "a", tmp_path / "c") == 1
    assert "DIFFERS only in" in capsys.readouterr().out
    # Equal values printed otherwise: the digests differ, and nothing else.
    write(tmp_path / "d", "g.json.solve", 0, base, digest="1")
    assert cli_corpus.compare(tmp_path / "a", tmp_path / "d") == 1
    assert ("DIFFERS g.json.solve: report text differs with equal values"
            in capsys.readouterr().out)
    # Moved floats change the digest too; they are reported as floats only.
    write(tmp_path / "b", "g.json.solve", 0, moved, digest="1")
    assert cli_corpus.compare(tmp_path / "a", tmp_path / "b") == 0


@pytest.mark.parametrize("B, K, message", [
    ([[0.0], [1.0]], [[0.0, 0.0]], "(A, [B_1 ... B_N]) is not stabilizable"),
    ([[0.0], [1.0]], [[-2.0, 3.0]], "(A, [B_1 ... B_N]) is not stabilizable"),
    ([[1.0], [1.0]], [[0.0, 0.0]], "profile does not stabilize the closed loop"),
])
def test_a_failing_profile_is_checked_for_stabilizability(tmp_path, capsys, monkeypatch,
                                                          B, K, message):
    # A = diag(1, -1): with B = [0; 1] its unstable mode is unreachable, so no
    # K stabilizes and the plant is at fault; B = [1; 1] reaches it, so the
    # profile is.  The PBH test runs once per load, only to tell them apart.
    calls, pbh = [], realization._pbh_failures
    monkeypatch.setattr(realization, "_pbh_failures",
                        lambda *args: calls.append(args) or pbh(*args))
    path = tmp_path / "failing.json"
    path.write_text(json.dumps({"schema_version": "1", "A": [[1.0, 0.0], [0.0, -1.0]],
                                "players": [{"B": B, "K_dagger": K}]}))
    for command in ("check", "solve", "verify"):
        assert run_cli(capsys, command, str(path)) == (2, "", f"error: {message}\n"), command
    assert len(calls) == 3


def test_a_linalg_failure_while_loading_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # A non-stabilizing profile sends load_problem to the PBH test, whose
    # eigvals here fails: numpy's LinAlgError is a numerical failure (exit 3),
    # not an input error, although it subclasses ValueError.
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({"schema_version": "1", "A": [[1.0]],
                                "players": [{"B": [[1.0]], "K_dagger": [[0.5]]}]}))
    for command in ("check", "solve", "verify"):
        assert run_cli(capsys, command, str(path)) == (3, "", "numerical failure: injected\n")


def test_a_stabilizing_profile_outranks_the_pbh_rank_rule(tmp_path):
    # B = [1e-12; 1] reaches the unstable mode of A = diag(1, -1) with
    # sigma_min about 1e-12, below the PBH test's rank rule, which calls the
    # pair unstabilizable; yet K = [2e12, 0] makes A - BK Hurwitz (eigenvalues
    # -1, -1), which certifies it.  The library and load_problem accept K
    # alike, and only a failing profile meets the rank rule's verdict.
    A, B, K = [[1.0, 0.0], [0.0, -1.0]], [[1e-12], [1.0]], [[2e12, 0.0]]
    assert realization._pbh_failures(np.array(A).T, np.array(B).T, numerics.RANK_TOL)
    system = GameSystem(np.array(A), [np.array(B)])
    profile = StrategyProfile.stabilizing(system, [np.array(K)])
    with pytest.raises(ValueError, match="not stabilizable"):
        StrategyProfile.stabilizing(system, [np.zeros((1, 2))])
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"schema_version": "1", "A": A,
                                "players": [{"B": B, "K_dagger": K}]}))
    loaded, loaded_profile, _, _ = load_problem(str(path))
    assert np.array_equal(loaded.A, system.A) and np.array_equal(loaded_profile.K[0], profile.K[0])
    assert np.allclose(np.linalg.eigvals(system.A - system.B[0] @ profile.K[0]), -1.0)


def test_output_file(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "check", path, "-o", str(out_path))
    assert code == 0
    assert out == ""
    json.loads(out_path.read_text())


def test_solve_nearest_not_feasible_is_valid_json(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_infeasible")
    costs0 = tmp_path / "costs0.json"
    costs0.write_text('{"Q": [[[1.0]]], "R": [[[[1.0]]]]}')
    code, out, _ = run_cli(capsys, "solve", path, "--nearest", str(costs0))
    assert code == 1
    report = json.loads(out)
    assert report["status"] != "feasible"
    assert report["distance"] is None


def test_non_finite_tol_is_input_error(tmp_path, capsys):
    raw = json.loads(BUNDLED["scalar_feasible"])
    path = tmp_path / "tol.json"
    for bad in ([1], "1e-8", True, None, math.inf, math.nan, 10 ** 400):
        raw["tol"] = bad
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2, bad
        assert err.startswith("error: tol:"), err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_finite_tol_flag_is_input_error(tmp_path, capsys, command):
    # --tol follows the problem file's rule for tol.  Unchecked, inf made the
    # positive-definite floor of R infinite ("R[0][0] is not positive
    # definite" for R = 1), and nan lost to max(file tol, nan).
    path = write_example(tmp_path, "two_player_scalar")
    for bad in ("inf", "-inf", "nan"):
        assert run_cli(capsys, command, path, f"--tol={bad}") == (
            2, "", "error: --tol: must be a finite number >= 0\n"), bad


def test_x0_is_ignored_like_any_unknown_key(tmp_path, capsys):
    raw = json.loads(BUNDLED["scalar_feasible"])
    path = tmp_path / "x0.json"
    for x0 in ({"a": 1}, [1.0, 2.0], "x"):
        raw["x0"] = x0
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "check", str(path), "--no-oracle")
        assert code == 0, (x0, err)
        assert json.loads(out)["verdict_frequency"] == "inducible"


def test_reports_carry_loop_iterations(tmp_path, capsys):
    path = write_example(tmp_path, "remark2")
    system, profile, _, _ = load_problem(path)
    players = [inverse.analyze_player(system, profile, i) for i in range(system.num_players)]
    # check and solve report the oracle's searches, one per player.
    sols = solve_feasibility_projection(system, profile).solutions
    assert all(s.iterations > 0 for s in sols)
    assert all(s.gap <= PROJECTION_TOL for s in sols)
    kalman = {"kalman_iterations": [s.iterations for s in sols],
              "kalman_gaps": [s.gap for s in sols]}
    # Player 0 has p < m (a rank-completed pencil), player 1 p = m.
    probes = [p.probes for p in players]
    assert [(p.p, system.m[p.index]) for p in players] == [(1, 2), (1, 1)]
    assert all(k > 0 for k in probes)
    _, out, _ = run_cli(capsys, "check", path)
    report = json.loads(out)
    assert list(report)[-2:] == ["timings_ms", "diagnostics"]
    assert list(report["timings_ms"]) == ["frequency", "oracle"]
    assert report["diagnostics"] == {**kalman, "circle_probes": probes}
    _, out, _ = run_cli(capsys, "check", path, "--no-oracle")
    assert json.loads(out)["diagnostics"] == {"kalman_iterations": None, "kalman_gaps": None,
                                              "circle_probes": probes}
    _, out, _ = run_cli(capsys, "solve", path)
    assert json.loads(out)["diagnostics"] == {**kalman, "circle_probes": probes}
    (one,) = solve_feasibility_projection(system, profile, [1]).solutions
    _, out, _ = run_cli(capsys, "check", path, "--player", "1")
    assert json.loads(out)["diagnostics"] == {
        "kalman_iterations": [one.iterations], "kalman_gaps": [one.gap],
        "circle_probes": probes[1:]}
    path = write_example(tmp_path, "scalar_feasible")
    costs0 = tmp_path / "costs0.json"
    costs0.write_text('{"Q": [[[5.0]]], "R": [[[[1.0]]]]}')
    system, profile, _, _ = load_problem(path)
    nearest = nearest_params(load_costs(str(costs0), system), system, profile)
    assert all(gap <= PROJECTION_TOL for gap in nearest.gaps)
    _, out, _ = run_cli(capsys, "solve", path, "--nearest", str(costs0))
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics == {"nearest_iterations": list(nearest.iterations),
                           "nearest_gaps": list(nearest.gaps)}
    # A one-dimensional kernel whose ray meets the cones: Douglas-Rachford
    # answers in one iteration.
    assert diagnostics["nearest_iterations"] == [1]


def test_nearest_is_indeterminate_when_a_loop_stops_at_its_cap(tmp_path, monkeypatch, capsys):
    # The player of this game has m_i = 2, so no pinned block decides, and its
    # Douglas-Rachford loop stops at the cap short of PROJECTION_TOL: no
    # costs, and solve --nearest exits 1 with no distance.
    results = []
    monkeypatch.setattr(cli, "nearest_params",
                        lambda *args: results.append(nearest_params(*args)) or results[-1])
    costs0 = tmp_path / "costs0.json"
    costs0.write_text(json.dumps({"Q": [np.eye(3).tolist()], "R": [[np.eye(2).tolist()]]}))
    code, out, _ = run_cli(capsys, "solve", str(DATA / "allpass_n3_N1_m2.json"),
                           "--nearest", str(costs0))
    [res] = results
    assert (res.status, res.costs, res.distance) == ("indeterminate", None, float("inf"))
    assert res.iterations == (PROJECTION_CAP,)
    assert res.gaps[-1] > PROJECTION_TOL
    report = json.loads(out)
    assert (code, report["status"], report["distance"]) == (1, "indeterminate", None)


def test_scalar_cost_file_is_input_error(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    costs0 = tmp_path / "costs0.json"
    costs0.write_text('{"Q": 1, "R": 1}')
    code, _, err = run_cli(capsys, "solve", path, "--nearest", str(costs0))
    assert code == 2
    assert err.startswith("error: Q:"), err


def test_cost_file_r_row_not_a_list_is_input_error(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    costs0 = tmp_path / "costs0.json"
    costs0.write_text('{"Q": [[[1.0]]], "R": [5]}')
    code, _, err = run_cli(capsys, "solve", path, "--nearest", str(costs0))
    assert code == 2
    assert err.startswith("error: R[0]:"), err


@pytest.mark.parametrize("error, code, prefix", [
    (np.linalg.LinAlgError("Eigenvalues did not converge"), 3, "numerical failure"),
    (ValueError("injected"), 2, "error"),
])
def test_linalg_failure_outside_a_stage_is_a_numerical_failure(tmp_path, monkeypatch, capsys,
                                                               error, code, prefix):
    # numpy's LinAlgError subclasses ValueError; raised by the cost checks of
    # verify and solve --nearest (outside any frequency or kalman stage) it
    # still exits 3, while a plain ValueError stays an input error.
    costs0 = tmp_path / "costs0.json"
    costs0.write_text('{"Q": [[[5.0]]], "R": [[[[1.0]]]]}')

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    for argv in (["verify", str(DATA / "ladder_r0_n8_N3_m2.json")],
                 ["solve", write_example(tmp_path, "scalar_feasible"), "--nearest", str(costs0)]):
        assert run_cli(capsys, *argv) == (code, "", f"{prefix}: {error}\n"), argv


def test_check_rejects_tol(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    with pytest.raises(SystemExit) as exc:
        main(["check", path, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_grid_flag_removed(tmp_path, capsys):
    path = write_example(tmp_path, "scalar_feasible")
    with pytest.raises(SystemExit) as exc:
        main(["check", path, "--grid", "10"])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_solve_tol_reaches_verify_nash(tmp_path, capsys, monkeypatch):
    import nashinduce.cli as cli

    seen = []
    real = cli.verify_nash

    def spy(*args, tol, **kwargs):
        seen.append(tol)
        return real(*args, tol=tol, **kwargs)

    monkeypatch.setattr(cli, "verify_nash", spy)
    path = write_example(tmp_path, "two_player_scalar")
    code, _, _ = run_cli(capsys, "solve", path, "--tol", "1e-5")
    assert code == 0
    assert seen == [1e-5]


def _first_mismatch(emitted, value, path="report"):
    """The path of the first field where the parsed report `emitted` differs
    from the in-process `value`, or None: floats bit for bit (a non-finite one
    as null), keys in order, every other value equal and of the same type."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        if not isinstance(emitted, dict) or list(emitted) != list(value):
            return path
        return next(filter(None, (_first_mismatch(emitted[key], item, f"{path}.{key}")
                                  for key, item in value.items())), None)
    if isinstance(value, (list, tuple)):
        if not isinstance(emitted, list) or len(emitted) != len(value):
            return path
        return next(filter(None, (_first_mismatch(e, v, f"{path}[{k}]")
                                  for k, (e, v) in enumerate(zip(emitted, value)))), None)
    if type(value) is float and not math.isfinite(value):
        return None if emitted is None else path
    if type(value) is float:
        return None if type(emitted) is float and emitted.hex() == value.hex() else path
    return None if (type(emitted), emitted) == (type(value), value) else path


def test_reports_round_trip_exactly(tmp_path, monkeypatch, capsys):
    # Every float of a verify, solve and solve --nearest report parses back
    # to the value the command computed, bit for bit, on each tests/data
    # fixture and a closed-form Nash game at n = 32.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import games
    closed = tmp_path / "closed_n32.json"
    closed.write_text(games.closed_form_nash((1, 0, 7), 32, 2, 1).problem_json())
    reports = []
    write = cli._write_report
    monkeypatch.setattr(cli, "_write_report",
                        lambda report, args: reports.append(report) or write(report, args))
    written = 0
    for path in [closed, *sorted(DATA.glob("*.json"))]:
        system, _, _, _ = load_problem(str(path))
        N = system.num_players
        costs0 = tmp_path / f"costs0_{path.name}"
        costs0.write_text(json.dumps({
            "Q": [np.eye(system.n).tolist()] * N,
            "R": [[np.eye(system.m[j]).tolist() if i == j else np.zeros((system.m[j],) * 2).tolist()
                   for j in range(N)] for i in range(N)]}))
        for argv in (["verify"], ["solve"], ["solve", "--nearest", str(costs0)]):
            reports.clear()
            code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
            if code == 2:  # verify on a file without costs
                assert argv == ["verify"] and not reports and out == "", path
                continue
            (report,) = reports
            where = _first_mismatch(json.loads(out), report)
            assert where is None, (path.name, argv, where)
            written += 1
    assert written == 3 * 8 - 2  # allpass and infeasible carry no costs to verify
    # Non-finite floats are null; numpy scalars, and the arrays orjson does
    # not write itself (0-d, Fortran-ordered, sliced), are written exactly.
    nan, inf = float("nan"), float("inf")
    M = np.arange(12.0).reshape(3, 4) / 7
    values = {"non_finite": [nan, inf, -inf, np.float64(-inf), np.array([nan, inf, -inf, 0.1])],
              "scalars": [np.float64(0.1), np.float32(0.5), np.int64(-7), np.bool_(True)],
              "zero_d": np.array(1 / 3), "fortran": np.asfortranarray(M), "sliced": M[:, ::2],
              "rows": (M[0].tolist(), -0.0, 1e-320, 1.7976931348623157e308),
              "text": ["s\u00e9\"q", None, False, 2 ** 53 + 1]}
    emitted = json.loads(dumps_report(values))
    assert _first_mismatch(emitted, values) is None
    assert emitted["non_finite"] == [None, None, None, None, [None, None, None, 0.1]]
    for unknown in (1j, {1.0}, np.array([1j, 2j])[::2], object()):
        with pytest.raises(TypeError):
            dumps_report({"x": unknown})


def _tolist_fields(report):
    """The report with every array replaced by its .tolist()."""
    if isinstance(report, dict):
        return {key: _tolist_fields(value) for key, value in report.items()}
    if isinstance(report, list):
        return [_tolist_fields(value) for value in report]
    return report.tolist() if isinstance(report, np.ndarray) else report


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_text_format_renders_arrays_as_lists(tmp_path, monkeypatch, capsys, command):
    # The text reports of verify and solve at n = 32, whose matrices reach
    # the writer as arrays, are byte-identical to rendering the same report
    # with .tolist() fields.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import games
    problem = tmp_path / "closed.json"
    problem.write_text(games.closed_form_nash((1, 0, 7), 32, 2, 1).problem_json())
    reports = []
    write = cli._write_report
    monkeypatch.setattr(cli, "_write_report",
                        lambda report, args: reports.append(report) or write(report, args))
    code, text, err = run_cli(capsys, command, str(problem), "--format", "text")
    assert (code, err, len(reports)) == (0, "", 1)
    assert any(isinstance(p["P"], np.ndarray) for p in reports[0]["players"])
    assert text == cli._format_text(_tolist_fields(reports[0]))
    assert "  P: [[" in text


@pytest.mark.parametrize("command", ["check", "verify", "example"])
def test_unwritable_output_path_is_an_input_error(tmp_path, capsys, command):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    arg = ("scalar_feasible" if command == "example"
           else write_example(tmp_path, "two_player_scalar"))
    code, out, err = run_cli(capsys, command, arg, "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not target.exists()


def test_check_ladder_n8_game_decided_by_both_methods(capsys):
    # Game r2-ladder-n8-N2-m1 of the benchmark corpus (perfbench at CORPUS_SEED);
    # plain alternating projections left its oracle at the 10k cap.
    code, out, _ = run_cli(capsys, "check", str(DATA / "ladder_r2_n8_N2_m1.json"))
    report = json.loads(out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        0, "inducible", "inducible")


def test_check_searches_once_per_player(monkeypatch, capsys):
    # Same game: the Kalman-equation search is the oracle, so check runs one
    # cone search per player, and with P eliminated it converges in tens of
    # iterations (the (Q, R, P) search took 236 and 203).
    calls = []

    def counting(*args):
        calls.append(1)
        return project_affine_cone(*args)

    monkeypatch.setattr(feasibility, "project_affine_cone", counting)
    path = str(DATA / "ladder_r2_n8_N2_m1.json")
    code, out, _ = run_cli(capsys, "check", path)
    report = json.loads(out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        0, "inducible", "inducible")
    system, profile, _, _ = load_problem(path)
    assert len(calls) == system.num_players
    res = solve_feasibility_projection(system, profile)
    assert res.status == "feasible"
    iterations = [s.iterations for s in res.solutions]
    assert len(iterations) == system.num_players and max(iterations) <= 50


def test_each_command_runs_one_stack_and_one_search_per_listed_player(monkeypatch, capsys):
    # check, check --player 1, solve and solve --mode q-only on a 3-player game
    # each build one adjoint stack and run one cone search per listed player.
    stacks, searches = [], []
    stationarity_maps = feasibility.stationarity_maps
    player_feasibility = feasibility.player_feasibility
    monkeypatch.setattr(feasibility, "stationarity_maps",
                        lambda *a, **k: stacks.append(1) or stationarity_maps(*a, **k))
    monkeypatch.setattr(feasibility, "player_feasibility",
                        lambda s, p, i, *a: searches.append((i,) + a[:1])
                        or player_feasibility(s, p, i, *a))
    path = str(DATA / "ladder_r0_n8_N3_m2.json")
    for argv, expected in ((["check", path], [(0, "general"), (1, "general"), (2, "general")]),
                           (["check", path, "--player", "1"], [(1, "general")]),
                           (["solve", path], [(0, "general"), (1, "general"), (2, "general")]),
                           (["solve", path, "--mode", "q-only"],
                            [(0, "q-only"), (1, "q-only"), (2, "q-only")])):
        stacks.clear()
        searches.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1), err
        assert (len(stacks), searches) == (1, expected), argv


@pytest.mark.parametrize("command", ["check", "solve"])
def test_search_failure_names_the_player_and_stage(tmp_path, monkeypatch, capsys, command):
    # A failing search names its player; a failing stack names the first
    # player listed (check --player 1 lists player 1 only).
    path = write_example(tmp_path, "two_player_scalar")
    player_feasibility = feasibility.player_feasibility

    def failing(system, profile, i, *args):
        if i == 1:
            raise NumericalFailureError("residual 1e-3 above tolerance")
        return player_feasibility(system, profile, i, *args)

    def failing_stack(*args):
        raise np.linalg.LinAlgError("Schur form did not converge")

    monkeypatch.setattr(feasibility, "player_feasibility", failing)
    assert run_cli(capsys, command, path) == (
        3, "", "numerical failure: player 1: kalman: residual 1e-3 above tolerance\n")
    monkeypatch.setattr(feasibility, "stationarity_maps", failing_stack)
    argv, first = ([command, path, "--player", "1"], 1) if command == "check" else ([command, path], 0)
    assert run_cli(capsys, *argv) == (
        3, "", f"numerical failure: player {first}: kalman: Schur form did not converge\n")


def test_cone_searches_form_no_kronecker_sum(tmp_path, monkeypatch, capsys):
    # The Kalman searches build their map from adjoint Lyapunov solves: check,
    # solve and solve --nearest on an n = 16 closed-form Nash game (from
    # perfbench/games.py) call numerics.kron_sum not once.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import games
    calls, kron_sum = [], numerics.kron_sum

    def counting(*args):
        calls.append(1)
        return kron_sum(*args)

    for module in (numerics, feasibility):
        monkeypatch.setattr(module, "kron_sum", counting)
    game = games.closed_form_nash((1,), 16, 2, 2)
    problem, costs0 = tmp_path / "closed_n16.json", tmp_path / "costs0.json"
    problem.write_text(game.problem_json())
    costs0.write_text(json.dumps({
        "Q": [np.eye(16).tolist()] * 2,
        "R": [[(np.eye(2) if i == j else np.zeros((2, 2))).tolist() for j in range(2)]
              for i in range(2)]}))
    for argv in (("check",), ("solve",), ("solve", "--nearest", str(costs0))):
        assert run_cli(capsys, argv[0], str(problem), *argv[1:])[0] == 0, argv
    assert calls == []


@pytest.mark.parametrize("n", [24, 32])
@pytest.mark.parametrize("N, m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_check_and_solve_at_claimed_sizes(tmp_path, capsys, n, N, m):
    # Closed-form Nash games (perfbench/games.py) at the largest sizes the
    # package claims: both methods call them inducible, and solve's costs verify.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import games
    problem = tmp_path / "closed.json"
    problem.write_text(games.closed_form_nash((1, 0, 7), n, N, m).problem_json())
    code, out, err = run_cli(capsys, "check", str(problem))
    report = json.loads(out)
    assert (code, err, report["verdict_frequency"], report["verdict_oracle"]) == (
        0, "", "inducible", "inducible")
    code, out, err = run_cli(capsys, "solve", str(problem))
    report = json.loads(out)
    assert (code, err, report["status"], report["verify_ok"]) == (0, "", "solved", True)


def test_solve_ladder_n8_game_verifies(capsys):
    # Game r0-ladder-n8-N3-m2 of the benchmark corpus (perfbench at CORPUS_SEED).
    # The polynomial Kalman map's numerical kernel was too large here (26
    # where the solution set has 23 dimensions), and its costs failed verify_nash.
    code, out, _ = run_cli(capsys, "solve", str(DATA / "ladder_r0_n8_N3_m2.json"))
    report = json.loads(out)
    assert (code, report["status"], report["verify_ok"]) == (0, "solved", True)


def test_solve_nearest_ladder_n4_game_verifies(tmp_path, capsys):
    # Game r2-ladder-n4-N3-m1-d0 of the benchmark corpus (perfbench at
    # CORPUS_SEED) with identity reference costs; Dykstra's loop stopped at
    # the 10k cap on players 1 and 2 and answered "indeterminate".
    path = str(DATA / "nearest_r2_n4_N3_m1.json")
    system, profile, _, _ = load_problem(path)
    N = system.num_players
    costs0 = tmp_path / "costs0.json"
    costs0.write_text(json.dumps({
        "Q": [np.eye(system.n).tolist()] * N,
        "R": [[np.eye(1).tolist() if i == j else [[0.0]] for j in range(N)] for i in range(N)]}))
    code, out, _ = run_cli(capsys, "solve", path, "--nearest", str(costs0))
    report = json.loads(out)
    assert (code, report["status"]) == (0, "feasible")
    nearest = nearest_params(load_costs(str(costs0), system), system, profile)
    assert report["diagnostics"]["nearest_gaps"] == list(nearest.gaps)
    assert all(0.0 < gap <= PROJECTION_TOL for gap in nearest.gaps)
    costs = CostParameters([np.array(p["Q"]) for p in report["players"]],
                           [[np.array(Rij) for Rij in p["R_row"]] for p in report["players"]])
    assert verify_nash(system, profile, costs)[0]


def check_certifies_by_the_pinned_block(capsys, path, player):
    """check on a game whose `player` alone has a failing pinned block: both
    methods say not_inducible (exit 1), and the oracle certifies that player
    with no loop."""
    system, profile, _, _ = load_problem(path)
    assert [i for i in range(system.num_players)
            if feasibility.pinned_fails(system, profile, i)] == [player]
    code, out, _ = run_cli(capsys, "check", path)
    report = json.loads(out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        1, "not_inducible", "not_inducible")
    assert report["diagnostics"]["kalman_iterations"][player] == 0
    assert report["diagnostics"]["kalman_gaps"][player] == 0.0
    assert report["players"][player]["kalman"]["status"] == "infeasible"


def test_check_certifies_the_infeasible_n3_game_by_the_pinned_block(capsys):
    # Game r1-infeasible-n3-N3-m1 of the benchmark corpus: player 2's cone
    # search stalls outside the cones and runs to its cap, but its pinned block
    # (-0.125 relative to the scale of its terms) certifies it before any loop.
    check_certifies_by_the_pinned_block(capsys, str(DATA / "infeasible_r1_n3_N3_m1.json"), 2)


def test_check_certifies_the_infeasible_n2_game_by_the_pinned_block(tmp_path, capsys):
    # Game r0-infeasible-n2-N2-m1 of the benchmark corpus (perfbench at
    # CORPUS_SEED): player 0's cone search stalls outside the cones, but its
    # pinned block certifies it before any loop.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import games
    from workloads import CORPUS_SEED
    path = tmp_path / "infeasible_n2.json"
    path.write_text(games.infeasible((CORPUS_SEED, 0, 3), 2, 1).problem_json())
    check_certifies_by_the_pinned_block(capsys, str(path), 0)


def test_nearest_certifies_an_infeasible_single_input_player_without_a_loop(tmp_path, capsys):
    # Game r1-infeasible-n3-N3-m1 with identity reference costs: player 2's
    # Douglas-Rachford loop runs to its cap short of PROJECTION_TOL, but its
    # pinned block certifies the player before any loop.
    costs0 = tmp_path / "costs0.json"
    costs0.write_text(json.dumps({
        "Q": [np.eye(3).tolist()] * 3,
        "R": [[[[1.0 if i == j else 0.0]] for j in range(3)] for i in range(3)]}))
    code, out, err = run_cli(capsys, "solve", str(DATA / "infeasible_r1_n3_N3_m1.json"),
                             "--nearest", str(costs0))
    report = json.loads(out)
    assert (code, err, report["status"], report["distance"], report["players"]) == (
        1, "", "infeasible_certified_by_identity", None, [])
    assert report["diagnostics"]["nearest_iterations"][-1] == 0
    assert report["diagnostics"]["nearest_gaps"][-1] == 0.0
    assert len(report["diagnostics"]["nearest_iterations"]) == 3


def test_q_only_certifies_a_multi_input_player_by_its_pinned_block(capsys):
    # The player of allpass_n3_N1_m2 has m_i = 2; q-only pins R_ii = I, so its
    # pinned block decides, where the general-mode search stops at the cap.
    path = str(DATA / "allpass_n3_N1_m2.json")
    code, out, err = run_cli(capsys, "solve", path, "--mode", "q-only")
    report = json.loads(out)
    assert (code, err, report["kalman_status"]) == (1, "", "infeasible")
    assert report["diagnostics"]["kalman_iterations"] == [0]
