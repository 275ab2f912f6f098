import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nashinduce import CostParameters, cli, feasibility, inverse, numerics, verify_nash
from nashinduce.cli import dumps_report, load_costs, load_problem, main
from nashinduce.feasibility import nearest_params, solve_feasibility_projection
from nashinduce.inverse import is_nash_inducible
from nashinduce.numerics import PROJECTION_TOL, NumericalFailureError, project_affine_cone
from nashinduce.problems import BUNDLED


DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    assert cert["real_witness"] is True
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
    # A failure on the polynomial route names its stage too.
    monkeypatch.undo()
    monkeypatch.setattr(inverse, "right_coprime_factorization", failing)
    code, out, _ = run_cli(capsys, "check", write_example(tmp_path, "remark2"))
    report = json.loads(out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        0, "error", "inducible")
    assert report["frequency_error"]["stage"] == "realization"
    assert report["players"][1]["circle_method"] == "state_space"


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
    # fixed float formatting
    assert "3.000000000000e+00" in out1


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
    assert report["phi_at_witness"] == pytest.approx(-0.75)


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


def test_nonstabilizing_profile_is_input_error(tmp_path, capsys):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({
        "schema_version": "1", "A": [[1.0]],
        "players": [{"B": [[1.0]], "K_dagger": [[0.5]]}]}))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "stabilize" in err


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
    players = is_nash_inducible(system, profile).players
    assert all(p.kalman.iterations > 0 for p in players)
    assert all(p.kalman.gap <= PROJECTION_TOL for p in players)
    # The oracle is the same loop: its iterations and gaps are the Kalman ones.
    feas = solve_feasibility_projection(system, profile)
    assert feas.iterations == tuple(p.kalman.iterations for p in players)
    assert feas.gaps == tuple(p.kalman.gap for p in players)
    # Gaps as the report prints them (12 digits).
    kalman = {"kalman_iterations": [p.kalman.iterations for p in players],
              "kalman_gaps": [float("%.12e" % p.kalman.gap) for p in players]}
    # Player 0 takes the polynomial route (p < m), player 1 the state-space one.
    probes = [p.phi_analysis.probes for p in players]
    assert [p.phi_analysis.circle_method for p in players] == ["exact", "state_space"]
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
    path = write_example(tmp_path, "scalar_feasible")
    costs0 = tmp_path / "costs0.json"
    costs0.write_text('{"Q": [[[5.0]]], "R": [[[[1.0]]]]}')
    system, profile, _, _ = load_problem(path)
    nearest = nearest_params(load_costs(str(costs0), system), system, profile)
    assert all(gap <= PROJECTION_TOL for gap in nearest.gaps)
    _, out, _ = run_cli(capsys, "solve", path, "--nearest", str(costs0))
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics == {"nearest_iterations": list(nearest.iterations),
                           "nearest_gaps": [float("%.12e" % gap) for gap in nearest.gaps]}
    # A one-dimensional kernel whose ray meets the cones: no loop runs.
    assert diagnostics == {"nearest_iterations": [0], "nearest_gaps": [0.0]}


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


def reference_emit(obj, parts):
    """The emitter before its fast path for float rows: one call per value."""
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
            reference_emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(", ")
            reference_emit(item, parts)
        parts.append("]")
    elif isinstance(obj, np.ndarray):
        reference_emit(obj.tolist(), parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _random_report(rng, depth):
    """Nested dicts, lists, tuples and arrays of every value kind a report
    holds: floats with nan, +-inf and -0.0, numpy scalars, ints, bools."""
    specials = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, -1e300]

    def leaf():
        kind = int(rng.integers(9))
        x = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-20, 20))
        return [x, specials[int(rng.integers(len(specials)))], np.float64(x),
                np.float32(x), int(rng.integers(-9, 9)), np.int64(7), bool(kind % 2),
                None, "s\u00e9\"q"][kind]

    def rows():
        M = rng.standard_normal((int(rng.integers(0, 4)), int(rng.integers(0, 5))))
        M.flat[rng.integers(0, max(M.size, 1), size=min(M.size, 2))] = specials[:min(M.size, 2)]
        return M if rng.random() < 0.5 else M.tolist()

    if depth == 0:
        return leaf() if rng.random() < 0.5 else rows()
    kind = int(rng.integers(3))
    items = [_random_report(rng, depth - 1) for _ in range(int(rng.integers(0, 5)))]
    if kind == 0:
        return {f"k{i}": item for i, item in enumerate(items)}
    return items if kind == 1 else tuple(items)


def test_emitter_fast_path_is_byte_identical():
    rng = np.random.default_rng(9)
    for _ in range(300):
        report = _random_report(rng, int(rng.integers(0, 4)))
        parts = []
        reference_emit(report, parts)
        assert dumps_report(report) == "".join(parts) + "\n"
    assert dumps_report([1.0, -0.0, float("nan"), np.float64(2.0)]) == \
        "[1.000000000000e+00, -0.000000000000e+00, null, 2.000000000000e+00]\n"


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
    assert len(res.iterations) == system.num_players and max(res.iterations) <= 50


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
    assert report["diagnostics"]["nearest_gaps"] == [float("%.12e" % gap) for gap in nearest.gaps]
    assert all(0.0 < gap <= PROJECTION_TOL for gap in nearest.gaps)
    costs = CostParameters([np.array(p["Q"]) for p in report["players"]],
                           [[np.array(Rij) for Rij in p["R_row"]] for p in report["players"]])
    assert verify_nash(system, profile, costs)[0]


def test_check_infeasible_n3_game_stays_undecided_by_the_oracle(capsys):
    # Game r1-infeasible-n3-N3-m1 of the benchmark corpus: the oracle's loop of
    # player 2 stalls outside the cones and reports the cap.
    code, out, _ = run_cli(capsys, "check", str(DATA / "infeasible_r1_n3_N3_m1.json"))
    report = json.loads(out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        1, "not_inducible", "indeterminate")
    assert report["diagnostics"]["kalman_iterations"][-1] == 10_000
    assert [p["kalman"]["status"] for p in report["players"]][-1] == "indeterminate"
