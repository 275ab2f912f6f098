"""Tests of the benchmark itself: generators, independent checker, tracing.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checker  # noqa: E402
import games  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nashinduce import cli  # noqa: E402

SEEDS = (1, 7919)
SMALL_CELLS = ((2, 2, 1), (4, 3, 2), (8, 2, 3))


def test_generators_are_deterministic_per_seed():
    for seed in SEEDS:
        a = [g.problem_json() for g in games.verify_games(seed, 0)]
        assert a == [g.problem_json() for g in games.verify_games(seed, 0)]
        for n, N, m in SMALL_CELLS:
            g1, g2 = games.ladder_nash((seed, 0, 1), n, N, m), games.ladder_nash((seed, 0, 1), n, N, m)
            assert g1.problem_json() == g2.problem_json()
        for N, m in games.INFEASIBLE_SHAPES:
            assert (games.infeasible((seed, 0, 3), N, m).problem_json()
                    == games.infeasible((seed, 0, 3), N, m).problem_json())
    assert ([g.problem_json() for g in games.verify_games(SEEDS[0], 0)]
            != [g.problem_json() for g in games.verify_games(SEEDS[1], 0)])
    assert (games.ladder_nash((SEEDS[0], 0, 1), 4, 2, 1).problem_json()
            != games.ladder_nash((SEEDS[1], 0, 1), 4, 2, 1).problem_json())


def test_nash_built_games_pass_the_independent_checker():
    for seed in SEEDS:
        for g in games.verify_games(seed, 0):
            result = checker.is_nash(g.A, g.B, g.K, g.Q, g.R)
            assert result.ok == g.expect["verify"]["verified"], (g.name, result.reason)
            assert not checker.fails_w0_test(g.A, g.B, g.K)
        for n, N, m in SMALL_CELLS:
            g = games.ladder_nash((seed, 0, 1), n, N, m)
            assert g is not None
            assert checker.is_nash(g.A, g.B, g.K, g.Q, g.R).ok
            assert not checker.fails_w0_test(g.A, g.B, g.K)


def test_infeasible_games_fail_the_w0_test():
    for seed in SEEDS:
        for r in range(workloads.ROUNDS):
            shapes = [((seed, r, 3), N, m) for N, m in games.INFEASIBLE_SHAPES]
            shapes += [((seed, r, 3, k), 1, 1) for k in range(games.SCALAR_INFEASIBLE)]
            for key, N, m in shapes:
                g = games.infeasible(key, N, m)
                assert checker.fails_w0_test(g.A, g.B, g.K), g.name
                Acl = g.A - sum(B @ K for B, K in zip(g.B, g.K))
                assert np.max(np.linalg.eigvals(Acl).real) < 0
    g = games.bundled("scalar_infeasible")
    assert checker.fails_w0_test(g.A, g.B, g.K)


def _call(tmp_path, command, game):
    r = 0
    calls = workloads._calls(str(tmp_path), r, command, [game])
    return calls[0]


def test_grading_flags_wrong_answers(tmp_path):
    g = games.ladder_nash((SEEDS[0], 0, 1), 4, 2, 1)
    call = _call(tmp_path, "check", g)
    ok_report = {"verdict_frequency": "inducible", "verdict_oracle": "inducible"}
    assert workloads.grade(call, 0, ok_report) == (True, True, False)
    abstain = {"verdict_frequency": "inducible", "verdict_oracle": "indeterminate"}
    assert workloads.grade(call, 0, abstain) == (True, False, False)
    bad = {"verdict_frequency": "not_inducible", "verdict_oracle": "inducible"}
    assert workloads.grade(call, 4, bad)[2]
    assert workloads.grade(call, 3, None) == (False, False, False)

    solve = _call(tmp_path, "solve", g)
    players = [{"Q": Q.tolist(), "R": R[i].tolist()} for i, (Q, R) in enumerate(zip(g.Q, g.R))]
    good = {"status": "solved", "players": players}
    assert workloads.grade(solve, 0, good) == (True, True, False)
    players[0]["Q"] = (2.0 * g.Q[0]).tolist()
    assert workloads.grade(solve, 0, good) == (True, False, True)


def test_traced_self_times_sum_to_end_to_end_time(tmp_path):
    pool = [("check", games.bundled("remark2")),
            ("solve", games.ladder_nash((SEEDS[0], 0, 1), 4, 2, 2)),
            ("nearest", games.bundled("two_player_scalar")),
            ("verify", games.verify_games(SEEDS[0], 0)[0])]
    tracer = tracing.Tracer()
    originals = (cli.main, tracing.importlib.import_module("nashinduce.inverse").psd_project)
    out = str(tmp_path / "report.json")
    e2e = {}
    for command, game in pool:
        call = _call(tmp_path, command, game)
        tracer.install()
        try:
            code, ms, report, _ = workloads.run_call(cli, call, out, tracer)
        finally:
            tracer.uninstall()
        assert workloads.grade(call, code, report)[0]
        e2e[len(tracer.traces) - 1] = ms
    assert (cli.main, tracing.importlib.import_module("nashinduce.inverse").psd_project) == originals
    cols = tracer.arrays()
    for trace_id, ms in e2e.items():
        mine = cols["trace"] == trace_id
        self_ms = cols["self"][mine].sum() / 1e6
        # The spans tile the root call exactly; the slack covers the wrapper
        # of the root span and the timer calls around it.
        assert self_ms <= ms
        assert ms - self_ms <= 0.02 * ms + 0.5, (trace_id, ms, self_ms)
        assert (cols["self"][mine] >= 0).all()


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    g = games.bundled("scalar_feasible")
    outcomes = [workloads.Outcome(workloads.Call(c, g, ""), 0, 1.0 + k, True, True, False)
                for c in workloads.COMMANDS for k in range(3)]
    e2e = workloads.end_to_end_metrics(outcomes, 1.0, 100.0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(u == m["unit"] for (_, u), m in zip(e2e.values(), spec["end_to_end"]))
    layer = tracing.per_layer_metrics(tracing.Tracer(), {})
    layer["tracing.overhead_ratio"] = (1.0, "ratio")
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in layer.items())


def test_failed_calls_rank_above_completed_ones():
    g = games.bundled("scalar_feasible")
    fast_fail = workloads.Outcome(workloads.Call("check", g, ""), 3, 0.5, False, False, False)
    slow_ok = workloads.Outcome(workloads.Call("check", g, ""), 0, 170e3, True, True, False)
    assert fast_fail.charged_ms > slow_ok.charged_ms
    # Scaling to the reference speed applies to measured time, not the charge.
    fast_fail.scale = 2.0
    assert fast_fail.charged_ms == workloads.FAILED_CALL_MS + 1.0
