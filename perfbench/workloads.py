"""The workloads: call schedules, grading against ground truth, metrics.

A run sets up ROUNDS pools of distinct games (one pool per round), writes
their problem files, then makes every scheduled CLI call once, one at a time,
in a seeded shuffled order (a closed loop with one client). Each call goes
through ``nashinduce.cli.main(argv)`` with the report written to a file, so
argument parsing, problem loading and report emission are all timed.

The games come from a fixed corpus (CORPUS_SEED); ``--seed`` shuffles the
call order. One call's cost varies a hundredfold between games (loop
iterations to convergence or to the cap), and it moves by up to 2x when a
game is only put in other state coordinates, so with about a hundred games
per run, percentiles over freshly drawn or rotated games follow the draw
rather than the program.

Grading per call:

* exit_ok: the exit code equals the expected one.
* verdict_ok: every verdict in the report matches ground truth, and returned
  costs pass the independent checker.
* wrong: a determinate answer that contradicts ground truth, such as
  "not_inducible" for a Nash game or "solved" with costs that are not Nash.
  "indeterminate", exit 3 and "verification_failed" are abstentions: they
  count against exit_ok / verdict_ok but are not wrong answers.

A call with a wrong exit code, a crash or no time left is charged
FAILED_CALL_MS plus its measured time in the latency percentiles, so it ranks
above every completed call and a correctness fix can only lower a percentile.

Times are reported at a reference machine speed. The shared machine the
benchmark was built on switches between a fast and a slow state (a fixed
kernel takes about 6 or 10 ms) every few seconds, so identical calls differed
by up to 60% between runs. Each timed call is therefore bracketed by two runs
of a fixed kernel (``Speed``) and its time is multiplied by
CALIBRATION_REF_MS over their mean; raw times are kept in the run summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checker
import games

ROUNDS = 3
CORPUS_SEED = 20220712
# Time of ``calibration_ms`` on the reference machine in its fast state
# (2-core Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).
CALIBRATION_REF_MS = 6.0
# Control calls per round and example: 2 examples x 17 x 3 rounds = 102.
CONTROL_REPEATS = 17
FAILED_CALL_MS = 1e6
COMMANDS = ("check", "solve", "nearest", "verify")


@dataclass
class Call:
    command: str  # check | solve | nearest | verify
    game: games.Game
    problem: str
    costs0: str | None = None

    def argv(self, out: str) -> list:
        if self.command == "nearest":
            return ["solve", self.problem, "--nearest", self.costs0, "-o", out]
        return [self.command, self.problem, "-o", out]


@dataclass
class Outcome:
    call: Call
    code: int | None  # None: crashed or not run
    ms: float
    exit_ok: bool
    verdict_ok: bool
    wrong: bool
    crashed: bool = False
    timed_out: bool = False
    note: str = ""  # what the call answered, to label failures
    scale: float = 1.0  # reference-speed factor of the call

    @property
    def charged_ms(self) -> float:
        return self.scale * self.ms + (0.0 if self.exit_ok else FAILED_CALL_MS)


def calibration_ms() -> float:
    """Time of a fixed kernel shaped like the package's work: small symmetric
    eigendecompositions with a Python loop over matrix entries, and dense
    solves. It runs no package code, so only the machine's speed moves it."""
    rng = np.random.default_rng(0)
    M = rng.standard_normal((12, 12))
    S = M + M.T
    D = rng.standard_normal((200, 200)) + 200.0 * np.eye(200)
    t0 = time.perf_counter()
    for _ in range(100):
        np.linalg.eigh(S)
        sum(S[k, l] for k in range(12) for l in range(k, 12))
    for _ in range(2):
        np.linalg.solve(D, np.ones(200))
    return 1e3 * (time.perf_counter() - t0)


class Speed:
    """Machine speed, sampled with ``calibration_ms`` around each timed step."""

    def __init__(self):
        self.samples = [calibration_ms()]

    def scale(self) -> float:
        """Reference-speed factor of the step since the previous sample."""
        self.samples.append(calibration_ms())
        return CALIBRATION_REF_MS / (0.5 * (self.samples[-2] + self.samples[-1]))

    def summary(self) -> list:
        """Smallest, median and largest factor of a single sample."""
        factors = sorted(CALIBRATION_REF_MS / c for c in self.samples)
        return [factors[0], statistics.median(factors), factors[-1]]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _problem_file(workdir: str, r: int, game: games.Game) -> str:
    path = os.path.join(workdir, f"r{r}-{game.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(game.problem_json())
    return path


def _identity_costs_file(workdir: str, r: int, game: games.Game) -> str:
    """Reference costs Q_i = I, R_ii = I, R_ij = 0 for `solve --nearest`."""
    ms = [Bi.shape[1] for Bi in game.B]
    N = len(ms)
    raw = {"Q": [np.eye(game.n).tolist()] * N,
           "R": [[(np.eye(ms[j]) if i == j else np.zeros((ms[j], ms[j]))).tolist()
                  for j in range(N)] for i in range(N)]}
    path = os.path.join(workdir, f"r{r}-{game.name}-costs0.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path


def _calls(workdir, r, command, pool, repeats=1) -> list:
    calls = []
    for g in pool:
        path = _problem_file(workdir, r, g)
        costs0 = _identity_costs_file(workdir, r, g) if command == "nearest" else None
        calls += [Call(command, g, path, costs0)] * repeats
    return calls


def _confirm_verify_truth(pool) -> None:
    for g in pool:
        truth = checker.is_nash(g.A, g.B, g.K, g.Q, g.R).ok
        if truth != g.expect["verify"]["verified"]:
            raise RuntimeError(f"generator bug: {g.name} Nash={truth}")


def setup_ladder(r: int, workdir: str):
    """Check and solve on one ladder pool; verify and nearest as controls on
    bundled examples. Returns (calls, grid cells that did not converge)."""
    pool, missing = games.ladder_round(CORPUS_SEED, r)
    verify_pool = [games.bundled("two_player_scalar"),
                   games.bundled("two_player_scalar", doubled_q=True)]
    _confirm_verify_truth(verify_pool)
    nearest_pool = [games.bundled("scalar_feasible"), games.bundled("two_player_scalar")]
    calls = (_calls(workdir, r, "check", pool) + _calls(workdir, r, "solve", pool)
             + _calls(workdir, r, "verify", verify_pool, CONTROL_REPEATS)
             + _calls(workdir, r, "nearest", nearest_pool, CONTROL_REPEATS))
    return calls, missing


def setup_time_domain(r: int, workdir: str):
    """Verify and nearest on time-domain pools; check and solve as controls on
    the bundled examples. Returns (calls, grid cells that did not converge)."""
    verify_pool = games.verify_games(CORPUS_SEED, r)
    _confirm_verify_truth(verify_pool)
    nearest_pool, missing = games.nearest_games(CORPUS_SEED, r)
    controls = [games.bundled(name) for name in sorted(games.BUNDLED_EXPECT)]
    repeats = -(-2 * CONTROL_REPEATS // len(controls))
    calls = (_calls(workdir, r, "verify", verify_pool)
             + _calls(workdir, r, "nearest", nearest_pool)
             + _calls(workdir, r, "check", controls, repeats)
             + _calls(workdir, r, "solve", controls, repeats))
    return calls, missing


WORKLOADS = {"ladder": setup_ladder, "time-domain": setup_time_domain}


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------

DETERMINATE = ("inducible", "not_inducible")


def _costs_are_nash(game, Q, R) -> bool:
    return checker.is_nash(game.A, game.B, game.K, Q, R).ok


def grade(call: Call, code, report) -> tuple:
    """(exit_ok, verdict_ok, wrong) for one completed call."""
    exp = call.game.expect[call.command]
    exit_ok = code == exp["exit"]
    if report is None:
        return exit_ok, False, False
    g = call.game
    N = len(g.B)
    if call.command == "check":
        got = (report["verdict_frequency"], report["verdict_oracle"])
        want = (exp["verdict_frequency"], exp["verdict_oracle"])
        wrong = any(v in DETERMINATE and v != w for v, w in zip(got, want))
        return exit_ok, got == want, wrong
    if call.command == "verify":
        ok = report["verified"] == exp["verified"]
        return exit_ok, ok, not ok
    status = report["status"]
    if call.command == "solve":
        if status == "solved":
            Q = [np.array(p["Q"]) for p in report["players"]]
            R = [[np.array(p["R"]) if i == j else np.zeros((g.B[j].shape[1],) * 2)
                  for j in range(N)] for i, p in enumerate(report["players"])]
            good = exp["status"] == "solved" and _costs_are_nash(g, Q, R)
            return exit_ok, good, not good
        # "infeasible" is a claim only when a frequency test failed; a Kalman
        # loop that stopped at its cap is an abstention.
        claims = status == "infeasible" and (
            not report["circle_ok"] or not report["rank_ok"]
            or report["kalman_status"] == "infeasible")
        ok = status == exp["status"]
        return exit_ok, ok, claims and exp["status"] != "infeasible"
    # nearest
    if status == "feasible":
        Q = [np.array(p["Q"]) for p in report["players"]]
        R = [[np.array(Rij) for Rij in p["R_row"]] for p in report["players"]]
        good = _costs_are_nash(g, Q, R)
        return exit_ok, good, not good
    wrong = status == "infeasible_certified_by_identity" and exp["status"] == "feasible"
    return exit_ok, False, wrong


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def run_call(cli, call: Call, out: str, tracer=None) -> tuple:
    """One timed CLI call: (exit code or None if it raised, ms, report or None,
    first line of its standard error as a list)."""
    if os.path.exists(out):
        os.remove(out)
    argv = call.argv(out)
    if tracer is not None:
        tracer.begin_trace(f"{call.command}:{call.game.name}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is graded as a failed call
            code = None
        ms = 1e3 * (time.perf_counter() - t0)
    report = None
    if code is not None and os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            try:
                report = json.load(fh)
            except json.JSONDecodeError:
                pass  # e.g. a non-finite float printed as "inf": graded as no report
    return code, ms, report, err.getvalue().strip().splitlines()[:1]


def describe(code, report, err) -> str:
    """Short label of an answer: verdicts or status, else the error line."""
    if report is None:
        return f"exit {code}: " + (err[0][:80] if err else "no valid report")
    if "verdict_frequency" in report:
        return f"exit {code}: {report['verdict_frequency']}/{report['verdict_oracle']}"
    if "status" in report:
        return f"exit {code}: {report['status']}"
    return f"exit {code}: verified={report['verified']}"


def schedule(calls: list, seed: int) -> list:
    order = list(calls)
    random.Random(seed).shuffle(order)
    return order


def measure(cli, calls: list, seconds: float, workdir: str, speed: Speed) -> list:
    """Make every call once; calls left when `seconds` run out are failed."""
    out = os.path.join(workdir, "report.json")
    deadline = time.perf_counter() + seconds
    outcomes = []
    for call in calls:
        if time.perf_counter() > deadline:
            outcomes.append(Outcome(call, None, 0.0, False, False, False, timed_out=True))
            continue
        code, ms, report, err = run_call(cli, call, out)
        scale = speed.scale()
        exit_ok, verdict_ok, wrong = grade(call, code, report)
        outcomes.append(Outcome(call, code, ms, exit_ok, verdict_ok, wrong,
                                crashed=code is None, note=describe(code, report, err),
                                scale=scale))
    return outcomes


def percentile(values, q: int, half_width: float) -> float:
    """Mean of the values ranked within q +- half_width percent.

    Near the median the ladder's latencies are sparse (neighbouring calls
    differ by 10-30%), so a single order statistic jumps whenever run-to-run
    noise swaps two calls; averaging the ranks around it does not.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    lo = round((q - half_width) / 100 * last)
    hi = round((q + half_width) / 100 * last)
    return statistics.fmean(ordered[lo:hi + 1])


def end_to_end_metrics(outcomes: list, setup_s: float, peak_rss_mb: float) -> dict:
    n = len(outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "exit_ok_ratio": (sum(o.exit_ok for o in outcomes) / n, "ratio"),
        "verdict_ok_ratio": (sum(o.verdict_ok for o in outcomes) / n, "ratio"),
    }
    for cmd in COMMANDS:
        ms = [o.charged_ms for o in outcomes if o.call.command == cmd]
        metrics[f"{cmd}_ms_p50"] = (percentile(ms, 50, 5), "ms")
        metrics[f"{cmd}_ms_p90"] = (percentile(ms, 90, 3), "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def call_counts(outcomes: list) -> dict:
    return {cmd: sum(o.call.command == cmd for o in outcomes) for cmd in COMMANDS}


def measure_traced(cli, calls: list, seconds: float, workdir: str, tracer,
                   speed: Speed) -> dict:
    """Make each call twice, untraced and traced, alternating which goes first.

    Returns the summed reference-speed ms of both passes over the calls
    completed in time, the reference-speed factor of each traced call keyed by
    its trace index, and the traced calls that crashed or gave a wrong answer.
    """
    out = os.path.join(workdir, "report.json")
    deadline = time.perf_counter() + seconds
    untraced = traced = 0.0
    per_trace = {}
    wrong = []
    for k, call in enumerate(calls):
        if time.perf_counter() > deadline:
            break
        times = {}
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    code, ms, report, _ = run_call(cli, call, out, tracer)
                finally:
                    tracer.uninstall()
                scale = speed.scale()
                times[True] = scale * ms
                if code is None or grade(call, code, report)[2]:
                    wrong.append(f"{call.command}:{call.game.name}")
                per_trace[len(tracer.traces) - 1] = scale
            else:
                _, ms, _, _ = run_call(cli, call, out)
                times[False] = speed.scale() * ms
        untraced += times[False]
        traced += times[True]
    return {"untraced_ms": untraced, "traced_ms": traced, "trace_scale": per_trace,
            "wrong": wrong}
