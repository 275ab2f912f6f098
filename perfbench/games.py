"""Seeded game generators whose ground truth is known by construction.

Every generator takes a key tuple that seeds its own random stream and
returns a ``Game``: plant, gains, optional costs, and the answers a correct
program must give.
Three constructions are used:

* ``ladder_nash``: the ladder recipe. Draw ``A`` and ``B_i`` standard normal,
  seed gains with a shifted Lyapunov solve, set ``Q_i = C'C + 0.1 I`` and
  ``R = I``, and run the package's coupled-Riccati solver. Only converged
  profiles that the independent checker confirms are kept.
* ``closed_form_nash``: a Nash game written down directly, for sizes where
  the forward solver is too slow. ``B_i = P_i^{-1} K_i'`` makes stationarity
  hold with ``R_ii = I``; ``Acl = -cI + S`` (``S`` skew) and ``Q_i`` from the
  Lyapunov row, with ``c`` raised until every ``Q_i`` is positive semidefinite.
* ``infeasible``: orthogonally rotated scalar channels ``x_c' = a_c x_c + u_c``
  with gain ``k_c``. One channel has ``a_c < k_c < 2 a_c``: the loop is stable
  but the return difference at w = 0 is ``1 - k_c/a_c`` with modulus below 1,
  which no ``R_ii > 0`` can satisfy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

import checker

# The ladder grid. check/solve stop at n = 16: one oracle call at n >= 24
# costs 1-3.5 s even when it converges.
LADDER_SIZES = (2, 4, 8, 12, 16)
PLAYER_COUNTS = (2, 3)
INPUT_WIDTHS = (1, 2, 3)
VERIFY_SIZES = (8, 16, 24, 32)
# `solve --nearest` runs single-input players: at N = 3, m >= 2 one call
# takes 1.5-4.7 s. Even at m = 1 a call averages about 0.45 s, so a run holds
# 30 of them, not the 100 that would leave ten samples beyond p90.
NEAREST_SIZES = (2, 4, 8, 12)
NEAREST_DRAWS = 1
# Pairs (N, m) of the infeasible games, one per round; the state dimension is
# N * m. Each drives both projection loops to their caps: about 6 s of check
# plus solve, so a round holds one. Scalar ones (N = m = 1) are certified
# infeasible at once; a round holds SCALAR_INFEASIBLE of them.
INFEASIBLE_SHAPES = ((2, 1), (3, 1), (2, 2))
SCALAR_INFEASIBLE = 2
LADDER_ATTEMPTS = 12
# Sweeps hand over to the solver's Newton polish early; convergence is still
# judged on the 1e-8 residual. This bounds generation time at n = 16.
LADDER_SOLVER_ARGS = {"max_sweeps": 30, "gain_tol": 1e-5}


@dataclass
class Game:
    """One problem instance plus the answers graded against.

    ``expect`` maps a command name (``check``, ``solve``, ``nearest``,
    ``verify``) to a dict with the expected exit code and report fields.
    """

    name: str
    A: np.ndarray
    B: list
    K: list
    expect: dict
    Q: list | None = None
    R: list | None = None  # R[i][j], m_j x m_j

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def problem_json(self) -> str:
        players = []
        for i, (Bi, Ki) in enumerate(zip(self.B, self.K)):
            pl = {"B": Bi.tolist(), "K_dagger": Ki.tolist()}
            if self.Q is not None:
                pl["Q"] = self.Q[i].tolist()
                pl["R_row"] = [Rij.tolist() for Rij in self.R[i]]
            players.append(pl)
        return json.dumps({"schema_version": "1", "A": self.A.tolist(), "players": players})


def game_rng(*key) -> np.random.Generator:
    """Independent stream per key, so one draw never shifts another."""
    return np.random.default_rng(list(key))


def bass_seed(A, B):
    """Stabilizing gain for a controllable pair via a shifted Lyapunov solve."""
    n = A.shape[0]
    beta = float(np.linalg.norm(A, 2)) + 1.0
    X = sla.solve_continuous_lyapunov(-(A + beta * np.eye(n)), -2.0 * B @ B.T)
    return B.T @ np.linalg.inv(X)


NASH_EXPECT = {
    "check": {"exit": 0, "verdict_frequency": "inducible", "verdict_oracle": "inducible"},
    "solve": {"exit": 0, "status": "solved"},
    "nearest": {"exit": 0, "status": "feasible"},
}


def ladder_nash(key: tuple, n: int, N: int, m: int):
    """Ladder-recipe game, or None when no draw converges in LADDER_ATTEMPTS."""
    from nashinduce import (CostParameters, GameSystem, StrategyProfile,
                            is_stabilizing, solve_coupled_are)

    for attempt in range(LADDER_ATTEMPTS):
        rng = game_rng(*key, n, N, m, attempt)
        A = rng.standard_normal((n, n))
        Bs = [rng.standard_normal((n, m)) for _ in range(N)]
        Qs = []
        for _ in range(N):
            C = rng.standard_normal((n, n))
            Qs.append(C.T @ C + 0.1 * np.eye(n))
        try:
            Kall = bass_seed(A, np.hstack(Bs))
            Ks = [Kall[i * m:(i + 1) * m] for i in range(N)]
            system = GameSystem(A, Bs)
            if not is_stabilizing(system, Ks):
                continue
            costs = CostParameters.identity_R(Qs, system.m)
            profile, _, converged = solve_coupled_are(
                system, costs, StrategyProfile.stabilizing(system, Ks), **LADDER_SOLVER_ARGS)
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            continue
        if not converged:
            continue
        K = [np.array(Ki) for Ki in profile.K]
        R = [[np.eye(m) if i == j else np.zeros((m, m)) for j in range(N)] for i in range(N)]
        if not checker.is_nash(A, Bs, K, Qs, R).ok:
            continue
        return Game(f"ladder-n{n}-N{N}-m{m}", A, Bs, K, dict(NASH_EXPECT), Qs, R)
    return None


def closed_form_nash(key: tuple, n: int, N: int, m: int, doubled_q: bool = False) -> Game:
    """Nash game in closed form; with ``doubled_q`` player 0's Q is doubled,
    which breaks stationarity, so the game is known not to be Nash."""
    rng = game_rng(*key, n, N, m)
    Ps, Ks, Bs = [], [], []
    for _ in range(N):
        C = rng.standard_normal((n, n))
        P = C.T @ C / n + np.eye(n)
        K = rng.standard_normal((m, n))
        Ps.append(P)
        Ks.append(K)
        Bs.append(np.linalg.solve(P, K.T))
    G = rng.standard_normal((n, n))
    S = G - G.T
    c = 1.0
    while True:
        Acl = -c * np.eye(n) + S
        Qs = [-(Acl.T @ P + P @ Acl) - K.T @ K for P, K in zip(Ps, Ks)]
        Qs = [0.5 * (Q + Q.T) for Q in Qs]
        if all(np.linalg.eigvalsh(Q)[0] >= 0.1 for Q in Qs):
            break
        c *= 1.5
    A = Acl + sum(B @ K for B, K in zip(Bs, Ks))
    R = [[np.eye(m) if i == j else np.zeros((m, m)) for j in range(N)] for i in range(N)]
    if doubled_q:
        Qs = [2.0 * Qs[0]] + Qs[1:]
    tag = "doubled" if doubled_q else "true"
    expect = {"verify": {"exit": 1 if doubled_q else 0, "verified": not doubled_q}}
    return Game(f"closed-n{n}-N{N}-m{m}-{tag}", A, Bs, Ks, expect, Qs, R)


def infeasible(key: tuple, N: int, m: int) -> Game:
    """Rotated scalar channels with one channel in a_c < k_c < 2 a_c."""
    n = N * m
    rng = game_rng(*key, N, m)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    # a > 0: k > 2a keeps |1 - k/a| > 1; a < 0: any k > 0 does.
    k = np.where(a > 0, a * rng.uniform(2.5, 4.0, n), rng.uniform(0.5, 2.0, n))
    bad = int(rng.integers(n))
    a[bad] = abs(a[bad])
    k[bad] = a[bad] * rng.uniform(1.2, 1.8)
    A = U @ np.diag(a) @ U.T
    Bs = [U[:, i * m:(i + 1) * m] for i in range(N)]
    Ks = [np.diag(k[i * m:(i + 1) * m]) @ Bi.T for i, Bi in enumerate(Bs)]
    expect = {
        "check": {"exit": 1, "verdict_frequency": "not_inducible",
                  "verdict_oracle": "not_inducible"},
        "solve": {"exit": 1, "status": "infeasible"},
    }
    return Game(f"infeasible-n{n}-N{N}-m{m}", A, Bs, Ks, expect)


# Bundled examples with the answers the package's own tests assert. remark2 is
# the documented disagreement: the frequency pipeline (and so `solve`) says
# not inducible, the time-domain oracle says inducible, and `check` exits 4.
BUNDLED_EXPECT = {
    "remark2": {
        "check": {"exit": 4, "verdict_frequency": "not_inducible",
                  "verdict_oracle": "inducible"},
        "solve": {"exit": 1, "status": "infeasible"},
    },
    "scalar_feasible": {
        "check": {"exit": 0, "verdict_frequency": "inducible", "verdict_oracle": "inducible"},
        "solve": {"exit": 0, "status": "solved"},
        "nearest": {"exit": 0, "status": "feasible"},
    },
    "scalar_infeasible": {
        "check": {"exit": 1, "verdict_frequency": "not_inducible",
                  "verdict_oracle": "not_inducible"},
        "solve": {"exit": 1, "status": "infeasible"},
    },
    "two_player_scalar": {
        "check": {"exit": 0, "verdict_frequency": "inducible", "verdict_oracle": "inducible"},
        "solve": {"exit": 0, "status": "solved"},
        "nearest": {"exit": 0, "status": "feasible"},
        "verify": {"exit": 0, "verified": True},
    },
}


def bundled(name: str, doubled_q: bool = False) -> Game:
    """A bundled example; with ``doubled_q`` player 0's Q is doubled (not Nash)."""
    from nashinduce.problems import BUNDLED

    raw = json.loads(BUNDLED[name])
    pls = raw["players"]
    mats = lambda key: [np.array(p[key], dtype=float) for p in pls]  # noqa: E731
    game = Game(f"bundled-{name}", np.array(raw["A"], dtype=float), mats("B"),
                mats("K_dagger"), dict(BUNDLED_EXPECT[name]))
    if "Q" in pls[0]:
        game.Q = mats("Q")
        game.R = [[np.array(Rij, dtype=float) for Rij in p["R_row"]] for p in pls]
    if doubled_q:
        game.name += "-doubled"
        game.Q = [2.0 * game.Q[0]] + game.Q[1:]
        game.expect = {"verify": {"exit": 1, "verified": False}}
    return game


def ladder_round(seed: int, r: int):
    """Round r of the ladder workload: (games, grid cells that did not converge).

    One ladder-recipe game per grid cell, one generated infeasible game that
    drives the projection loops to their caps, two scalar infeasible games
    and the bundled examples: 35 games when every cell converges, 4 of them
    known infeasible.
    """
    games, missing = [], []
    for n in LADDER_SIZES:
        for N in PLAYER_COUNTS:
            for m in INPUT_WIDTHS:
                if m > n:
                    continue
                g = ladder_nash((seed, r, 1), n, N, m)
                if g is None:
                    missing.append(f"ladder-n{n}-N{N}-m{m}")
                else:
                    games.append(g)
    N, m = INFEASIBLE_SHAPES[r % len(INFEASIBLE_SHAPES)]
    games.append(infeasible((seed, r, 3), N, m))
    for k in range(SCALAR_INFEASIBLE):
        g = infeasible((seed, r, 3, k), 1, 1)
        g.name += f"-s{k}"
        games.append(g)
    games += [bundled(name) for name in sorted(BUNDLED_EXPECT)]
    return games, missing


def verify_games(seed: int, r: int) -> list:
    """Closed-form games over the verify grid, each with true and doubled Q_1."""
    return [closed_form_nash((seed, r, 2), n, N, m, doubled)
            for n in VERIFY_SIZES for N in PLAYER_COUNTS for m in INPUT_WIDTHS
            for doubled in (False, True)]


def nearest_games(seed: int, r: int):
    """Ladder-recipe games for `solve --nearest`, plus the two bundled feasible
    examples: (games, grid cells that did not converge)."""
    games, missing = [], []
    for n in NEAREST_SIZES:
        for N in PLAYER_COUNTS:
            for draw in range(NEAREST_DRAWS):
                g = ladder_nash((seed, r, 4, draw), n, N, 1)
                if g is None:
                    missing.append(f"ladder-n{n}-N{N}-m1-d{draw}")
                else:
                    g.name += f"-d{draw}"
                    games.append(g)
    games += [bundled("scalar_feasible"), bundled("two_player_scalar")]
    return games, missing
