"""Record what the CLI answers on a fixed corpus, and compare two records.

    python3 tools/cli_corpus.py OUTDIR
    python3 tools/cli_corpus.py compare PARENT CHANGE
    python3 tools/cli_corpus.py audit OUTDIR

The corpus is rounds 0..ROUNDS-1 of both benchmark workloads at
perfbench's CORPUS_SEED (written by ``perfbench/workloads.setup_*``, which
this script imports and does not change), the fixtures in ``tests/data`` and
the bundled examples.  Every problem file is run as ``check``, ``check
--no-oracle``, ``solve``, ``solve --mode q-only`` and ``verify``, and every
problem the workloads give reference costs for as ``solve --nearest``.
Each call runs in-process through ``nashinduce.cli.main`` with one BLAS
thread, and leaves one file under OUTDIR/calls: its exit code, the
SHA-256 digest of its stdout as emitted with the value of ``timings_ms``
(the only field that changes from run to run) masked, the compact
``"timings_ms":{...}`` written as ``"timings_ms":null``, its stderr, and
its JSON report without ``timings_ms``, indented one key per line.

The package is imported from the ``src/`` of the checkout this script sits
in.  To compare a change with its parent, run each checkout's copy into its
own directory and compare the two:

    python3 PARENT/tools/cli_corpus.py /tmp/parent
    python3 tools/cli_corpus.py /tmp/change
    python3 tools/cli_corpus.py compare /tmp/parent /tmp/change

``compare`` needs the same calls on both sides, and in each call the same
exit code, the same stderr and the same report apart from its floats: the
same keys in the same order, and every string, integer, boolean and null
equal.  A report that is no JSON must match as text.  When every parsed
value matches, floats too, the digests must match as well, so a change
to how the same values are printed ("1e5" for "100000.0", or ", " for ",")
is a difference: "report text differs with equal values".  It lists each
difference and exits 1 if it finds any.  Floats may move by round-off, so
it prints, per field path (list indices dropped), the largest relative
change of any one field: max |a - b| over the floats the field holds (a
scalar, or every entry of a vector or matrix), over the largest of their
magnitudes on either side, 0/0 read as 0, beside the largest magnitude
that field path holds anywhere, so that a round-off figure (a residual, a
stop gap) reads as one.  It also counts the calls whose files are
byte-identical, per command.

``audit`` re-checks every recorded certificate against the game of its
problem file, with numpy and ``perfbench/checker.is_nash`` and no package
code (the package is not imported):

* every answer that carries costs, with ``checker.is_nash``: ``solve``'s Q
  and R where it answers "solved" (both modes; R_ij = 0), ``check``'s
  Kalman Q and R where its oracle answers "inducible", ``solve
  --nearest``'s Q and R_row where it answers "feasible", and the problem
  file's own Q and R_row where ``verify`` exits 0;
* every failed circle probe a ``check`` or ``solve`` report lists (a player
  with ``circle_ok`` false): at its ``circle_witness`` w, the least
  eigenvalue of I - S(jw)^* S(jw), S = I - K_i (jwI - A_cl)^-1 B_i, must be
  negative.  It also counts the probes where S(jw) has an eigenvalue of
  modulus above 1, which no R_ii can mend;
* every rank certificate a ``check`` or ``solve`` report lists: its x must
  be a unit eigenvector, at s0 in the closed right half-plane, of the loop
  the other players close, A~_i = A - sum_{j != i} B_j K_j (see
  _rank_certificate).  That the feasible Q_i annihilate x is not checked.

It prints how many certificates of each kind it checked and names each that
fails; for the answers of ``check`` and ``solve`` it splits that count by
where the costs came from, read off ``diagnostics.kalman_method``: "closed
form" where every player's method is "riccati", "search" where every one is
"search", and "mixed" otherwise (shown only when there are any).  It then
counts the determinate verdicts that carry no certificate it checks: a
frequency "inducible" (no costs), an oracle "not_inducible", and a frequency
"not_inducible" or a ``solve`` "infeasible" with no failed circle probe (a
rank certificate, checked only in half, or the search's).  It exits 1 if any certificate
fails or any of these counts exceeds its ceiling in UNCERTIFIED_CEILING.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # before numpy loads, as in perfbench/run.py: one BLAS thread
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

ROUNDS = 3
# The calls every problem file gets, by label: their arguments before the file.
COMMANDS = {"check": ["check"], "check-no-oracle": ["check", "--no-oracle"],
            "solve": ["solve"], "solve-q-only": ["solve", "--mode", "q-only"],
            "verify": ["verify"]}
# A report's timings_ms and its value, an object of numbers, as emitted.
TIMINGS = re.compile(r'"timings_ms":\{[^{}]*\}')
# audit's ceiling on each count of determinate verdicts with no certificate
# it checks, as counted on the corpus (see audit), 0 for any verdict not
# named: a count may only fall.  A frequency "not_inducible" with no failed
# circle probe rests on a rank certificate, whose eigenvector audit checks,
# but not yet that the feasible Q_i annihilate it.
UNCERTIFIED_CEILING = {
    "check frequency inducible": 271, "check frequency not_inducible": 7,
    "check oracle not_inducible": 16, "check-no-oracle frequency inducible": 271,
    "check-no-oracle frequency not_inducible": 7, "solve infeasible": 7,
    "solve-q-only infeasible": 7,
}


def record(argv: list) -> str:
    """One in-process call as text: its exit code, the digest of its stdout
    with timings_ms masked, its stderr, and its JSON report without
    timings_ms (or its raw stdout when that is no JSON)."""
    from nashinduce import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    masked = TIMINGS.sub('"timings_ms":null', out.getvalue())
    digest = hashlib.sha256(masked.encode("utf-8")).hexdigest()
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        shown = out.getvalue()
    else:
        report.pop("timings_ms", None)
        shown = json.dumps(report, indent=1) + "\n"
    return f"exit: {code}\ndigest: {digest}\nstderr:\n{err.getvalue()}report:\n{shown}"


def write_corpus(problems: Path) -> tuple:
    """Write the corpus under `problems`; returns the problem files and the
    (problem, reference costs) pairs of the nearest calls, as paths relative
    to `problems`."""
    import workloads
    from nashinduce.problems import BUNDLED

    files, nearest = set(), set()
    for name, setup in workloads.WORKLOADS.items():
        workdir = problems / name
        workdir.mkdir(parents=True)
        for r in range(ROUNDS):
            calls, _ = setup(r, str(workdir))
            for call in calls:
                problem = os.path.relpath(call.problem, problems)
                files.add(problem)
                if call.costs0 is not None:
                    nearest.add((problem, os.path.relpath(call.costs0, problems)))
    (problems / "tests-data").mkdir()
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        shutil.copyfile(path, problems / "tests-data" / path.name)
        files.add(f"tests-data/{path.name}")
    (problems / "bundled").mkdir()
    for name, text in BUNDLED.items():
        (problems / "bundled" / f"{name}.json").write_text(text, encoding="utf-8")
        files.add(f"bundled/{name}.json")
    return sorted(files), sorted(nearest)


def _parse(text: str) -> tuple:
    """(exit line, digest line, stderr, report): the report as JSON, or its
    raw text."""
    head, _, report = text.partition("\nreport:\n")
    lines, _, err = head.partition("\nstderr:\n")
    code, _, digest = lines.partition("\n")
    try:
        return code, digest, err, json.loads(report)
    except json.JSONDecodeError:
        return code, digest, err, report


def _fields(node, path=""):
    """Yield (path, leaves) for every field of a report: a dict key's value,
    with lists of dicts entered item by item and anything else taken whole,
    its leaves in order.  The path drops list indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _fields(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        for value in node:
            yield from _fields(value, path + "[]")
    else:
        yield path, list(_leaves(node))


def _leaves(node):
    """The scalars of a value, nested lists flattened in order."""
    if isinstance(node, list):
        for item in node:
            yield from _leaves(item)
    else:
        yield node


def _shape(node):
    """The report with every float replaced by one marker: what must match."""
    if isinstance(node, dict):
        return [(key, _shape(value)) for key, value in node.items()]
    if isinstance(node, list):
        return [_shape(value) for value in node]
    return "<float>" if type(node) is float else node


def compare(parent: Path, change: Path) -> int:
    """Compare two recorded corpora (see the module docstring)."""
    names = [sorted(str(p.relative_to(root / "calls")) for p in (root / "calls").rglob("*")
                    if p.is_file()) for root in (parent, change)]
    problems = [f"only in {root}: {name}"
                for root, mine, theirs in ((parent, *names), (change, *names[::-1]))
                for name in sorted(set(mine) - set(theirs))]
    worst, identical = {}, {}
    for name in sorted(set(names[0]) & set(names[1])):
        texts = [(root / "calls" / name).read_text(encoding="utf-8") for root in (parent, change)]
        label = name.rsplit(".", 1)[1]
        calls, same = identical.get(label, (0, 0))
        identical[label] = (calls + 1, same + (texts[0] == texts[1]))
        (code_a, digest_a, err_a, rep_a), (code_b, digest_b, err_b, rep_b) = map(_parse, texts)
        if code_a != code_b:
            problems.append(f"{name}: {code_a} -> {code_b}")
        if err_a != err_b:
            problems.append(f"{name}: stderr {err_a!r} -> {err_b!r}")
        if isinstance(rep_a, str) or isinstance(rep_b, str):
            if rep_a != rep_b:
                problems.append(f"{name}: report text differs")
            continue
        if _shape(rep_a) != _shape(rep_b):
            problems.append(f"{name}: a key, string, integer, boolean or null differs")
            continue
        if rep_a == rep_b and digest_a != digest_b:
            problems.append(f"{name}: report text differs with equal values")
        for (path, a), (_, b) in zip(_fields(rep_a), _fields(rep_b)):
            pairs = [(x, y) for x, y in zip(a, b) if type(x) is float]
            if not pairs:
                continue
            moved = max(abs(x - y) for x, y in pairs)
            scale = max(max(abs(x), abs(y)) for x, y in pairs)
            relative = moved / scale if scale else 0.0
            top, where, largest = worst.get(path, (-1.0, "", 0.0))
            worst[path] = ((relative, name) if relative >= top else (top, where)) + (
                max(largest, scale),)
    for label, (calls, same) in sorted(identical.items()):
        print(f"{label}: {same} of {calls} calls byte-identical")
    print("largest relative float change per field path (and the largest magnitude it holds):")
    for path, (relative, name, largest) in sorted(worst.items()):
        print(f"  {path}: {relative:.3e} of at most {largest:.3e}  ({name})")
    for problem in problems:
        print(f"DIFFERS {problem}")
    print(f"{len(problems)} differences other than floats", file=sys.stderr)
    return 1 if problems else 0


def _array(M) -> np.ndarray:
    return np.asarray(M, dtype=float)


def _claimed_costs(label: str, code: str, report, players: list):
    """The costs a recorded call answers with, as (Q, R) per player with
    R[i][j] for every j, or None when it claims none (see audit)."""
    if not isinstance(report, dict):
        return None
    m = [_array(p["B"]).shape[1] for p in players]

    def own(i, Rii):
        return [_array(Rii) if j == i else np.zeros((mj, mj))
                for j, mj in enumerate(m)]

    if label in ("solve", "solve-q-only") and report.get("status") == "solved":
        return ([p["Q"] for p in report["players"]],
                [own(i, p["R"]) for i, p in enumerate(report["players"])])
    if label == "check" and report.get("verdict_oracle") == "inducible":
        return ([p["kalman"]["Q"] for p in report["players"]],
                [own(i, p["kalman"]["R"]) for i, p in enumerate(report["players"])])
    if label == "nearest" and report.get("status") == "feasible":
        return [p["Q"] for p in report["players"]], [p["R_row"] for p in report["players"]]
    if label == "verify" and code == "exit: 0":
        return [p["Q"] for p in players], [p["R_row"] for p in players]
    return None


def _loop(game, skip=None):
    """(A - sum_j B_j K_j over the players j of a problem file but `skip`,
    B, K): the closed loop, or with skip = i the loop the others close."""
    B = [_array(p["B"]) for p in game["players"]]
    K = [_array(p["K_dagger"]) for p in game["players"]]
    return _array(game["A"]) - sum(B[j] @ K[j] for j in range(len(B)) if j != skip), B, K


def _circle_probe(game, i: int, w: float) -> tuple:
    """(lambda_min of I - S(jw)^* S(jw), the largest |eigenvalue| of S(jw))
    for player i of a problem file, S = I - K_i (jwI - A_cl)^-1 B_i and
    A_cl = A - sum_j B_j K_j; the gap is formed as G + G^* - G^* G,
    G = I - S, so that no identity cancels."""
    A_cl, B, K = _loop(game)
    G = K[i] @ np.linalg.solve(1j * w * np.eye(len(A_cl)) - A_cl, B[i])
    gap = G + G.conj().T - G.conj().T @ G
    return (float(np.linalg.eigvalsh(gap)[0]),
            float(np.abs(np.linalg.eigvals(np.eye(len(G)) - G)).max()))


def _rank_certificate(game, i: int, certificate) -> str | None:
    """Why a rank certificate of player i of a problem file does not check,
    or None: |A~_i x - s0 x| <= 1e-6 max(1, |A~_i|_F) with A~_i = A -
    sum_{j != i} B_j K_j, Re s0 >= -1e-9, and |x| = 1 within 1e-9."""
    A_i = _loop(game, skip=i)[0]
    s0 = complex(certificate["s0_re"], certificate["s0_im"])
    x = _array(certificate["x_re"]) + 1j * _array(certificate["x_im"])
    residual = float(np.linalg.norm(A_i @ x - s0 * x)) / max(1.0, float(np.linalg.norm(A_i)))
    if residual > 1e-6:
        return f"|A~x - s0 x| / max(1, |A~|) = {residual!r}"
    if s0.real < -1e-9:
        return f"Re s0 = {s0.real!r}"
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-9:
        return f"|x| = {float(np.linalg.norm(x))!r}"
    return None


def _determinate(label: str, report) -> list:
    """The determinate verdicts of a record, each as (name, certificate):
    the kind of certificate audit checks for it, "costs" or "circle", or
    None where it checks none."""
    if not isinstance(report, dict):
        return []
    if label.startswith("check"):
        kinds = {("frequency", "not_inducible"): "circle", ("oracle", "inducible"): "costs"}
        return [(f"{label} {method} {report[f'verdict_{method}']}", kinds.get(
                    (method, report[f"verdict_{method}"])))
                for method in ("frequency", "oracle")
                if report.get(f"verdict_{method}") in ("inducible", "not_inducible")]
    kinds = {"solved": "costs", "infeasible": "circle", "feasible": "costs",
             "infeasible_certified_by_identity": None}
    if label in ("solve", "solve-q-only", "nearest") and report.get("status") in kinds:
        return [(f"{label} {report['status']}", kinds[report["status"]])]
    return []


def audit(root: Path) -> int:
    """Re-check every recorded certificate and count the determinate
    verdicts that carry none (see the module docstring), with numpy and
    checker.is_nash alone."""
    import checker

    counts, sources, failures, probes, beyond, ranks, uncertified = {}, {}, [], 0, 0, 0, {}
    for path in sorted(p for p in (root / "calls").rglob("*") if p.is_file()):
        name = str(path.relative_to(root / "calls"))
        problem, label = name.rsplit(".", 1)
        code, _, _, report = _parse(path.read_text(encoding="utf-8"))
        game = json.loads((root / "problems" / problem).read_text(encoding="utf-8"))
        certified = set()
        costs = _claimed_costs(label, code, report, game["players"])
        if costs is not None:
            counts[label] = counts.get(label, 0) + 1
            methods = set(report.get("diagnostics", {}).get("kalman_method") or ())
            if methods:
                source = ("closed form" if methods == {"riccati"} else
                          "search" if methods == {"search"} else "mixed")
                tally = sources.setdefault(label, {"closed form": 0, "search": 0})
                tally[source] = tally.get(source, 0) + 1
            verdict = checker.is_nash(
                _array(game["A"]), [_array(p["B"]) for p in game["players"]],
                [_array(p["K_dagger"]) for p in game["players"]], [_array(Q) for Q in costs[0]],
                [[_array(Rij) for Rij in row] for row in costs[1]])
            if verdict.ok:
                certified.add("costs")
            else:
                failures.append(f"NOT NASH {name}: {verdict.reason}")
        players = report.get("players", []) if isinstance(report, dict) else []
        for player in players:
            if not isinstance(player, dict):
                continue
            i = player["index"]
            for certificate in player.get("rank_certificates") or ():
                ranks += 1
                reason = _rank_certificate(game, i, certificate)
                if reason is not None:
                    failures.append(f"NOT A RANK CERTIFICATE {name}: player {i}: {reason}")
            if player.get("circle_ok") is not False:
                continue
            probes += 1
            w = player["circle_witness"]
            least, largest = _circle_probe(game, i, w) if w is not None else (math.nan, 0.0)
            beyond += largest > 1.0
            if least < 0.0:
                certified.add("circle")
            else:
                failures.append(f"NOT A CIRCLE FAILURE {name}: player {i} at w = {w}: "
                                f"lambda_min {least!r}")
        for verdict, kind in _determinate(label, report):
            if kind not in certified:
                uncertified[verdict] = uncertified.get(verdict, 0) + 1
    for label, count in sorted(counts.items()):
        split = ", ".join(f"{n} {source}" for source, n in sources.get(label, {}).items())
        print(f"{label}: {count} answers with costs checked" + (f" ({split})" if split else ""))
    print(f"failed circle probes: {probes} checked, {beyond} with an eigenvalue of S(jw) "
          "beyond the unit circle")
    print(f"rank certificates: {ranks} checked")
    print("determinate verdicts with no certificate (ceiling):")
    over = []
    for verdict in sorted(uncertified.keys() | UNCERTIFIED_CEILING.keys()):
        count, ceiling = uncertified.get(verdict, 0), UNCERTIFIED_CEILING.get(verdict, 0)
        print(f"  {verdict}: {count} ({ceiling})")
        if count > ceiling:
            over.append(f"ABOVE CEILING {verdict}: {count} > {ceiling}")
    for failure in failures + over:
        print(failure)
    print(f"{len(failures)} certificates that do not check, {len(over)} counts above their "
          "ceiling", file=sys.stderr)
    return 1 if failures or over else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "compare":
        return compare(Path(args[1]).resolve(), Path(args[2]).resolve())
    if len(args) == 2 and args[0] == "audit":
        return audit(Path(args[1]).resolve())
    if len(args) != 1:
        print("usage: python3 tools/cli_corpus.py OUTDIR\n"
              "       python3 tools/cli_corpus.py compare PARENT CHANGE\n"
              "       python3 tools/cli_corpus.py audit OUTDIR", file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    if out.exists():
        print(f"error: {out} exists", file=sys.stderr)
        return 2
    problems, calls = out / "problems", out / "calls"
    files, nearest = write_corpus(problems)
    jobs = [(f"{path}.{label}", [*head, path])
            for path in files for label, head in COMMANDS.items()]
    jobs += [(f"{path}.nearest", ["solve", path, "--nearest", costs0])
             for path, costs0 in nearest]
    # Paths relative to the problem directory, so no message names OUTDIR.
    cwd = os.getcwd()
    os.chdir(problems)
    try:
        for name, call in jobs:
            target = calls / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(record(call), encoding="utf-8")
    finally:
        os.chdir(cwd)
    print(f"{len(files)} problem files, {len(jobs)} calls written to {calls}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
