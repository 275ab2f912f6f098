"""Record what the CLI answers on a fixed corpus, and compare two records.

    python3 tools/cli_corpus.py OUTDIR
    python3 tools/cli_corpus.py compare PARENT CHANGE

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
import re  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from nashinduce import cli  # noqa: E402
from nashinduce.problems import BUNDLED  # noqa: E402

ROUNDS = 3
# The calls every problem file gets, by label: their arguments before the file.
COMMANDS = {"check": ["check"], "check-no-oracle": ["check", "--no-oracle"],
            "solve": ["solve"], "solve-q-only": ["solve", "--mode", "q-only"],
            "verify": ["verify"]}
# A report's timings_ms and its value, an object of numbers, as emitted.
TIMINGS = re.compile(r'"timings_ms":\{[^{}]*\}')


def record(argv: list) -> str:
    """One in-process call as text: its exit code, the digest of its stdout
    with timings_ms masked, its stderr, and its JSON report without
    timings_ms (or its raw stdout when that is no JSON)."""
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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "compare":
        return compare(Path(args[1]).resolve(), Path(args[2]).resolve())
    if len(args) != 1:
        print("usage: python3 tools/cli_corpus.py OUTDIR\n"
              "       python3 tools/cli_corpus.py compare PARENT CHANGE", file=sys.stderr)
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
