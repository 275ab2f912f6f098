"""Record what the CLI answers on a fixed corpus, for diffing two checkouts.

    python3 tools/cli_corpus.py OUTDIR

The corpus is rounds 0..ROUNDS-1 of both benchmark workloads at
perfbench's CORPUS_SEED (written by ``perfbench/workloads.setup_*``, which
this script imports and does not change), the fixtures in ``tests/data`` and
the bundled examples.  Every problem file is run as ``check``, ``check
--no-oracle``, ``solve``, ``solve --mode q-only`` and ``verify``, and every
problem the workloads give reference costs for as ``solve --nearest``.
Each call runs in-process through ``nashinduce.cli.main`` with one BLAS
thread, and leaves one file under OUTDIR/calls: its exit code, its stderr
and its JSON report without ``timings_ms`` (the only field that changes
from run to run), indented one key per line.

The package is imported from the ``src/`` of the checkout this script sits
in.  To compare a change with its parent, run each checkout's copy into its
own directory and compare the two:

    python3 PARENT/tools/cli_corpus.py /tmp/parent
    python3 tools/cli_corpus.py /tmp/change
    diff -r /tmp/parent /tmp/change
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # before numpy loads, as in perfbench/run.py: one BLAS thread
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
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


def record(argv: list) -> str:
    """One in-process call as text: its exit code, its stderr, and its JSON
    report without timings_ms (or its raw stdout when that is no JSON)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        shown = out.getvalue()
    else:
        report.pop("timings_ms", None)
        shown = json.dumps(report, indent=1) + "\n"
    return f"exit: {code}\nstderr:\n{err.getvalue()}report:\n{shown}"


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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/cli_corpus.py OUTDIR", file=sys.stderr)
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
