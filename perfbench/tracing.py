"""Span tracing of the package from outside it.

``Tracer.install`` replaces module attributes of the loaded ``nashinduce``
modules with wrappers that record one span per call: function, call site,
start, end, parent span, trace id and an outcome label. Each module binds its
own imported names (``inverse`` calls ``psd_project`` through
``nashinduce.inverse.psd_project``), so every binding of a traced function is
replaced, and the site records which module's binding was used. Spans stay in
memory until ``save``.

Self time of a span is its duration minus the durations of its direct child
spans. Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "realization", "polymat", "inverse", "feasibility", "forward", "numerics")


def _status(result):
    return result.status


def _circle_method(result):
    return result[2]


# (defining module, function, outcome label or None). The label of a span that
# raises is "error".
TRACED = (
    ("cli", "main", None),
    ("cli", "cmd_check", None),
    ("cli", "cmd_solve", None),
    ("cli", "cmd_verify", None),
    ("cli", "load_problem", None),
    ("cli", "load_costs", None),
    ("cli", "dumps_report", None),
    ("realization", "right_coprime_factorization", None),
    ("realization", "attach_feedback", None),
    ("realization", "reduced_system", None),
    ("polymat", "compress_columns", None),
    ("polymat", "rhp_roots_matrix", None),
    ("polymat", "unimodular_det_constant", None),
    ("inverse", "analyze_player", None),
    ("inverse", "analyze_phi", None),
    ("inverse", "build_phi", None),
    ("inverse", "circle_criterion", _circle_method),
    ("inverse", "check_rank_condition", None),
    ("inverse", "solve_kalman_general", _status),
    ("inverse", "solve_kalman_Q", _status),
    ("feasibility", "solve_feasibility_projection", _status),
    ("feasibility", "_player_nullspace", None),
    ("feasibility", "build_vectorized_system", None),
    ("feasibility", "nearest_params", _status),
    ("feasibility", "_stationarity_map", None),
    ("forward", "verify_nash", None),
    ("forward", "solve_coupled_are", None),
    ("numerics", "solve_lyapunov", None),
    ("numerics", "psd_project", None),
    ("numerics", "sym_pack", None),
    ("numerics", "sym_unpack", None),
    ("numerics", "kron_sum", None),
)
TRACED_METHODS = (("polymat", "PolyMatrix", "__matmul__"),)


class Tracer:
    def __init__(self):
        self.names = []       # "layer.function"
        self.sites = []       # layer whose binding was called
        self.labels = ["", "error"]
        self.traces = []      # trace labels, e.g. "check:ladder-n4-N2-m1:r0"
        self.fn = array("i")
        self.site = array("i")
        self.parent = array("q")
        self.trace = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outcome = array("i")
        self._stack = []
        self._trace_id = -1
        self._restore = []

    # -- recording -------------------------------------------------------
    def begin_trace(self, label: str) -> None:
        self.traces.append(label)
        self._trace_id = len(self.traces) - 1

    def _label_id(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            self.labels.append(label)
            return len(self.labels) - 1

    def _wrap(self, fn, fid: int, sid: int, outcome):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.fn.append(fid)
            self.site.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.trace.append(self._trace_id)
            self.outcome.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                stack.pop()
                self.outcome[idx] = 1
                raise
            self.end[idx] = clock()
            stack.pop()
            if outcome is not None:
                self.outcome[idx] = self._label_id(str(outcome(result)))
            return result

        return wrapper

    def _ids(self, name: str, site: str):
        if name not in self.names:
            self.names.append(name)
        if site not in self.sites:
            self.sites.append(site)
        return self.names.index(name), self.sites.index(site)

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded package."""
        mods = {layer: importlib.import_module(f"nashinduce.{layer}") for layer in LAYERS}
        pkg = sys.modules["nashinduce"]
        for layer, fname, outcome in TRACED:
            original = getattr(mods[layer], fname)
            for site, mod in list(mods.items()) + [("nashinduce", pkg)]:
                if getattr(mod, fname, None) is original:
                    fid, sid = self._ids(f"{layer}.{fname}", site)
                    setattr(mod, fname, self._wrap(original, fid, sid, outcome))
                    self._restore.append((mod, fname, original))
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(mods[layer], cls_name)
            original = cls.__dict__[meth]
            fid, sid = self._ids(f"{layer}.{cls_name}.{meth}", layer)
            setattr(cls, meth, self._wrap(original, fid, sid, None))
            self._restore.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict:
        """Columns as numpy arrays, with duration and self time in ns."""
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return {
            "fn": np.array(self.fn, dtype=np.int32),
            "site": np.array(self.site, dtype=np.int32),
            "parent": parent,
            "trace": np.array(self.trace, dtype=np.int32),
            "outcome": np.array(self.outcome, dtype=np.int32),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), sites=np.array(self.sites),
            labels=np.array(self.labels), traces=np.array(self.traces),
            **{k: cols[k] for k in ("fn", "site", "parent", "trace", "outcome", "start", "end")})


PROJECTION_CAP = 10_000
# Loop spans whose iterations are counted from their psd_project children:
# (span, psd_project calls per iteration or None for "players + 1",
#  child span that starts a new per-player loop or None).
LOOPS = {
    "inverse.kalman": ("inverse.solve_kalman_general", 2, None),
    "feasibility.oracle": ("feasibility.solve_feasibility_projection", 3,
                           "feasibility._player_nullspace"),
    "feasibility.nearest": ("feasibility.nearest_params", None,
                            "feasibility._stationarity_map"),
}

# (metric, span, kind) with kind "self_ms" or "calls", per traced CLI call.
SPAN_METRICS = (
    ("cli.load_problem.self_ms", "cli.load_problem", "self_ms"),
    ("cli.dumps_report.self_ms", "cli.dumps_report", "self_ms"),
    ("realization.right_coprime_factorization.self_ms",
     "realization.right_coprime_factorization", "self_ms"),
    ("realization.right_coprime_factorization.calls",
     "realization.right_coprime_factorization", "calls"),
    ("polymat.compress_columns.self_ms", "polymat.compress_columns", "self_ms"),
    ("polymat.rhp_roots_matrix.self_ms", "polymat.rhp_roots_matrix", "self_ms"),
    ("polymat.matmul.calls", "polymat.PolyMatrix.__matmul__", "calls"),
    ("polymat.matmul.self_ms", "polymat.PolyMatrix.__matmul__", "self_ms"),
    ("inverse.build_phi.self_ms", "inverse.build_phi", "self_ms"),
    ("inverse.circle_criterion.self_ms", "inverse.circle_criterion", "self_ms"),
    ("inverse.check_rank_condition.self_ms", "inverse.check_rank_condition", "self_ms"),
    ("inverse.solve_kalman_general.self_ms", "inverse.solve_kalman_general", "self_ms"),
    ("feasibility.solve_feasibility_projection.self_ms",
     "feasibility.solve_feasibility_projection", "self_ms"),
    ("feasibility.build_vectorized_system.self_ms",
     "feasibility.build_vectorized_system", "self_ms"),
    ("feasibility.nearest_params.self_ms", "feasibility.nearest_params", "self_ms"),
    ("forward.verify_nash.self_ms", "forward.verify_nash", "self_ms"),
    ("numerics.solve_lyapunov.self_ms", "numerics.solve_lyapunov", "self_ms"),
    ("numerics.solve_lyapunov.calls", "numerics.solve_lyapunov", "calls"),
    ("numerics.psd_project.self_ms", "numerics.psd_project", "self_ms"),
    ("numerics.psd_project.calls", "numerics.psd_project", "calls"),
    ("numerics.sym_pack.self_ms", "numerics.sym_pack", "self_ms"),
    ("numerics.sym_unpack.self_ms", "numerics.sym_unpack", "self_ms"),
    ("numerics.sym_unpack.calls", "numerics.sym_unpack", "calls"),
)

# (metric, span, outcome labels counted as the numerator).
RATIO_METRICS = (
    ("realization.right_coprime_factorization.fail_ratio",
     "realization.right_coprime_factorization", ("error",)),
    ("inverse.circle_exact_ratio", "inverse.circle_criterion", ("exact",)),
    ("inverse.kalman.solved_ratio", "inverse.solve_kalman_general", ("solved",)),
    ("feasibility.oracle.determinate_ratio", "feasibility.solve_feasibility_projection",
     ("feasible", "infeasible_certified_by_identity")),
)


def _index(names: list, name: str) -> int:
    return names.index(name) if name in names else -1


def loop_iterations(cols: dict, names: list, span: int, per_iter, delimiter) -> list:
    """Iterations of each per-player loop under one loop span.

    Counted as the span's direct psd_project children, split into per-player
    segments by the delimiter children; rounded down, since a loop may call
    psd_project once more after it stops.
    """
    fn = cols["fn"][cols["parent"] == span]
    psd = fn == _index(names, "numerics.psd_project")
    if delimiter is None:
        counts = [int(psd.sum())]
    else:
        segment = np.cumsum(fn == _index(names, delimiter))
        counts = np.bincount(segment[psd], minlength=segment.max(initial=0) + 1)[1:]
    per = per_iter or len(counts) + 1
    return [int(c) // per for c in counts]


def per_layer_metrics(tracer: Tracer, scales: dict) -> dict:
    """Per-layer metrics of the traced CLI calls, as {name: (value, unit)}.

    Self times and counts are per traced CLI call; the solver's
    ``forward.solve_coupled_are.self_ms`` is per traced set-up round. The
    spans of trace t have their times multiplied by ``scales.get(t, 1)``.
    """
    cols = tracer.arrays()
    factor = np.ones(max(1, len(tracer.traces)))
    for trace_id, scale in scales.items():
        factor[trace_id] = scale
    self_ms = cols["self"] * factor[cols["trace"]] / 1e6
    is_setup = np.array([t.startswith("setup") for t in tracer.traces], dtype=bool)
    on_setup = is_setup[cols["trace"]]
    on_call = ~on_setup
    n_calls = max(1, int((~is_setup).sum()))
    n_setup = max(1, int(is_setup.sum()))
    names = tracer.names
    labels = tracer.labels

    def spans(name, mask=on_call):
        return (cols["fn"] == _index(names, name)) & mask

    out = {}
    for layer in LAYERS:
        in_layer = np.array([n.split(".")[0] == layer for n in names], dtype=bool)
        mask = in_layer[cols["fn"]] & on_call if names else on_call
        out[f"{layer}.self_ms"] = (float(self_ms[mask].sum()) / n_calls, "ms")
    for metric, name, kind in SPAN_METRICS:
        sel = spans(name)
        if kind == "self_ms":
            out[metric] = (float(self_ms[sel].sum()) / n_calls, "ms")
        else:
            out[metric] = (float(sel.sum()) / n_calls, "count")
    for metric, name, good in RATIO_METRICS:
        sel = spans(name)
        hits = np.isin(cols["outcome"][sel], [_index(labels, g) for g in good])
        out[metric] = (float(hits.sum()) / max(1, int(sel.sum())), "ratio")
    for prefix, (name, per_iter, delimiter) in LOOPS.items():
        loops = [loop_iterations(cols, names, int(s), per_iter, delimiter)
                 for s in np.nonzero(spans(name))[0]]
        total = sum(sum(its) for its in loops)
        capped = sum(any(i >= PROJECTION_CAP for i in its) for its in loops)
        out[f"{prefix}.iterations"] = (total / max(1, len(loops)), "count")
        if prefix != "feasibility.nearest":
            out[f"{prefix}.cap_hit_ratio"] = (capped / max(1, len(loops)), "ratio")
    kron = spans("numerics.kron_sum") & (cols["site"] == _index(tracer.sites, "feasibility"))
    out["feasibility.kron_sum.calls"] = (float(kron.sum()) / n_calls, "count")
    coupled = spans("forward.solve_coupled_are", on_setup)
    out["forward.solve_coupled_are.self_ms"] = (float(self_ms[coupled].sum()) / n_setup, "ms")
    return out
