"""Spans and counters around the public functions of each fairsmooth layer.

Wrappers are installed by reassigning the function at every module attribute
that binds it, because several modules import functions by name (``graph``
binds ``pairwise_fair_distances``, ``smoother`` binds ``make_laplacian`` and
``apply_symmetrized``) and others reach them through their own globals
(``_solve_squared``, ``global_if_project``, the ``synthcheck`` functionals).
Spans stay in memory; the caller writes them out when the run ends.

Counts labelled ``computed`` are derived from argument shapes, not measured:
8 n^2 bytes per dense n x n float64 array, and n^3/3 + 2 n^2 K flops for a
Cholesky factorization shared by K solves.
"""

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from oracles import adjacency, effective_lambda, kl_stationarity, stationarity, sym_laplacian


def _n_rows(a):
    return int(np.shape(a["X"])[0])


def _pairwise_facts(a, result, exc):
    n = _n_rows(a)
    return {"calls": 1, "pairs": n * (n - 1) // 2, "computed_bytes": 8 * n * n}


def _build_graph_facts(a, result, exc):
    n = _n_rows(a)
    return {"edges": result.num_edges if exc is None else 0,
            "candidate_pairs": n * (n - 1) // 2}


def _file_bytes(a, result, exc):
    return {"bytes": os.path.getsize(a["path"]) if exc is None else 0}


def _closed_form_facts(a, result, exc):
    n = a["L"].n
    k = int(np.asarray(a["yhat"]).reshape(n, -1).shape[1])
    if a["lam"] == 0:
        return {"calls": 1, "max:n": n}
    return {"calls": 1, "max:n": n, "computed_flops": n**3 / 3 + 2 * n * n * k, "computed_bytes": 8 * n * n}


def _cd_facts(a, result, exc):
    if exc is not None or not a.get("return_info"):
        return {}
    info = result[1]
    return {"epochs_used": info["epochs_used"],
            "coordinate_updates": info["epochs_used"] * a["L"].n,
            "max:last_max_change": info["last_max_change"]}


def _run_smoothing_facts(a, result, exc):
    if exc is not None:
        return {"uncertified": 1}
    f, meta = result
    g, config = a["g"], a["config"]
    W = adjacency(g.n, g.rows, g.cols, g.weights)
    S = sym_laplacian(W, config.laplacian_kind)
    lam = effective_lambda(W, config.laplacian_kind, config.lam)
    y = np.asarray(a["yhat"], dtype=float)
    if config.discrepancy == "kl":
        bad = kl_stationarity(S, lam, y, f)
    else:
        bad = stationarity(S, lam, y, f)
    return {"fallback_to_cd": int(bool(meta.get("fallback_to_cd"))), "uncertified": int(bad is not None)}


def _not_converged(a, result, exc):
    return {"not_converged": int(type(exc).__name__ == "NotConverged")}


def _kernel_facts(a, result, exc):
    n = _n_rows(a)
    return {"calls": 1, "computed_bytes": 8 * n * n}


# (module, function, facts, track peak allocation); facts map the bound
# arguments, the result and any exception raised to counters added per call,
# and are evaluated by ``Tracer.flush`` after the op so no span pays for them
SPANS = [
    ("cli", "main", None, False),
    ("io", "read_matrix_csv", _file_bytes, False),
    ("io", "write_matrix_csv", _file_bytes, False),
    ("io", "read_pairs_tsv", lambda a, r, e: {"pairs": len(r) if e is None else 0}, False),
    ("io", "read_groups_csv", None, False),
    ("metric", "pairwise_fair_distances", _pairwise_facts, True),
    ("graph", "build_similarity_graph", _build_graph_facts, False),
    ("graph", "write_edge_list", _file_bytes, False),
    ("graph", "read_edge_list", _file_bytes, False),
    ("laplacian", "make_laplacian", lambda a, r, e: {"nnz": r.matrix.nnz if e is None else 0}, False),
    ("laplacian", "apply_symmetrized", None, False),
    ("smoother", "run_smoothing", _run_smoothing_facts, False),
    ("smoother", "smooth_closed_form", _closed_form_facts, True),
    ("smoother", "smooth_coordinate_descent", _cd_facts, False),
    ("smoother", "to_natural_params", None, False),
    ("smoother", "from_natural_params", None, False),
    ("smoother", "inductive_update", lambda a, r, e: {"calls": 1}, False),
    ("baseline", "constraints_from_distances", None, False),
    ("baseline", "global_if_project", _not_converged, False),
    ("baseline", "count_violations", None, False),
    ("evalmetrics", "violation_histogram", lambda a, r, e: {"pairs": len(a["distances"])}, False),
    ("evalmetrics", "prediction_consistency", None, False),
    ("synthcheck", "convergence_report", None, False),
    ("synthcheck", "kernel_weights", _kernel_facts, False),
    ("synthcheck", "empirical_un_functional", None, False),
    ("synthcheck", "empirical_nrw_functional", None, False),
]

# called once per constraint per Dykstra sweep: counted, not spanned
COUNTS = [("baseline", "project_pair")]


class Tracer:
    """In-memory span and counter store; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.op = None
        self._stack = []
        self._pending = []
        self._patched = []

    def _span_wrapper(self, name, fn, facts, track_alloc):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(span)
            self._stack.append(index)
            own_alloc = track_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            result, exc = None, None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = f"{name}.peak_alloc_mb"
                    self.maxima[key] = max(self.maxima[key], peak / 2**20)
                if facts is not None:
                    self._pending.append((name, facts, signature, args, kwargs, result, exc))

        return wrapper

    def flush(self):
        """Evaluate the counters of finished calls; run outside timed code."""
        for name, facts, signature, args, kwargs, result, exc in self._pending:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in facts(bound.arguments, result, exc).items():
                if key.startswith("max:"):
                    key = f"{name}.{key[4:]}"
                    self.maxima[key] = max(self.maxima[key], float(value))
                else:
                    self.counters[f"{name}.{key}"] += value
        self._pending = []

    def _count_wrapper(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        wrappers = {}
        for mod, fn, facts, alloc in SPANS:
            original = getattr(importlib.import_module(f"fairsmooth.{mod}"), fn)
            wrappers[id(original)] = (original, self._span_wrapper(f"{mod}.{fn}", original, facts, alloc))
        for mod, fn in COUNTS:
            original = getattr(importlib.import_module(f"fairsmooth.{mod}"), fn)
            wrappers[id(original)] = (original, self._count_wrapper(f"{mod}.{fn}", original))
        for key, module in list(sys.modules.items()):
            if key != "fairsmooth" and not key.startswith("fairsmooth."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def layer_metrics(self, ops):
        """Per-op totals by span name: ``.s`` (wall), ``.self_s`` and counters."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        out = {}
        for name in total:
            out[f"{name}.s"] = total[name] / ops
            out[f"{name}.self_s"] = own[name] / ops
        for key, value in self.counters.items():
            out[key] = value / ops
        out.update(self.maxima)
        # the CLI layer's own time: cli.main minus the layers it calls
        out["cli.self_s"] = out.get("cli.main.self_s", 0.0)
        edges = self.counters.get("graph.build_similarity_graph.edges", 0.0)
        candidates = self.counters.get("graph.build_similarity_graph.candidate_pairs", 0.0)
        out["graph.build_similarity_graph.kept_ratio"] = edges / candidates if candidates else 0.0
        return out

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o} for n, s, e, p, o in self.spans]
