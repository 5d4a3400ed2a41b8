"""Span tracer for the benchmark, installed on haarshift from the outside.

`Tracer.install` wraps the public functions and methods of each layer
module (`kernels`, `solver`, `dyadic`, `reconstruct`, `operators`,
`piecewise`, `cli`) and puts the wrapper wherever the package holds a
reference to the original, so `from .solver import solve_c` bindings are
traced too.  Two extra hooks reach inside the Monte-Carlo engine without
touching its code: the term function handed to `accumulate_samples` is
wrapped per call, and the engine's thread pool is swapped for one whose
workers open a span per chunk.

Spans (id, parent, name, thread, start, end, attributes) are kept in
memory while the run lasts; `dump` writes them out and `layer_metrics`
reduces them to the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

LAYERS = ("kernels", "solver", "dyadic", "reconstruct", "operators", "piecewise", "cli")

# the cli layer's public surface is its entry point; everything else there
# (argparse, provenance, CSV/JSON emission) is cli self time
PUBLIC_OVERRIDE = {"cli": ("main",)}

# methods whose spans are reported under a short layer-level name
METHOD_NAMES = {
    ("solver", "CoefficientTable", "c_at"): "solver.c_at",
    ("operators", "TestFunction", "antiderivative"): "operators.antiderivative",
    ("piecewise", "PiecewiseLinear", "__call__"): "piecewise.eval",
}

# span names renamed from the function they wrap
FUNCTION_NAMES = {"dyadic.accumulate_samples": "dyadic.accumulate"}

CLI_COMMANDS = ("solve", "verify", "mc", "apply")

# per-layer metrics, in report order: name -> unit
PER_LAYER = {
    "kernels.m_of.calls": "count",
    "kernels.m_of.points": "count",
    "kernels.m_of.s": "s",
    "kernels.kernel_value.calls": "count",
    "kernels.kernel_value.s": "s",
    "solver.solve_c.self_s": "s",
    "solver.sweeps": "count",
    "solver.residual.s": "s",
    "solver.residual_sup": "1",
    "solver.max_change_ratio": "1",
    "solver.c_at.calls": "count",
    "solver.c_at.points": "count",
    "solver.c_at.s": "s",
    "solver.write_table.s": "s",
    "solver.read_table.s": "s",
    "solver.table_bytes": "B",
    "dyadic.accumulate.s": "s",
    "dyadic.accumulate.self_s": "s",
    "dyadic.draws": "count",
    "dyadic.chunks": "count",
    "dyadic.term.calls": "count",
    "dyadic.term.evals": "count",
    "dyadic.term.s": "s",
    "dyadic.term.hit_rate": "1",
    "dyadic.busy_frac": "1",
    "reconstruct.reconstruct_at.calls": "count",
    "reconstruct.reconstruct_at.self_s": "s",
    "reconstruct.panels": "count",
    "reconstruct.mc_estimate.self_s": "s",
    "operators.apply_averaged.self_s": "s",
    "operators.antiderivative.calls": "count",
    "operators.antiderivative.points": "count",
    "operators.antiderivative.s": "s",
    "operators.direct_pv.calls": "count",
    "operators.direct_pv.s": "s",
    "piecewise.eval.calls": "count",
    "piecewise.eval.s": "s",
    **{f"cli.{cmd}.self_s": "s" for cmd in CLI_COMMANDS},
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
}


def _points(args):
    # the evaluation array is the last positional argument of every hooked call
    return {"points": int(np.size(args[-1]))}


def _solve_result(table):
    return {
        "sweeps": table.iterations,
        "residual_sup": table.residual_sup,
        "max_change_ratio": table.max_change_ratio,
    }


def _write_result(paths):
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


class Tracer:
    """Records spans while `active` is true; inert otherwise."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to the
        innermost open span of the calling thread."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end, attrs))

    def _wrapper(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name, attrs = name, None
            if before is not None:
                span_name, args, kwargs, attrs = before(name, args, kwargs)
            result = tracer.call(span_name, fn, args, kwargs, attrs)
            if after is not None:
                attrs.update(after(result))
            return result

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _before(self, name):
        if name in ("kernels.m_of", "solver.c_at", "operators.antiderivative"):
            return lambda n, a, k: (n, a, k, _points(a))
        if name in ("solver.solve_c", "solver.write_table"):
            return lambda n, a, k: (n, a, k, {})
        if name == "cli.main":
            return lambda n, a, k: (f"cli.{a[0][0]}", a, k, None)
        return None

    def _accumulate_before(self, signature):
        tracer = self

        def before(name, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            term_fn = bound.arguments["term_fn"]

            def term(n, r, sigma):
                attrs = {"evals": int(np.size(r))}
                out = tracer.call("dyadic.term", term_fn, (n, r, sigma), {}, attrs)
                attrs["hits"] = int(np.count_nonzero(out))
                return out

            bound.arguments["term_fn"] = term
            draws = bound.arguments["num_samples"]
            chunk = bound.arguments["chunk_size"]
            attrs = {
                "draws": draws,
                "chunks": -(-draws // chunk),
                "threads": bound.arguments["threads"] or 1,
            }
            return name, bound.args, bound.kwargs, attrs

        return before

    def _traced_pool(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Opens one span per chunk on the worker that runs it."""

            def map(self, fn, *iterables, **kwargs):
                if not tracer.active:
                    return super().map(fn, *iterables, **kwargs)
                stack = tracer._stack()
                parent = stack[-1] if stack else 0

                def chunk(*args):
                    return tracer.call("dyadic.chunk", fn, args, {}, None, parent=parent)

                return super().map(chunk, *iterables, **kwargs)

        return TracedPool

    # -- installation ------------------------------------------------------

    def _targets(self, modules):
        """(owner, attribute, span name, original) for every traced callable."""
        for layer in LAYERS:
            module = modules[layer]
            names = PUBLIC_OVERRIDE.get(layer) or getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for attr in names:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    yield module, attr, FUNCTION_NAMES.get(name, name), obj
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (
                            not meth.startswith("_") or meth == "__call__"
                        ):
                            name = METHOD_NAMES.get(
                                (layer, attr, meth), f"{layer}.{attr}.{meth}"
                            )
                            yield obj, meth, name, fn

    def install(self) -> None:
        """Wrap every layer's public callables in the loaded haarshift."""
        modules = {layer: sys.modules[f"haarshift.{layer}"] for layer in LAYERS}
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "haarshift"]
        for owner, attr, name, original in list(self._targets(modules)):
            if name == "dyadic.accumulate":
                before = self._accumulate_before(inspect.signature(original))
            else:
                before = self._before(name)
            after = {
                "solver.solve_c": _solve_result,
                "solver.write_table": _write_result,
            }.get(name)
            wrapped = self._wrapper(name, original, before, after)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
                continue
            # rebind every module-level reference, not just the defining one
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        self._patch(modules["dyadic"], "ThreadPoolExecutor", self._traced_pool())

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans as one JSON object of parallel columns."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        columns = {
            "id": [s[0] for s in self.spans],
            "parent": [s[1] for s in self.spans],
            "name": [index[s[2]] for s in self.spans],
            "thread": [s[3] for s in self.spans],
            "start_ns": [s[4] for s in self.spans],
            "end_ns": [s[5] for s in self.spans],
            "attrs": [s[6] for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": names, "columns": columns}, fh)


def _union_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass per-layer metrics from a list of span tuples.

    Self time is a span's duration minus the union of its children's
    intervals.  Children run on the parent's thread, except engine chunks,
    which run on pool workers while their accumulate span waits.
    """
    children = defaultdict(list)
    names = {}
    for s in spans:
        names[s[0]] = s[2]
        children[s[1]].append(s)

    calls = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    panels = 0
    busy_ns = worker_ns = 0
    for sid, parent, name, _tid, start, end, attrs in spans:
        dur = end - start
        kids = children.get(sid, ())
        calls[name] += 1
        total[name] += dur
        self_ns[name] += dur - _union_ns((k[4], k[5]) for k in kids)
        for key, value in (attrs or {}).items():
            attr_sum[f"{name}.{key}"] += value
            attr_max[f"{name}.{key}"] = max(attr_max[f"{name}.{key}"], value)
        if name == "solver.c_at" and names.get(parent) == "reconstruct.reconstruct_at":
            panels += 1
        elif name == "dyadic.accumulate":
            chunk_ns = sum(k[5] - k[4] for k in kids if k[2] == "dyadic.chunk")
            if chunk_ns:
                # pooled: the workers' chunk time against threads x wall
                busy_ns += chunk_ns
                worker_ns += min(attrs["threads"], attrs["chunks"]) * dur
            else:
                # inline: the calling thread is the one busy worker
                busy_ns += dur
                worker_ns += dur

    def per_pass(value):
        return value / passes

    def sec(ns):
        return per_pass(ns) / 1e9

    evals = attr_sum["dyadic.term.evals"]
    out = {
        "kernels.m_of.calls": per_pass(calls["kernels.m_of"]),
        "kernels.m_of.points": per_pass(attr_sum["kernels.m_of.points"]),
        "kernels.m_of.s": sec(total["kernels.m_of"]),
        "kernels.kernel_value.calls": per_pass(calls["kernels.kernel_value"]),
        "kernels.kernel_value.s": sec(total["kernels.kernel_value"]),
        "solver.solve_c.self_s": sec(self_ns["solver.solve_c"]),
        "solver.sweeps": per_pass(attr_sum["solver.solve_c.sweeps"]),
        "solver.residual.s": sec(total["solver.residual"]),
        "solver.residual_sup": attr_max["solver.solve_c.residual_sup"],
        "solver.max_change_ratio": attr_max["solver.solve_c.max_change_ratio"],
        "solver.c_at.calls": per_pass(calls["solver.c_at"]),
        "solver.c_at.points": per_pass(attr_sum["solver.c_at.points"]),
        "solver.c_at.s": sec(total["solver.c_at"]),
        "solver.write_table.s": sec(total["solver.write_table"]),
        "solver.read_table.s": sec(total["solver.read_table"]),
        "solver.table_bytes": per_pass(attr_sum["solver.write_table.bytes"]),
        "dyadic.accumulate.s": sec(total["dyadic.accumulate"]),
        "dyadic.accumulate.self_s": sec(
            self_ns["dyadic.accumulate"] + self_ns["dyadic.chunk"]
        ),
        "dyadic.draws": per_pass(attr_sum["dyadic.accumulate.draws"]),
        "dyadic.chunks": per_pass(attr_sum["dyadic.accumulate.chunks"]),
        "dyadic.term.calls": per_pass(calls["dyadic.term"]),
        "dyadic.term.evals": per_pass(evals),
        "dyadic.term.s": sec(total["dyadic.term"]),
        "dyadic.term.hit_rate": attr_sum["dyadic.term.hits"] / evals if evals else 0.0,
        "dyadic.busy_frac": busy_ns / worker_ns if worker_ns else 0.0,
        "reconstruct.reconstruct_at.calls": per_pass(calls["reconstruct.reconstruct_at"]),
        "reconstruct.reconstruct_at.self_s": sec(self_ns["reconstruct.reconstruct_at"]),
        "reconstruct.panels": per_pass(panels),
        "reconstruct.mc_estimate.self_s": sec(self_ns["reconstruct.mc_estimate"]),
        "operators.apply_averaged.self_s": sec(self_ns["operators.apply_averaged"]),
        "operators.antiderivative.calls": per_pass(calls["operators.antiderivative"]),
        "operators.antiderivative.points": per_pass(attr_sum["operators.antiderivative.points"]),
        "operators.antiderivative.s": sec(total["operators.antiderivative"]),
        "operators.direct_pv.calls": per_pass(calls["operators.direct_pv"]),
        "operators.direct_pv.s": sec(total["operators.direct_pv"]),
        "piecewise.eval.calls": per_pass(calls["piecewise.eval"]),
        "piecewise.eval.s": sec(total["piecewise.eval"]),
        "trace.spans": per_pass(len(spans)),
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = sec(self_ns[f"cli.{cmd}"])
    return out
