"""Per-layer self-time tracer for the traced benchmark run.

The tracer wraps the public functions of each pipeline layer from the
outside (nothing in ``src/`` is edited) and keeps, per layer, its *self*
time: a call's duration minus the time covered by the wrapped calls it
made.  Work counts (calls, instructions, bytes) are kept beside it.

Spans are only timed on the thread that opened :meth:`LayerTracer.root`;
work on other threads and in worker processes is invisible to it, which
is why the model layers are read from the serial ``sweep-cold`` run.
By construction the self times of all layers plus the root's own self
time (``unattributed``) add up to the root's wall time.
"""

import contextlib
import functools
import os
import sys
import threading
import time

#: Layer names, in pipeline order.  Each is reported as
#: ``<layer>.self_s`` except the cache's two halves (see ``LAYER_TIME``).
LAYERS = (
    "sim.interpret",
    "tdg.construct",
    "analysis",
    "accel.transform",
    "tdg.lower",
    "tdg.time",
    "energy.price",
    "exocore.schedule",
    "dse.serialize",
    "dse.cache.load",
    "dse.cache.store",
    "dse.record_decode",
    "resilience.checkpoint",
    "dse.report",
)

#: Metric name of each layer's self time.
LAYER_TIME = {layer: f"{layer}.self_s" for layer in LAYERS}
LAYER_TIME["dse.cache.load"] = "dse.cache.load_s"
LAYER_TIME["dse.cache.store"] = "dse.cache.store_s"


def _length(value):
    return len(value) if value is not None else 0


def _stream_len(args, kwargs, result):
    return _length(kwargs.get("stream", args[1] if len(args) > 1 else None))


def _one(args, kwargs, result):
    return 1


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _load_bytes(args, kwargs, result):
    backend, key = args[0], args[1]
    return _file_size(backend.path_for(key)) if result is not None else 0


def _layer_targets():
    """``(owner, attribute, layer, counts)`` for every wrapped callable.

    *counts* maps a count metric to ``f(args, kwargs, result) -> int``.
    Owners are classes (methods) or functions; a function target is
    patched in every ``repro`` module that holds a reference to it.
    """
    from repro.accel import BSA_REGISTRY
    from repro.accel.base import AnalysisContext
    from repro.dse import cache, persist, report, sweep
    from repro.energy.mcpat import EnergyModel
    from repro.exocore import schedule
    from repro.resilience.checkpoint import SweepCheckpoint
    from repro.sim.interpreter import Interpreter
    from repro.tdg import fastpath
    from repro.tdg.engine import TimingEngine
    from repro.workloads.base import Workload

    targets = [
        (Interpreter, "run", "sim.interpret",
         {"sim.interpret.insts": lambda a, k, r: _length(r)}),
        (Workload, "construct_tdg", "tdg.construct", {}),
        (AnalysisContext, "__init__", "analysis", {}),
        (AnalysisContext, "dep_info", "analysis", {}),
        (AnalysisContext, "slice_info", "analysis", {}),
        (AnalysisContext, "spans_of", "analysis", {}),
        (fastpath.lower_stream, None, "tdg.lower",
         {"tdg.lower.insts": lambda a, k, r: _length(r)}),
        (fastpath.FastTimingEngine, "run", "tdg.time",
         {"tdg.time.calls": _one}),
        (TimingEngine, "run", "tdg.time",
         {"tdg.time.calls": _one}),
        (EnergyModel, "evaluate", "energy.price",
         {"energy.price.insts": _stream_len}),
        (schedule.oracle_schedule, None, "exocore.schedule",
         {"exocore.schedule.calls": _one}),
        (schedule.amdahl_schedule, None, "exocore.schedule",
         {"exocore.schedule.calls": _one}),
        (sweep.record_to_json, None, "dse.serialize", {}),
        (persist.dumps_sweep, None, "dse.serialize", {}),
        (cache.LocalDirBackend, "load", "dse.cache.load",
         {"dse.cache.loads": _one,
          "dse.cache.bytes_read": _load_bytes}),
        (cache.LocalDirBackend, "store", "dse.cache.store",
         {"dse.cache.stores": _one,
          "dse.cache.bytes_written":
              lambda a, k, r: _file_size(r)}),
        (sweep.record_from_json, None, "dse.record_decode", {}),
        (SweepCheckpoint, "load", "resilience.checkpoint", {}),
        (SweepCheckpoint, "mark_done", "resilience.checkpoint", {}),
        (SweepCheckpoint, "mark_failed", "resilience.checkpoint", {}),
        (report.fig10_table, None, "dse.report", {}),
        (report.fig12_table, None, "dse.report", {}),
    ]
    for model in BSA_REGISTRY.values():
        for cls in model.__mro__:
            if "find_candidates" in vars(cls):
                targets.append((cls, "find_candidates", "analysis", {}))
            if "transform_interval" in vars(cls):
                targets.append(
                    (cls, "transform_interval", "accel.transform",
                     {"accel.transform.calls": _one}))
    # A base class reached through several models is wrapped once.
    unique = {}
    for target in targets:
        unique.setdefault((id(target[0]), target[1]), target)
    return list(unique.values())


COUNT_NAMES = (
    "sim.interpret.insts",
    "accel.transform.calls",
    "tdg.lower.insts",
    "tdg.time.calls",
    "energy.price.insts",
    "exocore.schedule.calls",
    "dse.cache.loads",
    "dse.cache.bytes_read",
    "dse.cache.stores",
    "dse.cache.bytes_written",
)


class LayerTracer:
    """Wraps every layer boundary while installed; see module doc."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.unattributed_s = 0.0
        self.wall_s = 0.0
        self.roots = 0
        self._local = threading.local()

    # -- installation ------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        restore = []
        for owner, attr, layer, counts in _layer_targets():
            if attr is not None:
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, layer, counts))
                restore.append((owner, attr, original))
                continue
            # A function is patched wherever a ``repro`` module bound it.
            wrapper = self._wrap(owner, layer, counts)
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and module is not None:
                    for key, value in list(vars(module).items()):
                        if value is owner:
                            setattr(module, key, wrapper)
                            restore.append((module, key, owner))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- spans ---------------------------------------------------------------
    def _wrap(self, function, layer, counts):
        local = self._local
        self_s = self.self_s
        totals = self.counts
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:           # not under a root on this thread
                return function(*args, **kwargs)
            frame = [0.0]               # time covered by child spans
            stack.append(frame)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed
            for name, count in counts.items():
                totals[name] += count(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """Time one traced pass; its uncovered time is unattributed."""
        frame = [0.0]
        self._local.stack = [frame]
        started = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - started
            self._local.stack = None
            self.wall_s += elapsed
            self.unattributed_s += elapsed - frame[0]
            self.roots += 1

    # -- results -------------------------------------------------------------
    def metrics(self):
        """Per-pass self times and counts (averaged over the roots)."""
        passes = max(1, self.roots)
        out = {LAYER_TIME[layer]: seconds / passes
               for layer, seconds in self.self_s.items()}
        out["unattributed.self_s"] = self.unattributed_s / passes
        out.update((name, total / passes)
                   for name, total in self.counts.items())
        return out
