"""Deterministic fault injection for the execution layer.

Faults are declared in ``$REPRO_FAULT_SPEC`` (or ``repro sweep
--fault-spec``, which sets the variable before the pool spawns so
worker processes inherit it).  The spec is a comma-separated list of
entries, each ``kind:field=value[:field=value...]``:

- ``crash:task=NAME[:attempt=N]`` — the worker evaluating *NAME* dies
  with ``os._exit`` (simulates OOM-kill / segfault; breaks the pool).
- ``hang:task=NAME[:attempt=N][:seconds=S]`` — the worker sleeps *S*
  seconds (default 3600) before evaluating (exercises timeouts).
- ``flaky:task=NAME[:attempt=N]`` — raises
  :class:`~repro.resilience.policy.TransientError` (exercises
  retries; works inline as well as in pool workers).
- ``torn:store=N`` — the *N*-th cache store in this process writes a
  truncated entry (simulates a torn write; exercises corruption
  quarantine and recompute).

``attempt`` defaults to ``0`` — the fault fires on the first try only,
so retries succeed and a faulted run converges to the byte-identical
clean artifact.  ``attempt=*`` fires on every try (exhausts the retry
budget; exercises terminal-failure reporting).

``crash`` and ``hang`` only fire in sacrificial pool workers (tasks
flagged ``pooled`` by the runner), never inline in the parent — the
inline degradation path must not take the whole process down.
"""

import os
import threading
import time

from repro.obs import counter, flight_event
from repro.resilience.policy import TransientError

#: Environment variable carrying the fault spec (inherited by pools).
ENV_VAR = "REPRO_FAULT_SPEC"

KINDS = ("crash", "hang", "flaky", "torn")

#: Exit code of an injected worker crash (recognizable in CI logs).
CRASH_EXIT_CODE = 23


class FaultSpecError(ValueError):
    """Malformed fault-spec text."""


class Fault:
    """One parsed fault entry."""

    __slots__ = ("kind", "task", "attempt", "seconds", "store")

    def __init__(self, kind, task=None, attempt=0, seconds=3600.0,
                 store=None):
        self.kind = kind
        self.task = task
        self.attempt = attempt      # None = every attempt
        self.seconds = seconds
        self.store = store

    def __repr__(self):
        if self.kind == "torn":
            target = f"store={self.store}"
        else:
            target = f"task={self.task}"
        return f"<Fault {self.kind}:{target} attempt={self.attempt}>"


def parse_fault_spec(text):
    """Parse a spec string into a list of :class:`Fault` entries."""
    faults = []
    for entry in (text or "").split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        kind = parts[0].strip()
        if kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} "
                f"(known: {', '.join(KINDS)})")
        fields = {}
        for part in parts[1:]:
            if "=" not in part:
                raise FaultSpecError(
                    f"bad fault field {part!r} in {entry!r} "
                    "(expected field=value)")
            name, value = part.split("=", 1)
            fields[name.strip()] = value.strip()
        task = fields.pop("task", None)
        attempt_text = fields.pop("attempt", "0")
        try:
            attempt = None if attempt_text == "*" else int(attempt_text)
            seconds = float(fields.pop("seconds", 3600.0))
            store = fields.pop("store", None)
            store = int(store) if store is not None else None
        except ValueError as exc:
            raise FaultSpecError(
                f"bad numeric field in {entry!r}: {exc}") from None
        if fields:
            raise FaultSpecError(
                f"unknown fields {sorted(fields)} in {entry!r}")
        if kind == "torn":
            if store is None:
                raise FaultSpecError(
                    f"{entry!r}: torn faults need store=N")
        elif task is None:
            raise FaultSpecError(
                f"{entry!r}: {kind} faults need task=NAME")
        faults.append(Fault(kind, task=task, attempt=attempt,
                            seconds=seconds, store=store))
    return faults


class FaultPlan:
    """A parsed spec plus the mutable per-process injection state."""

    def __init__(self, faults):
        self.faults = list(faults)
        self._stores = 0
        self._lock = threading.Lock()

    def apply_task_faults(self, name, attempt=0, pooled=False):
        """Fire any fault matching this evaluation attempt.

        ``flaky`` raises; ``crash``/``hang`` only act on pooled tasks
        (see module docstring).  Injections are counted in
        ``repro_faults_injected_total`` — best-effort for ``crash``,
        whose worker never ships its registry home.
        """
        for fault in self.faults:
            if fault.kind not in ("crash", "hang", "flaky") \
                    or fault.task != name:
                continue
            if fault.attempt is not None and fault.attempt != attempt:
                continue
            if fault.kind == "flaky":
                counter("repro_faults_injected_total",
                        "faults fired by the injection harness") \
                    .inc(kind="flaky")
                flight_event("fault.injected", fault="flaky",
                             task=name, attempt=attempt)
                raise TransientError(
                    f"injected transient failure for {name} "
                    f"(attempt {attempt})")
            if not pooled:
                continue
            counter("repro_faults_injected_total",
                    "faults fired by the injection harness") \
                .inc(kind=fault.kind)
            flight_event("fault.injected", fault=fault.kind,
                         task=name, attempt=attempt)
            if fault.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if fault.kind == "hang":
                time.sleep(fault.seconds)

    def consume_torn_store(self):
        """True when the current cache store should write torn bytes."""
        with self._lock:
            index = self._stores
            self._stores += 1
        torn = any(fault.kind == "torn" and fault.store == index
                   for fault in self.faults)
        if torn:
            counter("repro_faults_injected_total",
                    "faults fired by the injection harness") \
                .inc(kind="torn")
        return torn


#: Lazily parsed plan; ``None`` means "no spec", the sentinel means
#: "not loaded yet" (so an empty env var is only checked once).
_UNSET = object()
_plan = _UNSET
_plan_lock = threading.Lock()


def active_plan():
    """The process's :class:`FaultPlan`, or ``None`` without a spec."""
    global _plan
    if _plan is _UNSET:
        with _plan_lock:
            if _plan is _UNSET:
                text = os.environ.get(ENV_VAR, "").strip()
                _plan = FaultPlan(parse_fault_spec(text)) if text \
                    else None
    return _plan


def reset_plan():
    """Drop the memoized plan (tests; after changing the env var)."""
    global _plan
    with _plan_lock:
        _plan = _UNSET


def apply_task_faults(name, attempt=0, pooled=False):
    """Module-level hook for worker entry points (no-op sans spec)."""
    plan = active_plan()
    if plan is not None:
        plan.apply_task_faults(name, attempt=attempt, pooled=pooled)


def consume_torn_store():
    """Module-level hook for the cache store path (False sans spec)."""
    plan = active_plan()
    return plan.consume_torn_store() if plan is not None else False
