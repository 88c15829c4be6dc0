"""Warm worker pool: persistent executors for engine evaluations.

The one-shot CLI pays interpreter startup + package import + workload
construction per evaluation; the service keeps a persistent
:class:`~concurrent.futures.ProcessPoolExecutor` of warm workers
instead, reusing the exact task codec and worker entry point of the
sweep's pool (:mod:`repro.dse.parallel`) so service results are the
same payloads the sweep computes and the cache stores.

The pool is self-healing: a worker crash (``BrokenProcessPool``)
respawns the executor and retries the evaluation, an evaluation that
exceeds ``task_timeout`` has its workers killed and surfaces as
:class:`~repro.resilience.policy.EvaluationTimeout` (HTTP 504 at the
route layer), and after ``max_pool_restarts`` respawns the pool
degrades to a single sacrificial worker (the service equivalent of the
sweep's inline fallback — the event loop must never run engine code
itself).  Restart and degradation events are counted in the
:mod:`repro.obs` registry and surfaced through ``/v1/healthz``.
"""

import asyncio
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.dse.parallel import evaluate_payload
from repro.obs import (
    counter, disable, dump_blackbox, flight_event, get_recorder,
)
from repro.resilience.policy import EvaluationTimeout


def _quiet_worker():
    """Pool initializer: stop recording spans in the worker.

    A forked worker inherits the server's enabled tracing, and nothing
    ever exports or clears a worker's global recorder, so every
    evaluation would grow it for good.  Tasks that carry ``obs`` still
    record, into a private recorder under :func:`repro.obs.isolated`.
    """
    disable()
    get_recorder().clear()


def _warm_worker(_index):
    """Pay the modeling-package import (and source-tree digest) once
    per worker at startup instead of on the first request."""
    import repro.dse.sweep                      # noqa: F401
    from repro.dse.cache import engine_version_hash
    return engine_version_hash()


class EvaluationPool:
    """Async facade over a persistent executor of evaluation workers.

    *mode* is ``"process"`` (production: true parallelism, isolation
    from engine crashes) or ``"thread"`` (tests / debugging: same
    process, works with in-memory stub evaluators).  *evaluator* is
    ``task -> (payload, seconds)`` and defaults to the sweep's worker
    entry point; a process pool requires it to be picklable.

    *task_timeout* bounds one evaluation's wall clock (process mode
    kills the hung worker; thread mode can only abandon it).
    *max_pool_restarts* bounds respawns before degrading to a
    single-worker pool (``degraded`` flag).
    """

    def __init__(self, workers=1, mode="process", evaluator=None,
                 task_timeout=None, max_pool_restarts=2):
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.workers = max(1, int(workers))
        self.mode = mode
        self.task_timeout = task_timeout
        self.max_pool_restarts = max(0, int(max_pool_restarts))
        self.restarts = 0
        self.degraded = False
        self._evaluator = evaluator if evaluator is not None \
            else evaluate_payload
        self._executor = None
        self._generation = 0
        self._respawn_lock = None

    def _make_executor(self):
        if self.mode == "process":
            return ProcessPoolExecutor(max_workers=self.workers,
                                       initializer=_quiet_worker)
        return ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-eval")

    async def start(self, warm=True):
        if self._respawn_lock is None:
            self._respawn_lock = asyncio.Lock()
        if self._executor is not None:
            return
        self._executor = self._make_executor()
        if warm and self.mode == "process":
            loop = asyncio.get_running_loop()
            await asyncio.gather(*(
                loop.run_in_executor(self._executor, _warm_worker, i)
                for i in range(self.workers)))

    async def _respawn(self, generation, kill=False, reason="death"):
        """Replace a dead/hung executor (exactly once per generation).

        Concurrent evaluations that all observed the same breakage
        race here; the generation check makes the respawn idempotent
        so the pool is only rebuilt — and only counted — once.
        """
        async with self._respawn_lock:
            if self._generation != generation:
                return
            self._generation += 1
            executor, self._executor = self._executor, None
            if executor is not None:
                if kill:
                    # A hung worker never returns; terminating the
                    # processes is the only cancellation a
                    # ProcessPoolExecutor has (see the sweep runner).
                    procs = getattr(executor, "_processes", None) or {}
                    for proc in list(procs.values()):
                        try:
                            proc.terminate()
                        except (OSError, AttributeError):
                            pass
                try:
                    executor.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass
            self.restarts += 1
            counter("repro_pool_restarts_total",
                    "worker pools discarded and respawned") \
                .inc(reason=reason)
            flight_event("pool.respawn", reason=reason,
                         restarts=self.restarts)
            if self.restarts > self.max_pool_restarts \
                    and not self.degraded:
                self.degraded = True
                self.workers = 1
                counter("repro_pool_inline_fallback_total",
                        "pools abandoned for inline execution").inc()
                flight_event("pool.degraded", restarts=self.restarts)
                dump_blackbox("pool-degraded")
            self._executor = self._make_executor()

    async def evaluate(self, task):
        """Run one evaluation on a warm worker; ``(payload, seconds)``.

        Retries across pool respawns after a worker crash (bounded by
        ``max_pool_restarts + 1`` tries); raises
        :class:`EvaluationTimeout` when ``task_timeout`` expires.
        """
        if self._executor is None:
            await self.start(warm=False)
        loop = asyncio.get_running_loop()
        name = task.get("name", "?") if isinstance(task, dict) else "?"
        if isinstance(task, dict):
            # Flag pool dispatch the same way the sweep runner does:
            # fault injection (and worker-side reporting) keys on it.
            task = dict(task, pooled=(self.mode == "process"))
        tries = 0
        while True:
            generation = self._generation
            flight_event("task.dispatch", task=name, attempt=tries,
                         pool="service")
            future = loop.run_in_executor(
                self._executor, self._evaluator, task)
            try:
                if self.task_timeout is not None:
                    return await asyncio.wait_for(
                        future, timeout=self.task_timeout)
                return await future
            except asyncio.TimeoutError:
                counter("repro_task_timeouts_total",
                        "tasks cancelled at their wall-clock "
                        "budget").inc()
                flight_event("task.timeout", task=name,
                             budget_seconds=self.task_timeout)
                dump_blackbox("task-timeout")
                if self.mode == "process":
                    await self._respawn(generation, kill=True,
                                        reason="timeout")
                raise EvaluationTimeout(
                    f"evaluation of {name} exceeded "
                    f"{self.task_timeout}s wall clock") from None
            except BrokenProcessPool:
                tries += 1
                flight_event("pool.crash", task=name, tries=tries)
                await self._respawn(generation, reason="death")
                if tries > self.max_pool_restarts:
                    dump_blackbox(f"pool-crash:{name}")
                    raise
                counter("repro_retries_total",
                        "task retries scheduled by the "
                        "fault-tolerance layer").inc(kind="pool")

    def shutdown(self, wait=True):
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None
