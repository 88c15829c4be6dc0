"""The four benchmark workloads and the measurements they share.

Every workload is a function ``workload(ctx) -> Run``.  It runs passes
over its work set through a public entry point (``run_sweep`` or the
``repro serve`` HTTP API) until ``ctx.seconds`` is spent, checks every
output, and records one latency per delivered result.  With
``ctx.trace`` the passes alternate untraced / traced (under
:class:`layers.LayerTracer`), so one run yields both the per-layer
breakdown and the tracing overhead.
"""

import hashlib
import http.client
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import LayerTracer

#: One benchmark per suite and all three behavior classes (TPT,
#: Parboil, Mediabench, TPC-H, SPECfp, SPECint), heaviest first in
#: tiers of two.  The seed permutes the dispatch order only within a
#: tier: a free permutation moves the 2-worker makespan by up to 40%
#: (list scheduling of 0.8-4 s tasks), which would swamp any change.
PAPER_SLICE_TIERS = (("456.hmmer", "cjpeg1"), ("kmeans", "tpch1"),
                     ("conv", "433.milc"), ("spmv", "181.mcf"))
PAPER_SLICE = tuple(name for tier in PAPER_SLICE_TIERS for name in tier)

#: Oracle design points (4 cores x 16 BSA subsets) and Amdahl points
#: (4 cores) every benchmark record must carry.
ORACLE_POINTS = 64
AMDAHL_POINTS = 4

#: The tail is the result with exactly this many slower ones, so its
#: percentile follows the sample count instead of jumping between fixed
#: rungs.  On the warm sweep a fixed p99 sat on the edge of the ~0.5%
#: of deliveries that a garbage collection pause lands in, and read
#: either 2 ms or 5-8 ms from run to run; ten beyond sits inside them.
TAIL_MIN_BEYOND = 10

#: Set-up steps repeated per run (median reported) where affordable.
SETUP_REPEATS = 5

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected.json").read_text())


class Settings:
    """Input sizes; ``smoke`` shrinks everything for the self-tests."""

    def __init__(self, smoke=False):
        # Key of the pinned digest in ``expected.json`` (none for smoke).
        self.label = "smoke" if smoke else "paper-slice@1.0"
        self.tiers = PAPER_SLICE_TIERS[-1:] if smoke else PAPER_SLICE_TIERS
        self.slice = tuple(name for tier in self.tiers for name in tier)
        self.scale = 0.05 if smoke else 1.0
        # The warm sweep's cache is filled at a tiny size: entries have
        # the same shape at any scale, and reading them is the work.
        self.warm_names = None if not smoke else PAPER_SLICE
        self.fill_scale = 0.01
        self.fill_invocations = 1
        # Service keys: (benchmark, scale, max_invocations) triples,
        # enough for 32 blocks of fresh keys (a run uses 7-11).
        first = 0.02 if smoke else 0.05
        self.service_scales = tuple(round(first + 0.0015 * step, 4)
                                    for step in range(32))
        self.service_invocations = (2, 4)
        self.fresh_per_benchmark = 2


class Context:
    """What a workload gets: inputs, budget, scratch space."""

    def __init__(self, root, workdir, seed, seconds, trace, settings):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.seconds = seconds
        self.trace = trace
        self.settings = settings
        self.rng = random.Random(seed)
        self.workers = len(os.sched_getaffinity(0))

    def subdir(self, name):
        path = self.workdir / name
        path.mkdir(parents=True)
        return path

    def child_env(self):
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        return env


class Run:
    """Everything one workload run measured and checked."""

    def __init__(self):
        self.pass_walls = []          # untraced pass wall times
        self.traced_walls = []
        # One latency per delivered result: a whole sweep for the cold
        # and parallel sweeps (which alias this to ``pass_walls``), one
        # benchmark handed to run_sweep's progress callback for the
        # warm sweep, one reply for the service.
        self.latencies = []
        self.setup = []               # set-up repetitions
        self.attempted = 0
        self.failed = 0
        self.checks = {}              # name -> [passed, total]
        self.layers = {}              # per-layer metric -> value
        self.digests = set()          # sha256 of every pass's dumps_sweep
        self.pool = []                # (busy_s, idle_s) per sweep pass
        self.info = {}                # printed, not reported

    def check(self, name, ok):
        """Count one output check; a failed check is a failed result."""
        tally = self.checks.setdefault(name, [0, 0])
        tally[1] += 1
        if ok:
            tally[0] += 1
        else:
            self.failed += 1

    def end_to_end(self):
        tail_p, tail = tail_percentile(self.latencies)
        self.info["result_tail"] = (f"p{tail_p:.4g} of "
                                    f"{len(self.latencies)}")
        self.info["passes"] = len(self.pass_walls)
        return {
            "sweep_wall_s": statistics.median(self.pass_walls),
            "result_p50_s": statistics.median(self.latencies),
            "result_tail_s": tail,
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": peak_rss_mb(),
        }


# ---------------------------------------------------------------------------
# Shared measurement helpers.

def tail_percentile(samples):
    """``(p, value)``: the highest percentile with ``TAIL_MIN_BEYOND``
    samples beyond it, or the maximum when that percentile would be
    below the median.  ``p`` is the sample's rank as a percentile."""
    ordered = sorted(samples)
    if len(ordered) <= 2 * TAIL_MIN_BEYOND:
        return 100.0, ordered[-1]
    rank = len(ordered) - 1 - TAIL_MIN_BEYOND
    return 100.0 * rank / (len(ordered) - 1), ordered[rank]


def peak_rss_mb():
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def timed_passes(ctx, run, one_pass, tracer=None):
    """Run passes until the budget is spent; see the module doc.

    ``one_pass(index)`` runs one pass and returns its wall time.  A new
    pass starts only if the median pass so far still fits in the budget
    (at least one pass, two in a traced run: one untraced, one traced).
    """
    started = time.perf_counter()
    minimum = 2 if tracer is not None else 1
    index = 0
    while True:
        if tracer is not None and index % 2 == 1:
            with tracer.installed(), tracer.root():
                run.traced_walls.append(one_pass(index))
        else:
            run.pass_walls.append(one_pass(index))
        index += 1
        elapsed = time.perf_counter() - started
        walls = run.pass_walls + run.traced_walls
        if index >= minimum and \
                elapsed + statistics.median(walls) > ctx.seconds:
            break
    if tracer is not None:
        run.layers.update(tracer.metrics())
        run.layers["trace.overhead_frac"] = (
            statistics.median(run.traced_walls)
            / statistics.median(run.pass_walls) - 1.0)
        run.info["traced_wall_s"] = tracer.wall_s / max(1, tracer.roots)


def permuted(rng, names):
    names = list(names)
    rng.shuffle(names)
    return names


def dispatch_order(rng, tiers):
    """Heaviest tier first; a seeded permutation inside each tier."""
    return [name for tier in tiers for name in permuted(rng, tier)]


def check_record_shape(run, oracle, amdahl):
    run.check("record_shape",
              len(oracle) == ORACLE_POINTS and len(amdahl) == AMDAHL_POINTS)


def library_cold_start(ctx, scale):
    """Seconds for a fresh interpreter to import the library, load the
    timing kernel and evaluate one small benchmark."""
    code = ("from repro.dse.sweep import run_sweep\n"
            "from repro.tdg.fastpath import kernel_available\n"
            "kernel_available()\n"
            f"run_sweep(['conv'], scale={scale!r})\n")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=ctx.child_env(),
                   cwd=ctx.workdir, check=True, timeout=120)
    return time.perf_counter() - started


def registry_total(name):
    from repro.obs import get_registry
    return get_registry().total(name)


# ---------------------------------------------------------------------------
# Sweep workloads.

def _sweep_pass(ctx, run, workers, cache_dir=None):
    """One paper-slice sweep (+ its canonical serialization)."""
    from repro.dse import persist
    from repro.dse.sweep import run_sweep

    names = dispatch_order(ctx.rng, ctx.settings.tiers)
    estimates_before = registry_total("repro_region_estimates_total")
    started = time.perf_counter()
    sweep = run_sweep(names, scale=ctx.settings.scale, workers=workers,
                      cache_dir=cache_dir)
    text = persist.dumps_sweep(sweep)
    wall = time.perf_counter() - started
    stats = sweep.stats
    run.attempted += len(names)
    run.failed += len(stats.failures)
    for record in sweep.benchmarks():
        check_record_shape(run, record.oracle, record.amdahl)
    sha = digest(text)
    run.digests.add(sha)
    expected = EXPECTED["dumps_sweep_sha256"].get(ctx.settings.label)
    if expected is not None:
        run.check("digest_matches_expected", sha == expected)
    run.check("digest_repeats", len(run.digests) == 1)
    # Work counts of one pass; identical on every pass by construction.
    run.layers["sim.baseline_cycles"] = _baseline_cycles(sweep)
    run.layers["accel.region_estimates"] = (
        registry_total("repro_region_estimates_total") - estimates_before)
    busy = sum(entry["seconds"] for entry in stats.entries
               if entry["source"] == "computed")
    run.pool.append((busy, max(0.0, workers * wall - busy)))
    return sweep, wall


def _baseline_cycles(sweep):
    """Simulated baseline cycles summed over benchmarks and cores."""
    return sum(cycles for record in sweep.benchmarks()
               for cycles, _energy, _insts in record.baseline.values())


def _pool_layers(run):
    run.layers["pool.busy_s"] = statistics.fmean(
        busy for busy, _idle in run.pool)
    run.layers["pool.idle_s"] = statistics.fmean(
        idle for _busy, idle in run.pool)


def _library_setup(ctx, run):
    for _ in range(SETUP_REPEATS):
        run.setup.append(library_cold_start(ctx, 0.05))


def sweep_cold(ctx):
    """Serial, uncached paper-slice sweep: all model work, no I/O."""
    run = Run()
    run.latencies = run.pass_walls
    _library_setup(ctx, run)
    tracer = LayerTracer() if ctx.trace else None

    def one_pass(_index):
        return _sweep_pass(ctx, run, workers=1)[1]

    timed_passes(ctx, run, one_pass, tracer)
    _pool_layers(run)
    return run


def sweep_parallel(ctx):
    """The same slice on every core, into an empty cache each pass."""
    run = Run()
    run.latencies = run.pass_walls
    _library_setup(ctx, run)
    tracer = LayerTracer() if ctx.trace else None
    retries = registry_total("repro_retries_total")
    restarts = registry_total("repro_pool_restarts_total")

    def one_pass(index):
        cache_dir = ctx.subdir(f"parallel-{index}")
        sweep, wall = _sweep_pass(ctx, run, ctx.workers, cache_dir)
        stats = sweep.stats
        run.check("all_computed_and_stored",
                  stats.misses == len(ctx.settings.slice)
                  and len(list(cache_dir.glob("??/*.json")))
                  == len(ctx.settings.slice))
        run.check("manifest_and_runlog_written",
                  any((cache_dir / "sweeps").glob("*.json"))
                  and (cache_dir / "runlog.jsonl").is_file())
        return wall

    timed_passes(ctx, run, one_pass, tracer)
    _pool_layers(run)
    passes = len(run.pass_walls) + len(run.traced_walls)
    run.layers["pool.retries"] = (
        registry_total("repro_retries_total") - retries) / passes
    run.layers["pool.restarts"] = (
        registry_total("repro_pool_restarts_total") - restarts) / passes
    return run


def sweep_warm(ctx):
    """All 48 benchmarks answered from a cache filled during set-up."""
    from repro.dse import persist, report
    from repro.dse.sweep import run_sweep
    from repro.workloads import WORKLOADS

    settings = ctx.settings
    names = settings.warm_names or sorted(WORKLOADS)
    kwargs = {"scale": settings.fill_scale,
              "max_invocations": settings.fill_invocations}
    run = Run()
    # A fill costs ~10 s, so set-up is measured once, not repeated.
    cache_dir = ctx.subdir("warm")
    started = time.perf_counter()
    fill = run_sweep(names, workers=ctx.workers, cache_dir=cache_dir,
                     **kwargs)
    run.setup.append(time.perf_counter() - started)
    run.check("fill_complete", not fill.stats.failures
              and len(fill) == len(names))
    fill_text = persist.dumps_sweep(fill)
    tracer = LayerTracer() if ctx.trace else None

    def one_pass(_index):
        order = permuted(ctx.rng, names)
        # A result is one cached benchmark delivered to the caller: the
        # time since the call started or since the previous delivery.
        # A whole 0.1 s pass is too short to average out the machine's
        # speed changes, so its tail would measure the host; per-result
        # delivery times are what the cache and manifest layers cost.
        delivered = []
        started = time.perf_counter()
        sweep = run_sweep(order, cache_dir=cache_dir,
                          progress=lambda _name: delivered.append(
                              time.perf_counter()), **kwargs)
        text = persist.dumps_sweep(sweep)
        report.fig10_table(sweep)
        report.fig12_table(sweep)
        wall = time.perf_counter() - started
        run.latencies.extend(
            now - before
            for before, now in zip([started] + delivered, delivered))
        run.check("every_result_delivered", len(delivered) == len(names))
        run.attempted += len(names)
        run.failed += len(sweep.stats.failures)
        run.check("warm_bytes_equal_fill", text == fill_text)
        run.check("all_cached", sweep.stats.misses == 0)
        return wall

    timed_passes(ctx, run, one_pass, tracer)
    for record in fill.benchmarks():
        check_record_shape(run, record.oracle, record.amdahl)
    run.layers["sim.baseline_cycles"] = _baseline_cycles(fill)
    return run


# ---------------------------------------------------------------------------
# Service workload.

class Server:
    """``repro serve`` as a subprocess on a free port."""

    def __init__(self, ctx, cache_dir):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(ctx.workers), "--cache-dir", str(cache_dir)],
            env=ctx.child_env(), cwd=ctx.workdir,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.lines = []
        self.port = None
        ready = threading.Event()

        def drain():
            for line in self.process.stderr:
                self.lines.append(line)
                if self.port is None and "listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        if not ready.wait(timeout=60) or self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not start:\n"
                               + "".join(self.lines[-20:]))

    def stop(self):
        """SIGTERM, drain, and wait; True on a clean drain."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._reader.join(timeout=10)
        return code == 0 and any(
            "drained and shut down cleanly" in line for line in self.lines)


def _service_blocks(ctx):
    """Yield request blocks: ``fresh_per_benchmark`` first-seen keys for
    every slice benchmark (so each block has the same benchmark mix)
    plus half as many repeats of keys already drawn, shuffled."""
    settings = ctx.settings
    unused = {}
    for name in settings.slice:
        combos = [(name, scale, invocations)
                  for scale in settings.service_scales
                  for invocations in settings.service_invocations]
        ctx.rng.shuffle(combos)
        unused[name] = combos
    seen = []
    while True:
        fresh = [unused[name].pop() for name in settings.slice
                 for _ in range(settings.fresh_per_benchmark)]
        seen.extend(fresh)
        repeats = [ctx.rng.choice(seen) for _ in range(len(fresh) // 2)]
        block = fresh + repeats
        ctx.rng.shuffle(block)
        yield block


def _post_evaluate(port, key):
    name, scale, invocations = key
    body = json.dumps({"benchmark": name, "scale": scale,
                       "max_invocations": invocations})
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request("POST", "/v1/evaluate", body=body,
                           headers={"Content-Type": "application/json",
                                    "Connection": "close"})
        response = connection.getresponse()
        payload = response.read()
        return response.status, payload
    finally:
        connection.close()


def service_mixed(ctx):
    """Two closed-loop clients POST /v1/evaluate against ``repro serve``."""
    run = Run()
    clients = 2
    servers = []
    try:
        for index in range(SETUP_REPEATS):
            started = time.perf_counter()
            servers.append(Server(ctx, ctx.subdir(f"service-{index}")))
            run.setup.append(time.perf_counter() - started)
        for server in servers[:-1]:
            run.check("clean_drain", server.stop())
        server = servers[-1]
        blocks = _service_blocks(ctx)
        replies = {}                  # key -> [(source, record)]
        sources = {"computed": [], "cache": [], "coalesced": []}
        codes = {}
        lock = threading.Lock()

        def client(queue):
            while True:
                with lock:
                    if not queue:
                        return
                    key = queue.pop(0)
                started = time.perf_counter()
                try:
                    status, payload = _post_evaluate(server.port, key)
                except (OSError, http.client.HTTPException):
                    status, payload = "no reply", b""
                latency = time.perf_counter() - started
                with lock:
                    run.attempted += 1
                    run.latencies.append(latency)
                    codes[status] = codes.get(status, 0) + 1
                    if status != 200:
                        run.failed += 1
                        continue
                    reply = json.loads(payload)
                    sources.setdefault(reply["source"], []).append(latency)
                    record = reply["record"]
                    check_record_shape(run, record["oracle"],
                                       record["amdahl"])
                    replies.setdefault(key, []).append(
                        (reply["source"], json.dumps(record, sort_keys=True)))

        def one_pass(_index):
            queue = list(next(blocks))
            threads = [threading.Thread(target=client, args=(queue,))
                       for _ in range(clients)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
            wall = time.perf_counter() - started
            run.check("clients_finished",
                      not any(thread.is_alive() for thread in threads))
            return wall

        tracer = LayerTracer() if ctx.trace else None
        timed_passes(ctx, run, one_pass, tracer)
    finally:
        clean = [server.stop() for server in servers
                 if server.process.returncode is None]
    run.check("clean_drain", all(clean))
    for answers in replies.values():
        # Computed exactly once; every repeat returns the same record.
        run.check("key_computed_once",
                  [source for source, _ in answers].count("computed") == 1)
        run.check("repeat_equals_first",
                  len({record for _, record in answers}) == 1)
    answered = sum(len(v) for v in sources.values())
    hits = len(sources["cache"]) + len(sources["coalesced"])
    run.layers["service.cold_p50_s"] = statistics.median(sources["computed"])
    run.layers["service.hit_p50_s"] = statistics.median(
        sources["cache"] + sources["coalesced"])
    run.layers["service.hit_ratio"] = hits / max(1, answered)
    run.layers["service.coalesced"] = len(sources["coalesced"])
    run.layers["service.rejected"] = codes.get(429, 0)
    run.info["status_codes"] = codes
    run.info["keys"] = len(replies)
    return run


WORKLOADS = {
    "sweep-cold": sweep_cold,
    "sweep-parallel": sweep_parallel,
    "sweep-warm": sweep_warm,
    "service-mixed": service_mixed,
}


def run_workload(name, ctx):
    try:
        return WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
