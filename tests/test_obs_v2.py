"""Observability v2: distributed tracing, flight recorder, run
history, profiler.

The additions keep the layer's founding contract — observe, never
perturb — while extending it across process boundaries.  These tests
pin down:

- the W3C-style traceparent codec and ``trace_context`` binding;
- cross-process span parenting: a ``--workers 4`` sweep exports one
  *connected* Perfetto trace tree rooted at ``dse.sweep.run``;
- the always-on flight recorder ring (capacity / ordering /
  overwrite, via hypothesis) and its blackbox dumps — including the
  dump an injected worker crash leaves behind;
- byte-identity of sweep artifacts with the full v2 stack attached
  (trace context + spans + recorder + sampling profiler);
- the run-history log, EWMA regression detection, and the health
  report; and
- the hardened Prometheus exposition (HELP/TYPE everywhere, escaped
  labels) surviving a parse round-trip.
"""

import json
import os
import pathlib
import time
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse import dumps_sweep, run_sweep
from repro.obs import (
    FlightRecorder, current_span_id, current_trace_id, disable,
    dump_blackbox, enable, flight_event, format_traceparent,
    get_flight_recorder, get_recorder, new_trace_id, parse_folded,
    parse_prom_text, set_blackbox_dir, span, trace_context,
    validate_chrome_trace, write_chrome_trace,
)
from repro.obs.core import Recorder
from repro.obs.profiler import StackProfiler, merge_folded, top_stacks
from repro.obs.runlog import (
    RunLog, build_report, detect_regressions, ewma, format_report,
    runlog_entry,
)

#: Mirrors the sweep-determinism configuration (tiny but real).
KW = dict(scale=0.1, max_invocations=2, with_amdahl=False)


@pytest.fixture
def obs_off_after():
    yield
    disable()
    get_recorder().clear()


@pytest.fixture
def blackbox_tmp(tmp_path):
    """Route blackbox dumps into the test's tmp dir, then restore."""
    directory = tmp_path / "blackbox"
    set_blackbox_dir(directory)
    get_flight_recorder().clear()
    yield directory
    set_blackbox_dir(None)
    get_flight_recorder().clear()


# ---------------------------------------------------------------------------
# Trace ids, traceparent, trace_context.

class TestTraceparent:
    def test_roundtrip(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 16
        header = format_traceparent(trace_id, 5)
        version, padded, span_hex, flags = header.split("-")
        assert (version, flags) == ("00", "01")
        assert len(padded) == 32 and len(span_hex) == 16
        assert parse_traceparent_ok(header) == trace_id

    def test_foreign_32hex_id_kept_whole(self):
        foreign = "4bf92f3577b34da6a3ce929d0e0e4736"
        header = f"00-{foreign}-00f067aa0ba902b7-01"
        assert parse_traceparent_ok(header) == foreign

    @pytest.mark.parametrize("header", [
        None, "", "nonsense", "00-abc-def-01",
        "00-" + "g" * 32 + "-" + "0" * 16 + "-01",
        "00-" + "0" * 32 + "-00f067aa0ba902b7-01",   # all-zero trace
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",   # short span
    ])
    def test_malformed_is_none(self, header):
        from repro.obs import parse_traceparent
        assert parse_traceparent(header) is None

    def test_trace_context_minting_and_nesting(self):
        assert current_trace_id() is None
        with trace_context() as outer:
            assert len(outer) == 16
            assert current_trace_id() == outer
            with trace_context("feedfacefeedface") as inner:
                assert inner == "feedfacefeedface"
                assert current_trace_id() == inner
            assert current_trace_id() == outer
        assert current_trace_id() is None

    def test_span_carries_trace_top_level(self, obs_off_after):
        enable(reset=True)
        with span("v2.unbound"):
            pass
        with trace_context("0123456789abcdef"):
            with span("v2.bound", detail=1):
                pass
        records = {r["name"]: r for r in get_recorder().records}
        assert "trace" not in records["v2.unbound"]
        assert records["v2.bound"]["trace"] == "0123456789abcdef"
        # The correlation never leaks into args, whose contents the
        # call sites own.
        assert records["v2.bound"]["args"] == {"detail": 1}


def parse_traceparent_ok(header):
    from repro.obs import parse_traceparent
    parsed = parse_traceparent(header)
    assert parsed is not None
    return parsed


# ---------------------------------------------------------------------------
# Flight recorder ring.

class TestFlightRecorder:
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=32),
           events=st.integers(min_value=0, max_value=100))
    def test_ring_capacity_ordering_overwrite(self, capacity, events):
        recorder = FlightRecorder(capacity=capacity)
        for index in range(events):
            recorder.record("evt", index=index)
        kept = recorder.snapshot()
        # Bounded at capacity, counting everything ever recorded.
        assert len(recorder) == len(kept) == min(capacity, events)
        assert recorder.total == events
        assert recorder.dropped == max(0, events - capacity)
        # Oldest evicted first: survivors are exactly the newest N,
        # in recording order.
        assert [e["fields"]["index"] for e in kept] \
            == list(range(max(0, events - capacity), events))
        seqs = [e["seq"] for e in kept]
        assert seqs == sorted(seqs)

    def test_kind_field_does_not_collide(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("task.retry", kind="transient", task="conv")
        event = recorder.snapshot()[-1]
        assert event["kind"] == "task.retry"
        assert event["fields"] == {"kind": "transient", "task": "conv"}

    def test_events_tagged_with_bound_trace(self, blackbox_tmp):
        flight_event("v2.untraced")
        with trace_context("beadfeedbeadfeed"):
            flight_event("v2.traced", n=1)
        events = {e["kind"]: e
                  for e in get_flight_recorder().snapshot()}
        assert "trace" not in events["v2.untraced"]
        assert events["v2.traced"]["trace"] == "beadfeedbeadfeed"

    def test_dump_blackbox_schema_and_atomicity(self, blackbox_tmp):
        with trace_context("cafecafecafecafe"):
            flight_event("v2.crumb", task="conv")
            dumped = dump_blackbox("unit-test")
        assert dumped is not None
        path = pathlib.Path(dumped)
        assert path.parent == blackbox_tmp
        assert path.name == "cafecafecafecafe.json"
        # No temp files left behind by the atomic replace.
        assert [p.name for p in blackbox_tmp.iterdir()] == [path.name]
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["reason"] == "unit-test"
        assert payload["trace_id"] == "cafecafecafecafe"
        assert payload["pid"] == os.getpid()
        assert any(e["kind"] == "v2.crumb"
                   and e["fields"]["task"] == "conv"
                   for e in payload["events"])

    def test_dump_blackbox_never_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        try:
            set_blackbox_dir(blocker / "sub")
            assert dump_blackbox("swallowed") is None
        finally:
            set_blackbox_dir(None)


# ---------------------------------------------------------------------------
# Cross-process trace tree.

class TestDistributedTraceTree:
    def test_workers4_sweep_is_one_connected_tree(self, tmp_path,
                                                  obs_off_after):
        enable(reset=True)
        with trace_context() as trace_id:
            run_sweep(names=["conv", "fft"], workers=4, **KW)
        out = tmp_path / "sweep-trace.json"
        write_chrome_trace(out, label="v2 connectivity")
        events = [e for e in
                  validate_chrome_trace(json.loads(out.read_text()))
                  if e["ph"] == "X"]

        by_id = {e["args"]["span_id"]: e for e in events
                 if "span_id" in e.get("args", {})}
        roots = [e for e in events
                 if e.get("args", {}).get("parent_span") is None]
        assert {e["name"] for e in roots} == {"dse.sweep.run"}

        def root_of(event):
            seen = set()
            while event.get("args", {}).get("parent_span") is not None:
                parent = event["args"]["parent_span"]
                assert parent in by_id, \
                    f"dangling parent {parent} under {event['name']}"
                assert parent not in seen, "parent cycle"
                seen.add(parent)
                event = by_id[parent]
            return event

        worker_spans = [e for e in events
                        if e["name"] == "dse.worker.task"]
        assert len(worker_spans) == 2        # one root span per task
        for event in events:
            assert root_of(event)["name"] == "dse.sweep.run"

        # The workers ran in other processes, yet their spans carry
        # the dispatching run's trace id.
        pids = {e["pid"] for e in worker_spans}
        assert os.getpid() not in pids
        for event in worker_spans:
            assert event["args"]["trace_id"] == trace_id


# ---------------------------------------------------------------------------
# Crash post-mortem.

class TestCrashDump:
    def _swept_with_fault(self, spec, tmp_path, **kwargs):
        from repro.resilience.faultinject import ENV_VAR, reset_plan
        previous = os.environ.get(ENV_VAR)
        os.environ[ENV_VAR] = spec
        reset_plan()
        get_flight_recorder().clear()
        try:
            # Two benchmarks: a single task takes run_tasks' inline
            # shortcut where pooled faults never fire.
            return run_sweep(names=["conv", "fft"],
                             cache_dir=tmp_path,
                             use_cache=True, **KW, **kwargs)
        finally:
            if previous is None:
                del os.environ[ENV_VAR]
            else:
                os.environ[ENV_VAR] = previous
            reset_plan()
            set_blackbox_dir(None)

    @staticmethod
    def _dumped(tmp_path):
        dumps = list((tmp_path / "blackbox").glob("*.json"))
        assert dumps, "no blackbox dump after injected fault"
        return [json.loads(path.read_text()) for path in dumps]

    def test_injected_worker_crash_leaves_blackbox(self, tmp_path):
        from repro.resilience import RetryPolicy
        # Each pool death charges the dispatched task one attempt, and
        # it takes max_pool_restarts+1 = 3 deaths to degrade — so give
        # conv headroom to survive to the inline fallback.
        sweep = self._swept_with_fault(
            "crash:task=conv:attempt=*", tmp_path, workers=2,
            retry_policy=RetryPolicy(max_attempts=5))
        # Crashes only fire in sacrificial pool workers, so repeated
        # pool deaths end in the inline fallback and the sweep
        # *recovers* — but the degradation left a post-mortem dump
        # in the sweep's own cache, naming the dispatched task.
        assert sweep.stats.failures == []
        payloads = self._dumped(tmp_path)
        assert any(p["reason"] == "pool-degraded" for p in payloads)
        merged = [e for p in payloads for e in p["events"]]
        assert any(e["kind"] == "task.dispatch"
                   and e["fields"]["task"] == "conv" for e in merged)
        assert any(e["kind"] == "pool.death" for e in merged)

    def test_terminal_failure_dumps_the_failing_tasks_events(
            self, tmp_path):
        from repro.resilience import RetryPolicy
        # Flaky on every attempt + a 2-attempt budget = a terminal
        # failure; its dump must carry the task's dispatch/retry/fail
        # trail.
        sweep = self._swept_with_fault(
            "flaky:task=conv:attempt=*", tmp_path, workers=2,
            retry_policy=RetryPolicy(max_attempts=2))
        assert [f["name"] for f in sweep.stats.failures] == ["conv"]
        payloads = self._dumped(tmp_path)
        assert any(p["reason"] == "task-failed:conv"
                   for p in payloads)
        merged = [e for p in payloads for e in p["events"]]
        kinds_for_conv = {e["kind"] for e in merged
                          if e.get("fields", {}).get("task") == "conv"}
        assert {"task.dispatch", "task.retry",
                "task.failed"} <= kinds_for_conv


# ---------------------------------------------------------------------------
# Do no harm, v2 edition.

class TestByteIdentityV2:
    def test_sweep_bytes_identical_with_full_v2_stack(
            self, obs_off_after):
        disable()
        baseline = dumps_sweep(run_sweep(names=["conv"], **KW))
        enable(reset=True)
        with trace_context():
            flight_event("v2.byteident", phase="before")
            with StackProfiler(interval=0.002):
                traced = dumps_sweep(run_sweep(names=["conv"], **KW))
            flight_event("v2.byteident", phase="after")
        assert traced == baseline


# ---------------------------------------------------------------------------
# Run history and the health report.

class TestRunLog:
    def test_append_read_filter_and_corruption(self, tmp_path):
        log = RunLog(tmp_path)
        log.append(runlog_entry("sweep", benchmarks=2))
        log.append(runlog_entry("serve", requests=7))
        log.append(runlog_entry("sweep", benchmarks=3))
        # A torn write must not take out the readable entries.
        with open(log.path, "a") as handle:
            handle.write('{"kind": "sweep", "benchm\n')
        assert len(log.read()) == 3
        sweeps = log.read(kind="sweep")
        assert [e["benchmarks"] for e in sweeps] == [2, 3]
        assert log.read(kind="sweep", limit=1)[0]["benchmarks"] == 3
        for entry in log.read():
            assert entry["schema"] == 1
            assert entry["date"]

    def test_rotation_keeps_one_contiguous_history(self, tmp_path):
        line_bytes = len(json.dumps({"kind": "sweep", "n": 0},
                                    sort_keys=True)) + 1
        log = RunLog(tmp_path, max_bytes=3 * line_bytes)
        for n in range(3):
            log.append({"kind": "sweep", "n": n})
        assert not log.rotated_path.exists()
        log.append({"kind": "sweep", "n": 3})     # would pass the cap
        assert log.rotated_path.exists()
        assert [e["n"] for e in RunLog(tmp_path).read()] == [0, 1, 2, 3]
        assert log.path.stat().st_size == line_bytes
        # A second rollover replaces the older generation: disk stays
        # bounded and the oldest entries are the ones dropped.
        for n in range(4, 7):
            log.append({"kind": "sweep", "n": n})
        assert [e["n"] for e in log.read()] == [3, 4, 5, 6]
        assert [e["n"] for e in log.read(limit=2)] == [5, 6]

    def test_ewma_and_regression_detection(self):
        assert ewma([10.0]) == 10.0
        assert ewma([0.0, 10.0], alpha=0.5) == 5.0
        flagged = detect_regressions({
            "throughput": ("higher", [100.0, 101.0, 99.0, 50.0]),
            "errors": ("lower", [1.0, 1.0, 1.0, 1.0]),
        })
        assert [f["metric"] for f in flagged] == ["throughput"]
        assert flagged[0]["current"] == 50.0
        # Drift is a positive magnitude in the *bad* direction.
        assert flagged[0]["drift"] > 0.25
        # Improvements never flag.
        assert detect_regressions(
            {"throughput": ("higher", [100.0, 100.0, 300.0])}) == []

    def test_build_and_format_report(self, tmp_path):
        log = RunLog(tmp_path)
        for value in (10.0, 10.5, 2.0):
            log.append(runlog_entry("sweep", benchmarks=2,
                                    evals_per_sec=value, retries=0,
                                    timeouts=0, failures=0, workers=2,
                                    cache_hit_rate=0.5))
        log.append(runlog_entry("serve", requests=9, errors=1,
                                latency_p50_ms=4, latency_p95_ms=20,
                                computations=3, pool_restarts=0))
        report = build_report(tmp_path, artifacts_dir=tmp_path)
        assert len(report["sweeps"]) == 3
        assert len(report["serves"]) == 1
        assert "sweep.evals_per_sec" in [
            r["metric"] for r in report["regressions"]]
        text = format_report(report)
        assert "Sweep runs (last 3):" in text
        assert "Service runs (last 1):" in text
        assert "REGRESSIONS FLAGGED:" in text

    def test_sweep_appends_runlog_when_cached(self, tmp_path,
                                              obs_off_after):
        run_sweep(names=["conv"], cache_dir=tmp_path, use_cache=True,
                  **KW)
        entries = RunLog(tmp_path).read(kind="sweep")
        assert len(entries) == 1
        assert entries[0]["benchmarks"] == 1
        assert entries[0]["misses"] == 1
        set_blackbox_dir(None)      # the sweep pinned it to tmp_path


# ---------------------------------------------------------------------------
# Profiler.

class TestProfiler:
    def test_samples_and_folded_roundtrip(self):
        def spin(deadline):
            while time.perf_counter() < deadline:
                sum(i * i for i in range(500))

        profiler = StackProfiler(interval=0.001)
        with profiler:
            spin(time.perf_counter() + 0.15)
        assert profiler.sample_count > 0
        folded = profiler.folded()
        assert any("spin" in stack for stack in folded)
        # Stacks are root-to-leaf ';' joined and text round-trips.
        assert parse_folded(profiler.folded_text()) == folded

    def test_merge_and_top(self):
        merged = merge_folded([{"a;b": 2, "a;c": 1}, {"a;b": 3}, {}])
        assert merged == {"a;b": 5, "a;c": 1}
        assert top_stacks(merged, n=1) == [("b", 5)]

    def test_worker_profiles_ship_back(self, obs_off_after):
        from repro.dse.parallel import make_task, run_tasks
        from repro.dse.sweep import ALL_SUBSETS, DSE_CORES
        collected = []
        run_tasks([make_task("conv", DSE_CORES, ALL_SUBSETS,
                             scale=0.1, max_invocations=2,
                             with_amdahl=False)],
                  workers=2, profile={"interval": 0.001},
                  on_result=lambda name, payload, secs, obs=None:
                  collected.append((obs or {}).get("profile")))
        assert len(collected) == 1
        folded = collected[0]
        assert folded and all(isinstance(v, int)
                              for v in folded.values())


# ---------------------------------------------------------------------------
# Service surfaces: prom round-trip, dashboard, job trace ids.

class TestServiceSurfacesV2:
    def test_prom_round_trip_and_dash(self):
        from tests.test_service import StubEvaluator, running_service
        with running_service(evaluator=StubEvaluator()) as (service,
                                                            client):
            base = f"http://127.0.0.1:{service.port}"
            client.evaluate("conv", scale=0.1)

            with urllib.request.urlopen(
                    f"{base}/v1/metrics?format=prom",
                    timeout=30) as resp:
                text = resp.read().decode()
            parsed = parse_prom_text(text)
            # Every family carries both HELP and TYPE metadata.
            assert set(parsed["types"]) == set(parsed["helps"])
            families = {name.rsplit("_bucket", 1)[0]
                        .rsplit("_sum", 1)[0].rsplit("_count", 1)[0]
                        for name, _ in parsed["samples"]}
            assert families <= set(parsed["types"])
            key = ("service_requests_total",
                   (("endpoint", "/v1/evaluate"), ("status", "200")))
            assert parsed["samples"][key] == 1.0

            with urllib.request.urlopen(f"{base}/v1/dash",
                                        timeout=30) as resp:
                assert resp.headers["Content-Type"].startswith(
                    "text/html")
                html = resp.read().decode()
            for marker in ("<!DOCTYPE html>", "/v1/metrics",
                           "/v1/healthz", "repro service"):
                assert marker in html

    def test_prom_label_escaping_round_trip(self):
        from repro.obs.core import MetricsRegistry
        from repro.obs.export import render_prom
        registry = MetricsRegistry()
        nasty = 'a"b\\c\nd'
        registry.counter("v2_escapes_total", "label torture") \
            .inc(2, path=nasty)
        parsed = parse_prom_text(render_prom(registry))
        assert parsed["samples"][
            ("v2_escapes_total", (("path", nasty),))] == 2.0

    def test_job_records_originating_trace(self):
        from tests.test_service import StubEvaluator, running_service
        with running_service(evaluator=StubEvaluator()) as (_,
                                                            client):
            job_id = client.sweep(["conv"], scale=0.1)
            job = client.wait_job(job_id, poll_interval=0.05,
                                  timeout=60)
            assert len(job["trace_id"]) == 16

    def test_job_to_json_omits_absent_trace(self):
        from repro.service.jobs import Job
        assert "trace_id" not in Job("sweep", {}, 1).to_json()
        tagged = Job("sweep", {}, 1, trace_id="ab" * 8).to_json()
        assert tagged["trace_id"] == "ab" * 8


# ---------------------------------------------------------------------------
# Absorb re-keying (the mechanism behind the connected tree).

class TestAbsorbRemap:
    def test_ids_rekeyed_and_orphans_adopted(self):
        recorder = Recorder()
        batch = [
            {"name": "w.root", "id": 1, "parent": None, "ts": 0.0,
             "dur": 5.0},
            {"name": "w.child", "id": 2, "parent": 1, "ts": 1.0,
             "dur": 2.0},
            {"name": "w.dangling", "id": 3, "parent": 77, "ts": 2.0,
             "dur": 1.0},
        ]
        recorder.absorb(batch, align_end_us=100.0, parent=999)
        absorbed = {r["name"]: r for r in recorder.records}
        # Fresh local ids (the worker's 1/2/3 may collide here).
        new_ids = {r["id"] for r in recorder.records}
        assert None not in new_ids and len(new_ids) == 3
        assert not new_ids & {1, 2, 3} or min(new_ids) > 3
        # Intra-batch parentage follows the mapping; orphans and
        # dangling references are adopted by the dispatching span.
        assert absorbed["w.child"]["parent"] \
            == absorbed["w.root"]["id"]
        assert absorbed["w.root"]["parent"] == 999
        assert absorbed["w.dangling"]["parent"] == 999
        # Shifted so the batch ends at the alignment point.
        assert max(r["ts"] + r["dur"]
                   for r in recorder.records) == 100.0


# ---------------------------------------------------------------------------
# Bench gate.

class TestBenchObsGate:
    def _payload(self, overhead):
        return {
            "schema": 1,
            "speedup": {"single_eval": 10.0, "cold_eval": 1.0},
            "sweep": {"evals_per_sec_object": 1.0,
                      "evals_per_sec_fast": 10.0},
            "obs": {"on_ns": 100, "off_ns": 100,
                    "overhead_fraction": overhead},
        }

    def test_overhead_gate(self):
        from repro.bench import check_regression
        baseline = self._payload(0.0)
        ok = check_regression(self._payload(0.01), baseline)
        assert not any("observability" in f for f in ok)
        # Negative noise never trips the gate.
        ok = check_regression(self._payload(-0.05), baseline)
        assert not any("observability" in f for f in ok)
        bad = check_regression(self._payload(0.05), baseline)
        assert any("observability overhead" in f and "2%" in f
                   for f in bad)

    def test_canonical_fields_strip_obs(self):
        from repro.bench import canonical_fields
        fields = canonical_fields(self._payload(0.01))
        assert "obs" not in fields
