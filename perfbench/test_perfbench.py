"""Self-tests of the benchmark, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers      # noqa: E402
import workloads   # noqa: E402


def bench(workload, trace=0, seed=3):
    """Run the benchmark in smoke mode; ``(stdout lines, result)``."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed(lines, prefix):
    return [line[len(prefix):].strip() for line in lines
            if line.startswith(prefix)]


def test_spec_names_follow_the_grammar():
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
    assert set(w["name"] for w in SPEC["workloads"]) \
        == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_runs_and_prints_every_metric(workload):
    lines, result = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == wanted
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    for check in printed(lines, "# check "):
        passed, total = check.rsplit(" ", 1)[1].split("/")
        assert passed == total, check


def test_cold_and_parallel_digests_agree():
    cold, _ = bench("sweep-cold", seed=4)
    parallel, _ = bench("sweep-parallel", seed=5)
    digests = printed(cold, "# dumps_sweep_sha256")
    assert len(digests) == 1
    assert printed(parallel, "# dumps_sweep_sha256") == digests


def test_traced_run_attributes_the_whole_wall():
    lines, result = bench("sweep-cold", trace=1)
    assert result["correct"] is True
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == wanted
    # The traced passes serialize to the same bytes as untraced ones.
    assert len(printed(lines, "# dumps_sweep_sha256")) == 1
    info = json.loads(printed(lines, "# info")[0])
    self_times = [layers.LAYER_TIME[layer] for layer in layers.LAYERS] \
        + ["unattributed.self_s"]
    total = sum(metrics[name]["value"] for name in self_times)
    assert total == pytest.approx(info["traced_wall_s"], rel=1e-9)
    assert metrics["unattributed.self_s"]["value"] >= 0
    for layer in ("sim.interpret", "accel.transform", "tdg.lower",
                  "tdg.time", "energy.price", "exocore.schedule"):
        assert metrics[layers.LAYER_TIME[layer]]["value"] > 0, layer


def test_tracer_self_times_nest():
    tracer = layers.LayerTracer()
    tracer.self_s.update(outer=0.0, inner=0.0)

    def inner():
        return sum(range(20000))

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer._wrap(inner, "inner", {})
    wrapped_outer = tracer._wrap(outer, "outer", {})
    with tracer.root():
        wrapped_outer()
        sum(range(20000))
    wrapped_outer()                 # outside a root: not timed
    assert tracer.self_s["inner"] > 0 and tracer.self_s["outer"] > 0
    assert sum(tracer.self_s.values()) + tracer.unattributed_s \
        == pytest.approx(tracer.wall_s, rel=1e-9)


def test_tracer_restores_every_patch():
    from repro.dse import sweep
    from repro.tdg import fastpath

    original = (fastpath.lower_stream, sweep.oracle_schedule,
                fastpath.FastTimingEngine.run)
    tracer = layers.LayerTracer()
    with tracer.installed():
        assert fastpath.lower_stream is not original[0]
        assert sweep.oracle_schedule is not original[1]
    assert (fastpath.lower_stream, sweep.oracle_schedule,
            fastpath.FastTimingEngine.run) == original


def test_tail_percentile_keeps_ten_samples_beyond():
    for count in (21, 100, 199, 20000):
        samples = list(range(count))
        random.Random(count).shuffle(samples)
        p, value = workloads.tail_percentile(samples)
        assert value == count - 11
        assert p == 100.0 * (count - 11) / (count - 1)
    assert workloads.tail_percentile([3, 1, 2]) == (100.0, 3)
    assert workloads.tail_percentile(list(range(20))) == (100.0, 19)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
