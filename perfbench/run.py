"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with every other pass traced
layer by layer and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report (run metadata, metrics, output checks).

All scratch files (caches, the compiled timing kernel) live under
``.bench_build/perfbench`` in the repository root and are removed when
the run ends, except the kernel, which is reused by later runs.
"""

import argparse
import json
import multiprocessing
import os
import platform
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's self-tests)")
    return parser.parse_args(argv)


def metadata(args, workers):
    import numpy
    from repro.artifacts import commit
    from repro.tdg.fastpath import kernel_available

    kernel = kernel_available()     # the first run in a checkout builds it
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit(),
        "nproc": workers,
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "numpy": numpy.__version__,
        "kernel_available": kernel,
        # Without the C kernel every timing runs in a slower engine:
        # such a run must not be compared as if the code got slower.
        "degraded": not kernel,
    }


def stop_on_sigterm(_signum, _frame):
    # Unwind through the workloads' cleanup, which stops the servers
    # and pools they started, instead of dying with them still running.
    raise SystemExit(143)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    # Keep the kernel build and any default-located cache inside the
    # checkout; the library defaults to ~/.cache for both.
    os.environ["REPRO_FASTPATH_CACHE"] = str(build / "kernel")
    os.environ["REPRO_CACHE_DIR"] = str(build / "cache")
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix="run-", dir=build)
    ctx = workloads.Context(ROOT, workdir, args.seed, args.seconds,
                            bool(args.trace),
                            workloads.Settings(smoke=args.smoke))
    meta = metadata(args, ctx.workers)
    if meta["degraded"]:
        print("perfbench: DEGRADED run: the C timing kernel is "
              "unavailable", file=sys.stderr)
    run = workloads.run_workload(args.workload, ctx)

    if args.trace:
        wanted = spec["per_layer"]
        measured = run.layers
    else:
        wanted = spec["end_to_end"]
        measured = run.end_to_end()
    # A layer the workload never enters reports zero work.
    metrics = {entry["name"]: {"value": measured.get(entry["name"], 0),
                               "unit": entry["unit"]}
               for entry in wanted}

    print("# meta " + json.dumps(meta, sort_keys=True))
    for sha in sorted(run.digests):
        print(f"# dumps_sweep_sha256 {sha}")
    print("# info " + json.dumps(run.info, sort_keys=True))
    for name, (passed, total) in sorted(run.checks.items()):
        print(f"# check {name}: {passed}/{total}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_frac = {run.failed / max(1, run.attempted):.6g}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
