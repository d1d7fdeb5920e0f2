"""cellkit benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 bench/run.py --workload sweep-scalar --seed 1 --seconds 20 --trace 0

The workloads and metrics are described in BENCHMARK.json. Each run builds
its inputs from --seed, repeats passes over them for about --seconds of pass
time, checks every output, and prints as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, with timings expressed at a reference
machine speed (see calibrate.py); with --trace 1 the run alternates untraced
and traced passes and reports per-layer metrics from the traced ones. The
line before the last one carries run details (pass times, sample counts,
failed_frac, the unscaled timings), and the first line the environment
record. The exit code is 0 when every output was correct, 1 when any
operation failed, and 2 when cellkit cannot be imported from ./src.

cellkit is imported only from src/ under the checkout root, never from an
installed copy, so a checkout without the package fails instead of
measuring something else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
RUN_DIR = WORK_DIR / f"run-{os.getpid()}"
SETUP_PROBES = 7
MIN_LATENCY_SAMPLES = 100


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit code 2."""


def load_cellkit():
    src = ROOT / "src"
    if not (src / "cellkit" / "__init__.py").is_file():
        raise BenchError(f"cellkit sources not found under {src}")
    sys.path.insert(0, str(src))
    import cellkit
    import cellkit.cli
    import cellkit.theorems
    if Path(cellkit.__file__).resolve().parent != (src / "cellkit").resolve():
        raise BenchError(f"cellkit was imported from {cellkit.__file__}, not from {src}")
    return cellkit


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(ck) -> dict:
    import numpy
    caches = _cache_sizes()
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "cellkit_path": str(Path(ck.__file__).parent)}


def make_workload(ck, args, **options):
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    return cls(ck, args.seed, args.smoke, RUN_DIR, **options)


def setup_probe(args) -> int:
    """Time set-up in this fresh interpreter: import, groups, inputs, cache dir."""
    before = calibrate.reference_time()
    t0 = time.perf_counter()
    ck = load_cellkit()
    wl = make_workload(ck, args)
    wl.before_pass()
    elapsed = time.perf_counter() - t0
    speed = calibrate.scale((before + calibrate.reference_time()) / 2)
    print(f"{elapsed * speed:.9f}")
    return 0


def measure_setup(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    values = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        out = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        values.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


class Ledger:
    """Per-operation pass/fail accounting across every pass of a run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.expected = wl.expectations()
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, outcome) -> None:
        wl = self.wl
        extra = wl.check_pass(outcome.records)
        if self.reference is None:
            self.reference = outcome.records
            for i, msgs in wl.verify_once(outcome.records).items():
                extra.setdefault(i, []).extend(msgs)
        for i, (op, rec) in enumerate(zip(wl.ops, outcome.records)):
            self.attempted += 1
            if isinstance(rec, Exception):
                problems = [f"raised {type(rec).__name__}: {rec}"]
            else:
                problems = wl.check(rec, self.expected[i]) + extra.get(i, [])
                if rec != self.reference[i]:
                    problems.append("output differs from the first pass")
            if problems:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{op.label}: {'; '.join(problems)}")


def run_passes(seconds: float, smoke: bool, kinds, ledger, min_calls: int = 0):
    """Cycle through pass kinds until the measured time is used up.

    Only pass wall time counts against --seconds, not the checks between
    passes. Every kind runs at least once, and passes continue until the
    first kind has made at least min_calls calls.
    """
    results: dict[str, list] = {kind: [] for kind, _ in kinds}
    measured = 0.0
    longest = 0.0
    while True:
        for kind, run in kinds:
            outcome = run()
            measured += outcome.wall
            longest = max(longest, outcome.wall)
            ledger[kind].record(outcome)
            results[kind].append(outcome)
        if smoke:
            return results
        calls = sum(len(p.latencies) for p in results[kinds[0][0]])
        if measured + longest * len(kinds) > seconds and calls >= min_calls:
            return results


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method), q in 1..99."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args, ck) -> tuple[dict, list, dict]:
    wl = make_workload(ck, args)
    ledger = Ledger(wl)
    if args.inject_fault:
        wl.inject_fault(ledger.expected)
    # at least 100 calls, so that ten samples lie beyond the p90
    runs = run_passes(args.seconds, args.smoke, [("main", lambda: wl.run_pass(calibrated=True))],
                      {"main": ledger}, min_calls=MIN_LATENCY_SAMPLES)
    passes = runs["main"]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.name == "stream-jsonl":
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    work = [sum(wl.work(r) for r in p.records if not isinstance(r, Exception)) for p in passes]
    rates = [w / sum(t * k for t, k in zip(p.latencies, p.scales)) for w, p in zip(work, passes)]
    latencies = [t * 1000 * k for p in passes for t, k in zip(p.latencies, p.scales)]
    raw_latencies = [t * 1000 for p in passes for t in p.latencies]
    metrics = {
        "setup_s": (measure_setup(args), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "call_p50_ms": (statistics.median(latencies), "ms"),
        "call_p90_ms": (percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info = {"passes": len(passes), "calls_per_pass": len(wl.ops),
            "latency_samples": len(latencies),
            "pass_wall_s": [round(p.wall, 4) for p in passes],
            "speed_scale": [round(statistics.median(p.scales), 4) for p in passes],
            "unscaled": {"work_per_s": statistics.median(w / p.wall for w, p in zip(work, passes)),
                         "call_p50_ms": statistics.median(raw_latencies),
                         "call_p90_ms": percentile(raw_latencies, 90)},
            "failed_frac": ledger.failed / max(ledger.attempted, 1)}
    if hasattr(wl, "repeat_share"):
        info["repeat_share"] = round(wl.repeat_share, 4)
    return metrics, [ledger], info


def per_layer(args, ck) -> tuple[dict, list, dict]:
    import tracing
    wl = make_workload(ck, args, **({"jobs": 1} if args.workload == "stream-jsonl" else {}))
    tracer = tracing.Tracer(wl.name)
    ledgers = {"untraced": Ledger(wl), "traced": Ledger(wl)}

    def traced_pass(workload, tr):
        tr.install(ck)
        try:
            return workload.run_pass(tr)
        finally:
            tr.uninstall()

    kinds = [("untraced", wl.run_pass), ("traced", lambda: traced_pass(wl, tracer))]
    pool = {"run_sweep_self_s": 0.0, "records_returned": 0, "passes": 0}
    if wl.name == "stream-jsonl":
        # Spans recorded inside pool workers are lost with the workers, so
        # the checks are traced at --jobs 1 and a pass of the --jobs 2 call
        # alone contributes the parent side: run_sweep's self time (waiting
        # on the pool and merging its results) and the records pickled back.
        pooled = make_workload(ck, args, jobs=2, sampled=False)
        ledgers["pool"] = Ledger(pooled)
        pool_tracer = tracing.Tracer(pooled.name, keep_spans=0)

        def pool_pass():
            outcome = traced_pass(pooled, pool_tracer)
            pool["passes"] += 1
            pool["run_sweep_self_s"] = pool_tracer.self_s["theorems.run_sweep"]
            pool["records_returned"] += sum(r.lines - 2 for r in outcome.records
                                            if not isinstance(r, Exception))
            return outcome
        kinds.append(("pool", pool_pass))
    runs = run_passes(args.seconds, args.smoke, kinds, ledgers)
    trace_file = WORK_DIR / f"trace-{wl.name}-{args.seed}.jsonl"
    tracer.write(trace_file)

    n = len(runs["traced"])
    traced_wall = statistics.median(p.wall for p in runs["traced"])
    untraced_wall = statistics.median(p.wall for p in runs["untraced"])
    metrics = {}
    for _, _, name in tracing.SPANS:
        calls = "cli.emit.records" if name == "cli.emit" else f"{name}.calls"
        metrics[calls] = (tracer.calls.get(name, 0) / n, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / n, "s")
    c = tracer.counters
    instances, scalar = c["theorems.instances"], c["theorems.scalar_checked"]
    lookups = c["cache.hits"] + c["cache.misses"]
    metrics.update({
        "cells.full_sweeps": (c["cells.full_sweeps"] / n, "count"),
        "cells.candidates_swept": (c["cells.candidates_swept"] / n, "count"),
        "theorems.instances": (instances / n, "count"),
        "theorems.scalar_checked": (scalar / n, "count"),
        "theorems.bulk_frac": ((instances - scalar) / instances if instances else 0.0, "ratio"),
        "theorems.pool.records_returned": (pool["records_returned"] / max(pool["passes"], 1), "count"),
        "theorems.pool.run_sweep_self_s": (pool["run_sweep_self_s"] / max(pool["passes"], 1), "s"),
        "specs.s_space.items": (c["specs.s_space.items"] / n, "count"),
        "cache.hits": (c["cache.hits"] / n, "count"),
        "cache.misses": (c["cache.misses"] / n, "count"),
        "cache.hit_frac": (c["cache.hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.bytes_written": (sum(p.cache_bytes for p in runs["traced"]) / n, "B"),
        "cli.emit.bytes": (sum(p.stdout_bytes for p in runs["traced"]) / n, "B"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
        "trace.glue_s": (tracer.self_s[tracing.PASS_SPAN] / n, "s"),
        "trace.pass_wall_s": (sum(p.wall for p in runs["traced"]) / n, "s"),
    })
    # Self times partition the traced passes: layers plus glue equal the walls.
    covered = tracer.self_total()
    walls = sum(p.wall for p in runs["traced"])
    info = {"traced_passes": n, "untraced_passes": len(runs["untraced"]),
            "pool_passes": pool["passes"], "spans": tracer.spans_total,
            "self_time_sum_s": round(covered, 6), "traced_wall_sum_s": round(walls, 6),
            "absent": tracer.absent, "trace_file": str(trace_file.relative_to(ROOT))}
    for name in tracer.absent:
        print(f"absent: {name}", file=sys.stderr)
    return metrics, list(ledgers.values()), info


def main(argv: list[str] | None = None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the smallest form of the workload: tiny inputs, one pass")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one expected value (self-test of the failure path)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        ck = load_cellkit()
        print(json.dumps({"environment": environment(ck)}), flush=True)
        measure = per_layer if args.trace else end_to_end
        metrics, ledgers, info = measure(args, ck)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    for ledger in ledgers:
        for message in ledger.messages:
            print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
