"""The repository benchmark: ``plan-deep``, ``plan-wide`` and ``serve-mixed``.

Run from the repository root::

    python3 perfbench/run.py --workload plan-deep --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same inputs untraced and then traced, and
reports the per-layer breakdown, the tracing overhead, and the
wrapper-coverage cross-checks.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only when every correctness check passed.  Spans are
written as a Chrome trace, and every result with the host fingerprint
and seed, under ``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("plan-deep", "plan-wide", "serve-mixed")
SETUP_REPEATS = 3
#: serve-mixed's share of ``--seconds`` under load (the two rate steps
#: split it); in-process re-plans for ``plan_wall_s`` take the rest.
LOAD_SHARE = 0.5

#: End-to-end metrics every ``--trace 0`` run reports, with units.
END_TO_END = {
    "setup_s": "s",
    "plan_wall_s": "s",
    "plan_speedup_geomean": "x",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

SERVICE_METRICS = {
    "service.dispatch_ms.p50": "ms",
    "service.dispatch_ms.p99": "ms",
    "service.wait_ms.p50": "ms",
    "service.wait_ms.p99": "ms",
    "service.parse_ms.p50": "ms",
    "service.fingerprint_ms.p50": "ms",
    "service.cache_ms.p50": "ms",
    "service.plan_ms.p50": "ms",
    "service.plan_ms.p99": "ms",
    "service.plans": "count",
    "service.encode_ms.p50": "ms",
    "service.cache_hit_rate": "ratio",
    "service.retries": "count",
    "service.degraded": "count",
    "service.refused": "count",
    "client.late_ms.p99": "ms",
    "serve.lo.p50_ms": "ms",
    "serve.lo.p99_ms": "ms",
    "serve.hi.p50_ms": "ms",
    "serve.hi.p99_ms": "ms",
}


# -- small helpers ---------------------------------------------------------


def host_fingerprint() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def geomean(values: List[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing the entry
    points and building the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True,
            cwd=str(ROOT),
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- plan workloads --------------------------------------------------------


def run_passes(workload, seconds: float, minimum: int) -> list:
    """A warm-up pass, then whole timed passes until the next one would
    overrun ``seconds``; returns every pass, the warm-up first."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) > minimum and elapsed + passes[-1].wall_s > seconds:
            return passes


def call_medians(passes, column: int) -> float:
    """Sum over a pass's planning calls of each call's median across
    ``passes``: ``column`` 1 is wall time, 2 is CPU time."""
    return math.fsum(
        statistics.median(timing[column] for timing in call)
        for call in zip(*(p.timings for p in passes))
    )


def plan_checks(workload, passes):
    """Correctness of every pass.

    Returns ``(failures, attempted, failed, digests)``: the checks run on
    the first pass, and every later pass must pick the same plans.
    """
    from plans import digest_summary

    failures = workload.check(passes[0])
    summary = digest_summary(passes)
    if not summary["stable"]:
        failures.append("plans differ between passes of one run")
    attempted = sum(p.calls for p in passes)
    failed = min(attempted, len(failures) * len(passes))
    return failures, attempted, failed, summary["digests"]


def plan_workload(name: str, seed: int, seconds: float, trace: bool, report):
    from plans import WORKLOADS as PLAN_WORKLOADS

    setup_s = None if trace else measure_setup(name, seed)
    workload = PLAN_WORKLOADS[name](seed)
    if not trace:
        passes = run_passes(workload, seconds, minimum=3)
        failures, attempted, failed, digests = plan_checks(workload, passes)
        timed = passes[1:]
        report["digests"] = digests
        metrics = {
            "setup_s": setup_s,
            "plan_wall_s": call_medians(timed, 1),
            "plan_speedup_geomean": geomean(workload.speedups(passes[0])),
            "cpu_ms_per_op": call_medians(timed, 2) / timed[0].calls * 1e3,
            "peak_rss_mb": own_peak_rss_mb(),
        }
        report["passes"] = [p.timings for p in passes]
        return metrics, failures, attempted, failed

    from layers import SpanIndex, StatsRegistry, install_planning, planning_coverage, planning_metrics
    from tracer import Recorder

    workload.run_pass()  # warm-up, so neither timed pass is the first
    recorder = Recorder()
    registry = StatsRegistry()
    registry.install(recorder)
    registry.active = True
    gc.collect()
    untraced = workload.run_pass()
    untraced_stats = registry.totals()
    registry.clear()

    install_planning(recorder)
    gc.collect()
    recorder.active = True
    traced = workload.run_pass()
    recorder.active = registry.active = False
    traced_stats = registry.totals()

    failures, attempted, failed, digests = plan_checks(
        workload, [untraced, traced]
    )
    if traced_stats != untraced_stats:
        failures.append(
            f"deterministic counters differ traced vs untraced: "
            f"{traced_stats} != {untraced_stats}"
        )
    counts = Counter()
    for _, result in traced.results:
        if hasattr(result, "candidates"):
            counts["fusion.candidates"] += len(result.candidates)
    for _, result in traced.fleets:
        counts["fleet.rounds"] += result.rounds
        counts["fleet.plans"] += 1
    index = SpanIndex(recorder.spans)
    failures += planning_coverage(index, traced_stats, counts)
    metrics = {name: 0.0 for name in SERVICE_METRICS}
    metrics.update(
        (key, value) for key, (value, _) in
        planning_metrics(index, traced_stats, counts).items()
    )
    metrics["fleet.agg_throughput"] = (
        workload.fleet_throughput(traced) if traced.fleets else 0.0
    )
    metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    report["digests"] = digests
    report["counters"] = traced_stats
    report["untraced_wall_s"] = untraced.wall_s
    report["traced_wall_s"] = traced.wall_s
    write_chrome_trace(name, recorder.spans, report)
    return metrics, failures, attempted, failed


# -- serve-mixed -----------------------------------------------------------


def step_latencies(requests, outcome, step: str) -> List[float]:
    """Latencies of the answered requests of one rate step."""
    return [
        latency
        for request, latency in zip(requests, outcome.latency_s)
        if request.step == step and latency is not None
    ]


async def serve_session(seed, step_seconds, traced_spans=None, setups=1):
    """Set up (``setups`` times, keeping the last server), drive one
    timed phase, shut down.

    Returns ``(setup times, requests, outcome, warm-up responses)``.
    """
    import serving

    requests = serving.schedule(seed, step_seconds)
    setup_times = []
    for attempt in range(setups):
        start = time.perf_counter()
        server, client, warmed = await serving.start_warm(ROOT, traced_spans)
        setup_times.append(time.perf_counter() - start)
        if attempt + 1 < setups:
            await serving.shutdown(client, server)
    try:
        outcome = await serving.drive(client, server, requests)
    finally:
        await serving.shutdown(client, server)
    return setup_times, requests, outcome, warmed


def serve_workload(seed: int, seconds: float, trace: bool, report):
    import serving

    if not trace:
        setups, requests, outcome, warmed = asyncio.run(
            serve_session(seed, LOAD_SHARE * seconds / 2, setups=SETUP_REPEATS)
        )
        failures = warm_failures(warmed)
        failures += serving.response_failures(requests, outcome)
        plans = serving.served_plans(requests, outcome)
        walls, replan_failures = serving.replan_check(
            plans, passes=2, seconds=(1 - LOAD_SHARE) * seconds
        )
        failures += replan_failures
        attempted = len(requests)
        failed = min(attempted, count_failed(outcome) + len(replan_failures))
        metrics = {
            "setup_s": statistics.median(setups),
            "plan_wall_s": math.fsum(statistics.median(w) for w in walls),
            "plan_speedup_geomean": geomean(
                [r["baseline_iteration_time"] / r["iteration_time"]
                 for _, r in plans.values()]
            ),
            "cpu_ms_per_op": outcome.server_cpu_s / len(requests) * 1e3,
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        report["setups_s"] = setups
        report["replan_passes_s"] = [sum(p) for p in zip(*walls)]
        report["served_plans"] = len(plans)
        report["latency_ms"] = {
            f"{step}.p{q}": percentile(
                step_latencies(requests, outcome, step), q / 100
            ) * 1e3
            for step in ("lo", "hi")
            for q in (50, 99)
        }
        report["digests"] = sorted(
            f"{fp[:12]}:{r['strategy_digest']}" for fp, (_, r) in plans.items()
        )
        return metrics, failures, attempted, failed

    from layers import SpanIndex, StatsRegistry, planning_coverage, planning_metrics

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"server-spans-{os.getpid()}.json"
    step_seconds = seconds / 4
    _, requests, untraced, warmed_a = asyncio.run(serve_session(seed, step_seconds))
    _, _, traced, warmed_b = asyncio.run(
        serve_session(seed, step_seconds, traced_spans=spans_path)
    )
    dump = json.loads(spans_path.read_text())
    spans_path.unlink()
    spans = [tuple(span) for span in dump["spans"]]
    registry = StatsRegistry()
    registry.entries = [
        (created, types.SimpleNamespace(**fields))
        for created, fields in dump["evaluators"]
    ]
    failures = warm_failures(warmed_a) + warm_failures(warmed_b)
    failures += serving.response_failures(requests, untraced)
    failures += serving.response_failures(requests, traced)
    plans_a = serving.served_plans(requests, untraced)
    plans_b = serving.served_plans(requests, traced)
    digests_a = {fp: r["strategy_digest"] for fp, (_, r) in plans_a.items()}
    digests_b = {fp: r["strategy_digest"] for fp, (_, r) in plans_b.items()}
    if digests_a != digests_b:
        failures.append("served plans differ between traced and untraced runs")
    for key in ("received", "fresh", "cache_hits"):
        if untraced.stats_after[key] != traced.stats_after[key]:
            failures.append(f"server counter {key} differs traced vs untraced")
    _, replan_failures = serving.replan_check(plans_a)
    failures += replan_failures

    index = SpanIndex(spans)
    lifetime = registry.totals()
    failures += planning_coverage(index, lifetime, Counter())
    failures += service_coverage(index, traced.stats_after)

    window = traced.window
    in_window = SpanIndex([s for s in spans if window[0] <= s[2] <= window[1]])
    metrics = {}
    metrics.update(
        (key, value) for key, (value, _) in planning_metrics(
            in_window, registry.totals(window), Counter()
        ).items()
    )
    metrics.update(service_metrics(in_window, traced))
    metrics["fleet.agg_throughput"] = 0.0
    for step in ("lo", "hi"):
        values = step_latencies(requests, untraced, step)
        metrics[f"serve.{step}.p50_ms"] = percentile(values, 0.50) * 1e3
        metrics[f"serve.{step}.p99_ms"] = percentile(values, 0.99) * 1e3
    metrics["trace.overhead_frac"] = (
        percentile(step_latencies(requests, traced, "lo"), 0.5)
        / percentile(step_latencies(requests, untraced, "lo"), 0.5)
        - 1.0
    )
    attempted = 2 * len(requests)
    failed = min(
        attempted,
        count_failed(untraced) + count_failed(traced)
        + len(replan_failures),
    )
    report["digests"] = sorted(f"{fp[:12]}:{d}" for fp, d in digests_a.items())
    report["counters"] = lifetime
    report["server_stats"] = traced.stats_after
    write_chrome_trace("serve-mixed", spans, report)
    return metrics, failures, attempted, failed


def warm_failures(warmed) -> List[str]:
    return [
        f"warm-up {m.get('request_id')}: {m.get('status')} {m.get('source')}"
        for m in warmed
        if m.get("status") != "ok" or m.get("source") != "fresh"
    ]


def count_failed(outcome) -> int:
    return sum(
        1
        for response in outcome.responses
        if response is None
        or response.get("status") != "ok"
        or response.get("degraded")
        or response.get("source") not in ("fresh", "cache")
    )


def service_coverage(index, stats: dict) -> List[str]:
    checks = (
        ("service.plan spans vs stats fresh",
         index.count("service.plan"), stats["fresh"]),
        ("service.cache.put spans vs stats fresh",
         index.count("service.cache.put"), stats["fresh"]),
        ("service.cache.get spans vs cache hits + misses",
         index.count("service.cache.get"),
         stats["cache"]["hits"] + stats["cache"]["misses"]),
        ("service.parse.request spans vs stats received",
         index.count("service.parse.request"), stats["received"]),
    )
    return [
        f"coverage: {label}: spans say {traced}, program says {program}"
        for label, traced, program in checks
        if traced != program
    ]


def service_metrics(index, outcome) -> Dict[str, float]:
    from tracer import self_times

    def ms(spans) -> List[float]:
        return [(s[3] - s[2]) * 1e3 for s in spans]

    requests = {s[4] for s in index.named("service.parse.request")}
    dispatch = [s for s in index.named("service.dispatch") if s[0] in requests]
    own = self_times(index.spans)
    wait = [own[s[0]] * 1e3 for s in dispatch]
    plan = ms(index.named("service.plan"))
    before, after = outcome.stats_before, outcome.stats_after
    hits = after["cache_hits"] - before["cache_hits"]
    fresh = after["fresh"] - before["fresh"]
    return {
        "service.dispatch_ms.p50": percentile(ms(dispatch), 0.50),
        "service.dispatch_ms.p99": percentile(ms(dispatch), 0.99),
        "service.wait_ms.p50": percentile(wait, 0.50),
        "service.wait_ms.p99": percentile(wait, 0.99),
        "service.parse_ms.p50": percentile(ms(index.prefixed("service.parse.")), 0.5),
        "service.fingerprint_ms.p50": percentile(
            ms(index.prefixed("service.fingerprint.")), 0.5
        ),
        "service.cache_ms.p50": percentile(ms(index.prefixed("service.cache.")), 0.5),
        "service.plan_ms.p50": percentile(plan, 0.50),
        "service.plan_ms.p99": percentile(plan, 0.99),
        "service.plans": len(plan),
        "service.encode_ms.p50": percentile(ms(index.named("service.encode")), 0.5),
        "service.cache_hit_rate": hits / (hits + fresh) if hits + fresh else 0.0,
        "service.retries": after["retries"],
        "service.degraded": after["degraded"],
        "service.refused": after["refused"] + after["rejected_saturated"],
        "client.late_ms.p99": percentile(outcome.late_s, 0.99) * 1e3,
    }


# -- output ----------------------------------------------------------------


def write_chrome_trace(workload: str, spans, report) -> None:
    from tracer import chrome_events

    OUT.mkdir(exist_ok=True)
    origin = min((s[2] for s in spans), default=0.0)
    path = OUT / f"trace-{workload}-seed{report['seed']}.json"
    path.write_text(json.dumps({
        "traceEvents": chrome_events(list(spans), 1, workload, origin),
        "displayTimeUnit": "ms",
        "otherData": {"host": report["host"], "seed": report["seed"],
                      "workload": workload},
    }))
    report["chrome_trace"] = str(path.relative_to(ROOT))


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric with its unit (``--trace 1`` output)."""
    from layers import SpanIndex, planning_metrics

    names = {
        key: unit for key, (_, unit) in planning_metrics(
            SpanIndex([]), Counter(), Counter()
        ).items()
    }
    names.update(SERVICE_METRICS)
    names["fleet.agg_throughput"] = "samples/s"
    names["trace.overhead_frac"] = "ratio"
    names["fail_frac"] = "ratio"
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.setup_only:
        if args.workload == "serve-mixed":
            import serving  # noqa: F401
        else:
            from plans import WORKLOADS as PLAN_WORKLOADS

            PLAN_WORKLOADS[args.workload](args.seed)
        return 0

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_fingerprint()}
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"trace={args.trace} host={json.dumps(report['host'])}")
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        metrics, failures, attempted, failed = serve_workload(
            args.seed, args.seconds, trace, report
        )
    else:
        metrics, failures, attempted, failed = plan_workload(
            args.workload, args.seed, args.seconds, trace, report
        )
    failed = max(failed, 1 if failures else 0)
    units = per_layer_names() if trace else END_TO_END
    if trace:
        metrics["fail_frac"] = failed / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    report.update(failures=failures, result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, sort_keys=True))
    for message in failures[:20]:
        print(f"FAILED: {message}")
    for digest in report.get("digests", [])[:12]:
        print(f"plan: {digest}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
