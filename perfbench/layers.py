"""Which program functions each layer's spans wrap, and what they add up to.

Layers are named by their modules:

* ``service``   -- ``repro.service`` (server process only, see
  ``serve_traced.py``)
* ``planner``   -- ``core.espresso`` / ``core.algorithm`` / ``core.offload``
* ``fusion``    -- ``core.fusion``
* ``fleet``     -- ``core.fleet`` / ``cluster.tenancy``
* ``evaluator`` -- ``core.strategy``
* ``compiler``  -- ``core.plan``
* ``sim``       -- ``sim.incremental`` / ``sim.batch`` / ``sim.engine``

Every evaluator's own counters (``EvaluatorStats``) are collected by a
one-line hook on ``StrategyEvaluator.__init__`` that is installed in the
untraced runs too, so both runs report the same deterministic counters.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from tracer import Recorder, Span, self_times

#: EvaluatorStats fields that are deterministic work counts.
STAT_FIELDS = (
    "fs_calls",
    "cache_hits",
    "full_sims",
    "incremental_sims",
    "rebases",
    "timelines",
    "events_full",
    "events_replayed",
    "events_reused",
    "batch_calls",
    "batch_candidates",
    "batch_pruned",
    "batch_dedup_hits",
    "batch_fallbacks",
)

#: Top-level swap entry points (``swap_chain`` calls ``swap_chains``,
#: which calls ``swap_chains_flat``; only the outermost counts).
SWAP_SPANS = ("sim.swap_chain", "sim.swap_chains", "sim.swap_chains_flat")
#: Every evaluator entry point that charges ``EvaluatorStats.fs_calls``.
FS_SPANS = (
    "evaluator.iteration_time",
    "evaluator.iteration_time_delta",
    "evaluator.iteration_time_multi",
    "evaluator.iteration_time_uncached",
)


class StatsRegistry:
    """Every ``EvaluatorStats`` created while :attr:`active`, with the
    time its evaluator was built (so a window can select them)."""

    def __init__(self) -> None:
        self.active = False
        self.entries: List[Tuple[float, object]] = []

    def install(self, recorder: Recorder) -> None:
        from repro.core.strategy import StrategyEvaluator

        registry = self

        def build(original):
            def __init__(evaluator, *args, **kwargs):
                original(evaluator, *args, **kwargs)
                if registry.active:
                    registry.entries.append(
                        (time.perf_counter(), evaluator.stats)
                    )

            return __init__

        recorder.replace(StrategyEvaluator, "__init__", build)

    def totals(
        self, window: Optional[Tuple[float, float]] = None
    ) -> Dict[str, int]:
        sums = Counter({name: 0 for name in STAT_FIELDS})
        for created, stats in self.entries:
            if window is not None and not window[0] <= created <= window[1]:
                continue
            for name in STAT_FIELDS:
                sums[name] += getattr(stats, name)
        return dict(sums)

    def clear(self) -> None:
        self.entries.clear()


def _pipelines(result) -> int:
    """Planning pipelines one ``Espresso.select_strategy`` ran: the
    ratio ladder adds the fixed-ratio pipeline."""
    return 2 if result is not None and result.ratio_laddered else 1


def install_planning(recorder: Recorder) -> None:
    """Wrap the planner, fusion, fleet, evaluator, compiler and sim layers."""
    from repro.cluster import tenancy
    from repro.core import algorithm, espresso, fleet, fusion, offload, plan
    from repro.core import strategy
    from repro.sim import batch, engine, incremental

    wrap = recorder.wrap
    wrap(espresso.Espresso, "select_strategy", "planner.select",
         weight=lambda args, kwargs, result: _pipelines(result))
    wrap(algorithm, "gpu_compression_decision", "planner.gpu_decision")
    wrap(offload, "cpu_offload_decision", "planner.offload")
    wrap(algorithm, "refinement_sweep", "planner.refine",
         weight=lambda args, kwargs, result: int(bool(result and result[2])))

    wrap(fusion.FusionPlanner, "select_strategy", "fusion.select")
    wrap(fusion.FusionPlanner, "_plan_candidate", "fusion.candidate")
    wrap(algorithm, "fusion_boundary_sweep", "fusion.boundary_sweep")

    wrap(fleet, "plan_fleet", "fleet.plan")
    wrap(fleet, "evaluate_assignment", "fleet.evaluate")
    wrap(tenancy, "contention_models", "fleet.contention")

    evaluator = strategy.StrategyEvaluator
    wrap(evaluator, "price_options", "evaluator.price_options",
         weight=lambda args, kwargs, result: len(args[3]))
    for name in FS_SPANS:
        wrap(evaluator, name.split(".", 1)[1], name)

    wrap(plan.PlanCompiler, "stages", "compiler.stages")

    simulator = incremental.IncrementalSimulator
    wrap(simulator, "__init__", "sim.base")
    for name in SWAP_SPANS:
        wrap(simulator, name.split(".", 1)[1], name)
    wrap(batch, "suffix_lower_bounds", "sim.bound")
    wrap(batch, "batch_swap_makespans", "sim.batch_walk")
    wrap(engine, "simulate", "sim.engine")


# -- aggregation ---------------------------------------------------------


class SpanIndex:
    """Lookups over one run's spans."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.by_name: Dict[str, List[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span[1], []).append(span)
        self._self = None

    def named(self, *names: str) -> List[Span]:
        return [span for name in names for span in self.by_name.get(name, ())]

    def prefixed(self, prefix: str) -> List[Span]:
        return [span for span in self.spans if span[1].startswith(prefix)]

    def count(self, *names: str) -> int:
        return len(self.named(*names))

    def seconds(self, *names: str) -> float:
        return math.fsum(span[3] - span[2] for span in self.named(*names))

    def weight(self, *names: str) -> int:
        return sum(span[6] for span in self.named(*names))

    def has_ancestor(self, span: Span, names: Iterable[str]) -> bool:
        wanted = set(names)
        parent = span[4]
        while parent is not None:
            ancestor = self.by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor[1] in wanted:
                return True
            parent = ancestor[4]
        return False

    def top_level(self, names: Iterable[str]) -> List[Span]:
        """Spans of ``names`` not nested inside another of ``names``."""
        names = tuple(names)
        return [
            span
            for span in self.named(*names)
            if not self.has_ancestor(span, names)
        ]

    def self_seconds(self, *names: str) -> float:
        if self._self is None:
            self._self = self_times(self.spans)
        return math.fsum(self._self[span[0]] for span in self.named(*names))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def planning_metrics(
    index: SpanIndex, stats: Dict[str, int], results: Counter
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the planner, fusion, fleet, evaluator,
    compiler and sim layers (zero where a layer did not run).

    ``stats`` sums the evaluators' own counters; ``results`` holds
    counts read off the workload's results (``fleet.rounds``).
    """
    swaps = index.top_level(SWAP_SPANS)
    fleet_runs = [
        span
        for span in index.named("planner.select")
        if index.has_ancestor(span, ("fleet.plan",))
    ]
    fs = stats["fs_calls"]
    return {
        "planner.selects": (index.count("planner.select"), "count"),
        "planner.select_s": (index.seconds("planner.select"), "s"),
        "planner.gpu_decisions": (index.count("planner.gpu_decision"), "count"),
        "planner.gpu_decision_s": (index.seconds("planner.gpu_decision"), "s"),
        "planner.offload_s": (index.seconds("planner.offload"), "s"),
        "planner.refine_s": (index.seconds("planner.refine"), "s"),
        "planner.sweeps": (index.count("planner.refine"), "count"),
        "planner.sweeps_improved": (index.weight("planner.refine"), "count"),
        "planner.other_s": (index.self_seconds("planner.select"), "s"),
        "fusion.select_s": (index.seconds("fusion.select"), "s"),
        "fusion.candidates": (index.count("fusion.candidate"), "count"),
        "fusion.other_s": (index.self_seconds("fusion.select"), "s"),
        "fleet.plan_s": (index.seconds("fleet.plan"), "s"),
        "fleet.rounds": (results["fleet.rounds"], "count"),
        "fleet.planner_runs": (len(fleet_runs), "count"),
        "fleet.evaluate_s": (index.seconds("fleet.evaluate"), "s"),
        "fleet.contention_s": (index.seconds("fleet.contention"), "s"),
        "evaluator.fs_calls": (fs, "count"),
        "evaluator.price_calls": (
            index.count("evaluator.price_options"), "count"
        ),
        "evaluator.price_s": (index.seconds("evaluator.price_options"), "s"),
        "evaluator.iteration_time_calls": (
            index.count("evaluator.iteration_time"), "count"
        ),
        "evaluator.iteration_time_s": (
            index.seconds("evaluator.iteration_time"), "s"
        ),
        "evaluator.full_sims": (stats["full_sims"], "count"),
        "evaluator.incremental_sims": (stats["incremental_sims"], "count"),
        "evaluator.rebases": (stats["rebases"], "count"),
        "evaluator.dedup_hits": (stats["batch_dedup_hits"], "count"),
        "evaluator.sim_free_rate": (
            _ratio(
                stats["cache_hits"]
                + stats["batch_dedup_hits"]
                + stats["batch_pruned"],
                fs,
            ),
            "ratio",
        ),
        "evaluator.memo_hit_rate": (_ratio(stats["cache_hits"], fs), "ratio"),
        "evaluator.prune_rate": (
            _ratio(stats["batch_pruned"], stats["batch_candidates"]), "ratio"
        ),
        "compiler.stages_calls": (index.count("compiler.stages"), "count"),
        "compiler.stages_s": (index.seconds("compiler.stages"), "s"),
        "sim.base_builds": (index.count("sim.base"), "count"),
        "sim.base_s": (index.seconds("sim.base"), "s"),
        "sim.swap_calls": (len(swaps), "count"),
        "sim.swap_s": (math.fsum(s[3] - s[2] for s in swaps), "s"),
        "sim.bound_s": (index.seconds("sim.bound"), "s"),
        "sim.engine_calls": (index.count("sim.engine"), "count"),
        "sim.batch_walk_calls": (index.count("sim.batch_walk"), "count"),
        "sim.events_full": (stats["events_full"], "count"),
        "sim.events_replayed": (stats["events_replayed"], "count"),
        "sim.events_reused": (stats["events_reused"], "count"),
        "sim.prefix_reuse": (
            _ratio(
                stats["events_reused"],
                stats["events_replayed"] + stats["events_reused"],
            ),
            "ratio",
        ),
    }


def planning_coverage(
    index: SpanIndex, stats: Dict[str, int], results: Counter
) -> List[str]:
    """Span counts that must equal the program's own counters exactly.

    A wrapper that misses a call path (a function bound under another
    name, a new entry point) breaks one of these equalities.
    """
    failures = []

    def expect(label: str, traced: int, program: int) -> None:
        if traced != program:
            failures.append(
                f"coverage: {label}: spans say {traced}, program says {program}"
            )

    expect(
        "evaluator.price_calls vs EvaluatorStats.batch_calls",
        index.count("evaluator.price_options"),
        stats["batch_calls"],
    )
    expect(
        "price_options candidates vs EvaluatorStats.batch_candidates",
        index.weight("evaluator.price_options"),
        stats["batch_candidates"],
    )
    expect(
        "F(S) entry-point spans vs EvaluatorStats.fs_calls",
        index.weight("evaluator.price_options") + index.count(*FS_SPANS),
        stats["fs_calls"],
    )
    expect(
        "sim.base spans vs EvaluatorStats.rebases",
        index.count("sim.base"),
        stats["rebases"],
    )
    if index.count("sim.batch_walk") == 0:
        # The vectorized walk prices candidates without a swap call;
        # without it every incremental simulation is one top-level swap.
        expect(
            "top-level swap spans vs EvaluatorStats.incremental_sims",
            len(index.top_level(SWAP_SPANS)),
            stats["incremental_sims"],
        )
    expect(
        "planner.gpu_decision spans vs pipelines run",
        index.count("planner.gpu_decision"),
        index.weight("planner.select"),
    )
    if "fusion.candidates" in results:
        expect(
            "fusion.candidate spans vs FusionResult.candidates",
            index.count("fusion.candidate"),
            results["fusion.candidates"],
        )
    if "fleet.plans" in results:
        expect(
            "fleet.evaluate spans vs rounds + joint/selfish pricing",
            index.count("fleet.evaluate"),
            results["fleet.rounds"] + 2 * results["fleet.plans"],
        )
        expect(
            "fleet.plan spans vs plan_fleet results",
            index.count("fleet.plan"),
            results["fleet.plans"],
        )
    return failures


# -- the service layer (inside the server process) -----------------------


def install_service(recorder: Recorder) -> None:
    """Wrap the service layer and link worker-side spans to requests.

    A plan request is read by a connection task but processed by a
    queue worker task and, when planned, on an executor thread.  The
    dispatch span is remembered by request id when the request is
    parsed, and adopted as the parent by ``_process`` and ``_plan_sync``.
    """
    from repro.service import api, core, server

    wrap = recorder.wrap
    by_request: Dict[str, Optional[int]] = {}

    def parsing(original):
        traced = recorder.make_wrapper("service.parse.request", original)

        def from_dict(cls, data):
            request = traced(cls, data)
            by_request[request.request_id] = recorder.current()
            return request

        return from_dict

    def adopting(original):
        if inspect.iscoroutinefunction(original):

            async def process(self, request, *args, **kwargs):
                token = recorder.adopt(by_request.get(request.request_id))
                try:
                    return await original(self, request, *args, **kwargs)
                finally:
                    recorder.release(token)

            return process

        def plan_sync(self, request, *args, **kwargs):
            token = recorder.adopt(by_request.get(request.request_id))
            try:
                return original(self, request, *args, **kwargs)
            finally:
                recorder.release(token)

        return plan_sync

    wrap(server.PlanningServer, "dispatch_line", "service.dispatch")
    recorder.replace(api.PlanRequest, "from_dict", parsing)
    wrap(api.PlanRequest, "build_job", "service.parse.job")
    wrap(api, "job_fingerprint", "service.fingerprint.job")
    wrap(api, "family_key", "service.fingerprint.family")
    wrap(core.StrategyCache, "get", "service.cache.get")
    wrap(core.StrategyCache, "put", "service.cache.put")
    wrap(core.PlanningCore, "plan_request", "service.plan")
    wrap(api, "encode_message", "service.encode")
    recorder.replace(server.PlanningServer, "_process", adopting)
    recorder.replace(server.PlanningServer, "_plan_sync", adopting)
