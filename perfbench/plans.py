"""The in-process planning workloads: ``plan-deep`` and ``plan-wide``.

Both are closed loops with one client.  A *pass* plans the workload's
job list once, cold: every call builds a fresh planner, exactly as
``repro plan`` does, with ``jobs=1``.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.topology import nvlink_100g_cluster, pcie_25g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import fleet
from repro.core.fusion import FusionPlanner, fused_job
from repro.core.options import DEFAULT_RATIO_LADDER
from repro.core.strategy import StrategyEvaluator
from repro.models import get_model
from repro.service.api import strategy_digest
from repro.service.core import PlanningCore
from repro.sim.engine import simulate
from repro.sim.oracle import reference_makespan
from repro.sim.validate import check_timeline

#: plan-deep's jobs (NVLink 100G, 8 machines x 8 GPUs, DGC) with the
#: ratio each is planned at; the seed draws their order.  The ratios are
#: fixed because planning work changes up to 3.6x between 0.5%, 1% and
#: 2%, and a pass must cost the same on every seed; these are the
#: cheapest of the three per model, so a run fits more passes (see
#: README.md).
DEEP_JOBS = (("resnet101", 0.02), ("gpt2", 0.01), ("bert-base", 0.005))
#: plan-wide's single jobs (PCIe 25G, 8 x 8, 1% ratio) and error budget
#: B; the seed draws the order of the jobs and of the fleet mixes.  The
#: ratio and B are fixed for the same reason: at 5% both jobs make
#: 20-35% more F(S) calls, and B = 0.8 triples vgg16's planning time.
WIDE_JOBS = (("vgg16", "randomk"), ("lstm", "dgc"))
WIDE_BUDGET = 0.9


def _job(model: str, gc: str, ratio: float, cluster) -> JobConfig:
    job = JobConfig(
        model=get_model(model),
        gc=GCInfo(gc, {"ratio": ratio}),
        system=SystemInfo(cluster=cluster),
    )
    job.build_compressor()  # the CLI builds it eagerly too
    return job


def deep_inputs(seed: int) -> List[Tuple[str, JobConfig]]:
    rng = random.Random(seed)
    return [
        (f"{name}@{ratio:g}", _job(name, "dgc", ratio, nvlink_100g_cluster(8, 8)))
        for name, ratio in rng.sample(DEEP_JOBS, len(DEEP_JOBS))
    ]


def wide_inputs(seed: int):
    rng = random.Random(seed)
    jobs = [
        (f"{model}/{gc}", _job(model, gc, 0.01, pcie_25g_cluster(8, 8)))
        for model, gc in rng.sample(WIDE_JOBS, len(WIDE_JOBS))
    ]
    mixes = fleet.example_mixes()
    order = rng.sample(sorted(mixes), len(mixes))
    return WIDE_BUDGET, jobs, {name: mixes[name] for name in order}


@dataclass
class Pass:
    """One pass over a workload's list: its cost and its outputs."""

    wall_s: float = 0.0
    #: (label, wall seconds, CPU seconds of the process) of each planning
    #: call, in order; every pass makes the same calls.
    timings: List[Tuple[str, float, float]] = field(default_factory=list)
    results: List[Tuple[str, object]] = field(default_factory=list)
    fleets: List[Tuple[str, object]] = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.timings)

    def timed(self, label: str, call):
        """Run ``call()`` and record its wall and CPU time."""
        start, cpu = time.perf_counter(), time.process_time()
        result = call()
        self.timings.append(
            (label, time.perf_counter() - start, time.process_time() - cpu)
        )
        return result

    def digests(self) -> List[str]:
        out = [f"{name}:{_result_digest(r)}" for name, r in self.results]
        out += [
            f"{name}:" + ",".join(
                f"{t.name}={strategy_digest(t.strategy)}" for t in result.tenants
            )
            for name, result in self.fleets
        ]
        return out


def _result_digest(result) -> str:
    if hasattr(result, "fused"):
        groups = hashlib.sha256(str(result.plan.boundaries).encode())
        return f"{groups.hexdigest()[:8]}|{strategy_digest(result.strategy)}"
    return strategy_digest(result.strategy)


class DeepWorkload:
    name = "plan-deep"

    def __init__(self, seed: int) -> None:
        self.jobs = deep_inputs(seed)

    def run_pass(self) -> Pass:
        out = Pass()
        start = time.perf_counter()
        for name, job in self.jobs:
            result = out.timed(name, lambda: PlanningCore(jobs=1).plan_job(job))
            out.results.append((name, result))
        out.wall_s = time.perf_counter() - start
        return out

    def speedups(self, one: Pass) -> List[float]:
        return [r.speedup_over_fp32 for _, r in one.results]

    def check(self, one: Pass) -> List[str]:
        failures = []
        for (name, job), (_, result) in zip(self.jobs, one.results):
            failures += check_plan(name, job, result.strategy, result.iteration_time)
            if result.iteration_time > result.baseline_iteration_time:
                failures.append(f"{name}: plan slower than FP32")
        return failures


class WideWorkload:
    name = "plan-wide"

    def __init__(self, seed: int) -> None:
        self.budget, self.jobs, self.mixes = wide_inputs(seed)

    def run_pass(self) -> Pass:
        out = Pass()
        start = time.perf_counter()
        for name, job in self.jobs:
            result = out.timed(name, lambda: FusionPlanner(
                job, ratios=DEFAULT_RATIO_LADDER, error_budget=self.budget
            ).select_strategy())
            out.results.append((name, result))
        for name, mix in self.mixes.items():
            # Through the module, so a traced run sees the call.
            result = out.timed(f"fleet {name}", lambda: fleet.plan_fleet(mix))
            out.fleets.append((name, result))
        out.wall_s = time.perf_counter() - start
        return out

    def speedups(self, one: Pass) -> List[float]:
        # FP32 of the original (unfused) job: the "none" candidate plans
        # the singleton fusion plan, i.e. the job itself.
        return [
            _none_candidate(r).result.baseline_iteration_time / r.iteration_time
            for _, r in one.results
        ]

    def fleet_throughput(self, one: Pass) -> float:
        return math.fsum(r.aggregate_throughput for _, r in one.fleets)

    def check(self, one: Pass) -> List[str]:
        failures = []
        for (name, job), (_, result) in zip(self.jobs, one.results):
            failures += check_plan(
                name,
                fused_job(job, result.plan),
                result.strategy,
                result.iteration_time,
            )
            if result.iteration_time > result.no_fusion_time:
                failures.append(f"{name}: fused plan slower than no fusion")
            for candidate in result.candidates:
                espresso = candidate.result
                fixed = espresso.fixed_ratio_iteration_time
                if espresso.ratio_laddered and not (
                    espresso.iteration_time <= fixed
                ):
                    failures.append(
                        f"{name}/{candidate.name}: laddered plan slower "
                        f"than the fixed-ratio pipeline"
                    )
            error = result.result.strategy_error
            if error is not None and error > self.budget:
                failures.append(f"{name}: error budget overspent")
        for name, result in one.fleets:
            if result.aggregate_throughput < result.selfish_aggregate_throughput:
                failures.append(f"fleet {name}: joint below selfish")
            jobs = self.mixes[name].jobs()
            for tenant in result.tenants:
                perturbed = tenant.contention.apply_to_job(jobs[tenant.name])
                failures += check_plan(
                    f"fleet {name}/{tenant.name}",
                    perturbed,
                    tenant.strategy,
                    tenant.contended_time,
                )
        return failures


def _none_candidate(result):
    for candidate in result.candidates:
        if candidate.name == "none":
            return candidate
    raise ValueError("fusion result has no no-fusion candidate")


def check_plan(name: str, job: JobConfig, strategy, iteration_time: float):
    """Re-price ``strategy`` with the O(n^2) oracle and audit its timeline."""
    evaluator = StrategyEvaluator(job)
    chains = evaluator.chains(strategy)
    cpu = job.system.cpu.parallel_workers
    failures = []
    oracle = job.model.forward_time + reference_makespan(chains, cpu_capacity=cpu)
    if oracle != iteration_time:
        failures.append(
            f"{name}: oracle prices the plan at {oracle!r}, "
            f"planner reported {iteration_time!r}"
        )
    violations = check_timeline(simulate(chains, cpu_capacity=cpu), chains, cpu)
    failures += [f"{name}: {violation}" for violation in violations]
    return failures


WORKLOADS = {DeepWorkload.name: DeepWorkload, WideWorkload.name: WideWorkload}


def digest_summary(passes: List[Pass]) -> Dict[str, object]:
    """Every pass must pick the same plans; returns the first pass's."""
    first = passes[0].digests()
    return {
        "digests": first,
        "stable": all(p.digests() == first for p in passes[1:]),
    }
