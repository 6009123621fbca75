"""Hypothesis property tests for the plan compiler.

Invariants checked over the *entire* enumerated option space x random
tensor sizes x random cluster shapes: compilation never fails, durations
are finite and non-negative, compressed options beat the FP32 option on
inter-machine traffic for large tensors, and CPU-device options never
occupy the GPU stream.

Exactness of the compiled recipes (DESIGN.md §5.12):
:class:`ReferenceCompiler` below walks an option's payload state and
prices it action by action on every call.  ``PlanCompiler.stages`` must
equal it stage for stage, float for float, ``PlanCompiler.stage_costs``
must equal the sums of those stages exactly, and the candidate
prefilter must rank exactly as a ranking from the reference's ``Stage``
sums does.
"""

import copy
import math
from dataclasses import dataclass
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster
from repro.cluster.topology import ClusterSpec
from repro.comm.routines import LinkParams, Routine, routine_time
from repro.compression import DGC, EFSignSGD
from repro.compression.base import FP32_BYTES, Compressor
from repro.compression.registry import available_compressors, create_compressor
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core.algorithm import CandidatePrefilter, device_candidate_options
from repro.core.fusion import candidate_plans, fused_model
from repro.core.options import (
    DEFAULT_RATIO_LADDER,
    Action,
    ActionTask,
    CompressionOption,
    Device,
    Phase,
    RoutineName,
    canonical_key,
    ladder_options,
    no_compression_option,
)
from repro.core.plan import PlanCompiler
from repro.core.tree import enumerate_options
from repro.models import available_models, get_model
from repro.profiling import v100_gpu, xeon_cpu
from repro.profiling.timing import CompressionTimeModel
from repro.sim.stages import (
    AGGREGATE,
    COMM,
    COMPRESS,
    CPU,
    DECOMPRESS,
    GPU,
    INTER,
    INTRA,
    Stage,
)

_OPTIONS = enumerate_options(mode="uniform")

clusters = st.builds(
    ClusterSpec,
    num_machines=st.integers(1, 16),
    gpus_per_machine=st.integers(1, 8),
    intra_bw=st.floats(1e9, 2e11),
    inter_bw=st.floats(1e8, 2e10),
)
sizes = st.integers(1, 1 << 28)
option_indices = st.integers(0, len(_OPTIONS) - 1)
compressors = st.sampled_from([DGC(ratio=0.01), EFSignSGD()])


@given(option_indices, sizes, clusters, compressors)
@settings(max_examples=150, deadline=None)
def test_every_option_compiles_everywhere(index, num_elements, cluster, compressor):
    compiler = PlanCompiler(
        cluster=cluster, compressor=compressor, gpu=v100_gpu(), cpu=xeon_cpu()
    )
    stages = compiler.stages(_OPTIONS[index], num_elements)
    for stage in stages:
        assert stage.duration >= 0.0
        assert stage.duration < float("inf")
    if not cluster.is_distributed:
        assert stages == []


@given(option_indices, st.integers(1 << 22, 1 << 27), clusters)
@settings(max_examples=100, deadline=None)
def test_inter_compression_reduces_inter_time(index, num_elements, cluster):
    """An option whose *entire* inter phase is compressed moves fewer
    bytes across machines than FP32, for large tensors (DGC 1%).

    Options that mix a dense first step with a compressed second step
    (e.g. Reduce + compressed Broadcast) are excluded: at two machines
    the dense step alone already matches the FP32 allreduce's cost.
    """
    if cluster.num_machines < 2:
        return
    option = _OPTIONS[index]
    if not option.compresses_inter or option.flat:
        return
    dense_inter = any(
        a.phase is Phase.INTER
        and a.task in (ActionTask.COMM, ActionTask.COMM1, ActionTask.COMM2)
        for a in option.actions
    )
    if dense_inter:
        return
    compiler = PlanCompiler(
        cluster=cluster, compressor=DGC(ratio=0.01), gpu=v100_gpu(), cpu=xeon_cpu()
    )
    fp32_inter = sum(
        s.duration
        for s in compiler.stages(no_compression_option(), num_elements)
        if s.resource == INTER
    )
    option_inter = sum(
        s.duration
        for s in compiler.stages(option, num_elements)
        if s.resource == INTER
    )
    assert option_inter <= fp32_inter + 1e-9


@given(option_indices, sizes, clusters)
@settings(max_examples=100, deadline=None)
def test_cpu_options_never_touch_gpu_stream(index, num_elements, cluster):
    option = _OPTIONS[index]
    if option.devices and all(d is Device.CPU for d in option.devices):
        compiler = PlanCompiler(
            cluster=cluster,
            compressor=EFSignSGD(),
            gpu=v100_gpu(),
            cpu=xeon_cpu(),
        )
        stages = compiler.stages(option, num_elements)
        assert all(s.resource != GPU for s in stages)


@given(option_indices, st.integers(1, 1 << 26), clusters)
@settings(max_examples=100, deadline=None)
def test_stage_durations_monotone_in_size(index, num_elements, cluster):
    """Doubling the tensor never reduces any aggregate stage cost."""
    compiler = PlanCompiler(
        cluster=cluster, compressor=DGC(ratio=0.01), gpu=v100_gpu(), cpu=xeon_cpu()
    )
    option = _OPTIONS[index]
    small = sum(s.duration for s in compiler.stages(option, num_elements))
    large = sum(s.duration for s in compiler.stages(option, num_elements * 2))
    assert large >= small - 1e-12


# -- the reference compiler: one action at a time, every call ----------------

_REF_ROUTINES = {
    RoutineName.ALLREDUCE: Routine.ALLREDUCE,
    RoutineName.REDUCE_SCATTER: Routine.REDUCE_SCATTER,
    RoutineName.ALLGATHER: Routine.ALLGATHER,
    RoutineName.ALLTOALL: Routine.ALLTOALL,
    RoutineName.REDUCE: Routine.REDUCE,
    RoutineName.BROADCAST: Routine.BROADCAST,
    RoutineName.GATHER: Routine.GATHER,
}
_REF_DIVIDING = (RoutineName.REDUCE_SCATTER, RoutineName.ALLTOALL)


@dataclass
class _PayloadState:
    """Mutable payload bookkeeping while walking an option."""

    region_elements: float  # dense elements this GPU is responsible for
    compressed: bool = False
    pieces: int = 1  # identical-region compressed pieces awaiting agg
    machine_multiplier: int = 1  # active GPUs per machine on the NIC


class ReferenceCompiler:
    """The payload-state walk priced action by action on every call.

    Independent of :class:`PlanCompiler`'s recipes on purpose: it builds
    its own time models, link parameters and ratio-pinned compressors.
    """

    def __init__(self, cluster, compressor, gpu, cpu):
        self.cluster = cluster
        self.compressor = compressor
        self._models = {
            Device.GPU: CompressionTimeModel(gpu, compressor.work_factor),
            Device.CPU: CompressionTimeModel(cpu, compressor.work_factor),
        }

    def _compressor_for(self, option: CompressionOption) -> Compressor:
        if option.ratio is None or not hasattr(self.compressor, "ratio"):
            return self.compressor
        variant = copy.copy(self.compressor)
        variant.ratio = option.ratio
        return variant

    def stages(self, option: CompressionOption, num_elements: int) -> List[Stage]:
        if not self.cluster.is_distributed:
            return []
        stages: List[Stage] = []
        state = _PayloadState(region_elements=float(num_elements))
        compressor = self._compressor_for(option)
        for action in option.actions:
            if action.task is ActionTask.COMP:
                stages.append(self._device_stage(action, state))
                state.compressed = True
            elif action.task is ActionTask.DECOMP:
                stages.append(self._device_stage(action, state))
                state.compressed = False
            elif action.task is ActionTask.AGG:
                stages.append(self._device_stage(action, state))
                state.pieces = 1
            else:
                stage, participants = self._comm_stage(action, state, compressor)
                if stage.duration > 0.0:
                    stages.append(stage)
                self._apply_comm(action, state, participants)
        return stages

    def _wire_bytes(self, state: _PayloadState, compressor: Compressor) -> float:
        elements = max(1, math.ceil(state.region_elements))
        if state.compressed:
            return float(state.pieces * compressor.compressed_nbytes(elements))
        return float(state.pieces * elements * FP32_BYTES)

    def _link(self, phase: Phase) -> Tuple[str, LinkParams, int]:
        cluster = self.cluster
        if phase in (Phase.INTRA1, Phase.INTRA2):
            return (
                INTRA,
                LinkParams(
                    cluster.gpus_per_machine, cluster.intra_bw, cluster.intra_latency
                ),
                cluster.gpus_per_machine,
            )
        if phase is Phase.INTER:
            return (
                INTER,
                LinkParams(
                    cluster.num_machines, cluster.inter_bw, cluster.inter_latency
                ),
                cluster.num_machines,
            )
        if cluster.num_machines > 1:
            bandwidth = cluster.inter_bw / cluster.gpus_per_machine
            return (
                INTER,
                LinkParams(cluster.total_gpus, bandwidth, cluster.inter_latency),
                cluster.total_gpus,
            )
        return (
            INTRA,
            LinkParams(cluster.total_gpus, cluster.intra_bw, cluster.intra_latency),
            cluster.total_gpus,
        )

    def _comm_stage(
        self, action: Action, state: _PayloadState, compressor: Compressor
    ) -> Tuple[Stage, int]:
        resource, link, participants = self._link(action.phase)
        payload = self._wire_bytes(state, compressor)
        if action.phase is Phase.INTER:
            payload *= state.machine_multiplier
        duration = routine_time(_REF_ROUTINES[action.routine], payload, link)
        stage = Stage(
            resource=resource, duration=duration, kind=COMM, label=action.describe()
        )
        return stage, participants

    def _device_stage(self, action: Action, state: _PayloadState) -> Stage:
        model = self._models[action.device]
        resource = GPU if action.device is Device.GPU else CPU
        elements = max(1, math.ceil(state.region_elements))
        dense_bytes = elements * FP32_BYTES
        if action.task is ActionTask.COMP:
            duration = model.compress_time(dense_bytes)
        elif action.task is ActionTask.DECOMP:
            duration = model.decompress_time(state.pieces * dense_bytes)
        else:  # AGG
            duration = model.aggregate_time(state.pieces * dense_bytes)
        kind = {
            ActionTask.COMP: COMPRESS,
            ActionTask.DECOMP: DECOMPRESS,
            ActionTask.AGG: AGGREGATE,
        }[action.task]
        return Stage(
            resource=resource, duration=duration, kind=kind, label=action.describe()
        )

    def _apply_comm(
        self, action: Action, state: _PayloadState, participants: int
    ) -> None:
        routine = action.routine
        if participants <= 1:
            return
        if action.phase is Phase.INTRA1:
            state.machine_multiplier = (
                self.cluster.gpus_per_machine if routine in _REF_DIVIDING else 1
            )
        if action.task in (ActionTask.COMM1, ActionTask.COMM2, ActionTask.COMM):
            if routine is RoutineName.REDUCE_SCATTER:
                state.region_elements /= participants
            elif routine is RoutineName.ALLGATHER:
                state.region_elements *= participants
            return
        if action.task in (ActionTask.COMM_C, ActionTask.COMM1_C):
            if routine is RoutineName.ALLTOALL:
                state.region_elements /= participants
            state.pieces *= participants
            return
        if action.task is ActionTask.COMM2_C:
            if routine is RoutineName.ALLGATHER:
                state.region_elements *= participants
            return
        raise AssertionError(f"unhandled comm action {action!r}")


def _exact(stages: List[Stage]) -> List[Tuple[str, str, str, str]]:
    return [(s.resource, s.kind, s.label, s.duration.hex()) for s in stages]


def assert_compiles_exactly(compiler, reference, option, num_elements) -> None:
    """``stages()`` equals the reference float for float, and
    ``stage_costs()`` equals that chain's two sums exactly."""
    stages = compiler.stages(option, num_elements)
    assert _exact(stages) == _exact(reference.stages(option, num_elements)), (
        option.describe(),
        num_elements,
    )
    comm, total = compiler.stage_costs(option, num_elements)
    expected_comm = sum(s.duration for s in stages if s.kind == COMM)
    expected_total = sum(s.duration for s in stages)
    assert (comm, total) == (expected_comm, expected_total)
    assert type(comm) is type(expected_comm)
    assert type(total) is type(expected_total)


_REGISTRY = tuple(available_compressors())
_LADDER = (None, *DEFAULT_RATIO_LADDER)


@given(
    option_indices,
    st.sampled_from(_LADDER),
    st.sampled_from(_REGISTRY),
    clusters,
    st.integers(1, 1 << 27),
)
@settings(max_examples=300, deadline=None)
def test_recipes_compile_exactly_like_the_action_walk(
    index, ratio, gc, cluster, num_elements
):
    option = _OPTIONS[index]  # every tree path, flat and rooted
    if option.compresses:
        option = option.with_ratio(ratio)
    compressor = create_compressor(gc)
    compiler = PlanCompiler(cluster, compressor, v100_gpu(), xeon_cpu())
    reference = ReferenceCompiler(cluster, compressor, v100_gpu(), xeon_cpu())
    # Costs first, then the chain, then costs again: neither order nor
    # the stage cache may change a single bit.
    costs = compiler.stage_costs(option, num_elements)
    assert_compiles_exactly(compiler, reference, option, num_elements)
    assert compiler.stage_costs(option, num_elements) == costs
    assert compiler.stats.recipes == 1


def _zoo_sizes() -> List[int]:
    return sorted(
        {t.num_elements for name in available_models() for t in get_model(name).tensors}
    )


@pytest.mark.slow
@pytest.mark.parametrize("testbed", ["nvlink", "pcie"])
def test_recipes_exact_over_zoo_sizes_and_laddered_options(testbed):
    """Every zoo tensor size x all 276 laddered candidates x every
    registered compressor, on the 8 x 8 testbed."""
    factory = nvlink_100g_cluster if testbed == "nvlink" else pcie_25g_cluster
    cluster = factory(8, 8)
    options = ladder_options(device_candidate_options(), DEFAULT_RATIO_LADDER)
    assert len(options) == 276
    sizes = _zoo_sizes()
    for gc in _REGISTRY:
        compressor = create_compressor(gc)
        compiler = PlanCompiler(cluster, compressor, v100_gpu(), xeon_cpu())
        reference = ReferenceCompiler(cluster, compressor, v100_gpu(), xeon_cpu())
        for option in options:
            for num_elements in sizes:
                assert_compiles_exactly(compiler, reference, option, num_elements)
        # One recipe per option value, however many sizes it priced.
        assert compiler.stats.recipes == len(options)
        assert compiler.stats.chains == len(options) * len(sizes)


# -- the prefilter ranks exactly as it did from Stage sums -------------------


def _reference_prefilter(
    reference: ReferenceCompiler,
    candidates: List[CompressionOption],
    num_elements: int,
    per_device: int,
) -> List[CompressionOption]:
    """Standalone-cost prefilter ranked from the reference's Stage sums."""
    by_device: dict = {}
    for option in candidates:
        device = "cpu" if option.uses_device(Device.CPU) else "gpu"
        stages = reference.stages(option, num_elements)
        comm = sum(s.duration for s in stages if s.kind == COMM)
        total = sum(s.duration for s in stages)
        by_device.setdefault(device, []).append((comm, total, option))
    kept: List[CompressionOption] = []
    seen: set = set()
    for entries in by_device.values():
        for key in (0, 1):
            for entry in sorted(entries, key=lambda e: e[key])[:per_device]:
                option = entry[2]
                if canonical_key(option) not in seen:
                    seen.add(canonical_key(option))
                    kept.append(option)
    return kept


@pytest.mark.parametrize("model, gc", [("vgg16", "randomk"), ("lstm", "dgc")])
def test_prefilter_ranks_like_reference_stage_sums(model, gc):
    """PCIe 8 x 8, the default ratio ladder: every unfused and fused
    tensor size keeps the same survivors in the same order (ties and
    the stable sort included) for the laddered and the fixed set."""
    job = JobConfig(
        model=get_model(model),
        gc=GCInfo(gc, {"ratio": 0.01}),
        system=SystemInfo(cluster=pcie_25g_cluster(8, 8)),
    )
    system = job.system
    compressor = job.build_compressor()
    reference = ReferenceCompiler(system.cluster, compressor, system.gpu, system.cpu)
    sizes = sorted(
        {
            tensor.num_elements
            for _, plan in candidate_plans(job)
            for tensor in fused_model(job.model, plan).tensors
        }
    )
    assert len(sizes) > len({t.num_elements for t in job.model.tensors})
    fixed = device_candidate_options()
    laddered = ladder_options(fixed, DEFAULT_RATIO_LADDER)
    for candidates in (laddered, fixed):
        compiler = PlanCompiler(system.cluster, compressor, system.gpu, system.cpu)
        prefilter = CandidatePrefilter(compiler, candidates, per_device=3)
        for num_elements in sizes:
            kept = prefilter.for_size(num_elements)
            expected = _reference_prefilter(reference, candidates, num_elements, 3)
            assert [canonical_key(o) for o in kept] == [
                canonical_key(o) for o in expected
            ], num_elements
        # Ranking walks recipes; it materializes no Stage chain.
        assert compiler.stats.chains == 0
        assert compiler.stats.cost_walks == len(candidates) * len(sizes)
        assert compiler.stats.recipes == len(candidates)
