"""Plan-compiler tests: options -> priced stage chains."""

import pytest

from repro.cluster import ClusterSpec, nvlink_100g_cluster, pcie_25g_cluster, single_gpu
from repro.compression import DGC, EFSignSGD, NoCompression
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core.espresso import Espresso
from repro.core.options import (
    DEFAULT_RATIO_LADDER,
    Device,
    canonical_key,
    no_compression_option,
)
from repro.core.plan import PlanCompiler
from repro.core.presets import (
    double_compression_option,
    inter_allgather_option,
    inter_alltoall_option,
)
from repro.core.tree import enumerate_options
from repro.models import get_model
from repro.profiling import v100_gpu, xeon_cpu
from repro.sim.stages import COMM, COMPRESS, CPU, DECOMPRESS, GPU, INTER, INTRA
from repro.utils.units import MB


def make_compiler(cluster=None, compressor=None):
    return PlanCompiler(
        cluster=cluster or nvlink_100g_cluster(num_machines=4, gpus_per_machine=4),
        compressor=compressor or DGC(ratio=0.01),
        gpu=v100_gpu(),
        cpu=xeon_cpu(),
    )


ELEMENTS = int(64 * MB / 4)


def test_fp32_option_stages():
    compiler = make_compiler()
    stages = compiler.stages(no_compression_option(), ELEMENTS)
    assert [s.resource for s in stages] == [INTRA, INTER, INTRA]
    assert all(s.kind == COMM for s in stages)
    assert all(s.duration > 0 for s in stages)


def test_single_gpu_needs_no_sync():
    compiler = make_compiler(cluster=single_gpu())
    assert compiler.stages(no_compression_option(), ELEMENTS) == []


def test_single_machine_drops_inter_phase():
    cluster = ClusterSpec(
        num_machines=1, gpus_per_machine=8, intra_bw=1e11, inter_bw=1e10
    )
    compiler = make_compiler(cluster=cluster)
    stages = compiler.stages(no_compression_option(), ELEMENTS)
    assert [s.resource for s in stages] == [INTRA, INTRA]


def test_compression_reduces_inter_time():
    compiler = make_compiler()
    plain = compiler.stages(no_compression_option(), ELEMENTS)
    compressed = compiler.stages(inter_allgather_option(Device.GPU), ELEMENTS)
    plain_inter = sum(s.duration for s in plain if s.resource == INTER)
    comp_inter = sum(s.duration for s in compressed if s.resource == INTER)
    assert comp_inter < plain_inter / 5


def test_gpu_option_uses_gpu_resource():
    compiler = make_compiler()
    stages = compiler.stages(inter_allgather_option(Device.GPU), ELEMENTS)
    device_stages = [s for s in stages if s.kind in (COMPRESS, DECOMPRESS)]
    assert device_stages
    assert all(s.resource == GPU for s in device_stages)


def test_cpu_option_uses_cpu_resource():
    compiler = make_compiler()
    stages = compiler.stages(inter_allgather_option(Device.CPU), ELEMENTS)
    device_stages = [s for s in stages if s.kind in (COMPRESS, DECOMPRESS)]
    assert all(s.resource == CPU for s in device_stages)


def test_cpu_compression_slower_than_gpu():
    compiler = make_compiler()
    gpu_comp = [
        s
        for s in compiler.stages(inter_allgather_option(Device.GPU), ELEMENTS)
        if s.kind == COMPRESS
    ][0]
    cpu_comp = [
        s
        for s in compiler.stages(inter_allgather_option(Device.CPU), ELEMENTS)
        if s.kind == COMPRESS
    ][0]
    assert cpu_comp.duration > gpu_comp.duration


def test_divisible_scheme_cheaper_comm_more_compression():
    """Fig. 5's trade-off: divisible schemes save bytes, cost extra
    compression operations."""
    compiler = make_compiler()
    indivisible = compiler.stages(inter_allgather_option(Device.GPU), ELEMENTS)
    divisible = compiler.stages(inter_alltoall_option(Device.GPU), ELEMENTS)
    indiv_comm = sum(
        s.duration for s in indivisible if s.resource == INTER
    )
    div_comm = sum(s.duration for s in divisible if s.resource == INTER)
    assert div_comm < indiv_comm
    indiv_ops = sum(1 for s in indivisible if s.kind == COMPRESS)
    div_ops = sum(1 for s in divisible if s.kind == COMPRESS)
    assert div_ops > indiv_ops


def test_double_compression_reduces_intra_traffic():
    compiler = make_compiler()
    inter_only = compiler.stages(inter_alltoall_option(Device.GPU), ELEMENTS)
    both = compiler.stages(double_compression_option(Device.GPU), ELEMENTS)
    intra_inter_only = sum(s.duration for s in inter_only if s.resource == INTRA)
    intra_both = sum(s.duration for s in both if s.resource == INTRA)
    assert intra_both < intra_inter_only


def test_no_compression_algorithm_has_zero_device_cost():
    compiler = make_compiler(compressor=NoCompression())
    stages = compiler.stages(no_compression_option(), ELEMENTS)
    assert all(s.kind == COMM for s in stages)


def test_every_tree_option_compiles():
    compiler = make_compiler(compressor=EFSignSGD())
    for option in enumerate_options(mode="uniform"):
        stages = compiler.stages(option, ELEMENTS)
        assert all(s.duration >= 0 for s in stages)


def test_stage_cache_reuses_results():
    compiler = make_compiler()
    option = inter_allgather_option(Device.GPU)
    first = compiler.stages(option, ELEMENTS)
    second = compiler.stages(option, ELEMENTS)
    assert first is second


def test_invalid_size_rejected():
    compiler = make_compiler()
    with pytest.raises(ValueError):
        compiler.stages(no_compression_option(), 0)


def test_quantizer_compresses_more_than_sparsifier_at_1pct():
    """DGC at 1% ships ~2% of bytes (values+indices); EFSignSGD ~3%."""
    dgc = make_compiler(compressor=DGC(ratio=0.01))
    sign = make_compiler(compressor=EFSignSGD())
    option = inter_allgather_option(Device.GPU)
    dgc_inter = sum(
        s.duration for s in dgc.stages(option, ELEMENTS) if s.resource == INTER
    )
    sign_inter = sum(
        s.duration for s in sign.stages(option, ELEMENTS) if s.resource == INTER
    )
    assert dgc_inter < sign_inter


def _laddered_vgg16_plan(monkeypatch):
    """Plan laddered vgg16/randomk on PCIe 8 x 8, recording every
    ``stages()`` request as (canonical key, size) -> option."""
    requested = {}
    original = PlanCompiler.stages

    def stages(compiler, option, num_elements):
        requested[(canonical_key(option), num_elements)] = option
        return original(compiler, option, num_elements)

    monkeypatch.setattr(PlanCompiler, "stages", stages)
    job = JobConfig(
        model=get_model("vgg16"),
        gc=GCInfo("randomk", {"ratio": 0.01}),
        system=SystemInfo(cluster=pcie_25g_cluster(8, 8)),
    )
    planner = Espresso(job, ratios=DEFAULT_RATIO_LADDER)
    result = planner.select_strategy()
    return job, planner, result, requested


def test_compiler_work_counts_are_deterministic_and_bounded(monkeypatch):
    """The prefilter ranks from recipe cost walks, so the only ``Stage``
    chains a laddered plan materializes are prefilter survivors and the
    chains of strategies the planner simulates (DESIGN.md §5.12)."""
    job, planner, result, requested = _laddered_vgg16_plan(monkeypatch)
    counts = result.compiler_stats
    _, _, again, _ = _laddered_vgg16_plan(monkeypatch)
    assert again.compiler_stats == counts
    assert again.stats.fs_calls == result.stats.fs_calls

    laddered, fixed = planner.prefilter, planner._fixed_prefilter
    sizes = sorted({t.num_elements for t in job.model.tensors})
    # Every prefilter ranking walked each candidate's recipe once per
    # size, and each option value got one recipe.
    assert counts.cost_walks == (
        len(laddered.candidates) + len(fixed.candidates)
    ) * len(sizes)
    # One chain per distinct request: nothing else builds Stage lists.
    assert counts.chains == len(requested)
    assert counts.recipes == len(
        {canonical_key(o) for o in laddered.candidates}
        | {key for key, _ in requested}
    )

    survivors = {
        (canonical_key(option), size)
        for prefilter in (laddered, fixed)
        for size in sizes
        for option in prefilter.for_size(size)
    }
    # Strategy chains outside the survivors: FP32 and the portfolio
    # presets, or Algorithm 2 moving a survivor's compression to CPU.
    presets = {canonical_key(no_compression_option())} | {
        canonical_key(builder(device))
        for builder in (
            inter_allgather_option,
            inter_alltoall_option,
            double_compression_option,
        )
        for device in (Device.GPU, Device.CPU)
    }
    offloaded = {
        (canonical_key(option.with_device(Device.CPU)), size)
        for prefilter in (laddered, fixed)
        for size in sizes
        for option in prefilter.for_size(size)
    }
    strategy = set(requested) - survivors
    for key, size in strategy:
        assert key in presets or (key, size) in offloaded, requested[key, size]
    assert counts.chains <= len(survivors) + len(strategy)
    assert counts.chains < len(laddered.candidates) * len(sizes) / 10
