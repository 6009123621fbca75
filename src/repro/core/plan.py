"""Compile compression options into simulator stage chains.

This is where the decision-tree abstraction meets the empirical models:
given a tensor size, a cluster, a compressor, and the device time models,
:class:`PlanCompiler` walks an option's action path, tracks the payload
state (dense region size, compressed wire size, pending pieces), prices
every action with the cost models, and emits the
:class:`~repro.sim.stages.Stage` chain the timeline simulator executes.

Payload-state rules (one representative GPU):

* A first-step collective (Reduce-scatter/Alltoall) divides the dense
  region by the participant count; Reduce/Gather leave the region at the
  root.  Compressed first steps additionally leave ``p`` received pieces
  that the following DECOMP/AGG micro-tasks price.
* A second-step Allgather multiplies the region back; Broadcast leaves it.
* Inter-machine collectives run at machine granularity: the per-machine
  payload is ``k x`` the per-GPU payload when the intra phase divided the
  tensor across the machine's ``k`` GPUs, and ``1 x`` when a rooted
  intra routine concentrated it on one GPU.
* Flat collectives span all ``P = N x k`` GPUs; they occupy the
  inter-machine link with an effective per-GPU bandwidth of the NIC
  bandwidth divided by ``k`` (the machine's GPUs share the NIC).

Only the dense region size depends on the tensor size; everything else
the walk tracks (compressed or not, pending pieces, the NIC multiplier,
which link and time model prices each action) is fixed by the option and
the cluster.  The compiler therefore walks each option once into a
*recipe* of size-parametric steps and evaluates the recipe per size
(DESIGN.md §5.12).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.cluster.topology import ClusterSpec
from repro.comm.routines import LinkParams, Routine, routine_time
from repro.compression.base import FP32_BYTES, Compressor
from repro.core.options import (
    ActionTask,
    CompressionOption,
    Device,
    Phase,
    RoutineName,
    canonical_key,
)
from repro.profiling.device import DeviceProfile
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

_ROUTINE_MAP = {
    RoutineName.ALLREDUCE: Routine.ALLREDUCE,
    RoutineName.REDUCE_SCATTER: Routine.REDUCE_SCATTER,
    RoutineName.ALLGATHER: Routine.ALLGATHER,
    RoutineName.ALLTOALL: Routine.ALLTOALL,
    RoutineName.REDUCE: Routine.REDUCE,
    RoutineName.BROADCAST: Routine.BROADCAST,
    RoutineName.GATHER: Routine.GATHER,
}

#: Routines that divide the dense region across participants.
_DIVIDING = (RoutineName.REDUCE_SCATTER, RoutineName.ALLTOALL)

_DEVICE_KINDS = {
    ActionTask.COMP: COMPRESS,
    ActionTask.DECOMP: DECOMPRESS,
    ActionTask.AGG: AGGREGATE,
}

#: Recipe step opcodes.  ``(_DIVIDE, p)`` / ``(_MULTIPLY, p)`` update the
#: dense region; ``(_DEVICE, time_fn, pieces)`` and ``(_COMM, routine,
#: link, pieces, multiplier, nbytes_fn)`` each price one stage.
_DIVIDE, _MULTIPLY, _DEVICE, _COMM = range(4)


@dataclass(frozen=True)
class _Recipe:
    """The size-independent part of one option's compile walk.

    ``steps`` are the walk's size-dependent float operations in order;
    ``stages`` holds the (resource, kind, label) of every stage a step
    prices, aligned with the durations :meth:`PlanCompiler._durations`
    returns, and ``comm_positions`` indexes the COMM ones.
    """

    steps: Tuple[tuple, ...]
    stages: Tuple[Tuple[str, str, str], ...]
    comm_positions: Tuple[int, ...]


@dataclass
class CompilerStats:
    """Deterministic work counts of one :class:`PlanCompiler`.

    Attributes:
        recipes: recipes built — at most one per option value.
        chains: ``Stage`` lists materialized by :meth:`PlanCompiler.stages`
            (cache misses; a hit builds nothing).
        cost_walks: :meth:`PlanCompiler.stage_costs` evaluations, which
            price a recipe without building any ``Stage``.
    """

    recipes: int = 0
    chains: int = 0
    cost_walks: int = 0

    def snapshot(self) -> "CompilerStats":
        return replace(self)


class PlanCompiler:
    """Compiles (option, tensor size) pairs into priced stage chains."""

    def __init__(
        self,
        cluster: ClusterSpec,
        compressor: Compressor,
        gpu: DeviceProfile,
        cpu: DeviceProfile,
    ):
        self.cluster = cluster
        self.compressor = compressor
        self._models = {
            Device.GPU: CompressionTimeModel(gpu, compressor.work_factor),
            Device.CPU: CompressionTimeModel(cpu, compressor.work_factor),
        }
        self._links = {phase: self._link(phase) for phase in Phase}
        self._cache: Dict[Tuple[int, int], List[Stage]] = {}
        #: Canonical option key -> recipe, built on first use.
        self._recipes: Dict[int, _Recipe] = {}
        #: Ratio-pinned shallow copies of ``compressor``, one per ladder
        #: ratio the planner prices.  ``work_factor`` is ratio-independent
        #: for every registered algorithm, so the time models stay shared.
        self._ratio_variants: Dict[float, Compressor] = {}
        self.stats = CompilerStats()

    # -- public API ------------------------------------------------------

    def compressor_for(self, option: CompressionOption) -> Compressor:
        """The effective compressor pricing ``option``'s wire bytes.

        An option pinned to a ladder ratio is priced by a shallow copy
        of the job's compressor with its ``ratio`` overridden; options
        without a pin — or jobs whose compressor has no ratio knob
        (fp16, efsignsgd, ...) — use the job compressor unchanged, so
        ratio metadata on such jobs is cost-irrelevant and the chain
        coarsening in the evaluator merges the variants.
        """
        ratio = option.ratio
        if ratio is None or not hasattr(self.compressor, "ratio"):
            return self.compressor
        variant = self._ratio_variants.get(ratio)
        if variant is None:
            variant = copy.copy(self.compressor)
            variant.ratio = ratio
            self._ratio_variants[ratio] = variant
        return variant

    def stages(self, option: CompressionOption, num_elements: int) -> List[Stage]:
        """The stage chain realizing ``option`` for a tensor of this size.

        Results are cached per (option value, size): Algorithm 1
        re-evaluates the same candidates for many same-size tensors.
        The key is the interned canonical key, not ``id(option)`` — the
        ratio ladder builds ad-hoc pinned variants whose recycled ids
        could alias a stale chain, while value keys cannot.
        """
        if num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {num_elements}")
        key = (canonical_key(option), num_elements)
        cached = self._cache.get(key)
        if cached is None:
            self.stats.chains += 1
            recipe = self._recipe(option)
            cached = [
                Stage(resource=resource, duration=duration, kind=kind, label=label)
                for (resource, kind, label), duration in zip(
                    recipe.stages, self._durations(recipe, num_elements)
                )
            ]
            self._cache[key] = cached
        return cached

    def stage_costs(
        self, option: CompressionOption, num_elements: int
    ) -> Tuple[float, float]:
        """(communication, total) seconds of ``option``'s stage chain.

        Equal, float for float, to ``sum`` over the COMM stages and over
        all stages of :meth:`stages` — the same durations summed in the
        same order — without building (or caching) any ``Stage``.
        """
        if num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {num_elements}")
        self.stats.cost_walks += 1
        recipe = self._recipe(option)
        durations = self._durations(recipe, num_elements)
        comm = sum([durations[i] for i in recipe.comm_positions])
        return comm, sum(durations)

    # -- compilation -----------------------------------------------------

    def _link(self, phase: Phase) -> Tuple[str, LinkParams]:
        """(resource, link params) of a phase's collectives."""
        cluster = self.cluster
        if phase in (Phase.INTRA1, Phase.INTRA2):
            return INTRA, LinkParams(
                cluster.gpus_per_machine, cluster.intra_bw, cluster.intra_latency
            )
        if phase is Phase.INTER:
            return INTER, LinkParams(
                cluster.num_machines, cluster.inter_bw, cluster.inter_latency
            )
        # Flat: all GPUs in one collective; the NIC (shared by the
        # machine's GPUs) is the bottleneck link when machines > 1.
        if cluster.num_machines > 1:
            bandwidth = cluster.inter_bw / cluster.gpus_per_machine
            return INTER, LinkParams(
                cluster.total_gpus, bandwidth, cluster.inter_latency
            )
        return INTRA, LinkParams(
            cluster.total_gpus, cluster.intra_bw, cluster.intra_latency
        )

    def _recipe(self, option: CompressionOption) -> _Recipe:
        key = canonical_key(option)
        recipe = self._recipes.get(key)
        if recipe is None:
            recipe = self._build_recipe(option)
            self._recipes[key] = recipe
        return recipe

    def _build_recipe(self, option: CompressionOption) -> _Recipe:
        """Walk ``option``'s actions once, freezing everything but the
        dense region's size into steps."""
        self.stats.recipes += 1
        if not self.cluster.is_distributed:
            return _Recipe((), (), ())
        steps: List[tuple] = []
        stages: List[Tuple[str, str, str]] = []
        comm_positions: List[int] = []
        compressor = self.compressor_for(option)
        compressed = False
        pieces = 1  # identical-region compressed pieces awaiting agg
        multiplier = 1  # active GPUs per machine on the NIC
        for action in option.actions:
            task = action.task
            if task in _DEVICE_KINDS:
                model = self._models[action.device]
                if task is ActionTask.COMP:
                    steps.append((_DEVICE, model.compress_time, 1))
                    compressed = True
                elif task is ActionTask.DECOMP:
                    steps.append((_DEVICE, model.decompress_time, pieces))
                    compressed = False
                else:  # AGG
                    steps.append((_DEVICE, model.aggregate_time, pieces))
                    pieces = 1
                resource = GPU if action.device is Device.GPU else CPU
                stages.append((resource, _DEVICE_KINDS[task], action.describe()))
                continue
            resource, link = self._links[action.phase]
            participants = link.participants
            if participants <= 1:
                # A lone participant talks to nobody: routine_time is
                # exactly 0, so no stage and no payload change.
                continue
            routine = action.routine
            comm_positions.append(len(stages))
            stages.append((resource, COMM, action.describe()))
            steps.append((
                _COMM,
                _ROUTINE_MAP[routine],
                link,
                pieces,
                multiplier if action.phase is Phase.INTER else 1,
                compressor.compressed_nbytes if compressed else None,
            ))
            if action.phase is Phase.INTRA1:
                # The intra phase decides how the machine's payload
                # reaches the NIC: divided across all k GPUs, or rooted
                # on one.
                multiplier = (
                    self.cluster.gpus_per_machine if routine in _DIVIDING else 1
                )
            if task in (ActionTask.COMM1, ActionTask.COMM2, ActionTask.COMM):
                # Dense collectives aggregate in-network (associative ops).
                if routine is RoutineName.REDUCE_SCATTER:
                    steps.append((_DIVIDE, participants))
                elif routine is RoutineName.ALLGATHER:
                    steps.append((_MULTIPLY, participants))
                # Allreduce / Reduce / Broadcast leave the region unchanged.
            elif task in (ActionTask.COMM_C, ActionTask.COMM1_C):
                # First-step (or indivisible) compressed collectives
                # deliver `participants` compressed pieces to decompress
                # + aggregate.
                if routine is RoutineName.ALLTOALL:
                    steps.append((_DIVIDE, participants))
                pieces *= participants
            elif task is ActionTask.COMM2_C:
                # Second-step compressed collectives concatenate distinct
                # regions (Allgather) or replicate the root's (Broadcast).
                if routine is RoutineName.ALLGATHER:
                    steps.append((_MULTIPLY, participants))
            else:
                raise AssertionError(f"unhandled comm action {action!r}")
        return _Recipe(tuple(steps), tuple(stages), tuple(comm_positions))

    @staticmethod
    def _durations(recipe: _Recipe, num_elements: int) -> List[float]:
        """Evaluate ``recipe`` for one size: one duration per stage.

        Only the float operations that depend on the size run here, in
        the order the action walk performs them, so every duration is
        bit-identical to pricing the actions one by one.
        """
        region = float(num_elements)  # dense elements this GPU handles
        elements = max(1, math.ceil(region))
        durations: List[float] = []
        for step in recipe.steps:
            op = step[0]
            if op == _DIVIDE:
                region /= step[1]
                elements = max(1, math.ceil(region))
                continue
            if op == _MULTIPLY:
                region *= step[1]
                elements = max(1, math.ceil(region))
                continue
            if op == _DEVICE:
                durations.append(step[1](step[2] * (elements * FP32_BYTES)))
                continue
            _, routine, link, pieces, multiplier, nbytes_fn = step
            if nbytes_fn is None:
                payload = float(pieces * elements * FP32_BYTES)
            else:
                payload = float(pieces * nbytes_fn(elements))
            payload *= multiplier
            durations.append(routine_time(routine, payload, link))
        return durations
