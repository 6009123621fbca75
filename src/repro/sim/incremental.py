"""Incremental re-simulation of chain substitutions (delta F(S)).

Espresso's planner evaluates thousands of candidate strategies that
differ from a resident *base* strategy in one (or a few) tensors:
Algorithm 1's GetBestOption loop, the refinement sweeps, and Lemma-1
offloading all generate single- or few-tensor replacements.  Replaying
the full discrete-event simulation from t=0 for every candidate wastes
the prefix the trial shares with the base run.

The engine's scheduling is deterministic FIFO-by-readiness (see
:mod:`repro.sim.engine`), so the trial trajectory is *identical* to the
base trajectory up to the first instant a swapped tensor's replacement
stages can enter a ready queue.  A chain's synchronization pipeline
becomes ready exactly when its backprop compute stage completes; a swap
that preserves the compute stage therefore cannot influence anything
scheduled before that completion.

:class:`IncrementalSimulator` runs the base chains once, snapshotting
the scheduler state (free workers, ready heaps, in-flight events,
makespan) at event-batch boundaries, and prices a candidate by restoring
the latest snapshot taken no later than the divergence instant and
replaying only the suffix.  The replay executes the same float
operations in the same order as a from-scratch simulation of the trial
chains, so the returned makespan is bit-identical to
:func:`repro.sim.engine.simulate_makespan` — the hypothesis property
test in ``tests/sim/test_incremental.py`` proves the equivalence.

Replays also end early through a *suffix memo* of scheduler states.
Once every swapped stage of a trial has retired, the rest of its run
depends only on the scheduler state and the base task graph.  So a
state that the base run or an earlier replay of the same base already
passed through has a known final makespan, and the replay stops there
(DESIGN.md §5.2).
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import ScheduledStage, Timeline
from repro.sim.stages import COMM, CPU, RESOURCES, Stage, TensorChain

#: Scheduler snapshot: (free workers, ready heaps, in-flight events,
#: makespan so far, dispatch sequence counter, completions processed).
_Checkpoint = Tuple[List[int], List[list], list, float, int, int]

# Heap entries are packed 2-tuples to keep the event loop cheap:
#   ready:  (ready_time, rank)    rank = tensor << 40 | k << 30 | tid
#   events: (end_time, seq << 30 | tid)
# Tuple order is identical to the engine's (time, tensor, k, tid) /
# (end, seq, tid) tuples as long as every field fits its bit budget,
# which __init__ / swap_chains validate.
_TID_BITS = 30
_K_BITS = 10
_TID_MASK = (1 << _TID_BITS) - 1
_MAX_STAGES = 1 << _K_BITS
_MAX_TENSOR = 1 << 20

#: A replay records a suffix-memo state every this many checkpoint
#: strides of completions, plus the first state after its swapped stages
#: retire.  Sparse recording costs few hits — a replay that joins a
#: recorded trajectory meets its next recorded state within one interval
#: — and keeps the memo small (peak RSS on deep models).
_MEMO_STRIDES = 8

#: Suffix-memo entry: (:func:`_state_sig`, :func:`_state_key`, final
#: makespan, completions still to come after the state).  The key of a
#: base-checkpoint entry is ``None``: it is built from the checkpoint
#: only when a signature matches, since sorting every snapshot up
#: front doubled the cost of a rebase.
_MemoEntry = Tuple[int, Optional[tuple], float, int]


def _state_key(events: list, ready: Sequence[list]) -> tuple:
    """Order-insensitive form of a scheduler state, as two compact flat
    tuples: the sorted in-flight ``(end, tid)`` pairs and the sorted
    ``(ready_time, rank)`` entries of all four ready heaps.

    Dispatch sequence numbers are dropped on purpose: they only break
    ties between same-instant completions, which are all drained before
    any dispatch, so they cannot influence scheduling.  The heaps can
    share one tuple because a rank names its task, and a base task's
    resource is fixed.  Flattening keeps the key to one object per
    part: the ready-time floats and rank ints are shared with the heap
    entries rather than copied.
    """
    return (
        tuple(itertools.chain.from_iterable(
            sorted([(end, packed & _TID_MASK) for end, packed in events])
        )),
        tuple(itertools.chain.from_iterable(
            sorted(ready[0] + ready[1] + ready[2] + ready[3])
        )),
    )


def _state_sig(free: List[int], ready: Sequence[list]) -> int:
    """O(1) prefilter for :func:`_state_key`: a hash of the free counts
    (which also fix the in-flight count) and each ready heap's head (the
    heap minimum, so it does not depend on push order).  Equal states
    have equal signatures; a collision only costs a key comparison."""
    r0, r1, r2, r3 = ready
    return hash((
        free[0],
        free[1],
        free[2],
        free[3],
        r0[0] if r0 else None,
        r1[0] if r1 else None,
        r2[0] if r2 else None,
        r3[0] if r3 else None,
    ))


class IncrementalSimulator:
    """Replays one base simulation, then prices chain swaps by suffix.

    Args:
        chains: the base strategy's per-tensor stage chains, in backprop
            completion order (same contract as :func:`~repro.sim.engine.
            simulate`).
        cpu_capacity: parallel workers of the CPU compression pool.
        capacities: optional per-resource capacity overrides.
        checkpoint_stride: minimum completions between two snapshots;
            defaults to ``max(1, num_tasks // 128)`` so snapshot copying
            stays a small fraction of the base simulation cost while a
            restore overshoots the ideal resume point by <1% of events.
            Replays record suffix-memo states every
            :data:`_MEMO_STRIDES` strides.
        stats: optional object with ``events_full``, ``events_replayed``,
            ``events_reused`` and ``suffix_hits`` counters (e.g.
            ``EvaluatorStats``) that the simulator increments in place.
    """

    def __init__(
        self,
        chains: Sequence[TensorChain],
        cpu_capacity: int = 1,
        capacities: Optional[Dict[str, int]] = None,
        checkpoint_stride: Optional[int] = None,
        stats=None,
    ):
        if not chains:
            raise ValueError("nothing to simulate")
        resource_capacity = {name: 1 for name in RESOURCES}
        resource_capacity[CPU] = max(1, cpu_capacity)
        if capacities:
            resource_capacity.update(capacities)
        self._capacity = [resource_capacity[name] for name in RESOURCES]
        if len(self._capacity) != 4:
            # The replay dispatch scan is unrolled over the four sim
            # resources (gpu, cpu, intra, inter).
            raise ValueError("IncrementalSimulator expects exactly 4 resources")
        self._res_index = {name: i for i, name in enumerate(RESOURCES)}
        self.stats = stats

        # Flattened task arrays, exactly as the engine builds them; the
        # base layout stays resident, swaps append scratch tasks past
        # ``_num_tasks`` and truncate them afterwards.
        durations: List[float] = []
        resources: List[int] = []
        tensors: List[int] = []
        ks: List[int] = []
        is_comm: List[bool] = []
        next_in_chain: List[int] = []
        compute_succ: List[int] = []
        rank: List[int] = []
        base: List[int] = []
        for chain in chains:
            base.append(len(durations))
            n_stages = len(chain.stages)
            if n_stages > _MAX_STAGES:
                raise ValueError(f"chain has more than {_MAX_STAGES} stages")
            if not 0 <= chain.tensor_index < _MAX_TENSOR:
                raise ValueError(
                    f"tensor index {chain.tensor_index} outside [0, {_MAX_TENSOR})"
                )
            for k, stage in enumerate(chain.stages):
                tid = len(durations)
                durations.append(stage.duration)
                resources.append(self._res_index[stage.resource])
                tensors.append(chain.tensor_index)
                ks.append(k)
                is_comm.append(stage.kind == COMM)
                rank.append(
                    chain.tensor_index << (_K_BITS + _TID_BITS)
                    | k << _TID_BITS
                    | tid
                )
                next_in_chain.append(tid + 1 if k + 1 < n_stages else -1)
                compute_succ.append(-1)
        for i in range(len(chains) - 1):
            compute_succ[base[i]] = base[i + 1]
        # The four ready heaps are *persistent* list objects: the base
        # run fills them, checkpoints store copies, and every replay
        # refills them in place via slice assignment.  Stable identity is
        # what lets each task precompute the actual heap object its
        # successors push into (``s1_heap``/``s2_heap`` below) instead of
        # resolving ``ready[resource]`` per event.
        self._ready: List[list] = [[] for _ in RESOURCES]
        # Flattened successor push targets: for task ``t``, the heap and
        # rank of its pipeline successor (s1) and — on compute stages —
        # of the next chain's compute stage (s2); heap ``None`` when the
        # successor is absent.  The event loop reads these instead of
        # chasing next_in_chain/compute_succ through extra list lookups.
        ready = self._ready
        s1_heap: List[Optional[list]] = []
        s1_rank: List[int] = []
        s2_heap: List[Optional[list]] = []
        s2_rank: List[int] = []
        for t in range(len(durations)):
            s = next_in_chain[t]
            s1_heap.append(ready[resources[s]] if s >= 0 else None)
            s1_rank.append(rank[s] if s >= 0 else 0)
            s = compute_succ[t]
            s2_heap.append(ready[resources[s]] if s >= 0 else None)
            s2_rank.append(rank[s] if s >= 0 else 0)
        self._s1_heap = s1_heap
        self._s1_rank = s1_rank
        self._s2_heap = s2_heap
        self._s2_rank = s2_rank
        # Completion record per task, consumed by the event loops: one
        # list index + a C-level tuple unpack replaces five separate
        # array lookups per completed event in the replay hot path.  The
        # flat arrays above stay authoritative (the batch layer reads
        # them); swaps keep both in step.
        self._post = list(zip(resources, s1_heap, s1_rank, s2_heap, s2_rank))
        self._durations = durations
        self._resources = resources
        self._tensors = tensors
        self._ks = ks
        self._is_comm = is_comm
        self._rank = rank
        self._next_in_chain = next_in_chain
        self._compute_succ = compute_succ
        self._base = base
        self._num_tasks = len(durations)
        self._num_chains = len(chains)
        self._chain_len = [
            (base[i + 1] if i + 1 < len(base) else len(durations)) - base[i]
            for i in range(len(base))
        ]
        #: (resource index, duration) of each chain's leading stage, for
        #: validating that a swap preserves it.
        self._stage0 = [
            (resources[t0], durations[t0]) for t0 in base
        ]
        #: Base completion time of every base task.  A swap diverges at
        #: the completion of the last stage the replacement chain shares
        #: with the resident chain — everything earlier is bit-identical.
        self._end_time = [0.0] * len(durations)
        #: Base dispatch time of every base task, recorded (not derived
        #: as ``end - duration``, which would reintroduce float rounding)
        #: so :meth:`base_timeline` can rebuild the full timeline without
        #: a second simulation.
        self._start_time = [0.0] * len(durations)
        self._chain_objs = list(chains)

        self._cp_times: List[float] = []
        self._checkpoints: List[_Checkpoint] = []
        if checkpoint_stride is None:
            checkpoint_stride = max(1, self._num_tasks // 128)
        stride = max(1, checkpoint_stride)
        self._memo_interval = _MEMO_STRIDES * stride
        #: Suffix memo: instant -> entries of the states seen then.  It
        #: holds only states reached with every swapped stage retired,
        #: which evolve on the base task graph alone; it is seeded with
        #: the base checkpoints, grown by every replay, and lives as
        #: long as this base.
        self._memo: Dict[float, List[_MemoEntry]] = {}
        self.base_makespan = self._run_base(stride)
        for cp_time, (cp_free, cp_ready, cp_events, _, _, done) in zip(
            self._cp_times, self._checkpoints
        ):
            self._memo[cp_time] = [(
                _state_sig(cp_free, cp_ready),
                None,
                self.base_makespan,
                self.base_events - done,
            )]

    # -- base simulation -------------------------------------------------

    def _run_base(self, stride: int) -> float:
        durations = self._durations
        resources = self._resources
        rank = self._rank
        post = self._post
        end_time = self._end_time
        start_time = self._start_time
        heappush = heapq.heappush
        heappop = heapq.heappop
        tid_mask = _TID_MASK
        n_res = len(RESOURCES)

        free = self._capacity.copy()
        ready = self._ready
        events: list = []
        seq = 0
        ready[resources[0]].append((0.0, rank[0]))
        # Initial dispatch at t=0 (mirrors the engine).  Event entries
        # are ``(end, seq << _TID_BITS | tid)``: dispatch sequence
        # numbers are unique, so the packed tie-break orders exactly
        # like the engine's ``(end, seq, tid)`` triple while the heap
        # moves cheaper 2-tuples.
        for r in range(n_res):
            heap = ready[r]
            while heap and free[r] > 0:
                tid = heappop(heap)[1] & tid_mask
                free[r] -= 1
                seq += 1
                heappush(events, (durations[tid], seq << _TID_BITS | tid))

        makespan = 0.0
        events_done = 0
        need_cp = True
        last_cp_events = 0
        prev_now = -1.0
        while events:
            now = events[0][0]
            # Snapshot only before the *first* batch at a new instant:
            # zero-duration tasks make several batches share one time,
            # and a mid-instant snapshot would capture completions
            # already processed with the base successor arrays — a
            # restore at exactly the divergence instant would then skip
            # the swap.  One snapshot per instant also keeps the times
            # strictly increasing.
            if now != prev_now and (
                need_cp or events_done - last_cp_events >= stride
            ):
                self._cp_times.append(now)
                self._checkpoints.append(
                    (
                        free.copy(),
                        [h.copy() for h in ready],
                        events.copy(),
                        makespan,
                        seq,
                        events_done,
                    )
                )
                need_cp = False
                last_cp_events = events_done
            prev_now = now
            if now > makespan:
                makespan = now
            while events and events[0][0] == now:
                tid = heappop(events)[1] & tid_mask
                events_done += 1
                end_time[tid] = now
                r, h1, rk1, h2, rk2 = post[tid]
                free[r] += 1
                if h1 is not None:
                    heappush(h1, (now, rk1))
                if h2 is not None:
                    heappush(h2, (now, rk2))
            for r in range(n_res):
                heap = ready[r]
                while heap and free[r] > 0:
                    tid = heappop(heap)[1] & tid_mask
                    free[r] -= 1
                    seq += 1
                    start_time[tid] = now
                    heappush(events, (now + durations[tid], seq << _TID_BITS | tid))

        self.base_events = events_done
        if self.stats is not None:
            self.stats.events_full += events_done
        return makespan

    def base_timeline(self) -> Timeline:
        """The base run's full timeline, rebuilt from the resident arrays.

        Bit-identical to ``engine.simulate(chains)``: every ``start`` and
        ``end`` is the exact float the base event loop produced, and a
        stage's ``ready`` is its predecessor's completion (0.0 for the
        first backprop stage) — the same value the engine stamps when it
        pushes the stage into a ready queue.  Costs one pass over the
        tasks instead of a second record-collecting simulation.
        """
        start_time = self._start_time
        end_time = self._end_time
        scheduled = []
        prev_compute_end = 0.0
        for i, chain in enumerate(self._chain_objs):
            t0 = self._base[i]
            ready = prev_compute_end
            for k, stage in enumerate(chain.stages):
                tid = t0 + k
                scheduled.append(
                    ScheduledStage(
                        tensor_index=chain.tensor_index,
                        stage_index=k,
                        resource=stage.resource,
                        kind=stage.kind,
                        label=stage.label,
                        duration=stage.duration,
                        ready=ready,
                        start=start_time[tid],
                        end=end_time[tid],
                    )
                )
                ready = end_time[tid]
            prev_compute_end = end_time[t0]
        scheduled.sort(key=lambda s: (s.start, s.tensor_index, s.stage_index))
        return Timeline(stages=tuple(scheduled), makespan=self.base_makespan)

    def task_view(
        self,
    ) -> Tuple[
        List[int], List[int], List[int], List[float], List[float], List[bool]
    ]:
        """Parallel per-task arrays of the base schedule, for flat
        analyses that do not need :class:`ScheduledStage` objects:
        ``(tensors, stage_indexes, resource_indexes, starts, ends,
        comm_flags)``.  Starts and ends are the exact event-loop floats.
        The lists are the live resident arrays — callers must not mutate
        them or hold them across a rebase.
        """
        return (
            self._tensors,
            self._ks,
            self._resources,
            self._start_time,
            self._end_time,
            self._is_comm,
        )

    # -- swaps -----------------------------------------------------------

    def swap_chain(self, index: int, stages: Sequence[Stage]) -> float:
        """Makespan with chain ``index`` replaced by ``stages``.

        ``stages[0]`` must equal the base chain's leading (compute)
        stage — that is what makes the shared prefix sound.  The base
        arrays are restored before returning, so swaps never accumulate.
        """
        return self.swap_chains(((index, stages),))

    def swap_chains(
        self, replacements: Sequence[Tuple[int, Sequence[Stage]]]
    ) -> float:
        """Makespan with several chains replaced at once.

        The resumable prefix is bounded by the *earliest* swapped
        chain's compute completion; a single-chain swap therefore reuses
        the most.
        """
        res_index = self._res_index
        return self.swap_chains_flat(
            [
                (
                    pos,
                    [res_index[s.resource] for s in stages],
                    [s.duration for s in stages],
                )
                for pos, stages in replacements
            ]
        )

    def swap_chains_flat(
        self,
        replacements: Sequence[Tuple[int, Sequence[int], Sequence[float]]],
    ) -> float:
        """:meth:`swap_chains` with pre-flattened replacement chains.

        Each replacement is ``(index, resource_indices, durations)`` —
        two parallel lists over the stages, resources already mapped
        through the :data:`~repro.sim.stages.RESOURCES` order.  The
        planner's evaluator caches these per (option, tensor) so the hot
        loop never touches :class:`Stage` objects.
        """
        if not replacements:
            return self.base_makespan
        durations = self._durations
        resources = self._resources
        tensors = self._tensors
        ks = self._ks
        rank = self._rank
        next_in_chain = self._next_in_chain
        compute_succ = self._compute_succ
        s1_heap = self._s1_heap
        s1_rank = self._s1_rank
        s2_heap = self._s2_heap
        s2_rank = self._s2_rank
        post = self._post
        ready = self._ready
        n_base = self._num_tasks
        res_index = self._res_index
        seen = set()
        saved: List[Tuple[int, int, int, int, tuple]] = []
        t_influence = float("inf")
        # Swapped stages (each ``tlast`` and every scratch task) that
        # have not retired yet; the suffix memo is off until it drains.
        guard = set()
        try:
            for pos, new_res, new_dur in replacements:
                if not 0 <= pos < self._num_chains:
                    raise ValueError(f"chain index {pos} out of range")
                if pos in seen:
                    raise ValueError(f"duplicate swap of chain {pos}")
                seen.add(pos)
                if not new_res:
                    raise ValueError("a chain needs at least one stage")
                n_stages = len(new_res)
                if n_stages > _MAX_STAGES:
                    raise ValueError(f"chain has more than {_MAX_STAGES} stages")
                r0, d0 = self._stage0[pos]
                if new_res[0] != r0 or new_dur[0] != d0:
                    raise ValueError(
                        "swap must preserve the chain's leading compute stage"
                    )
                t0 = self._base[pos]
                old_len = self._chain_len[pos]
                # Length of the stage prefix the replacement shares with
                # the resident chain (resource and duration equal at the
                # same position).  The trial trajectory is bit-identical
                # to the base until the first *differing* stage becomes
                # ready — the completion of the last shared stage — so
                # only stages[m:] need scratch tasks and the replay can
                # resume that much later.
                m = 1
                limit = old_len if old_len < n_stages else n_stages
                while m < limit:
                    t = t0 + m
                    if resources[t] != new_res[m] or durations[t] != new_dur[m]:
                        break
                    m += 1
                if m == old_len and m == n_stages:
                    continue  # identical chain: no-op replacement
                tlast = t0 + m - 1
                saved.append(
                    (
                        tlast,
                        next_in_chain[tlast],
                        s1_heap[tlast],
                        s1_rank[tlast],
                        post[tlast],
                    )
                )
                guard.add(tlast)
                end_last = self._end_time[tlast]
                if end_last < t_influence:
                    t_influence = end_last
                n_new = n_stages - m
                start_id = len(durations)
                if start_id + n_new > _TID_MASK:
                    raise ValueError("too many scratch tasks for the rank encoding")
                guard.update(range(start_id, start_id + n_new))
                if n_new:
                    durations += new_dur[m:]
                    resources += new_res[m:]
                    tensor = tensors[t0]
                    tensors += [tensor] * n_new
                    ks += range(m, n_stages)
                    tensor_bits = tensor << (_K_BITS + _TID_BITS)
                    for k in range(m, n_stages):
                        rank.append(
                            tensor_bits | k << _TID_BITS | (start_id + k - m)
                        )
                    next_in_chain += range(start_id + 1, start_id + n_new)
                    next_in_chain.append(-1)
                    compute_succ += [-1] * n_new
                    s2_heap += [None] * n_new
                    s2_rank += [0] * n_new
                    # Flat successor entries for the scratch tasks (each
                    # points at the next scratch task; the last at none).
                    for t in range(start_id, start_id + n_new - 1):
                        s1_heap.append(ready[resources[t + 1]])
                        s1_rank.append(rank[t + 1])
                        post.append(
                            (resources[t], s1_heap[t], s1_rank[t], None, 0)
                        )
                    s1_heap.append(None)
                    s1_rank.append(0)
                    last = start_id + n_new - 1
                    post.append((resources[last], None, 0, None, 0))
                    next_in_chain[tlast] = start_id
                    s1_heap[tlast] = ready[resources[start_id]]
                    s1_rank[tlast] = rank[start_id]
                else:
                    next_in_chain[tlast] = -1
                    s1_heap[tlast] = None
                    s1_rank[tlast] = 0
                post[tlast] = (
                    resources[tlast],
                    s1_heap[tlast],
                    s1_rank[tlast],
                    s2_heap[tlast],
                    s2_rank[tlast],
                )
            if not saved:
                return self.base_makespan
            ci = bisect_right(self._cp_times, t_influence) - 1
            return self._replay(ci, guard)
        finally:
            del durations[n_base:]
            del resources[n_base:]
            del tensors[n_base:]
            del ks[n_base:]
            del rank[n_base:]
            del next_in_chain[n_base:]
            del compute_succ[n_base:]
            del s1_heap[n_base:]
            del s1_rank[n_base:]
            del s2_heap[n_base:]
            del s2_rank[n_base:]
            del post[n_base:]
            for tlast, old_nic, old_heap, old_rank, old_post in saved:
                next_in_chain[tlast] = old_nic
                s1_heap[tlast] = old_heap
                s1_rank[tlast] = old_rank
                post[tlast] = old_post

    def _replay(self, ci: int, guard: set) -> float:
        durations = self._durations
        post = self._post
        memo = self._memo
        heappush = heapq.heappush
        heappop = heapq.heappop
        tid_mask = _TID_MASK
        tid_bits = _TID_BITS

        cp_free, cp_ready, cp_events, makespan, seq, cp_events_done = (
            self._checkpoints[ci]
        )
        free = cp_free.copy()
        # Refill the persistent ready heaps in place (their identity is
        # what the s1/s2 successor-heap arrays point at).  The dispatch
        # scan below is unrolled over the four resources, so each batch
        # costs four truthiness tests instead of a loop with subscripts.
        ready = self._ready
        ready0, ready1, ready2, ready3 = ready
        ready0[:] = cp_ready[0]
        ready1[:] = cp_ready[1]
        ready2[:] = cp_ready[2]
        ready3[:] = cp_ready[3]
        events = cp_events.copy()
        seq0 = seq
        in_flight0 = len(events)
        # Completions processed so far are ``seq - len(events)`` plus a
        # constant, so differences of that quantity count events.
        # States this replay records, as (instant, sig, key, completions):
        # their final makespans are known only when the replay ends.
        recorded = []
        next_record = 0
        interval = self._memo_interval
        hit: Optional[_MemoEntry] = None
        now = makespan
        while events:
            now = events[0][0]
            if guard:
                while events and events[0][0] == now:
                    tid = heappop(events)[1] & tid_mask
                    if tid in guard:
                        guard.discard(tid)
                    r, h1, rk1, h2, rk2 = post[tid]
                    free[r] += 1
                    if h1 is not None:
                        heappush(h1, (now, rk1))
                    if h2 is not None:
                        heappush(h2, (now, rk2))
            else:
                # Every swapped stage has retired, so from here the run
                # evolves on the base task graph alone: a state the
                # memo already holds fixes the rest of the trajectory.
                # Same-instant completions are drained before any
                # dispatch, so any batch boundary is a valid state.
                bucket = memo.get(now)
                sig = key = None
                if bucket is not None:
                    sig = _state_sig(free, ready)
                    for entry in bucket:
                        if entry[0] != sig:
                            continue
                        if key is None:
                            key = _state_key(events, ready)
                        if (entry[1] or self._checkpoint_key(now)) == key:
                            hit = entry
                            break
                    if hit is not None:
                        break
                done = seq - len(events)
                if done >= next_record:
                    next_record = done + interval
                    if sig is None:
                        sig = _state_sig(free, ready)
                    if key is None:
                        key = _state_key(events, ready)
                    recorded.append((now, sig, key, done))
                while events and events[0][0] == now:
                    tid = heappop(events)[1] & tid_mask
                    r, h1, rk1, h2, rk2 = post[tid]
                    free[r] += 1
                    if h1 is not None:
                        heappush(h1, (now, rk1))
                    if h2 is not None:
                        heappush(h2, (now, rk2))
            if ready0 and free[0]:
                fr = free[0]
                while ready0 and fr:
                    tid = heappop(ready0)[1] & tid_mask
                    fr -= 1
                    seq += 1
                    heappush(events, (now + durations[tid], seq << tid_bits | tid))
                free[0] = fr
            if ready1 and free[1]:
                fr = free[1]
                while ready1 and fr:
                    tid = heappop(ready1)[1] & tid_mask
                    fr -= 1
                    seq += 1
                    heappush(events, (now + durations[tid], seq << tid_bits | tid))
                free[1] = fr
            if ready2 and free[2]:
                fr = free[2]
                while ready2 and fr:
                    tid = heappop(ready2)[1] & tid_mask
                    fr -= 1
                    seq += 1
                    heappush(events, (now + durations[tid], seq << tid_bits | tid))
                free[2] = fr
            if ready3 and free[3]:
                fr = free[3]
                while ready3 and fr:
                    tid = heappop(ready3)[1] & tid_mask
                    fr -= 1
                    seq += 1
                    heappush(events, (now + durations[tid], seq << tid_bits | tid))
                free[3] = fr
        if hit is None:
            # Batch times pop from the event heap in non-decreasing
            # order, so the last one is the makespan (the checkpoint's
            # running makespan is strictly below its own time, hence
            # below ``now``).
            final = now if now > makespan else makespan
            remaining = 0
        else:
            _, _, final, remaining = hit
        # File the recorded states under the answer; a hit's skipped
        # tail counts as reused, like the restored prefix.
        done = seq - len(events)
        for at, sig, key, rec_done in recorded:
            memo.setdefault(at, []).append(
                (sig, key, final, done - rec_done + remaining)
            )
        stats = self.stats
        if stats is not None:
            stats.events_replayed += in_flight0 + (seq - seq0) - len(events)
            stats.events_reused += cp_events_done + remaining
            if hit is not None:
                stats.suffix_hits += 1
        return final

    def _checkpoint_key(self, now: float) -> tuple:
        """:func:`_state_key` of the base checkpoint taken at ``now``."""
        cp = self._checkpoints[bisect_left(self._cp_times, now)]
        return _state_key(cp[2], cp[1])
