"""Vectorized batch pricing of single-chain swaps (DESIGN.md §5.7).

GetBestOption and the refinement sweeps price *every* candidate option
of one tensor against the same resident base strategy.  The scalar path
(:meth:`~repro.sim.incremental.IncrementalSimulator.swap_chains_flat`)
replays the event suffix once per candidate — thousands of heap
operations each.  This module prices all candidates of one tensor in
one scalar replay plus a single vectorized pass: per-task quantities
(ready, start, end, resource availability) become numpy vectors over
the candidates.

Why a fixed processing order is sound
-------------------------------------
With strictly positive durations the engine's per-resource dispatch
sequence is exactly its ready queue's priority order: the sequence is
sorted by ``(ready_time, rank)`` (rank = the packed ``(tensor, stage,
tid)`` tie-break), every start is ``max(ready, resource_free_time)``,
and every ready is its predecessor's end.  Conversely, *any* schedule
with those three properties is the engine's — at the first position two
such schedules could differ, the sortedness and the free-time
recurrence force the same task and the same floats.  The batch
evaluator therefore:

1. prices one *representative* candidate with a scalar replay that
   records its true post-divergence dispatch order (sibling candidates
   perturb the base schedule the same way — the same stages are removed,
   similar ones inserted — so their dispatch orders overwhelmingly
   agree with the representative's, where the unperturbed *base* order
   is frequently wrong about how delayed readies interleave),
2. replays the remaining candidates along that order, computing
   starts/ends with the engine's own float operations (``max`` and
   ``+`` on the identical values — results are bit-identical, not
   approximate), with each candidate's replacement stages inserted into
   the walk by their ``(ready, rank)`` priority, and
3. verifies per resource that every adjacent dispatch pair it produced
   is ``(ready, rank)``-sorted.  Candidates whose true order diverges
   from the representative's fail the check and are re-priced by the
   scalar replay — the fast path can be wrong about the *order it
   tried*, never about a result it returns.

Zero-duration stages break the sortedness property itself (the engine
runs several dispatch rounds at one instant, and late rounds can
dispatch higher-priority work after lower-priority work); any candidate
or base-suffix task with a zero duration falls back to the scalar path.

The module is import-safe without numpy (``numpy_available()`` gates
the fast path; callers fall back to the scalar replay).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import List, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - the container bakes numpy in
    _np = None

from repro.sim.incremental import (
    IncrementalSimulator,
    _K_BITS,
    _MAX_STAGES,
    _TID_BITS,
    _TID_MASK,
    _state_key,
)

#: A candidate replacement chain in the evaluator's pre-flattened form:
#: parallel (resource index, duration) lists over the stages.
FlatChain = Tuple[Sequence[int], Sequence[float]]

_INF = float("inf")


def numpy_available() -> bool:
    """True when the vectorized path can run at all."""
    return _np is not None


def _sim_arrays(sim: IncrementalSimulator) -> dict:
    """Numpy mirrors of the simulator's (static) base arrays, cached on
    the instance.  A rebase builds a new simulator, so the cache can
    never go stale; scratch tasks appended during scalar swaps are
    always truncated before control returns here."""
    cache = getattr(sim, "_batch_arrays", None)
    if cache is None:
        n = sim._num_tasks
        start = _np.array(sim._start_time, dtype=_np.float64)
        end = _np.array(sim._end_time, dtype=_np.float64)
        dur = _np.array(sim._durations, dtype=_np.float64)
        res = _np.array(sim._resources, dtype=_np.int64)
        rank = _np.array(sim._rank, dtype=_np.int64)
        nic = _np.array(sim._next_in_chain, dtype=_np.int64)
        cs = _np.array(sim._compute_succ, dtype=_np.int64)
        # Every task has at most one predecessor (previous chain stage,
        # or the previous tensor's compute stage for a compute stage).
        pred = _np.full(n, -1, dtype=_np.int64)
        src = _np.nonzero(nic >= 0)[0]
        pred[nic[src]] = src
        src = _np.nonzero(cs >= 0)[0]
        pred[cs[src]] = src
        ready = _np.where(pred >= 0, end[_np.maximum(pred, 0)], 0.0)
        cache = {
            "start": start,
            "end": end,
            "dur": dur,
            "res": res,
            "rank": rank,
            "pred": pred,
            "ready": ready,
        }
        sim._batch_arrays = cache
    return cache


def _validate(sim: IncrementalSimulator, index: int, variants) -> None:
    """Mirror ``swap_chains_flat``'s input validation exactly."""
    if not 0 <= index < sim._num_chains:
        raise ValueError(f"chain index {index} out of range")
    r0, d0 = sim._stage0[index]
    for new_res, new_dur in variants:
        if not new_res:
            raise ValueError("a chain needs at least one stage")
        if len(new_res) > _MAX_STAGES:
            raise ValueError(f"chain has more than {_MAX_STAGES} stages")
        if new_res[0] != r0 or new_dur[0] != d0:
            raise ValueError(
                "swap must preserve the chain's leading compute stage"
            )


def _record_replay(
    sim: IncrementalSimulator,
    index: int,
    vres: Sequence[int],
    vdur: Sequence[float],
) -> Tuple[float, List[Tuple[int, float]], bool]:
    """Scalar replay of one swap that records its dispatch order.

    Semantically ``sim.swap_chains_flat([(index, vres, vdur)])`` (same
    scratch-task mechanics, checkpoint restore and stats accounting),
    except the resume point is pinned to the chain's compute completion
    — the batch walk's uniform divergence instant — every dispatch is
    recorded as ``(tid, ready_time)``, and of the suffix memo only its
    base-checkpoint entries end the replay (reconvergence), while
    nothing is recorded into it.

    Returns ``(makespan, dispatch order, reconverged)``; when the replay
    reconverged with the base run, the order only covers dispatches up
    to the reconvergence instant (the remainder is the base's own
    dispatch order — the states are identical from there on).
    """
    durations = sim._durations
    resources = sim._resources
    tensors = sim._tensors
    ks = sim._ks
    rank = sim._rank
    next_in_chain = sim._next_in_chain
    compute_succ = sim._compute_succ
    s1_heap = sim._s1_heap
    s1_rank = sim._s1_rank
    s2_heap = sim._s2_heap
    s2_rank = sim._s2_rank
    ready = sim._ready
    n_base = sim._num_tasks
    t0 = sim._base[index]
    saved = (next_in_chain[t0], s1_heap[t0], s1_rank[t0])
    order: List[Tuple[int, float]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    tid_mask = _TID_MASK
    tid_bits = _TID_BITS
    try:
        n_stages = len(vres)
        n_new = n_stages - 1
        start_id = len(durations)
        if start_id + n_new > _TID_MASK:
            raise ValueError("too many scratch tasks for the rank encoding")
        if n_new:
            durations += list(vdur[1:])
            resources += list(vres[1:])
            tensor = tensors[t0]
            tensors += [tensor] * n_new
            ks += range(1, n_stages)
            tensor_bits = tensor << (_K_BITS + _TID_BITS)
            for k in range(1, n_stages):
                rank.append(tensor_bits | k << _TID_BITS | (start_id + k - 1))
            next_in_chain += range(start_id + 1, start_id + n_new)
            next_in_chain.append(-1)
            compute_succ += [-1] * n_new
            s2_heap += [None] * n_new
            s2_rank += [0] * n_new
            for t in range(start_id, start_id + n_new - 1):
                s1_heap.append(ready[resources[t + 1]])
                s1_rank.append(rank[t + 1])
            s1_heap.append(None)
            s1_rank.append(0)
            next_in_chain[t0] = start_id
            s1_heap[t0] = ready[resources[start_id]]
            s1_rank[t0] = rank[start_id]
        else:
            next_in_chain[t0] = -1
            s1_heap[t0] = None
            s1_rank[t0] = 0

        cp_times = sim._cp_times
        n_cps = len(cp_times)
        ci = bisect_right(cp_times, sim._end_time[t0]) - 1
        cp_free, cp_ready, cp_events, makespan, seq, cp_events_done = (
            sim._checkpoints[ci]
        )
        free = cp_free.copy()
        ready0, ready1, ready2, ready3 = ready
        ready0[:] = cp_ready[0]
        ready1[:] = cp_ready[1]
        ready2[:] = cp_ready[2]
        ready3[:] = cp_ready[3]
        events = cp_events.copy()
        seq0 = seq
        in_flight0 = len(events)
        ci += 1
        next_cp = cp_times[ci] if ci < n_cps else _INF
        now = makespan
        while events:
            now = events[0][0]
            if next_cp <= now:
                while ci < n_cps and cp_times[ci] < now:
                    ci += 1
                if ci < n_cps and cp_times[ci] == now:
                    bcp = sim._checkpoints[ci]
                    bready = bcp[1]
                    if (
                        free == bcp[0]
                        and len(events) == len(bcp[2])
                        and len(ready0) == len(bready[0])
                        and len(ready1) == len(bready[1])
                        and len(ready2) == len(bready[2])
                        and len(ready3) == len(bready[3])
                    ):
                        if _state_key(events, ready) == _state_key(
                            bcp[2], bready
                        ):
                            if sim.stats is not None:
                                sim.stats.events_replayed += (
                                    in_flight0 + (seq - seq0) - len(events)
                                )
                                sim.stats.events_reused += cp_events_done + (
                                    sim.base_events - bcp[5]
                                )
                                sim.stats.suffix_hits += 1
                            return sim.base_makespan, order, True
                    ci += 1
                next_cp = cp_times[ci] if ci < n_cps else _INF
            while events and events[0][0] == now:
                tid = heappop(events)[1] & tid_mask
                free[resources[tid]] += 1
                h = s1_heap[tid]
                if h is not None:
                    heappush(h, (now, s1_rank[tid]))
                h = s2_heap[tid]
                if h is not None:
                    heappush(h, (now, s2_rank[tid]))
            for r in range(4):
                heap = ready[r]
                fr = free[r]
                while heap and fr:
                    rt, packed = heappop(heap)
                    tid = packed & tid_mask
                    fr -= 1
                    seq += 1
                    order.append((tid, rt))
                    heappush(
                        events, (now + durations[tid], seq << tid_bits | tid)
                    )
                free[r] = fr
        if sim.stats is not None:
            sim.stats.events_replayed += in_flight0 + (seq - seq0)
            sim.stats.events_reused += cp_events_done
        return (now if now > makespan else makespan), order, False
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
        next_in_chain[t0], s1_heap[t0], s1_rank[t0] = saved


def batch_swap_makespans(
    sim: IncrementalSimulator,
    index: int,
    variants: Sequence[FlatChain],
) -> List[float]:
    """Makespans of ``sim`` with chain ``index`` replaced by each variant.

    Bit-identical to ``[sim.swap_chains_flat([(index, r, d)]) for r, d
    in variants]`` — the vectorized pass either reproduces the engine's
    schedule exactly or detects that it cannot (the sortedness check)
    and re-prices that candidate through the scalar replay.
    """
    _validate(sim, index, variants)
    results: List[float] = [0.0] * len(variants)
    t0 = sim._base[index]
    old_len = sim._chain_len[index]
    old_res = sim._resources[t0 : t0 + old_len]
    old_dur = sim._durations[t0 : t0 + old_len]
    stats = sim.stats

    live: List[int] = []
    for c, (vres, vdur) in enumerate(variants):
        if (
            len(vres) == old_len
            and list(vres) == old_res
            and list(vdur) == old_dur
        ):
            results[c] = sim.base_makespan  # identical chain: no-op
        else:
            live.append(c)
    if not live:
        return results

    def scalar(cands: Sequence[int], count_fallback: bool) -> None:
        if count_fallback and stats is not None:
            fallbacks = getattr(stats, "batch_fallbacks", None)
            if fallbacks is not None:
                stats.batch_fallbacks = fallbacks + len(cands)
        for c in cands:
            vres, vdur = variants[c]
            results[c] = sim.swap_chains_flat([(index, vres, vdur)])

    if _np is None or sim._durations[t0] <= 0.0:
        # No numpy, or a zero-duration compute stage (same-instant
        # dispatch rounds precede the divergence becoming visible).
        scalar(live, count_fallback=False)
        return results

    arrays = _sim_arrays(sim)
    start = arrays["start"]
    end = arrays["end"]
    t_cut = sim._end_time[t0]  # divergence: the compute stage's end

    # The trial schedule is bit-identical to the base before t_cut (the
    # replacement stages first become ready at the compute completion),
    # so only base tasks dispatched at or after t_cut are re-derived.
    # The resident chain's own synchronization stages are excluded: the
    # candidate's stages stand in for them.
    proc_mask = start >= t_cut
    proc_mask[t0 : t0 + old_len] = False
    p = _np.nonzero(proc_mask)[0]
    if len(p) and float(arrays["dur"][p].min()) <= 0.0:
        scalar(live, count_fallback=False)  # zero-duration suffix task
        return results

    batch: List[int] = []
    chains: List[Tuple[List[int], List[float]]] = []
    for c in live:
        vres, vdur = variants[c]
        if len(vdur) > 1 and min(vdur[1:]) <= 0.0:
            scalar([c], count_fallback=False)
        else:
            batch.append(c)
            chains.append((list(vres), list(vdur)))
    if not batch:
        return results

    # -- representative replay --------------------------------------------
    # One scalar replay prices the first candidate exactly *and* records
    # the true dispatch order its perturbation induces, which the
    # remaining candidates are walked along.
    rep = batch.pop(0)
    rep_chain = chains.pop(0)
    rep_makespan, rec, _reconverged = _record_replay(
        sim, index, rep_chain[0], rep_chain[1]
    )
    results[rep] = rep_makespan
    if not batch:
        return results

    # Base dispatch order of the suffix — the reconvergence tail of the
    # representative order, and the priority order within one resource
    # for everything the representative left unperturbed.
    base_order = p[
        _np.lexsort((arrays["rank"][p], arrays["ready"][p], start[p]))
    ].tolist()
    p_list: List[int] = []
    p_gate_ready: List[float] = []  # gate readies (representative's view)
    taken = dict.fromkeys(base_order, False)
    for tid, rt in rec:
        # The recording covers scratch tasks and (rarely) pre-divergence
        # tasks between the restore point and t_cut; keep suffix tasks.
        if taken.get(tid) is False:
            taken[tid] = True
            p_list.append(tid)
            p_gate_ready.append(rt)
    if len(p_list) < len(base_order):
        base_ready = arrays["ready"]
        for tid in base_order:
            if not taken[tid]:
                p_list.append(tid)
                p_gate_ready.append(float(base_ready[tid]))

    # -- candidate-independent per-call state -----------------------------
    num_proc = len(p_list)
    p_arr = _np.array(p_list, dtype=_np.int64)
    p_res = arrays["res"][p_arr].tolist()
    p_rank = arrays["rank"][p_arr].tolist()
    p_dur = arrays["dur"][p_arr].tolist()
    p_base_ready = arrays["ready"][p_arr].tolist()
    pos = _np.full(sim._num_tasks, -1, dtype=_np.int64)
    pos[p_arr] = _np.arange(num_proc)
    pred = arrays["pred"][p_arr]
    pred_pos = _np.where(pred >= 0, pos[_np.maximum(pred, 0)], -1).tolist()

    pre = _np.nonzero(start < t_cut)[0]
    prefix_max = float(end[pre].max()) if len(pre) else 0.0

    C = len(batch)
    n_res = 4
    caps = sim._capacity
    violated = _np.zeros(C, dtype=bool)
    run_max = _np.full(C, prefix_max)
    E = _np.empty((num_proc, C))
    AR = _np.arange(C)

    # Per-resource state.  ``avail`` holds each candidate's next free
    # time (a (C, W) worker matrix for W > 1); ``prev`` the last
    # dispatch's (ready, rank) for the sortedness check, with sparse
    # per-candidate overrides after a chain-stage dispatch; ``queue``
    # the upcoming suffix tasks' gate readies for the early-release
    # logic below.
    avail: list = [None] * n_res
    avail_is_view = [False] * n_res
    prev_ready: list = [-_INF] * n_res
    prev_rank: list = [-1] * n_res
    overrides: list = [dict() for _ in range(n_res)]
    sp_ready = [_np.full(C, _INF) for _ in range(n_res)]
    sp_rank = [_np.zeros(C, dtype=_np.int64) for _ in range(n_res)]
    sp_dur = [_np.zeros(C) for _ in range(n_res)]
    sp_min = [_INF] * n_res
    pending_n = [0] * n_res
    queue_ready: List[List[float]] = [[] for _ in range(n_res)]
    queue_pos = [0] * n_res
    for i in range(num_proc):
        queue_ready[p_res[i]].append(p_gate_ready[i])

    res_of_pre = arrays["res"][pre]
    for r in range(n_res):
        rp = pre[res_of_pre == r]
        if caps[r] == 1:
            a0 = float(end[rp].max()) if len(rp) else 0.0
            avail[r] = _np.full(C, a0)
        else:
            workers = [0.0] * caps[r]
            if len(rp):
                rp_order = rp[
                    _np.lexsort(
                        (arrays["rank"][rp], arrays["ready"][rp], start[rp])
                    )
                ]
                for e in end[rp_order].tolist():
                    w = workers.index(min(workers))
                    workers[w] = e
            avail[r] = _np.tile(_np.array(workers), (C, 1))
        if len(rp):
            last = rp[_np.lexsort((arrays["rank"][rp], arrays["ready"][rp]))][-1]
            prev_ready[r] = float(arrays["ready"][last])
            prev_rank[r] = int(arrays["rank"][last])

    # -- per-candidate chain state ----------------------------------------
    tensor_bits = sim._tensors[t0] << (_K_BITS + _TID_BITS)
    cur_stage = [1] * C  # stage 0 is the (shared) compute stage

    def load_stage(c: int, stage_ready: float) -> None:
        """Queue candidate ``c``'s next chain stage as pending work."""
        k = cur_stage[c]
        vres, vdur = chains[c]
        if k >= len(vres):
            return
        r = vres[k]
        sp_ready[r][c] = stage_ready
        sp_rank[r][c] = tensor_bits | k << _TID_BITS
        sp_dur[r][c] = vdur[k]
        pending_n[r] += 1
        if stage_ready < sp_min[r]:
            sp_min[r] = stage_ready

    def dispatch_stage(r: int, c: int) -> None:
        """Dispatch candidate ``c``'s pending stage on resource ``r``
        (scalar path — chain stages are few, suffix tasks are many)."""
        rdy = float(sp_ready[r][c])
        rk = int(sp_rank[r][c])
        d = float(sp_dur[r][c])
        sp_ready[r][c] = _INF
        pending_n[r] -= 1
        sp_min[r] = float(sp_ready[r].min()) if pending_n[r] else _INF
        if caps[r] == 1:
            if avail_is_view[r]:
                avail[r] = avail[r].copy()
                avail_is_view[r] = False
            free_at = float(avail[r][c])
            begin = rdy if rdy > free_at else free_at
            finish = begin + d
            avail[r][c] = finish
        else:
            row = avail[r][c]
            w = int(row.argmin())
            free_at = float(row[w])
            begin = rdy if rdy > free_at else free_at
            finish = begin + d
            row[w] = finish
        last = overrides[r].get(c)
        if last is None:
            pb = prev_ready[r]
            pb = float(pb[c]) if isinstance(pb, _np.ndarray) else pb
            pr = prev_rank[r]
        else:
            pb, pr = last
        if rdy < pb or (rdy == pb and rk < pr):
            violated[c] = True
        overrides[r][c] = (rdy, rk)
        if finish > run_max[c]:
            run_max[c] = finish
        cur_stage[c] += 1
        load_stage(c, finish)

    def release(r: int, gate_ready, gate_rank: int) -> None:
        """Dispatch every pending chain stage on ``r`` whose (ready,
        rank) precedes the gate (vector compare across candidates)."""
        while pending_n[r]:
            spr = sp_ready[r]
            mask = spr < gate_ready
            ties = spr == gate_ready
            if ties.any():
                mask = mask | (ties & (sp_rank[r] < gate_rank))
            hits = _np.nonzero(mask)[0]
            if not len(hits):
                return
            for c in hits.tolist():
                dispatch_stage(r, c)

    for c in range(C):
        load_stage(c, t_cut)

    # -- the batched suffix walk ------------------------------------------
    for i in range(num_proc):
        r = p_res[i]
        rk = p_rank[i]
        d = p_dur[i]
        pp = pred_pos[i]
        rdy = E[pp] if pp >= 0 else p_base_ready[i]
        # Early release: a pending chain stage on *another* resource may
        # precede everything left there (judged by the representative's
        # readies — the sortedness check still guards the outcome).
        # Without this, a chain routed through a resource the base never
        # touches (e.g. CPU compression against an uncompressed base)
        # would stall until the final flush and mis-order its downstream
        # stages.
        for q in range(n_res):
            if pending_n[q] and q != r:
                qr = queue_ready[q]
                qp = queue_pos[q]
                if qp >= len(qr):
                    release(q, _INF, -1)
                elif sp_min[q] < qr[qp]:
                    release(q, qr[qp], -1)
        if pending_n[r]:
            release(r, rdy, rk)
        queue_pos[r] += 1
        # Sortedness check for this dispatch against the previous one.
        pb = prev_ready[r]
        if isinstance(rdy, float) and isinstance(pb, float):
            if rdy < pb or (rdy == pb and rk < prev_rank[r]):
                violated[:] = True
        else:
            lt = rdy < pb
            if rk < prev_rank[r]:
                lt = lt | (rdy == pb)
            violated |= lt
        ovr = overrides[r]
        if ovr:
            for c, (orr, ork) in ovr.items():
                rc = rdy if isinstance(rdy, float) else float(rdy[c])
                if rc < orr or (rc == orr and rk < ork):
                    violated[c] = True
            ovr.clear()
        prev_ready[r] = rdy
        prev_rank[r] = rk
        row = E[i]
        if caps[r] == 1:
            _np.maximum(rdy, avail[r], out=row)
            row += d
            avail[r] = row
            avail_is_view[r] = True
        else:
            workers = avail[r]
            w = workers.argmin(axis=1)
            _np.maximum(rdy, workers[AR, w], out=row)
            row += d
            workers[AR, w] = row

    # Flush chain stages past the last suffix task of their resource (a
    # dispatch can queue the *next* stage on an earlier resource, hence
    # the outer loop).
    while pending_n[0] or pending_n[1] or pending_n[2] or pending_n[3]:
        for r in range(n_res):
            while pending_n[r]:
                for c in _np.nonzero(sp_ready[r] < _INF)[0].tolist():
                    dispatch_stage(r, c)

    if num_proc:
        _np.maximum(run_max, E.max(axis=0), out=run_max)
    fallbacks = []
    priced_scratch = 0
    for j, c in enumerate(batch):
        if violated[j]:
            fallbacks.append(c)
        else:
            results[c] = float(run_max[j])
            priced_scratch += len(chains[j][0]) - 1
    if stats is not None:
        priced = C - len(fallbacks)
        if priced:
            # Same units as the scalar replay counters: one "event" per
            # completed task.  A naive from-scratch run of a trial would
            # process every pre-divergence task too; those are the
            # events the batch walk reuses.
            reused = sim._num_tasks - (old_len - 1) - num_proc
            stats.events_replayed += priced * num_proc + priced_scratch
            stats.events_reused += priced * reused
    scalar(fallbacks, count_fallback=True)
    return results


#: Relative safety margin applied to every lower bound.  The bound's
#: work terms are numpy sums whose rounding order differs from the
#: engine's own ``max``/``+`` fold, so the raw sum can exceed the exact
#: schedule value by a few hundred ULPs (~1e-13 relative).  Shrinking
#: the bound by 1e-9 relative dwarfs that noise while costing
#: essentially no pruning power (real candidate gaps are >= 1e-3
#: relative), keeping "lower bound" true in float arithmetic, not just
#: in real arithmetic.
_LB_MARGIN = 1e-9


def suffix_lower_bounds(
    sim: IncrementalSimulator, index: int, variants: Sequence[FlatChain]
):
    """Sound per-candidate lower bounds on the swapped makespan.

    For each candidate replacement chain of tensor ``index``, computes a
    bound provably <= ``sim.swap_chains_flat([(index, vres, vdur)])`` in
    one numpy pass over the base arrays — no replay, no ordering
    assumptions (zero-duration stages are fine).  Returns ``None`` when
    numpy is unavailable.

    Derivation.  Let ``t_cut`` be the completion of the chain's compute
    stage: the trial schedule is identical to the base *before* t_cut
    (the swap's first differing task only becomes ready at t_cut, and
    the engine processes instants monotonically), so every other task is
    either *pre* (base start < t_cut, times frozen) or *post* (trial
    start >= t_cut).  On a capacity-1 resource all post tasks serialize
    after the last pre task's end ``E_r`` (non-overlap + start order),
    hence ``makespan >= max(t_cut, E_r) + sum(post durations)``; on a
    W-worker resource the window argument gives ``makespan >= t_cut +
    sum(post durations)/W``.  Post work counts the base's post tasks
    minus the replaced old tail plus the candidate's stages; the
    candidate chain itself also bounds via its serial dependency from
    t_cut.  ``makespan >= max(pre ends)`` always.  All inputs are exact
    engine floats; only the duration sums introduce rounding, which
    :data:`_LB_MARGIN` absorbs.

    (A strictly stronger release-date relaxation — per-task earliest
    -ready bounds via frozen ancestors, maximized over thresholds — was
    prototyped and measured: on this engine's schedules the extra
    tightness never exceeded the contention bubbles it cannot model, so
    it pruned nothing the work bound missed while costing ~15x more per
    call.  The cheap bound is the right trade.)
    """
    if _np is None:
        return None
    arrays = _sim_arrays(sim)
    t0 = sim._base[index]
    old_len = sim._chain_len[index]
    t_cut = sim._end_time[t0]
    start = arrays["start"]
    end = arrays["end"]
    dur = arrays["dur"]
    res = arrays["res"]
    caps = sim._capacity
    n_res = len(caps)

    pre = start < t_cut
    post = ~pre
    post_work = _np.bincount(res[post], weights=dur[post], minlength=n_res)
    for t in range(t0 + 1, t0 + old_len):  # replaced old tail
        post_work[sim._resources[t]] -= sim._durations[t]
    prefix_max = float(end[pre].max()) if pre.any() else 0.0
    if prefix_max < t_cut:
        prefix_max = t_cut
    # R[r]: earliest instant resource r can run post work.
    R = [t_cut] * n_res
    for r in range(n_res):
        if caps[r] == 1:
            mask = pre & (res == r)
            if mask.any():
                e = float(end[mask].max())
                if e > t_cut:
                    R[r] = e

    base_post = post_work.tolist()
    bounds = []
    for vres, vdur in variants:
        lb = prefix_max
        cand_work = [0.0] * n_res
        tail = 0.0
        for r, d in zip(vres[1:], vdur[1:]):
            cand_work[r] += d
            tail += d
        for r in range(n_res):
            work = base_post[r] + cand_work[r]
            if work > 0.0:
                if caps[r] == 1:
                    b = R[r] + work
                else:
                    b = t_cut + work / caps[r]
                if b > lb:
                    lb = b
        if tail > 0.0:
            r1 = vres[1]
            b = (R[r1] if caps[r1] == 1 else t_cut) + tail
            if b > lb:
                lb = b
        bounds.append(lb - lb * _LB_MARGIN)
    return bounds
