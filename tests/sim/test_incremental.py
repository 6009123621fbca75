"""Exactness of the incremental delta-simulator (DESIGN.md §5.2).

The fast evaluation layer is only admissible because a chain swap priced
by :class:`~repro.sim.incremental.IncrementalSimulator` is *bit-identical*
to re-simulating the whole job from scratch.  The property tests here
drive randomly generated stage chains — durations include zeros so that
several scheduling batches land on one instant, the regime where the
checkpoint/restore machinery is easiest to get wrong — through random
single and multi swaps and compare against the reference engine.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import simulate, simulate_makespan
from repro.sim.incremental import IncrementalSimulator
from repro.sim.stages import (
    COMM,
    CPU,
    GPU,
    INTER,
    INTRA,
    Stage,
    TensorChain,
    compute_stage,
)

# Zero durations are deliberate: they force several completion batches at
# the same instant, and ties between chains, which is where checkpoint
# placement and the reconvergence early-exit have historically broken.
DURATIONS = (0.0, 1.0, 1.5, 2.0, 3.0)
SYNC_RESOURCES = (GPU, CPU, INTRA, INTER)


def _sync_stage(resource: str, duration: float) -> Stage:
    return Stage(resource=resource, duration=duration, kind=COMM)


sync_stage_st = st.builds(
    _sync_stage,
    st.sampled_from(SYNC_RESOURCES),
    st.sampled_from(DURATIONS),
)

chain_tail_st = st.lists(sync_stage_st, min_size=0, max_size=5)


def _draw_chains(draw, min_chains, max_chains):
    num_chains = draw(st.integers(min_value=min_chains, max_value=max_chains))
    chains = []
    for i in range(num_chains):
        head = compute_stage(draw(st.sampled_from(DURATIONS[1:])))
        chains.append(TensorChain(i, [head] + draw(chain_tail_st)))
    return chains


def _draw_replacements(draw, chains, max_swapped=5):
    num_chains = len(chains)
    swap_indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_chains - 1),
            min_size=1,
            max_size=min(num_chains, max_swapped),
            unique=True,
        )
    )
    replacements = []
    for index in swap_indices:
        old = list(chains[index].stages)
        # Half the replacements keep a random prefix of the old chain
        # (exercising the shared-prefix reuse path, including pure
        # truncations and no-op swaps); the rest are fully fresh tails.
        keep = draw(st.integers(min_value=1, max_value=len(old)))
        tail = draw(chain_tail_st)
        replacements.append((index, old[:keep] + tail))
    return replacements


@st.composite
def jobs(draw):
    """A base chain set plus replacement chains for a subset of them."""
    chains = _draw_chains(draw, 1, 5)
    replacements = _draw_replacements(draw, chains)
    cpu_capacity = draw(st.sampled_from((1, 2, 4)))
    stride = draw(st.sampled_from((1, 2, 7, None)))
    return chains, replacements, cpu_capacity, stride


def swap_sequences(min_chains, max_chains, max_swaps):
    """A base chain set plus a sequence of replacement sets, all priced
    on one simulator so its suffix memo accumulates across swaps."""

    @st.composite
    def build(draw):
        chains = _draw_chains(draw, min_chains, max_chains)
        swaps = [
            _draw_replacements(draw, chains)
            for _ in range(draw(st.integers(min_value=1, max_value=max_swaps)))
        ]
        cpu_capacity = draw(st.sampled_from((1, 2, 4)))
        return chains, swaps, cpu_capacity

    return build()


def _swapped(chains, replacements):
    out = list(chains)
    for index, stages in replacements:
        out[index] = TensorChain(chains[index].tensor_index, stages)
    return out


@settings(max_examples=300, deadline=None)
@given(jobs())
def test_swaps_match_full_simulation(job):
    """Incremental F(S) == full F(S), exactly, for arbitrary swaps."""
    chains, replacements, cpu_capacity, stride = job
    sim = IncrementalSimulator(
        chains, cpu_capacity=cpu_capacity, checkpoint_stride=stride
    )
    assert sim.base_makespan == simulate_makespan(
        chains, cpu_capacity=cpu_capacity
    )

    expected = simulate_makespan(
        _swapped(chains, replacements), cpu_capacity=cpu_capacity
    )
    assert sim.swap_chains(replacements) == expected

    # The resident base must be restored bit-exactly after every swap:
    # single swaps of each replacement, priced on the same simulator,
    # must still agree with from-scratch simulations.
    for index, stages in replacements:
        expected = simulate_makespan(
            _swapped(chains, [(index, stages)]), cpu_capacity=cpu_capacity
        )
        assert sim.swap_chain(index, stages) == expected


@settings(max_examples=100, deadline=None)
@given(jobs(), jobs())
def test_repeated_swaps_do_not_corrupt_the_base(job_a, job_b):
    """Back-to-back swap batches reuse one simulator without drift."""
    chains, replacements, cpu_capacity, stride = job_a
    _, other, _, _ = job_b
    # Swaps must preserve the leading compute stage, so graft job_a's.
    other = [
        (i, [chains[i].stages[0]] + list(stages[1:]))
        for i, stages in other
        if i < len(chains)
    ]
    sim = IncrementalSimulator(
        chains, cpu_capacity=cpu_capacity, checkpoint_stride=stride
    )
    for batch in (replacements, other, replacements):
        if not batch:
            continue
        expected = simulate_makespan(
            _swapped(chains, batch), cpu_capacity=cpu_capacity
        )
        assert sim.swap_chains(batch) == expected


def _swapped_stages(chains, replacements):
    """Tensor -> first swapped stage index (the last stage shared with
    the resident chain, whose successor changes), for every replacement
    that is not a no-op — the simulator's own shared-prefix rule."""
    swapped = {}
    for index, stages in replacements:
        old = chains[index].stages
        m = 1
        while (
            m < min(len(old), len(stages))
            and old[m].resource == stages[m].resource
            and old[m].duration == stages[m].duration
        ):
            m += 1
        if not m == len(old) == len(stages):
            swapped[chains[index].tensor_index] = m - 1
    return swapped


def _check_memo_sequence(chains, swaps, cpu_capacity):
    """Price every replacement set twice on one simulator and check the
    suffix memo's contract: exact answers, a hit on the repeat whenever
    the first replay ran past its swapped stages, and exact event
    accounting (replayed + reused == the trial's task count)."""
    stats = SimpleNamespace(
        events_full=0, events_replayed=0, events_reused=0, suffix_hits=0
    )
    sim = IncrementalSimulator(chains, cpu_capacity=cpu_capacity, stats=stats)
    for replacements in swaps:
        trial = _swapped(chains, replacements)
        expected = simulate_makespan(trial, cpu_capacity=cpu_capacity)
        swapped = _swapped_stages(chains, replacements)
        num_tasks = sum(len(c.stages) for c in trial) if swapped else 0
        passes_swapped = False
        if swapped:
            stages = simulate(trial, cpu_capacity=cpu_capacity).stages
            last = max(
                s.end
                for s in stages
                if s.tensor_index in swapped
                and s.stage_index >= swapped[s.tensor_index]
            )
            passes_swapped = any(s.end > last for s in stages)
        for attempt in range(2):
            hits = stats.suffix_hits
            events = stats.events_replayed + stats.events_reused
            assert sim.swap_chains(replacements) == expected
            assert stats.events_replayed + stats.events_reused - events == (
                num_tasks
            )
            if attempt == 1 and passes_swapped:
                assert stats.suffix_hits == hits + 1
    assert stats.events_full == sim.base_events


@settings(max_examples=300, deadline=None)
@given(swap_sequences(1, 5, 6))
def test_suffix_memo_across_swap_sequences(job):
    """The memo answers exactly, accumulates across swaps on one base,
    and keeps the event accounting exact."""
    _check_memo_sequence(*job)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(swap_sequences(20, 40, 8))
def test_suffix_memo_across_swap_sequences_large(job):
    """Larger jobs: replays run for many events past their swapped
    stages, so recording skips batches between memo states."""
    _check_memo_sequence(*job)


def test_mid_instant_checkpoint_regression():
    """Checkpoints must snapshot before the *first* batch of an instant.

    Zero-duration stages create several completion batches at one
    instant; a snapshot taken between them captures successors already
    dispatched with the *base* chain layout, so a replay restoring there
    skipped the swap entirely and returned the base makespan (12.5
    instead of 8.5 on this chain set, found by fuzzing with stride=2).
    """
    chains = [
        TensorChain(0, [compute_stage(3.0), _sync_stage(INTER, 0.0)]),
        TensorChain(
            1,
            [
                compute_stage(1.5),
                _sync_stage(INTRA, 2.0),
                _sync_stage(INTRA, 0.0),
                _sync_stage(CPU, 3.0),
                _sync_stage(CPU, 2.0),
                _sync_stage(INTER, 1.0),
            ],
        ),
        TensorChain(2, [compute_stage(2.0), _sync_stage(INTER, 1.0)]),
        TensorChain(3, [compute_stage(2.0)]),
    ]
    replacement = [compute_stage(1.5), _sync_stage(INTRA, 2.0)]
    sim = IncrementalSimulator(chains, cpu_capacity=4, checkpoint_stride=2)
    expected = simulate_makespan(
        _swapped(chains, [(1, replacement)]), cpu_capacity=4
    )
    assert expected == 8.5
    assert sim.swap_chain(1, replacement) == 8.5
    assert sim.base_makespan == 12.5


def test_noop_swap_returns_base_makespan():
    chains = [
        TensorChain(0, [compute_stage(1.0), _sync_stage(INTER, 2.0)]),
        TensorChain(1, [compute_stage(2.0), _sync_stage(CPU, 1.5)]),
    ]
    sim = IncrementalSimulator(chains)
    assert sim.swap_chain(0, list(chains[0].stages)) == sim.base_makespan
    assert (
        sim.swap_chains([(i, list(c.stages)) for i, c in enumerate(chains)])
        == sim.base_makespan
    )


def test_swap_validation_errors():
    chains = [TensorChain(0, [compute_stage(1.0), _sync_stage(INTER, 2.0)])]
    sim = IncrementalSimulator(chains)
    with pytest.raises(ValueError, match="out of range"):
        sim.swap_chain(1, [compute_stage(1.0)])
    with pytest.raises(ValueError, match="duplicate"):
        sim.swap_chains(
            [(0, [compute_stage(1.0)]), (0, [compute_stage(1.0)])]
        )
    with pytest.raises(ValueError, match="at least one stage"):
        sim.swap_chain(0, [])
    # The leading compute stage is pinned: a swap may only change the
    # synchronization tail (the planner never changes backprop).
    with pytest.raises(ValueError):
        sim.swap_chain(0, [compute_stage(9.0)])
