"""Equivalence of the fast evaluation layer (DESIGN.md §5.2).

The memo cache and incremental delta-simulation must be invisible to the
planner: every F(S) answered by the fast layer equals the from-scratch
answer bit-for-bit, and ``Espresso.select_strategy()`` makes identical
decisions with the layer on or off.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import nvlink_100g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import Espresso
from repro.core.algorithm import device_candidate_options
from repro.core.options import canonical_key, no_compression_option
from repro.core.strategy import CompressionStrategy, StrategyEvaluator
from repro.models import get_model, synthetic_model
from repro.utils.units import MB, MS


def _job() -> JobConfig:
    model = synthetic_model(
        "fast-eval",
        [
            (int(1 * MB / 4), 3 * MS),
            (int(8 * MB / 4), 6 * MS),
            (int(2 * MB / 4), 4 * MS),
            (int(32 * MB / 4), 8 * MS),
            (int(8 * MB / 4), 6 * MS),
            (int(64 * MB / 4), 10 * MS),
            (int(2 * MB / 4), 4 * MS),
            (int(128 * MB / 4), 12 * MS),
        ],
        forward_time=15 * MS,
    )
    return JobConfig(
        model=model,
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(
            cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=4)
        ),
    )


JOB = _job()
OPTIONS = device_candidate_options()
N = JOB.model.num_tensors

# Long-lived evaluators on purpose: the fast one accumulates a memo
# cache and rebases its resident simulation across examples, which is
# exactly the state the equivalence claim must survive.
FAST = StrategyEvaluator(JOB, fast=True)
SLOW = StrategyEvaluator(JOB, fast=False)

option_st = st.sampled_from(OPTIONS)
strategy_st = st.lists(option_st, min_size=N, max_size=N).map(
    lambda options: CompressionStrategy(options=tuple(options))
)


@settings(max_examples=60, deadline=None)
@given(strategy_st, st.integers(min_value=0, max_value=N - 1), option_st)
def test_incremental_fs_equals_full_fs(base, index, option):
    """F(S) and the delta form agree with from-scratch simulation."""
    assert FAST.iteration_time(base) == SLOW.iteration_time(base)
    assert FAST.iteration_time_delta(base, index, option) == (
        SLOW.iteration_time_delta(base, index, option)
    )


@settings(max_examples=20, deadline=None)
@given(strategy_st)
def test_fast_timeline_equals_engine_timeline(strategy):
    """timeline() rebuilt from the resident base matches the engine's
    record-collecting simulation field for field (exact floats)."""
    assert FAST.timeline(strategy) == SLOW.timeline(strategy)


@settings(max_examples=30, deadline=None)
@given(
    strategy_st,
    st.dictionaries(
        st.integers(min_value=0, max_value=N - 1), option_st, min_size=1
    ),
)
def test_incremental_multi_fs_equals_full_fs(base, replacement_map):
    """The multi-tensor delta form (Algorithm 2's shape) agrees too."""
    replacements = sorted(replacement_map.items())
    assert FAST.iteration_time_multi(base, replacements) == (
        SLOW.iteration_time_multi(base, replacements)
    )


def test_espresso_identical_with_fast_eval_on_and_off():
    """select_strategy() is bit-identical with the memo cache on or off."""
    for name in ("lstm", "vgg16"):
        job = JobConfig(
            model=get_model(name),
            gc=GCInfo("dgc", {"ratio": 0.01}),
            system=SystemInfo(
                cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=4)
            ),
        )
        fast = Espresso(job, fast_eval=True).select_strategy()
        slow = Espresso(job, fast_eval=False).select_strategy()
        assert fast.iteration_time == slow.iteration_time
        assert fast.baseline_iteration_time == slow.baseline_iteration_time
        assert fast.strategy.options == slow.strategy.options


def test_canonical_keys_identify_option_values():
    """Equal option values share a key; distinct values never collide.

    Regression guard for the ``id(option)``-keyed caches the canonical
    keys replaced: a garbage-collected trial option's recycled ``id()``
    could alias a stale cache entry, and value-equal duplicates (two
    ``no_compression_option()`` calls) missed each other's entries.
    """
    a = no_compression_option()
    b = no_compression_option()
    assert a is not b
    assert canonical_key(a) == canonical_key(b)
    keys = {canonical_key(option) for option in OPTIONS}
    assert len(keys) == len(set(OPTIONS))
    # Fingerprints are tuples of canonical keys, so strategies built
    # from equal values at different times hit the same memo entry.
    first = CompressionStrategy(options=(a,) * N)
    second = CompressionStrategy(options=(no_compression_option(),) * N)
    assert first.fingerprint() == second.fingerprint()
    evaluator = StrategyEvaluator(JOB, fast=True)
    time_first = evaluator.iteration_time(first)
    hits_before = evaluator.stats.cache_hits
    assert evaluator.iteration_time(second) == time_first
    assert evaluator.stats.cache_hits == hits_before + 1


def test_stats_instrumentation_counts():
    """The planner reports its fast-layer counters on the result."""
    job = JobConfig(
        model=get_model("lstm"),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(
            cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=4)
        ),
    )
    result = Espresso(job, fast_eval=True).select_strategy()
    stats = result.stats
    assert stats.fs_calls > 0
    assert stats.incremental_sims > 0
    assert stats.cache_hits > 0
    assert 0.0 <= stats.cache_hit_rate <= 1.0
    assert 0.0 <= stats.prefix_reuse_fraction <= 1.0
    assert stats.events_reused > 0
    # The breakdown covers the whole selection wall-clock.
    assert result.selection_seconds >= (
        result.gpu_selection_seconds
        + result.offload_selection_seconds
        + result.refinement_seconds
    ) * 0.999

    slow = Espresso(job, fast_eval=False).select_strategy()
    assert slow.stats.incremental_sims == 0
    assert slow.stats.cache_hits == 0
    assert slow.stats.full_sims > 0


def test_repricing_identical_chains_needs_no_simulation():
    """Regression: the answered-without-simulation rate has a floor when
    identical chains are re-priced.

    BENCH_planner.json once reported cache_hit_rate ~0.001 on deep
    homogeneous models — not because reuse was absent, but because the
    metric counted only memo hits while dedup and sound lower-bound
    prunes (the mechanisms that replaced those memo lookups in the
    batch pricing layer) answered 20-40% of requests simulation-free.
    Re-pricing the exact same (base, index, options) request must not
    simulate anything, and the combined rate must clear a real floor.
    """
    evaluator = StrategyEvaluator(JOB, fast=True)
    base = evaluator.baseline()
    index = N - 1
    first = evaluator.price_options(base, index, list(OPTIONS))
    sims = evaluator.stats.full_sims + evaluator.stats.incremental_sims
    hits = evaluator.stats.cache_hits
    second = evaluator.price_options(base, index, list(OPTIONS))
    assert second == first
    # Zero new simulations: every candidate came from the memo.
    assert evaluator.stats.full_sims + evaluator.stats.incremental_sims == sims
    assert evaluator.stats.cache_hits == hits + len(OPTIONS)
    # The honest combined rate clears a floor a memo-only metric missed.
    assert evaluator.stats.cache_hit_rate >= 0.3, evaluator.stats
    assert evaluator.stats.memo_hit_rate > 0.0
    assert evaluator.stats.cache_hit_rate >= evaluator.stats.memo_hit_rate


#: Swap-replay completion events of the gpt2 gate job below before the
#: incremental simulator's suffix memo existed (deterministic count).
GPT2_REPLAYED_WITHOUT_MEMO = 264_273


def test_suffix_memo_cuts_replayed_events_on_gpt2():
    """Deterministic work gate for the suffix memo (DESIGN.md §5.2).

    The memo changes how replays end, never what they return: the plan
    stays pinned to the exact iteration time it had without the memo,
    while the replayed events fall to at most 60% of that count.
    """
    job = JobConfig(
        model=get_model("gpt2"),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(
            cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=4)
        ),
    )
    result = Espresso(job).select_strategy()
    stats = result.stats
    assert result.iteration_time == 0.10442215770787006
    assert stats.suffix_hits > 0
    assert stats.events_replayed <= 0.6 * GPT2_REPLAYED_WITHOUT_MEMO, stats
