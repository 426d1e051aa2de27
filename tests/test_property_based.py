"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.quantizer import dequantize_uniform, quantize_tensor_uniform
from repro.hwsim.cache import BeladyCache, LFUCache, LRUCache
from repro.sparsity.base import keep_count, topk_fraction_mask, topk_mask
from repro.sparsity.cache_aware import CacheAwareDIP, cache_aware_scores, cache_aware_step
from repro.sparsity.density import allocate_dip_densities
from repro.utils.pareto import pareto_front_indices

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small_integers = st.integers(min_value=-3, max_value=3).map(float)
any_shape = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=30)


class TestTopKProperties:
    @given(
        values=hnp.arrays(np.float64, any_shape, elements=finite_floats),
        k=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_count_and_threshold_property(self, values, k):
        mask = topk_mask(values, k)
        assert mask.shape == values.shape
        expected = min(max(k, 0), values.shape[-1])
        assert np.all(mask.sum(axis=-1) == expected)
        # Every kept value must be >= every dropped value (per row).
        for row_values, row_mask in zip(np.atleast_2d(values), np.atleast_2d(mask)):
            if 0 < expected < values.shape[-1]:
                assert row_values[row_mask].min() >= row_values[~row_mask].max() - 1e-12

    @given(
        values=hnp.arrays(np.float64, any_shape, elements=small_integers),
        k=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_ties_keep_the_lowest_indices(self, values, k):
        """Small-integer rows tie often: the mask equals a stable-sort top k."""
        expected = np.zeros(values.shape, dtype=bool)
        order = np.argsort(-values, axis=-1, kind="stable")[..., :k]
        np.put_along_axis(expected, order, True, axis=-1)
        assert np.array_equal(topk_mask(values, k), expected)

    @given(
        values=hnp.arrays(np.float64, any_shape, elements=st.one_of(st.just(np.nan), small_integers)),
        k=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_nan_ranks_above_every_number(self, values, k):
        """Rows holding NaN keep exactly k entries: NaNs first, then the
        largest numbers, lower index first among equals."""
        mask = topk_mask(values, k)
        n = values.shape[-1]
        assert np.all(mask.sum(axis=-1) == min(k, n))
        for row_values, row_mask in zip(np.atleast_2d(values), np.atleast_2d(mask)):
            nan = np.isnan(row_values)
            order = np.lexsort((np.arange(n), -np.where(nan, 0.0, row_values), ~nan))
            assert np.array_equal(np.flatnonzero(row_mask), np.sort(order[:k]))

    @given(
        values=hnp.arrays(np.float64, st.sampled_from([(17,), (5, 17)]), elements=finite_floats),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_fraction_mask_bounds(self, values, fraction):
        mask = topk_fraction_mask(values, fraction)
        count = mask.sum(axis=-1)
        assert np.all(count == int(round(fraction * 17)))


@st.composite
def access_streams(draw):
    """``(capacity, activity)``: up to 16 units, any capacity, many score ties."""
    n_units = draw(st.integers(min_value=1, max_value=16))
    capacity = draw(st.integers(min_value=0, max_value=n_units))
    n_tokens = draw(st.integers(min_value=1, max_value=24))
    activity = draw(hnp.arrays(np.bool_, (n_tokens, n_units), elements=st.booleans()))
    return capacity, activity


def reference_resident(resident, active, scores, capacity):
    """The documented eviction rule, written with a stable sort.

    Insert the active units; while over capacity evict units not active on
    this token, lowest score first and lower index first among equal scores.
    Only when the active units alone exceed capacity do the lowest-scoring
    of them go as well.
    """
    if capacity == 0:
        return np.zeros_like(resident)
    resident = resident | active
    overflow = int(resident.sum()) - capacity
    if overflow <= 0:
        return resident
    inactive = np.flatnonzero(resident & ~active)
    if inactive.size >= overflow:
        victims = inactive[np.argsort(scores[inactive], kind="stable")[:overflow]]
    else:
        in_use = np.flatnonzero(active)
        order = np.argsort(scores[in_use], kind="stable")
        victims = np.concatenate([inactive, in_use[order[: overflow - inactive.size]]])
    resident[victims] = False
    return resident


def next_use_after(activity, t):
    """Per unit, the first token after ``t`` that accesses it (``len + 1`` if none)."""
    n_tokens, n_units = activity.shape
    later = range(t + 1, n_tokens)
    return np.array([next((s for s in later if activity[s, u]), n_tokens + 1) for u in range(n_units)])


class TestCacheProperties:
    @given(
        capacity=st.integers(min_value=0, max_value=16),
        seed=st.integers(min_value=0, max_value=1000),
        density=st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, capacity, seed, density):
        rng = np.random.default_rng(seed)
        for cache_cls in (LRUCache, LFUCache):
            cache = cache_cls(16, capacity)
            total_hits = total_misses = 0
            for _ in range(20):
                active = rng.random(16) < density
                hits, misses = cache.process_token(active)
                total_hits += hits
                total_misses += misses
                assert cache.occupancy() <= max(capacity, 0)
                assert hits + misses == int(active.sum())
            # Hits can never exceed total requests.
            assert total_hits + total_misses >= total_hits

    @given(stream=access_streams())
    @settings(max_examples=150, deadline=None)
    def test_eviction_follows_documented_rule(self, stream):
        capacity, activity = stream
        n_units = activity.shape[1]
        for cache in (LRUCache(n_units, capacity), LFUCache(n_units, capacity), BeladyCache(n_units, capacity)):
            if isinstance(cache, BeladyCache):
                cache.set_future(activity)
            resident = np.zeros(n_units, dtype=bool)
            last_used = np.full(n_units, -1)
            frequency = np.zeros(n_units, dtype=int)
            for t, active in enumerate(activity):
                last_used[active] = t
                frequency[active] += 1
                if cache.name == "lru":
                    scores = last_used
                elif cache.name == "lfu":
                    scores = frequency
                else:
                    scores = -next_use_after(activity, t)
                expected = (int(np.sum(active & resident)), int(np.sum(active & ~resident)))
                resident = reference_resident(resident, active, scores, capacity)
                assert cache.process_token(active) == expected
                assert np.array_equal(cache.cached_mask(), resident)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_full_capacity_cache_eventually_always_hits(self, seed):
        rng = np.random.default_rng(seed)
        cache = LFUCache(12, 12)
        active = rng.random(12) > 0.5
        cache.process_token(active)
        hits, misses = cache.process_token(active)
        assert misses == 0


@st.composite
def ca_streams(draw):
    """``(n, capacity, keep_fraction, gamma, call sizes, seed)`` of one DIP-CA weight group.

    Small groups plus the two sizes of the phi3-medium sim model's groups;
    calls of one row and of several rows.
    """
    n = draw(st.one_of(st.integers(min_value=1, max_value=40), st.sampled_from([96, 384])))
    capacity = draw(st.integers(min_value=0, max_value=n))
    fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    gamma = draw(st.sampled_from([0.2, 1.0]))
    calls = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6))
    return n, capacity, fraction, gamma, calls, draw(st.integers(min_value=0, max_value=2**32 - 1))


def compiled_group(n, capacity, gamma):
    """A CacheAwareDIP whose layer-0 input group is a fresh ``LFUCache(n, capacity)``."""
    method = CacheAwareDIP(gamma=gamma)
    cache = method._caches[(0, "input")] = LFUCache(n, capacity)
    return method, cache


class TestCompiledCAStepProperties:
    """The compiled DIP-CA step against the numpy loop of ``cache_aware_step``."""

    @given(stream=ca_streams(), levels=st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_loop_on_tie_free_scores(self, compiled_kernels, stream, levels):
        """Normal rows, or (``levels``) small-integer rows full of ties: both
        paths keep the lower index among scores tied at the k-th place."""
        n, capacity, fraction, gamma, calls, seed = stream
        rng = np.random.default_rng(seed)
        method, compiled = compiled_group(n, capacity, gamma)
        looped = LFUCache(n, capacity)
        hits = misses = 0
        for size in calls:
            if levels is None:
                rows = rng.normal(size=(size, n))
            else:
                rows = rng.integers(-levels, levels + 1, size=(size, n)).astype(np.float64)
            mask = method._serve(0, "input", n, rows, fraction)
            expected = []
            for row in np.abs(rows):
                row_mask, row_hits, row_misses = cache_aware_step(looped, row, fraction, gamma)
                expected.append(row_mask)
                hits, misses = hits + row_hits, misses + row_misses
            assert np.array_equal(mask, np.array(expected))
            assert np.array_equal(compiled.cached, looped.cached)
            assert np.array_equal(compiled.frequency, looped.frequency)
            assert compiled.token_index == looped.token_index
            assert (method.stats.hits, method.stats.misses) == (hits, misses)

    @given(stream=ca_streams(), levels=st.integers(min_value=0, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_ties_go_to_the_lower_index(self, compiled_kernels, stream, levels):
        """Small-integer rows tie often (at gamma 0.2 an uncached 5 ties a cached
        1 only if Eq. 10 rounds as numpy does): the kernel keeps exactly k
        units, none scoring below a dropped one, lower index first among equal
        scores, and the cache follows the documented eviction rule."""
        n, capacity, fraction, gamma, calls, seed = stream
        rng = np.random.default_rng(seed)
        method, cache = compiled_group(n, capacity, gamma)
        k = keep_count(fraction, n)
        resident = np.zeros(n, dtype=bool)
        frequency = np.zeros(n, dtype=np.int64)
        for size in calls:
            rows = rng.integers(-levels, levels + 1, size=(size, n)).astype(np.float64)
            masks = method._serve(0, "input", n, rows, fraction)
            for row, mask in zip(np.abs(rows), masks):
                scores = cache_aware_scores(row, resident, gamma) if gamma < 1.0 else row
                expected = np.zeros(n, dtype=bool)
                expected[np.argsort(-scores, kind="stable")[:k]] = True
                assert np.array_equal(mask, expected)
                frequency += mask
                resident = reference_resident(resident, mask, frequency, capacity)
            assert np.array_equal(cache.cached, resident)
            assert np.array_equal(cache.frequency, frequency)


class TestCacheAwareScoreProperties:
    @given(
        magnitudes=hnp.arrays(np.float64, (7,), elements=st.floats(min_value=0.0, max_value=1e4)),
        gamma=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_scores_bounded_and_monotone_in_cache(self, magnitudes, gamma, seed):
        rng = np.random.default_rng(seed)
        cached = (rng.random(7) > 0.5).astype(float)
        scores = cache_aware_scores(magnitudes, cached, gamma)
        assert np.all(scores >= 0)
        assert np.all(scores <= 1.0 + 1e-9)
        # Marking a column as cached can only increase its score.
        boosted = cache_aware_scores(magnitudes, np.ones(7), gamma)
        assert np.all(boosted >= scores - 1e-12)


class TestAllocationProperties:
    @given(target=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_allocation_always_hits_target(self, target):
        allocation = allocate_dip_densities(target)
        assert 0 < allocation.input_density <= 1
        assert 0 < allocation.down_density <= 1
        assert abs(allocation.mlp_density - target) < 5e-3


class TestParetoProperties:
    @given(
        cost=hnp.arrays(np.float64, (12,), elements=st.floats(min_value=0, max_value=100)),
        objective=hnp.arrays(np.float64, (12,), elements=st.floats(min_value=0, max_value=100)),
    )
    @settings(max_examples=50, deadline=None)
    def test_front_members_are_not_dominated(self, cost, objective):
        idx = pareto_front_indices(cost, objective)
        assert len(idx) >= 1
        for i in idx:
            dominated = np.any((cost < cost[i]) & (objective < objective[i]))
            assert not dominated


class TestQuantizerProperties:
    @given(
        values=hnp.arrays(np.float64, (24,), elements=st.floats(min_value=-100, max_value=100)),
        bits=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_dequantized_within_half_step(self, values, bits):
        codes, scale, zero = quantize_tensor_uniform(values, bits)
        recovered = dequantize_uniform(codes, scale, zero)
        assert recovered.shape == values.shape
        assert np.max(np.abs(recovered - values)) <= scale / 2 + 1e-9
        assert codes.min() >= 0 and codes.max() <= 2**bits - 1
