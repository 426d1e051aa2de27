"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.quantizer import dequantize_uniform, quantize_tensor_uniform
from repro.hwsim.cache import LFUCache, LRUCache
from repro.sparsity.base import topk_fraction_mask, topk_mask
from repro.sparsity.cache_aware import cache_aware_scores
from repro.sparsity.density import allocate_dip_densities
from repro.utils.pareto import pareto_front_indices

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestTopKProperties:
    @given(
        values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30), elements=finite_floats),
        k=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_count_and_threshold_property(self, values, k):
        mask = topk_mask(values, k)
        expected = min(max(k, 0), values.shape[-1])
        assert np.all(mask.sum(axis=-1) == expected)
        # Every kept value must be >= every dropped value (per row).
        for row_values, row_mask in zip(values, mask):
            if 0 < expected < values.shape[-1]:
                assert row_values[row_mask].min() >= row_values[~row_mask].max() - 1e-12

    @given(
        values=hnp.arrays(np.float64, (5, 17), elements=finite_floats),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_fraction_mask_bounds(self, values, fraction):
        mask = topk_fraction_mask(values, fraction)
        count = mask.sum(axis=-1)
        assert np.all(count == int(round(fraction * 17)))


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

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_full_capacity_cache_eventually_always_hits(self, seed):
        rng = np.random.default_rng(seed)
        cache = LFUCache(12, 12)
        active = rng.random(12) > 0.5
        cache.process_token(active)
        hits, misses = cache.process_token(active)
        assert misses == 0


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
