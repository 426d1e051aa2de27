"""Cache-aware masking (paper Section 5.2, Eq. 10, Algorithm 1).

DIP-CA re-weights the activation scores before top-k selection so that
weights already resident in the DRAM cache are preferred::

    s(t) = x(t) * (c(t-1) + gamma * (1 - c(t-1))) / ||x(t)||_inf

``c`` is the binary cached-mask of the corresponding weight columns and
``gamma`` in (0, 1] penalises non-cached columns.  With ``gamma = 1`` the
method reduces to plain DIP.  The key observation (Fig. 10 left) is that most
activations live within one order of magnitude of each other, so re-ordering
that middle band costs little accuracy while greatly increasing cache hits.

For *accuracy* evaluation the cache is modelled per layer with an LFU
eviction policy and a configurable capacity fraction; the full byte-accurate
DRAM cache lives in :mod:`repro.hwsim` and is used for throughput numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.mlp import SwiGLUMLP
from repro.sparsity.base import MLPMasks, topk_fraction_mask
from repro.sparsity.density import DIPDensityAllocation
from repro.sparsity.dip import DynamicInputPruning


def cache_aware_scores(magnitudes: np.ndarray, cached_mask: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the Eq. 10 re-weighting to activation magnitudes.

    ``magnitudes`` has shape ``(..., n)``; ``cached_mask`` is broadcastable to
    it and holds 1 for cached columns.  The infinity-norm normalisation makes
    the scores insensitive to the token-to-token dynamic range.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    magnitudes = np.abs(np.asarray(magnitudes, dtype=np.float64))
    cached = np.asarray(cached_mask, dtype=np.float64)
    norm = magnitudes.max(axis=-1, keepdims=True)
    norm = np.where(norm > 0, norm, 1.0)
    weights = cached + gamma * (1.0 - cached)
    return magnitudes * weights / norm


class LayerCacheState:
    """A lightweight LFU cache over the column-units of one weight group.

    Used on the accuracy-evaluation path of DIP-CA: it tracks which units are
    resident so Eq. 10 can be applied, without modelling bytes or latency
    (the HW simulator does that separately).
    """

    def __init__(self, n_units: int, capacity: int):
        if n_units <= 0:
            raise ValueError("n_units must be positive")
        self.n_units = int(n_units)
        self.capacity = int(np.clip(capacity, 0, n_units))
        self.cached = np.zeros(n_units, dtype=bool)
        self.frequency = np.zeros(n_units, dtype=np.int64)

    def cached_mask(self) -> np.ndarray:
        """Binary mask ``c`` of currently cached units."""
        return self.cached.astype(np.float64)

    def update(self, active_mask: np.ndarray) -> Tuple[int, int]:
        """Record one token's accesses and apply LFU eviction.

        Returns ``(hits, misses)`` for the token.
        """
        active = np.asarray(active_mask, dtype=bool)
        if active.shape != (self.n_units,):
            raise ValueError(f"active mask must have shape ({self.n_units},)")
        hits = int(np.count_nonzero(active & self.cached))
        misses = int(np.count_nonzero(active & ~self.cached))
        self.frequency[active] += 1
        if self.capacity == 0:
            return hits, misses
        # Insert the active units, then evict the least frequently used
        # non-active units while over capacity.
        self.cached |= active
        overflow = int(self.cached.sum()) - self.capacity
        if overflow > 0:
            evictable = np.flatnonzero(self.cached & ~active)
            if evictable.size < overflow:
                # Even the active set alone exceeds capacity: keep the most
                # frequent active units only.
                active_idx = np.flatnonzero(self.cached)
                order = np.argsort(self.frequency[active_idx], kind="stable")
                to_evict = active_idx[order[: int(self.cached.sum()) - self.capacity]]
            else:
                order = np.argsort(self.frequency[evictable], kind="stable")
                to_evict = evictable[order[:overflow]]
            self.cached[to_evict] = False
        return hits, misses

    def reset(self) -> None:
        self.cached[:] = False
        self.frequency[:] = 0


@dataclasses.dataclass
class CacheHitStats:
    """Aggregated hit/miss counters collected during evaluation."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CacheAwareDIP(DynamicInputPruning):
    """Cache-aware variant of Dynamic Input Pruning (DIP-CA, Algorithm 1).

    Parameters
    ----------
    target_density:
        Target average MLP density.
    gamma:
        Eq. 10 penalty for non-cached columns (paper default 0.2; ``1.0``
        recovers plain DIP).
    cache_fraction:
        Fraction of each weight group's columns that fit in the accuracy-side
        LFU cache model (set from the DRAM budget by the inference engine).
    """

    name = "dip-ca"
    requires_cache_state = True

    def __init__(
        self,
        target_density: float = 0.5,
        *,
        gamma: float = 0.2,
        cache_fraction: float = 0.5,
        allocation: Optional[DIPDensityAllocation] = None,
    ):
        super().__init__(target_density=target_density, allocation=allocation)
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0.0 <= cache_fraction <= 1.0:
            raise ValueError("cache_fraction must lie in [0, 1]")
        self.gamma = float(gamma)
        self.cache_fraction = float(cache_fraction)
        #: (layer_index, group) -> LayerCacheState, group in {"input", "down"}.
        self._caches: Dict[Tuple[int, str], LayerCacheState] = {}
        self.stats = CacheHitStats()

    # ----------------------------------------------------------------- caches
    def _cache_for(self, layer_index: int, group: str, n_units: int) -> LayerCacheState:
        key = (layer_index, group)
        if key not in self._caches:
            capacity = int(round(self.cache_fraction * n_units))
            self._caches[key] = LayerCacheState(n_units, capacity)
        return self._caches[key]

    def reset(self) -> None:
        """Clear all per-layer cache states and hit statistics."""
        for cache in self._caches.values():
            cache.reset()
        self.stats = CacheHitStats()

    # ------------------------------------------------------------------ masks
    def compute_masks(self, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray) -> MLPMasks:
        """Sequential, cache-dependent mask computation (Algorithm 1).

        Tokens are processed in order because each token's mask depends on the
        cache state left by the previous one.
        """
        x = np.atleast_2d(x)
        n_tokens, d_model = x.shape
        d_ffn = mlp.d_ffn
        input_cache = self._cache_for(layer_index, "input", d_model)
        down_cache = self._cache_for(layer_index, "down", d_ffn)

        input_mask = np.zeros((n_tokens, d_model), dtype=bool)
        down_mask = np.zeros((n_tokens, d_ffn), dtype=bool)
        glu_rows = np.empty((n_tokens, d_ffn))
        for t in range(n_tokens):
            token = x[t]
            scores_in = cache_aware_scores(np.abs(token), input_cache.cached_mask(), self.gamma)
            token_input_mask = topk_fraction_mask(scores_in, self.input_keep_fraction)
            hits, misses = input_cache.update(token_input_mask)
            self.stats.hits += hits
            self.stats.misses += misses

            glu = mlp.glu_activations_array(token * token_input_mask)
            scores_glu = cache_aware_scores(np.abs(glu), down_cache.cached_mask(), self.gamma)
            token_down_mask = topk_fraction_mask(scores_glu, self.neuron_keep_fraction)
            hits, misses = down_cache.update(token_down_mask)
            self.stats.hits += hits
            self.stats.misses += misses

            input_mask[t] = token_input_mask
            down_mask[t] = token_down_mask
            glu_rows[t] = glu

        return MLPMasks(
            down_mask=down_mask,
            input_mask=input_mask,
            up_axis="input",
            up_mask=input_mask,
            gate_axis="input",
            gate_mask=input_mask,
            glu_cache=glu_rows,
        )

    def describe(self):
        info = super().describe()
        info.update(gamma=self.gamma, cache_fraction=self.cache_fraction)
        return info
