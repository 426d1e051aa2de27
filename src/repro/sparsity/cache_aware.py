"""Cache-aware masking (paper Section 5.2, Eq. 10, Algorithm 1).

DIP-CA re-weights the activation scores before top-k selection so that
weights already resident in the DRAM cache are preferred::

    s(t) = x(t) * (c(t-1) + gamma * (1 - c(t-1))) / ||x(t)||_inf

``c`` is the binary cached-mask of the corresponding weight columns and
``gamma`` in (0, 1] penalises non-cached columns.  With ``gamma = 1`` the
method reduces to plain DIP.  The key observation (Fig. 10 left) is that most
activations live within one order of magnitude of each other, so re-ordering
that middle band costs little accuracy while greatly increasing cache hits.

Algorithm 1's per-token step is :func:`cache_aware_step`.  Both the accuracy
side (:class:`CacheAwareDIP`, one :class:`~repro.hwsim.cache.LFUCache` per
layer and weight group) and the HW simulator's throughput numbers run it
against :mod:`repro.hwsim.cache` policies, so a DIP-CA perplexity and its
simulated throughput describe one DRAM cache model.

:meth:`CacheAwareDIP.compute_masks` runs Algorithm 1 in two passes over a
call's tokens: first every input mask against the input cache, then one GLU
for all tokens, then every down mask against the down cache.  This is exact:
each cache's state depends only on the masks served to it, and token ``t``'s
GLU depends only on its own input and input mask.

Each pass serves all of a call's tokens for one weight group with one call
of a compiled step (``_ca_step.c``, built with the system C compiler on
first use, see :mod:`repro.utils.native`).  It computes what a loop of
:func:`cache_aware_step` computes and leaves the same masks and cache state;
both keep the lower index among scores tied at the k-th place.  Without a
compiler, or for cache arrays the step cannot write in place, that loop runs
instead; it stays the reference the tests compare against, and
:class:`~repro.hwsim.simulator.HWSimulator` keeps calling
:func:`cache_aware_step`: at paper-scale groups numpy's vectorised
``partition`` beats the scalar kernel.

The per-row step itself is C code in one place, ``_ca_row.h``: ``ca_step``
runs it on one group's rows, and the compiled decode MLP
(:mod:`repro.sparsity.decode_mlp`) runs it on both groups of each
``ContinuousBatch`` decode step it serves, against the same caches.  So
``compute_masks`` runs at prefill, in the oracle ``CausalLM.generate`` and in
the steps that kernel does not serve.
"""

from __future__ import annotations

import ctypes
import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn.mlp import SwiGLUMLP
from repro.sparsity.base import MLPMasks, keep_count, topk_fraction_mask
from repro.sparsity.density import DIPDensityAllocation
from repro.sparsity.dip import DynamicInputPruning
from repro.utils.native import Binding, BoundAttribute, BoundDict, CompiledKernel, current_binding

if TYPE_CHECKING:  # imported lazily at runtime: repro.hwsim depends on repro.sparsity
    from repro.hwsim.cache import GroupCache

#: The compiled per-token step over one LFU weight-group cache.
CA_STEP = CompiledKernel("ca_step")


def cache_aware_scores(magnitudes: np.ndarray, cached_mask: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the Eq. 10 re-weighting to activation magnitudes.

    ``magnitudes`` has shape ``(..., n)`` and holds non-negative values such
    as ``|x|``; ``cached_mask`` is broadcastable to it and is boolean or 0/1,
    with 1 for cached columns.  The infinity-norm normalisation makes the
    scores insensitive to the token-to-token dynamic range.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    norm = magnitudes.max(axis=-1, keepdims=True)
    scores = np.where(cached_mask, magnitudes, magnitudes * gamma)
    # An all-zero row keeps its zero scores instead of dividing 0 by 0.
    return np.divide(scores, norm, out=scores, where=norm > 0)


def cache_aware_step(
    cache: GroupCache, scores: np.ndarray, keep_fraction: float, gamma: float
) -> Tuple[np.ndarray, int, int]:
    """One token of Algorithm 1 against one weight group's ``cache``.

    Re-weights the token's non-negative ``scores`` with Eq. 10 against the
    resident units (only when ``gamma < 1``), keeps the top ``keep_fraction``
    of them and serves those units through ``cache.process_token``.  Returns
    the boolean unit mask and the token's ``(hits, misses)``.
    """
    if gamma < 1.0:
        scores = cache_aware_scores(scores, cache.cached_mask(), gamma)
    mask = topk_fraction_mask(scores, keep_fraction)
    hits, misses = cache.process_token(mask)
    return mask, hits, misses


class BoundGroup(Binding):
    """The compiled step's binding of one LFU cache: ``struct`` holds the
    addresses of its ``cached`` and ``frequency`` arrays and of ``scratch``,
    a buffer of two rows of scores the binding owns."""

    __slots__ = ("scratch",)

    def __init__(self, sources: Sequence, scratch: np.ndarray) -> None:
        super().__init__(sources, (ctypes.c_void_p * 3)(*(a.ctypes.data for a in (*sources, scratch))))
        self.scratch = scratch


def _bind(n_units: int, arrays: Sequence) -> Optional[BoundGroup]:
    """The binding of an LFU cache's ``(cached, frequency)`` arrays, or
    ``None`` unless the step can write them in place: C-contiguous,
    writable, ``(n_units,)`` bool and int64."""
    cached, frequency = arrays
    if not (
        cached.dtype == np.bool_
        and frequency.dtype == np.int64
        and cached.shape == frequency.shape == (n_units,)
        and all(a.flags.c_contiguous and a.flags.writeable for a in arrays)
    ):
        return None
    return BoundGroup(arrays, np.empty(2 * n_units))


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
        Fraction of each weight group's columns that fit in the LFU cache the
        masks are chosen against.  It only shapes the accuracy-side masks:
        simulated throughput sizes its caches from the device's DRAM budget.
    """

    name = "dip-ca"
    requires_cache_state = True
    #: Eq. 10's penalty, which the compiled kernels bind: replacing it bumps
    #: :data:`~repro.utils.native.VERSION`.
    gamma = BoundAttribute()

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
        #: (layer_index, group) -> LFU cache, group in {"input", "down"};
        #: replacing or removing one bumps the bindings' version.
        #: ``self._bound[(layer_index, group)]`` holds the compiled step's
        #: binding of that cache (:func:`_bind`).
        self._caches: Dict[Tuple[int, str], GroupCache] = BoundDict()
        self.stats = CacheHitStats()

    # ----------------------------------------------------------------- caches
    def _cache_for(self, layer_index: int, group: str, n_units: int) -> GroupCache:
        key = (layer_index, group)
        if key not in self._caches:
            from repro.hwsim.cache import LFUCache  # repro.hwsim imports this module

            self._caches[key] = LFUCache(n_units, int(round(self.cache_fraction * n_units)))
        return self._caches[key]

    def reset(self) -> None:
        """Clear all per-layer cache states and hit statistics."""
        for cache in self._caches.values():
            cache.reset()
        self.stats = CacheHitStats()

    # ------------------------------------------------------------------ masks
    def _serve(
        self, layer_index: int, group: str, n_units: int, rows: np.ndarray, keep_fraction: float
    ) -> np.ndarray:
        """Serve each row of ``rows`` (signed ``x`` or GLU values) in order
        against one weight group's cache; return the fresh ``(T, n)`` mask.

        One call of the compiled step covers every row; without it, or for
        cache arrays it cannot write in place, a loop of
        :func:`cache_aware_step` does.  Before the compiled step runs, a row
        width other than the cache's raises ``ValueError``.  The step's
        binding of the cache is held per layer and group, for that cache, and
        made again once its arrays are replaced
        (:func:`~repro.utils.native.current_binding`).
        """
        cache = self._cache_for(layer_index, group, n_units)
        step = CA_STEP.load()
        bound = None
        if step is not None:
            if rows.shape[-1] != cache.n_units:
                raise ValueError(f"active vector must have shape ({cache.n_units},)")
            bound = current_binding(
                self._bound,
                (layer_index, group),
                (cache,),
                lambda: _bind(cache.n_units, (cache.cached, cache.frequency)),
            )
        if bound is None:
            mask = np.empty(rows.shape, dtype=bool)
            for t, row in enumerate(np.abs(rows)):
                mask[t], hits, misses = cache_aware_step(cache, row, keep_fraction, self.gamma)
                self.stats.hits += hits
                self.stats.misses += misses
            return mask
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        n_tokens, n = rows.shape
        k = keep_count(keep_fraction, n)
        mask = np.empty(rows.shape, dtype=bool)
        hits = step(rows.ctypes.data, n_tokens, n, k, self.gamma, cache.capacity_units, *bound.struct, mask.ctypes.data)
        cache.token_index += n_tokens
        self.stats.hits += hits
        self.stats.misses += n_tokens * k - hits
        return mask

    def compute_masks(self, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray) -> MLPMasks:
        """Sequential, cache-dependent mask computation (Algorithm 1).

        Tokens are served in order because each token's mask depends on the
        cache state left by the previous one.  The input pass runs first: the
        input cache sees only input masks, so it needs no GLU.  One GLU call
        then covers every token, and the down pass ranks its rows against the
        down cache.  The masks equal those of one-token calls; the GLU values
        may differ in the last bits (one GEMM instead of per-row GEMVs).
        """
        x = np.atleast_2d(x)
        input_mask = self._serve(layer_index, "input", mlp.d_model, x, self.input_keep_fraction)
        glu = mlp.glu_activations_array(x, input_mask=input_mask)
        down_mask = self._serve(layer_index, "down", mlp.d_ffn, glu, self.neuron_keep_fraction)
        return MLPMasks(
            down_mask=down_mask,
            input_mask=input_mask,
            up_axis="input",
            up_mask=input_mask,
            gate_axis="input",
            gate_mask=input_mask,
            glu_cache=glu,
        )

    def describe(self):
        info = super().describe()
        info.update(gamma=self.gamma, cache_fraction=self.cache_fraction)
        return info
