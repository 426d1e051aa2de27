"""Gather-GEMM backend: sparsity pays at compute time, not just in the simulator.

``masked_mlp``/``masked_down`` resolve the union of active neurons from the
mask and run the three MLP GEMMs over only the active columns of the
unit-major W_u/W_g and rows of W_d (see :mod:`repro.nn.mlp`).  Two regimes,
chosen by a measured crossover:

* **Stable index sets** (shared masks, static pruning, repeated decode steps)
  hit a cache of pre-compiled *kernel plans* — the gathered contiguous
  submatrices plus the pre-sliced per-token sub-mask, memoized under the mask
  bytes — so a steady-state call is one dict hit and three small GEMMs.  At
  the tiny shapes this library runs, per-call bookkeeping (union resolution,
  per-weight cache keys, sub-mask slicing) costs more than the gathered GEMMs
  themselves; compiling it away once is where the wall-clock wins come from
  (see ``BENCH_sparse_kernels.json``).
* **High-density or once-off index sets** fall back to the masked-dense
  reference: on small weights a fresh gather costs more than it saves (the
  union of 16 independent per-token top-k masks is near-dense anyway), so a
  never-seen index set runs dense first and is promoted to a cached plan only
  when it repeats.

Per-token masks are honoured exactly in both regimes: the batched variant
gathers the union and re-applies each token's sub-mask where it differs from
the union; a single token (``T == 1``) degenerates to the pure per-token
gather.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend.base import activation_fn
from repro.backend.numpy_ref import NumpyBackend

#: Default union-density above which masked-dense beats gather-GEMM.  The
#: kernel bench measures the break-even point between 0.65 and 0.80 on the
#: tiny model's MLP shapes (d_model=32, d_ffn=96, 16-token decode batches),
#: depending on runner load; the default sits below the worst measured case
#: so the gather path never runs where its win is inside measurement noise —
#: see ``benchmarks/bench_sparse_kernels.py``, which re-measures the
#: crossover on every run.
DEFAULT_CROSSOVER_DENSITY = 0.6

_CacheKey = Tuple[int, Tuple[int, ...], float, float, int, bytes]

class _DensePlan:
    """Plan-cache entry for index sets that resolved to the dense fallback
    (zero-size or above-crossover unions): remembers the decision so repeat
    sightings skip the union resolution too.  Holds the weight arrays so their
    ids stay valid for as long as the entry lives (see ``_plan_key``)."""

    __slots__ = ("weights",)

    def __init__(self, weights: Tuple[np.ndarray, ...]) -> None:
        self.weights = weights


class _MLPPlan:
    """Compiled steady-state kernel for one (W_u, W_g, W_d, mask) binding.

    ``fused`` holds the up- and gate-projections stacked into one GEMM operand
    (columns ``[:width]`` produce up, ``[width:]`` produce gate): one wide GEMM
    beats two narrow ones at gathered sizes, where per-call BLAS overhead is a
    large fraction of the work.  ``weights`` pins the source arrays alive so
    the id-based plan key can never alias a recycled address.
    """

    __slots__ = ("fused", "width", "down", "sub_mask", "act", "weights")

    def __init__(
        self,
        fused,
        width: int,
        down,
        sub_mask: Optional[np.ndarray],
        act,
        weights: Tuple[np.ndarray, ...] = (),
    ) -> None:
        self.fused = fused
        self.width = width
        self.down = down
        self.sub_mask = sub_mask
        self.act = act
        self.weights = weights


class _DownPlan:
    """Compiled steady-state kernel for one (W_d, mask) binding."""

    __slots__ = ("idx", "down", "sub_mask", "weights")

    def __init__(
        self,
        idx: np.ndarray,
        down,
        sub_mask: Optional[np.ndarray],
        weights: Tuple[np.ndarray, ...] = (),
    ) -> None:
        self.idx = idx
        self.down = down
        self.sub_mask = sub_mask
        self.weights = weights


class GatherGEMMBackend(NumpyBackend):
    """Sparse MLP kernels via gathered sub-GEMMs with a promotion cache.

    ``crossover_density`` — union densities above it always run masked-dense.
    ``cache_gathered`` — when ``False``, profitable index sets gather fresh on
    every call (the "cache off" row of the kernel bench) instead of using the
    seen-twice promotion cache.
    ``cache_size`` — bound on cached index sets and plans (LRU eviction).
    """

    name = "gather"

    def __init__(
        self,
        crossover_density: float = DEFAULT_CROSSOVER_DENSITY,
        cache_gathered: bool = True,
        cache_size: int = 128,
    ) -> None:
        if not 0.0 <= crossover_density <= 1.0:
            raise ValueError("crossover_density must lie in [0, 1]")
        self.crossover_density = float(crossover_density)
        self.cache_gathered = bool(cache_gathered)
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[_CacheKey, Optional[np.ndarray]]" = OrderedDict()
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {}
        self.reset_stats()

    def __getstate__(self):
        """Copies and pickles hold the caches and statistics, not the lock."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- stats
    def reset_stats(self) -> None:
        """Zero the gather/dense decision and cache counters.

        ``cache_hits`` counts steady-state plan hits; ``cache_misses`` and
        ``cache_promotions`` track the underlying gathered-submatrix cache
        (first and second sightings of an index set).
        """
        self.stats = {
            "gather_calls": 0,
            "dense_calls": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_promotions": 0,
        }

    def cache_stats(self) -> Dict[str, int]:
        """Public snapshot of the plan-cache behaviour (``/stats``, ``/metrics``).

        ``plan_hits`` — steady-state compiled-plan hits; ``promotions`` —
        index sets compiled into a plan on their second sighting;
        ``misses`` — first sightings (served masked-dense); ``gather_calls``
        / ``dense_calls`` — which kernel regime each sparse MLP call took
        (``dense_calls`` includes the masked-dense fallbacks for unseen or
        above-crossover unions).
        """
        return {
            "gather_calls": int(self.stats["gather_calls"]),
            "dense_calls": int(self.stats["dense_calls"]),
            "plan_hits": int(self.stats["cache_hits"]),
            "misses": int(self.stats["cache_misses"]),
            "promotions": int(self.stats["cache_promotions"]),
            "cached_plans": len(self._plans),
        }

    def clear_cache(self) -> None:
        """Drop every cached gathered submatrix, plan, and promotion record."""
        with self._lock:
            self._cache.clear()
            self._plans.clear()

    # ------------------------------------------------------- gathered weights
    def _gathered(self, weight: np.ndarray, idx: np.ndarray, axis: int) -> Optional[np.ndarray]:
        """Gathered slice of ``weight``, cached under the index set.

        Returns ``None`` when the index set has not been seen before (the
        caller should fall back to masked-dense); the first sighting records
        the key, the second builds and caches the submatrix.  With
        ``cache_gathered=False`` the slice is rebuilt on every call.
        """
        if not self.cache_gathered:
            return weight[idx] if axis == 0 else weight[:, idx]
        # id() alone can be reused after a weight array is garbage-collected;
        # shape plus two corner values makes a stale hit practically impossible.
        key: _CacheKey = (
            id(weight),
            weight.shape,
            float(weight.flat[0]),
            float(weight.flat[-1]),
            axis,
            idx.tobytes(),
        )
        with self._lock:
            if key in self._cache:
                sub = self._cache[key]
                self._cache.move_to_end(key)
                if sub is not None:
                    return sub
            else:
                self._cache[key] = None
                self.stats["cache_misses"] += 1
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                return None
            # Second sighting: promote the recorded key to a real submatrix.
            self.stats["cache_promotions"] += 1
        sub = weight[idx] if axis == 0 else weight[:, idx]
        with self._lock:
            self._cache[key] = sub
        return sub

    # ------------------------------------------------------------ plan cache
    @staticmethod
    def _plan_key(tag, w0: np.ndarray, w1: np.ndarray, w2: np.ndarray, mask: np.ndarray) -> tuple:
        """Cache key binding the exact mask bytes to the weight identities.

        Built on the hot path, so it is a flat tuple of cheap components.
        Keying on ``id()`` alone is safe *here* (unlike the submatrix cache,
        which guards with corner values): every stored plan holds strong
        references to its weight arrays, so an id in the table can never be
        recycled while its entry is alive, and eviction drops the entry and
        the reference together.
        """
        return (tag, id(w0), id(w1), id(w2), mask.shape, mask.dtype.char, mask.tobytes())

    def _store_plan(self, key: tuple, plan: object) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.cache_size:
                self._plans.popitem(last=False)


    # ------------------------------------------------------------ mask → idx
    @staticmethod
    def _union_index(mask: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened 2-D mask view and the union index set over its rows."""
        mask2d = mask.reshape(-1, width) if mask.ndim > 1 else mask.reshape(1, width)
        union = mask2d.any(axis=0) if mask2d.shape[0] > 1 else (mask2d[0] != 0)
        return mask2d, np.flatnonzero(union)

    @staticmethod
    def _sub_mask(mask2d: np.ndarray, idx: np.ndarray) -> Optional[np.ndarray]:
        """Per-token mask over the union columns; ``None`` when it is all-ones."""
        sub = mask2d[:, idx]
        if sub.dtype == np.bool_ and sub.all():
            return None  # every token uses the whole union: nothing to re-mask
        return sub

    def _mlp_plan(
        self,
        w_up: np.ndarray,
        w_gate: np.ndarray,
        w_down: np.ndarray,
        activation: str,
        mask: np.ndarray,
    ) -> Optional[_MLPPlan]:
        """Steady-state kernel plan for this mask, or ``None`` → masked-dense."""
        d_ffn = w_up.shape[1]
        if not self.cache_gathered:
            mask2d, idx = self._union_index(mask, d_ffn)
            if idx.size == 0 or idx.size > self.crossover_density * d_ffn:
                return None
            return _MLPPlan(
                np.hstack((self._gathered(w_up, idx, 1), self._gathered(w_gate, idx, 1))),
                idx.size,
                self._gathered(w_down, idx, 0),
                self._sub_mask(mask2d, idx),
                activation_fn(activation),
            )
        key = self._plan_key(activation, w_up, w_gate, w_down, mask)
        # Lock-free read: dict.get is atomic under the GIL and plans are
        # immutable once stored, so the worst race is a redundant rebuild.
        cached = self._plans.get(key)
        if cached is not None:
            if type(cached) is _DensePlan:
                return None
            self.stats["cache_hits"] += 1
            return cached  # type: ignore[return-value]
        weights = (w_up, w_gate, w_down)
        mask2d, idx = self._union_index(mask, d_ffn)
        if idx.size == 0 or idx.size > self.crossover_density * d_ffn:
            self._store_plan(key, _DensePlan(weights))
            return None
        # Probe every weight before deciding: the list deliberately avoids
        # short-circuiting so all three promotion states advance together on
        # every call (no partial GEMMs during the promotion step).  Up and
        # gate gather the neurons' columns, down their rows, so every entry
        # is the right-hand operand of one GEMM as gathered.
        entries = [
            self._gathered(w_up, idx, 1),
            self._gathered(w_gate, idx, 1),
            self._gathered(w_down, idx, 0),
        ]
        if any(entry is None for entry in entries):
            return None  # promotion pending: dense now, plan on the next sighting
        plan = _MLPPlan(
            np.hstack((entries[0], entries[1])),
            idx.size,
            entries[2],
            self._sub_mask(mask2d, idx),
            activation_fn(activation),
            weights,
        )
        self._store_plan(key, plan)
        return plan

    def _down_plan(self, w_down: np.ndarray, mask: np.ndarray) -> Optional[_DownPlan]:
        d_ffn = w_down.shape[0]
        if not self.cache_gathered:
            mask2d, idx = self._union_index(mask, d_ffn)
            if idx.size == 0 or idx.size > self.crossover_density * d_ffn:
                return None
            return _DownPlan(idx, self._gathered(w_down, idx, 0), self._sub_mask(mask2d, idx))
        key = self._plan_key("down", w_down, w_down, w_down, mask)
        cached = self._plans.get(key)  # lock-free: see _mlp_plan
        if cached is not None:
            if type(cached) is _DensePlan:
                return None
            self.stats["cache_hits"] += 1
            return cached  # type: ignore[return-value]
        mask2d, idx = self._union_index(mask, d_ffn)
        if idx.size == 0 or idx.size > self.crossover_density * d_ffn:
            self._store_plan(key, _DensePlan((w_down,)))
            return None
        entry = self._gathered(w_down, idx, 0)
        if entry is None:
            return None
        plan = _DownPlan(idx, entry, self._sub_mask(mask2d, idx), (w_down,))
        self._store_plan(key, plan)
        return plan

    # --------------------------------------------------------------- kernels
    def masked_mlp(
        self,
        w_up: np.ndarray,
        w_gate: np.ndarray,
        w_down: np.ndarray,
        activation: str,
        x: np.ndarray,
        neuron_mask: np.ndarray,
        input_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        plan = self._mlp_plan(w_up, w_gate, w_down, activation, np.asarray(neuron_mask))
        if plan is None:
            self.stats["dense_calls"] += 1
            return super().masked_mlp(w_up, w_gate, w_down, activation, x, neuron_mask, input_mask=input_mask)
        self.stats["gather_calls"] += 1
        x_eff = x * input_mask if input_mask is not None else x
        x2d = x_eff.reshape(-1, x_eff.shape[-1])
        ug = x2d @ plan.fused
        glu = plan.act(ug[:, plan.width :])  # fresh array: in-place from here on
        glu *= ug[:, : plan.width]
        if plan.sub_mask is not None:
            glu *= plan.sub_mask
        out = glu @ plan.down
        return out.reshape(*x.shape[:-1], w_down.shape[1])

    def masked_down(self, w_down: np.ndarray, glu: np.ndarray, down_mask: np.ndarray) -> np.ndarray:
        plan = self._down_plan(w_down, np.asarray(down_mask))
        if plan is None:
            self.stats["dense_calls"] += 1
            return super().masked_down(w_down, glu, down_mask)
        self.stats["gather_calls"] += 1
        acts = glu.reshape(-1, glu.shape[-1])[:, plan.idx]  # fresh copy: safe to mask in place
        if plan.sub_mask is not None:
            np.multiply(acts, plan.sub_mask, out=acts)
        out = acts @ plan.down
        return out.reshape(*glu.shape[:-1], w_down.shape[1])
