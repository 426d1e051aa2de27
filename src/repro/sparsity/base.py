"""Base abstractions shared by all sparsification methods."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.backend import active_backend
from repro.nn.mlp import SwiGLUMLP
from repro.nn.transformer import CausalLM


def topk_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask keeping the ``k`` largest entries along the last axis.

    ``np.partition`` finds each row's k-th largest value; every value above
    it is kept and, among values equal to it, the lowest indices.  NaN ranks
    above every number (as ``np.partition`` orders it), so each row keeps
    exactly ``k`` entries whatever it holds.  The compiled DIP kernels'
    per-row step (``_ca_row.h``) uses the same rule.  ``k`` is clamped to
    ``[0, n]``.
    """
    n = values.shape[-1]
    k = int(k)
    if k <= 0:
        return np.zeros(values.shape, dtype=bool)
    if k >= n:
        return np.ones(values.shape, dtype=bool)
    # 1-D rows are the per-token loops' hot path: the ndarray method skips
    # np.partition's dispatch, and numpy compares against a 0-d k-th value
    # faster than against a scalar.
    part = values.copy()
    part.partition(n - k, axis=-1)
    kth = part[..., n - k] if values.ndim == 1 else part[..., n - k, None]
    # At least k entries per row are not below the k-th value (NaN included;
    # a NaN k-th value keeps the whole row), so a total of exactly k per row
    # means no row has surplus ties.
    mask = ~(values < kth)
    if np.count_nonzero(mask) == k * (values.size // n):
        return mask
    above = ~(values <= kth)
    tied = values == kth
    nan_kth = kth != kth
    if np.any(nan_kth):  # only NaNs reach the k-th place: keep the first k of them
        above &= ~nan_kth
        tied |= nan_kth & (values != values)
    need = k - np.count_nonzero(above, axis=-1, keepdims=True)
    return above | (tied & (np.cumsum(tied, axis=-1) <= need))


def keep_count(fraction: float, n: int) -> int:
    """How many of ``n`` entries :func:`topk_fraction_mask` keeps for ``fraction``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    return int(round(fraction * n))


def topk_fraction_mask(values: np.ndarray, fraction: float) -> np.ndarray:
    """Keep the largest ``fraction`` of entries along the last axis."""
    return topk_mask(values, keep_count(fraction, values.shape[-1]))


def threshold_mask(values: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean mask keeping entries whose magnitude exceeds ``threshold``."""
    return np.abs(values) > threshold


@dataclasses.dataclass
class MLPMasks:
    """Per-token masks for one gated-MLP layer.

    All mask arrays share the leading token dimension ``T``.

    Functional fields (define the sparse MLP output):

    * ``down_mask`` — shape ``(T, d_ffn)``; GLU neurons whose output reaches
      the down projection.  Always present.
    * ``input_mask`` — shape ``(T, d_model)`` or ``None``; input features kept
      before the up/gate projections (only DIP/DIP-CA use it, Eq. 7).

    Memory fields (define which weight slices must be resident; used by the
    HW simulator).  ``axis`` is one of ``"dense"`` (whole matrix read),
    ``"neuron"`` (one slice of W_u/W_g per GLU neuron: a column of the
    unit-major ``(d_model, d_ffn)`` array) or ``"input"`` (one slice per
    input feature: a row of it):

    * ``up_axis`` / ``up_mask`` — read pattern for W_u.
    * ``gate_axis`` / ``gate_mask`` — read pattern for W_g.

    W_d is always read by neuron (one row of the unit-major W_d each), gated
    by ``down_mask``.

    ``glu_cache`` optionally carries the GLU activations the method already
    computed (from the *masked* input) while ranking neurons, so
    :meth:`SparsityMethod.sparse_forward` need not recompute the two big
    projections.  It is consumed once via :meth:`take_glu_cache` and never
    recorded or concatenated.
    """

    down_mask: np.ndarray
    input_mask: Optional[np.ndarray] = None
    up_axis: str = "dense"
    up_mask: Optional[np.ndarray] = None
    gate_axis: str = "dense"
    gate_mask: Optional[np.ndarray] = None
    glu_cache: Optional[np.ndarray] = None

    def __post_init__(self):
        self.down_mask = np.asarray(self.down_mask, dtype=bool)
        if self.down_mask.ndim != 2:
            raise ValueError("down_mask must have shape (T, d_ffn)")
        for axis_name in (self.up_axis, self.gate_axis):
            if axis_name not in ("dense", "neuron", "input"):
                raise ValueError(f"invalid axis '{axis_name}'")
        if self.input_mask is not None:
            self.input_mask = np.asarray(self.input_mask, dtype=bool)
        if self.up_mask is not None:
            self.up_mask = np.asarray(self.up_mask, dtype=bool)
        if self.gate_mask is not None:
            self.gate_mask = np.asarray(self.gate_mask, dtype=bool)

    @property
    def n_tokens(self) -> int:
        return self.down_mask.shape[0]

    def take_glu_cache(self) -> Optional[np.ndarray]:
        """Return and clear the cached GLU activations (single consumer)."""
        cache = self.glu_cache
        self.glu_cache = None
        return cache

    def matrix_mask(self, matrix: str):
        """Return ``(axis, mask)`` for ``matrix`` in {"up", "gate", "down"}."""
        if matrix == "up":
            return self.up_axis, self.up_mask
        if matrix == "gate":
            return self.gate_axis, self.gate_mask
        if matrix == "down":
            return "neuron", self.down_mask
        raise KeyError(f"unknown matrix '{matrix}'")


def masks_mlp_density(masks: MLPMasks, d_model: int, d_ffn: int) -> float:
    """Average fraction of MLP weights read per token under ``masks``.

    This is the "MLP density" metric the paper plots on the x-axis of
    Figures 8 and 14 and fixes at 40/50/60% in Tables 1, 3 and 4.
    """
    total_weights = 3.0 * d_model * d_ffn

    def matrix_weights(axis: str, mask: Optional[np.ndarray], slice_size: int, n_units: int) -> np.ndarray:
        if axis == "dense" or mask is None:
            return np.full(masks.n_tokens, float(n_units * slice_size))
        return mask.sum(axis=-1).astype(np.float64) * slice_size

    up = matrix_weights(masks.up_axis, masks.up_mask, d_ffn if masks.up_axis == "input" else d_model,
                        d_model if masks.up_axis == "input" else d_ffn)
    gate = matrix_weights(masks.gate_axis, masks.gate_mask, d_ffn if masks.gate_axis == "input" else d_model,
                          d_model if masks.gate_axis == "input" else d_ffn)
    down = masks.down_mask.sum(axis=-1).astype(np.float64) * d_model
    per_token = (up + gate + down) / total_weights
    return float(per_token.mean())


class SparsityMethod:
    """Interface for MLP sparsification methods.

    Subclasses must implement :meth:`compute_masks`; the default
    :meth:`sparse_forward` evaluates the masked MLP output from those masks.
    ``target_density`` is the average fraction of MLP weights the method is
    allowed to touch per token (the paper's operating points: 0.4/0.5/0.6).
    """

    name: str = "abstract"
    #: Whether masks depend on a DRAM cache state (only DIP-CA).
    requires_cache_state: bool = False
    #: Whether :meth:`calibrate` must be called before use.
    requires_calibration: bool = False
    #: Eq. 10 cache re-weighting factor; 1.0 (no re-weighting) for every
    #: cache-oblivious method.  Cache-aware methods override this.
    gamma: float = 1.0

    def __init__(self, target_density: float = 0.5):
        if not 0.0 < target_density <= 1.0:
            raise ValueError("target_density must lie in (0, 1]")
        self.target_density = float(target_density)

    # ------------------------------------------------------------ calibration
    def calibrate(self, model: CausalLM, calibration_sequences: np.ndarray) -> None:
        """Fit any per-layer statistics (thresholds, predictors) on a calibration set.

        The default implementation is a no-op; methods that need calibration
        set ``requires_calibration = True`` and override this.
        """

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Clear any per-run mutable state (cache models, statistics).

        The default is a no-op; stateful methods (DIP-CA) override it.  The
        inference engine and :class:`~repro.pipeline.session.SparseSession`
        call this between evaluations so results never depend on prior usage.
        """

    # ----------------------------------------------------------------- masks
    def compute_masks(self, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray) -> MLPMasks:
        """Compute masks for MLP inputs ``x`` of shape ``(T, d_model)``."""
        raise NotImplementedError

    # --------------------------------------------------------------- forward
    def sparse_forward(
        self, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray, masks: Optional[MLPMasks] = None
    ) -> np.ndarray:
        """Masked MLP output for inputs ``x`` of shape ``(T, d_model)``.

        The masks are handed to the active compute backend as mask/index-set
        kernels: the numpy reference applies them masked-dense, gather
        backends resolve the active-neuron index set and run gather-GEMM over
        only the active weight slices (see :mod:`repro.backend`).
        """
        if masks is None:
            masks = self.compute_masks(mlp, layer_index, x)
        backend = active_backend()
        glu = masks.take_glu_cache()
        if glu is None:
            return backend.masked_mlp(
                mlp.w_up, mlp.w_gate, mlp.w_down, mlp.config.activation,
                x, masks.down_mask, input_mask=masks.input_mask,
            )
        # glu is consumed-once: the backend owns (and may mutate) the buffer.
        return backend.masked_down(mlp.w_down, glu, masks.down_mask)

    # ----------------------------------------------------------- memory plan
    def memory_plan(self) -> Dict[str, tuple]:
        """Average read pattern per weight matrix, for the HW simulator.

        Returns a mapping ``matrix -> (axis, keep_fraction)`` where ``axis``
        is ``"dense"``, ``"neuron"`` or ``"input"`` and ``keep_fraction`` is
        the average fraction of units accessed per token (``None`` for dense
        reads).  Subclasses with non-trivial sparsity override this.
        """
        return {"up": ("dense", None), "gate": ("dense", None), "down": ("dense", None)}

    # -------------------------------------------------------------- utilities
    def expected_density(self, d_model: int, d_ffn: int) -> float:
        """The MLP density this method is configured to hit (may differ from
        ``target_density`` for methods that cannot reach it, e.g. GLU pruning)."""
        return self.target_density

    def describe(self) -> Dict[str, object]:
        """Human-readable description used in reports."""
        return {"name": self.name, "target_density": self.target_density}

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(target_density={self.target_density})"


class DenseBaseline(SparsityMethod):
    """No sparsification: every weight is read, every neuron contributes."""

    name = "dense"

    def __init__(self, target_density: float = 1.0):
        super().__init__(target_density=1.0)

    def compute_masks(self, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray) -> MLPMasks:
        n_tokens = x.shape[0]
        return MLPMasks(
            down_mask=np.ones((n_tokens, mlp.d_ffn), dtype=bool),
            input_mask=None,
            up_axis="dense",
            gate_axis="dense",
        )

    def sparse_forward(self, mlp, layer_index, x, masks=None) -> np.ndarray:
        return mlp.forward_array(x)
