"""Dynamic Input Pruning (paper Section 4, Eq. 7-8) — the core contribution.

DIP needs no predictor.  For every token it

1. keeps only the largest-magnitude entries of the MLP *input* ``x``
   (per-token top-k), which means only the corresponding rows of the
   unit-major up and gate weights are read (Eq. 7), and
2. computes the (approximate) GLU activations from the pruned input and keeps
   only their largest magnitudes, which selects the rows of the down weight
   (Eq. 8).

The split of the density budget between the up/gate input rows and the
down neuron rows follows the allocation model of Appendix B.1
(:mod:`repro.sparsity.density`).

A decode step runs both steps and the MLP itself in one compiled call that
reads only the kept rows, once for all the step's rows
(:mod:`repro.sparsity.decode_mlp`); :meth:`DynamicInputPruning.compute_masks`
and ``sparse_forward`` are the numpy path and the reference.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

import numpy as np

from repro.nn.mlp import SwiGLUMLP
from repro.sparsity.base import MLPMasks, SparsityMethod, topk_fraction_mask
from repro.sparsity.density import DIPDensityAllocation, allocate_dip_densities
from repro.utils.native import BoundAttribute


class DynamicInputPruning(SparsityMethod):
    """Predictor-free dynamic sparsification of SwiGLU MLPs.

    Parameters
    ----------
    target_density:
        Target average MLP density (fraction of MLP weights read per token).
    allocation:
        Optional explicit split of the budget between the input (up/gate) and
        neuron (down) dimensions.  When omitted the Appendix-B.1 allocation
        model is used.
    """

    name = "dip"
    #: The keep fractions the compiled decode MLP binds: replacing them bumps
    #: :data:`~repro.utils.native.VERSION`.
    allocation = BoundAttribute()

    def __init__(
        self,
        target_density: float = 0.5,
        *,
        allocation: Optional[DIPDensityAllocation] = None,
    ):
        super().__init__(target_density=target_density)
        self.allocation = allocation if allocation is not None else allocate_dip_densities(target_density)
        #: The compiled kernels' bindings (:mod:`repro.sparsity.decode_mlp`
        #: per layer; DIP-CA's step per layer and group).  They hold
        #: addresses, so copies and pickles start without them.
        self._bound: Dict[Hashable, Any] = {}

    def __getstate__(self):
        """Copies and pickles leave out the compiled kernels' addresses; a
        copy binds its own weights and caches on first use."""
        state = self.__dict__.copy()
        state["_bound"] = {}
        return state

    # ------------------------------------------------------------- fractions
    @property
    def input_keep_fraction(self) -> float:
        """Fraction of input features kept (rows of W_u and W_g)."""
        return self.allocation.input_density

    @property
    def neuron_keep_fraction(self) -> float:
        """Fraction of GLU neurons kept (rows of W_d)."""
        return self.allocation.down_density

    # ----------------------------------------------------------------- masks
    def compute_masks(self, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray) -> MLPMasks:
        input_mask = topk_fraction_mask(np.abs(x), self.input_keep_fraction)
        glu = mlp.glu_activations_array(x, input_mask=input_mask)
        down_mask = topk_fraction_mask(np.abs(glu), self.neuron_keep_fraction)
        return MLPMasks(
            down_mask=down_mask,
            input_mask=input_mask,
            up_axis="input",
            up_mask=input_mask,
            gate_axis="input",
            gate_mask=input_mask,
            glu_cache=glu,  # sparse_forward would recompute exactly this
        )

    def expected_density(self, d_model: int, d_ffn: int) -> float:
        return self.allocation.mlp_density

    def memory_plan(self):
        return {
            "up": ("input", self.input_keep_fraction),
            "gate": ("input", self.input_keep_fraction),
            "down": ("neuron", self.neuron_keep_fraction),
        }

    def describe(self):
        info = super().describe()
        info.update(
            input_density=self.input_keep_fraction,
            down_density=self.neuron_keep_fraction,
        )
        return info
