"""Dynamic and static MLP sparsification methods (the paper's core subject).

Every method implements the :class:`~repro.sparsity.base.SparsityMethod`
interface: given the MLP input activations of a layer it produces
:class:`~repro.sparsity.base.MLPMasks` describing

* the *functional* masks (which GLU neurons / input features contribute to
  the output), used for accuracy evaluation, and
* the *memory* masks (which weight-matrix slices must be resident), used by
  the HW simulator to count DRAM/Flash traffic.

Implemented methods (paper section in parentheses):

* ``dense``         — no sparsification (baseline).
* ``glu``           — GLU pruning, only W_d sparsified (§3.2, Fig. 5a).
* ``glu-oracle``    — GLU pruning with an oracle that also skips the
                      corresponding W_u/W_g rows (Table 1 "GLU Pruning (oracle)").
* ``gate``          — Gate pruning (§3.2, Fig. 5b).
* ``up``            — Up pruning (§3.2).
* ``dejavu``        — Predictive GLU pruning with trained predictors (§3.2, Fig. 5c).
* ``cats``          — CATS per-layer thresholding on gate activations (Lee et al., 2024).
* ``dip``           — Dynamic Input Pruning (§4, Eq. 7-8).
* ``dip-ca``        — Cache-aware DIP (§5.2, Eq. 10, Algorithm 1).
"""

from repro.sparsity.base import (
    MLPMasks,
    SparsityMethod,
    DenseBaseline,
    topk_mask,
    threshold_mask,
    masks_mlp_density,
)
from repro.sparsity.thresholding import (
    ThresholdStrategy,
    GlobalThreshold,
    PerLayerThreshold,
    PerTokenTopK,
    collect_glu_activations,
)
from repro.sparsity.glu_pruning import GLUPruning
from repro.sparsity.gate_pruning import GatePruning, UpPruning
from repro.sparsity.predictive import PredictiveGLUPruning
from repro.sparsity.cats import CATS
from repro.sparsity.dip import DynamicInputPruning
from repro.sparsity.cache_aware import CacheAwareDIP, cache_aware_scores
from repro.sparsity.density import DIPDensityAllocation, allocate_dip_densities, fit_allocation_model
from repro.sparsity.registry import (
    REGISTRY,
    MethodInfo,
    MethodRegistry,
    UnknownMethodError,
    available_methods,
    create_method,
    describe_methods,
    register_method,
)

__all__ = [
    "MLPMasks",
    "SparsityMethod",
    "DenseBaseline",
    "topk_mask",
    "threshold_mask",
    "masks_mlp_density",
    "ThresholdStrategy",
    "GlobalThreshold",
    "PerLayerThreshold",
    "PerTokenTopK",
    "collect_glu_activations",
    "GLUPruning",
    "GatePruning",
    "UpPruning",
    "PredictiveGLUPruning",
    "CATS",
    "DynamicInputPruning",
    "CacheAwareDIP",
    "cache_aware_scores",
    "DIPDensityAllocation",
    "allocate_dip_densities",
    "fit_allocation_model",
    "create_method",
    "register_method",
    "describe_methods",
    "available_methods",
    "REGISTRY",
    "MethodInfo",
    "MethodRegistry",
    "UnknownMethodError",
]
