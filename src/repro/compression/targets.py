"""The weight matrices the static compression baselines rewrite."""

from __future__ import annotations

from typing import Dict

from repro.nn.mlp import PROJECTIONS, OutInWeight
from repro.nn.transformer import TransformerBlock


def weight_targets(block: TransformerBlock, mlp_only: bool = True) -> Dict[str, OutInWeight]:
    """``name -> (out, in) weight`` for one block, in the order to rewrite them.

    The MLP's ``up``, ``gate`` and ``down``, then, unless ``mlp_only``, the
    attention's ``q``, ``k``, ``v`` and ``o``.  Each is read as a fresh
    ``(out, in)`` copy and written back in the layout its module stores.
    """
    targets = {name: block.mlp.out_in(name) for name in PROJECTIONS}
    if not mlp_only:
        for name in ("q", "k", "v", "o"):
            targets[name] = OutInWeight(getattr(block.attention, f"{name}_proj").weight)
    return targets
