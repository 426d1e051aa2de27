"""Density allocation between the MLP component matrices (paper Appendix B.1).

DIP uses two separate keep-fractions: one for the input features (rows of
the unit-major W_u and W_g) and one for the GLU neurons (rows of W_d).  The
overall MLP density is their weighted combination::

    mlp_density = (2 * input_density + down_density) / 3

Appendix B.1 determines the optimal split with a three-step procedure:
sweep the 2-D density grid, extract the Pareto-optimal (density, perplexity)
trials, and fit a linear model *in logit space* mapping the target MLP
density to each component's density.  This module implements both the
default allocation model (coefficients in the same linear-logit family) and
the fitting machinery used to regenerate Figures 12 and 13.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.config import ConfigBase
from repro.utils.pareto import pareto_front_indices


def logit(p: np.ndarray) -> np.ndarray:
    """Numerically clipped log-odds transform."""
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-6, 1.0 - 1e-6)
    return np.log(p / (1.0 - p))


def expit(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`logit`."""
    z = np.asarray(z, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-z))


@dataclasses.dataclass(frozen=True)
class DIPDensityAllocation(ConfigBase):
    """A concrete split of the DIP density budget."""

    input_density: float
    down_density: float

    def __post_init__(self):
        for name, value in (("input_density", self.input_density), ("down_density", self.down_density)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")

    @property
    def mlp_density(self) -> float:
        """Overall MLP density implied by the component densities."""
        return (2.0 * self.input_density + self.down_density) / 3.0


@dataclasses.dataclass(frozen=True)
class AllocationModel(ConfigBase):
    """Linear model in logit space: ``logit(component) = slope * logit(mlp) + intercept``."""

    input_slope: float = 1.0
    input_intercept: float = 0.30
    down_slope: float = 1.0
    down_intercept: float = 0.0

    def input_density(self, mlp_density: float) -> float:
        return float(expit(self.input_slope * logit(mlp_density) + self.input_intercept))

    def down_density(self, mlp_density: float) -> float:
        return float(expit(self.down_slope * logit(mlp_density) + self.down_intercept))


#: Default allocation model.  The intercepts bias the input (up/gate) density
#: slightly above the target: GLU output magnitudes are far more heavy-tailed
#: than the RMS-normalised MLP inputs (Figure 10 left), so the down
#: projection tolerates more pruning than the input columns.
DEFAULT_ALLOCATION_MODEL = AllocationModel()


def allocate_dip_densities(
    target_mlp_density: float,
    model: AllocationModel = DEFAULT_ALLOCATION_MODEL,
) -> DIPDensityAllocation:
    """Split a target MLP density into input/down component densities.

    The component densities follow the allocation model and are then jointly
    rescaled (in logit space, by bisection) so that the implied MLP density
    matches the target exactly.
    """
    if not 0.0 < target_mlp_density <= 1.0:
        raise ValueError("target_mlp_density must lie in (0, 1]")
    if target_mlp_density == 1.0:
        return DIPDensityAllocation(1.0, 1.0)

    base_input = logit(model.input_density(target_mlp_density))
    base_down = logit(model.down_density(target_mlp_density))

    def implied(offset: float) -> float:
        input_d = float(expit(base_input + offset))
        down_d = float(expit(base_down + offset))
        return (2.0 * input_d + down_d) / 3.0

    low, high = -12.0, 12.0
    for _ in range(80):
        mid = 0.5 * (low + high)
        if implied(mid) < target_mlp_density:
            low = mid
        else:
            high = mid
    offset = 0.5 * (low + high)
    input_density = float(np.clip(expit(base_input + offset), 1e-3, 1.0))
    down_density = float(np.clip(expit(base_down + offset), 1e-3, 1.0))
    return DIPDensityAllocation(input_density=input_density, down_density=down_density)


def fit_allocation_model(
    trial_input_densities: Sequence[float],
    trial_down_densities: Sequence[float],
    trial_perplexities: Sequence[float],
) -> Tuple[AllocationModel, np.ndarray]:
    """Fit the Appendix-B.1 allocation model from a 2-D density sweep.

    Parameters are per-trial component densities and the resulting
    perplexities.  The procedure mirrors the paper: compute each trial's MLP
    density, keep the Pareto-optimal (mlp_density, perplexity) trials, and
    least-squares fit ``logit(component)`` against ``logit(mlp_density)`` on
    the front.  Returns the fitted model and the indices of the Pareto trials.
    """
    input_d = np.asarray(trial_input_densities, dtype=np.float64)
    down_d = np.asarray(trial_down_densities, dtype=np.float64)
    ppl = np.asarray(trial_perplexities, dtype=np.float64)
    if not (input_d.shape == down_d.shape == ppl.shape):
        raise ValueError("trial arrays must have identical shapes")
    if input_d.size < 3:
        raise ValueError("need at least 3 trials to fit the allocation model")

    mlp_density = (2.0 * input_d + down_d) / 3.0
    front = pareto_front_indices(mlp_density, ppl, minimize_objective=True)
    if front.size < 2:
        # Degenerate sweep: fall back to using every trial.
        front = np.arange(input_d.size)

    z_mlp = logit(mlp_density[front])
    design = np.stack([z_mlp, np.ones_like(z_mlp)], axis=1)

    input_coef, *_ = np.linalg.lstsq(design, logit(input_d[front]), rcond=None)
    down_coef, *_ = np.linalg.lstsq(design, logit(down_d[front]), rcond=None)
    model = AllocationModel(
        input_slope=float(input_coef[0]),
        input_intercept=float(input_coef[1]),
        down_slope=float(down_coef[0]),
        down_intercept=float(down_coef[1]),
    )
    return model, front


def allocation_grid(
    input_densities: Sequence[float],
    down_densities: Sequence[float],
) -> List[DIPDensityAllocation]:
    """Cartesian grid of candidate allocations (the Fig. 12 sweep)."""
    grid = []
    for input_density in input_densities:
        for down_density in down_densities:
            grid.append(DIPDensityAllocation(float(input_density), float(down_density)))
    return grid
