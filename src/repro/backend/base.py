"""Compute-backend seam for the inference hot path.

Every dense kernel the array (inference) path executes — the linear
projections, attention matmuls, softmax, RMSNorm, and the gated-MLP forwards
— goes through a :class:`ComputeBackend`.  The reference implementation is
:class:`~repro.backend.numpy_ref.NumpyBackend` (bit-identical to the
pre-seam code); the gather-GEMM backend makes sparsity pay at compute
time by running the MLP over active neurons only.  Backends only see plain
``np.ndarray`` weights and activations: the autograd/training path never
routes through them.

Selection precedence (most to least specific):

1. an explicit :func:`use_backend` scope (what the engine/serving layer
   installs from ``ExperimentSpec.backend``),
2. the ``REPRO_BACKEND`` environment variable,
3. the ``"numpy"`` reference backend.

The active backend is tracked in a :class:`contextvars.ContextVar`, so
concurrent sessions (threads or asyncio tasks) can run different backends
without interfering.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, Optional, Tuple, Type, Union

import numpy as np

#: Environment variable consulted when no explicit backend scope is active.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Name of the reference backend (always registered, always the default).
DEFAULT_BACKEND = "numpy"


class ComputeBackend:
    """Interface of one compute backend.

    Primitive kernels (``matmul``, ``softmax``, ``rmsnorm``, ``glu_act``,
    ``masked_mlp``, ``masked_down``) must be provided by subclasses;
    ``linear`` and ``gather_gemm`` have default compositions in terms of
    ``matmul`` that subclasses may override with fused/cached variants.

    Weight conventions match :class:`repro.nn.linear.Linear` and
    :class:`repro.nn.mlp.SwiGLUMLP`: ``weight`` is ``(out_features,
    in_features)``; ``w_up``/``w_gate`` are ``(d_ffn, d_model)`` (neuron i =
    row i) and ``w_down`` is ``(d_model, d_ffn)`` (neuron i = column i).
    """

    name: str = "abstract"

    # ------------------------------------------------------------- primitives
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Plain matrix product ``a @ b`` (broadcasting over leading dims)."""
        raise NotImplementedError

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Numerically stable softmax along ``axis``."""
        raise NotImplementedError

    def rmsnorm(self, x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
        """RMS normalisation of ``x`` with learned scale ``weight``."""
        raise NotImplementedError

    def glu_act(
        self,
        w_up: np.ndarray,
        w_gate: np.ndarray,
        activation: str,
        x: np.ndarray,
        input_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """GLU activations ``(W_u x) * sigma(W_g x)``.

        ``input_mask`` (shape broadcastable to ``x``) zeroes input features
        before the projections — the Dynamic Input Pruning path (Eq. 7).
        """
        raise NotImplementedError

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
        """Full sparse MLP forward: ``W_d (GLU(x * input_mask) * neuron_mask)``.

        ``neuron_mask`` has shape ``(..., d_ffn)`` or ``(d_ffn,)``.  This is
        the kernel where gather-GEMM backends resolve the active-neuron index
        set and shrink the GEMMs instead of multiplying by the mask.
        """
        raise NotImplementedError

    def masked_down(self, w_down: np.ndarray, glu: np.ndarray, down_mask: np.ndarray) -> np.ndarray:
        """Down projection of already-computed GLU activations under a mask.

        ``glu`` is *owned* by this call (the caller hands over the buffer, so
        backends may mutate it in place).  This is the hot path for methods
        that cached their GLU activations while ranking neurons (DIP/DIP-CA).
        """
        raise NotImplementedError

    # ----------------------------------------------------------- compositions
    def linear(self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
        """Affine map ``x @ W^T + b`` with leading batch dims flattened.

        Flattening keeps the whole call one GEMM (a 3-D operand would loop
        one small GEMM per batch element instead).
        """
        if x.ndim > 2:
            lead = x.shape[:-1]
            out = self.matmul(x.reshape(-1, x.shape[-1]), weight.T)
            out = out.reshape(*lead, weight.shape[0])
        else:
            out = self.matmul(x, weight.T)
        if bias is not None:
            out += bias
        return out

    def gather_gemm(self, x: np.ndarray, weight: np.ndarray, idx: np.ndarray, axis: int = 0) -> np.ndarray:
        """GEMM against a gathered slice of ``weight``.

        ``axis=0`` gathers rows (output units): returns ``x @ weight[idx].T``
        of shape ``(..., len(idx))``.  ``axis=1`` gathers columns
        (contraction units): ``x`` must already hold only the gathered
        activations and the result is ``x @ weight[:, idx].T`` of shape
        ``(..., out_features)``.
        """
        sub = weight[idx] if axis == 0 else weight[:, idx]
        return self.matmul(x, sub.T)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.name!r})"


# --------------------------------------------------------------------------
# Activation lookup: backends receive the activation by *name* and resolve it
# to the same array function the nn modules use, so routing through a backend
# can never change the non-linearity's numerics.
# --------------------------------------------------------------------------

_ACTIVATION_FNS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {}


def activation_fn(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Array implementation of the named activation (``silu``, ``relu``, ...)."""
    fn = _ACTIVATION_FNS.get(name)
    if fn is None:
        # Deferred: repro.nn.activations imports this module for the seam.
        from repro.nn.activations import get_activation

        fn = get_activation(name).forward_array
        _ACTIVATION_FNS[name] = fn
    return fn


# --------------------------------------------------------------------------
# Registry + active-backend selection.
# --------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[ComputeBackend]] = {}
_INSTANCES: Dict[str, ComputeBackend] = {}
_ACTIVE: ContextVar[Optional[ComputeBackend]] = ContextVar("repro_active_backend", default=None)

BackendLike = Union[None, str, ComputeBackend]


def register_backend(name: str, cls: Type[ComputeBackend]) -> None:
    """Register a backend class under ``name`` (idempotent for re-imports)."""
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"backend name '{name}' already registered to {existing.__name__}")
    _REGISTRY[name] = cls


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> ComputeBackend:
    """The singleton instance of the named backend (instantiated lazily)."""
    instance = _INSTANCES.get(name)
    if instance is None:
        cls = _REGISTRY.get(name)
        if cls is None:
            raise KeyError(f"unknown backend '{name}'; available: {list(available_backends())}")
        instance = cls()
        _INSTANCES[name] = instance
    return instance


def default_backend() -> ComputeBackend:
    """The backend selected by ``REPRO_BACKEND`` (or the numpy reference)."""
    name = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
    return get_backend(name)


def active_backend() -> ComputeBackend:
    """The backend the current context should compute with."""
    backend = _ACTIVE.get()
    return backend if backend is not None else default_backend()


def resolve_backend(backend: BackendLike) -> ComputeBackend:
    """Coerce ``None`` (ambient), a name, or an instance to a backend."""
    if backend is None:
        return active_backend()
    if isinstance(backend, str):
        return get_backend(backend)
    if isinstance(backend, ComputeBackend):
        return backend
    raise TypeError(f"expected backend name, ComputeBackend or None, got {type(backend).__name__}")


@contextmanager
def use_backend(backend: BackendLike) -> Iterator[ComputeBackend]:
    """Scope within which :func:`active_backend` returns ``backend``.

    ``None`` is a no-op scope that inherits the ambient selection — callers
    holding an optional backend can wrap unconditionally.
    """
    if backend is None:
        yield active_backend()
        return
    resolved = resolve_backend(backend)
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)
