"""The MLP half of a DIP or DIP-CA decode step in one C call (``_decode_mlp.c``).

:func:`decode_mlp` serves :meth:`SparseInferenceEngine._mlp_override
<repro.engine.inference.SparseInferenceEngine._mlp_override>`, the one place
that dispatches to it; the one-call decode step
(:mod:`repro.engine.decode_step`) runs the same kernel for every layer of a
step, through the same :func:`bound_layer` and :func:`advance`.  One call of
the kernel runs, for each row of the MLP input, DIP's input mask (Eq. 7),
the GLU over the kept rows of the unit-major up and gate weights, the down
mask (Eq. 8) and the down projection over the kept rows of the down weight;
for DIP-CA both masks are chosen against, and update, the method's LFU
caches (Algorithm 1), with the per-row step of ``_ca_row.h`` that DIP-CA's
``ca_step`` runs too.  So it reads only the weight rows it keeps, where
numpy multiplies masked-dense.

It serves a call only when every one of these holds, and returns ``None``
otherwise, so the numpy path (``compute_masks`` then ``sparse_forward``)
runs; that path also stays the reference the tests compare against:

- the method is :class:`~repro.sparsity.dip.DynamicInputPruning` or
  :class:`~repro.sparsity.cache_aware.CacheAwareDIP` (no subclass);
- the MLP's activation is SiLU and the input is float64;
- rows x the method's MLP density <= 1.  A row reads about ``density`` of
  the weights through the kernel, while one GEMM over all rows reads them
  once, so wider calls (prefill, wide decode batches) stay on numpy;
- the kernel is built.

Outputs agree with numpy to rounding, not bit for bit; masks agree except
where two scores tie to rounding.  DIP-CA's caches, ``token_index`` and
``CacheHitStats`` advance as ``compute_masks`` would advance them, so prefill
on numpy and decode here share one cache state.  Weight addresses, cache
arrays and keep counts are bound once per method and layer and compared by
identity on every call, so a replaced array is bound again; copies and
pickles of a method start without bindings.  Every dtype, shape, keep count
and cache array is checked before each call.
"""

from __future__ import annotations

import ctypes
import operator
from typing import TYPE_CHECKING, Optional, Tuple, cast

import numpy as np

from repro.nn.mlp import SwiGLUMLP
from repro.sparsity.base import SparsityMethod, keep_count
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning
from repro.utils.native import CompiledKernel, address

if TYPE_CHECKING:  # imported lazily at runtime: repro.hwsim depends on repro.sparsity
    from repro.hwsim.cache import LFUCache

_size, _pointer = ctypes.c_int64, ctypes.c_void_p


class _Group(ctypes.Structure):
    """``struct group``: the units kept per row and, for DIP-CA, the LFU cache."""

    _fields_ = [("k", _size), ("capacity", _size), ("cached", _pointer), ("frequency", _pointer)]


class _MLP(ctypes.Structure):
    """``struct mlp``: one layer's geometry, weight addresses and groups."""

    _fields_ = [
        ("d_model", _size),
        ("d_ffn", _size),
        ("gamma", ctypes.c_double),
        ("w_up", _pointer),
        ("w_gate", _pointer),
        ("w_down", _pointer),
        ("input", _Group),
        ("down", _Group),
    ]


DECODE_MLP = CompiledKernel("decode_mlp")

#: The methods the kernel computes exactly; a subclass may rank differently.
_SERVED = (DynamicInputPruning, CacheAwareDIP)


_FLOAT64, _BOOL, _INT64 = np.dtype(np.float64), np.dtype(np.bool_), np.dtype(np.int64)


def _fits(a: np.ndarray, shape: Tuple[int, ...], dtype: np.dtype = _FLOAT64) -> bool:
    return a.dtype == dtype and a.shape == shape and a.flags.c_contiguous


def _writable(a: np.ndarray, shape: Tuple[int, ...], dtype: np.dtype) -> bool:
    flags = a.flags
    return a.dtype == dtype and a.shape == shape and flags.c_contiguous and flags.writeable


def _checked(arrays: tuple, scalars: tuple) -> bool:
    """Whether the kernel can read the weights and write the caches in place."""
    d_model, d_ffn, k_in, k_down = scalars[:4]
    if not (0 <= k_in <= d_model and 0 <= k_down <= d_ffn):
        return False
    w_up, w_gate, w_down, in_cached, in_frequency, down_cached, down_frequency = arrays
    if not (_fits(w_up, (d_model, d_ffn)) and _fits(w_gate, (d_model, d_ffn)) and _fits(w_down, (d_ffn, d_model))):
        return False
    if in_cached is None:  # plain DIP: no caches
        return True
    return (
        _writable(in_cached, (d_model,), _BOOL)
        and _writable(in_frequency, (d_model,), _INT64)
        and _writable(down_cached, (d_ffn,), _BOOL)
        and _writable(down_frequency, (d_ffn,), _INT64)
    )


def _bind(arrays: tuple, scalars: tuple) -> tuple:
    """``(arrays, scalars, struct, address)`` of one method's layer."""
    d_model, d_ffn, k_in, k_down, gamma, capacity_in, capacity_down = scalars
    groups = [
        _Group(k, capacity, *(0 if a is None else a.ctypes.data for a in pair))
        for k, capacity, pair in ((k_in, capacity_in, arrays[3:5]), (k_down, capacity_down, arrays[5:]))
    ]
    struct = _MLP(d_model, d_ffn, gamma, *(a.ctypes.data for a in arrays[:3]), *groups)
    return arrays, scalars, struct, ctypes.addressof(struct)


def bound_layer(method: SparsityMethod, mlp: SwiGLUMLP, layer_index: int, rows: int) -> Optional[tuple]:
    """``(binding, caches, keep counts)`` of ``method`` for ``mlp`` when
    the kernel serves ``rows`` rows of its float64 input, or ``None``.

    ``binding[3]`` is the address of the kernel's ``struct mlp``, which the
    binding keeps alive; ``caches`` are DIP-CA's input and down caches of
    the layer (empty for DIP).  The binding is made again when an array it
    holds has been replaced or a keep count changed.
    """
    if type(method) not in _SERVED or mlp.config.activation != "silu":
        return None
    d_model, d_ffn = mlp.d_model, mlp.d_ffn
    if rows * method.expected_density(d_model, d_ffn) > 1.0:
        return None
    dip = cast(DynamicInputPruning, method)
    arrays: tuple = (mlp.w_up, mlp.w_gate, mlp.w_down)
    ks = (keep_count(dip.input_keep_fraction, d_model), keep_count(dip.neuron_keep_fraction, d_ffn))
    scalars: tuple = (d_model, d_ffn, *ks, dip.gamma)
    caches: Tuple["LFUCache", ...] = ()
    if isinstance(dip, CacheAwareDIP):
        inputs = cast("LFUCache", dip._cache_for(layer_index, "input", d_model))
        down = cast("LFUCache", dip._cache_for(layer_index, "down", d_ffn))
        caches = (inputs, down)
        arrays += (inputs.cached, inputs.frequency, down.cached, down.frequency)
        scalars += (inputs.capacity_units, down.capacity_units)
    else:
        arrays += (None,) * 4
        scalars += (0, 0)
    if not _checked(arrays, scalars):
        return None
    bound = dip._bound.get(layer_index)
    if bound is None or bound[1] != scalars or not all(map(operator.is_, arrays, bound[0])):
        bound = dip._bound[layer_index] = _bind(arrays, scalars)
    return bound, caches, ks


def advance(method: SparsityMethod, layer: tuple, rows: int, hits: int) -> None:
    """Advance DIP-CA's ``token_index`` and hit statistics after the kernel
    served ``rows`` rows of ``layer`` (from :func:`bound_layer`) with
    ``hits`` hits; the kernel has updated the caches themselves."""
    _, caches, ks = layer
    if caches:
        for cache in caches:
            cache.token_index += rows
        stats = cast(CacheAwareDIP, method).stats
        stats.hits += hits
        stats.misses += rows * (ks[0] + ks[1]) - hits


def decode_mlp(method: SparsityMethod, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray) -> Optional[np.ndarray]:
    """The MLP output of ``mlp`` under ``method`` for the rows of ``x``
    ``(T, d_model)``, without the residual, or ``None`` when the numpy path
    must run.  For DIP-CA the method's caches and hit statistics advance."""
    if x.dtype != np.float64 or x.ndim != 2 or x.shape[1] != mlp.d_model:
        return None
    rows = x.shape[0]
    layer = bound_layer(method, mlp, layer_index, rows)  # first, so other methods never load the kernel
    if layer is None:
        return None
    kernel = DECODE_MLP.load()
    if kernel is None:
        return None
    x = np.ascontiguousarray(x)
    out = np.empty(x.shape)
    hits = kernel(layer[0][3], rows, address(x), address(out))
    if hits < 0:
        raise MemoryError("the decode MLP could not allocate its scratch memory")
    advance(method, layer, rows, hits)
    return out
