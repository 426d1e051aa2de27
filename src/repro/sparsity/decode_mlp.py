"""The MLP half of a DIP or DIP-CA decode step in one C call (``_decode_mlp.c``).

The one-call decode step (:mod:`repro.engine.decode_step`) runs the kernel
for every layer of a DIP/DIP-CA ``ContinuousBatch`` step, through
:func:`bound_layer` and :func:`advance`; :func:`decode_mlp` runs it on one
layer's MLP input through the same two, for the tests and the benchmarks
that check and time the kernel on its own.  One call of the kernel runs,
for the rows of the MLP input, DIP's input mask (Eq. 7) of each row, the
GLU over the kept rows of the unit-major up and gate weights, each row's
down mask (Eq. 8) and the down projection over the kept rows of the down
weight; for DIP-CA both masks are chosen against, and update, the method's
LFU caches (Algorithm 1), with the per-row step of ``_ca_row.h`` that
DIP-CA's ``ca_step`` runs too.  So it reads only the weight rows it keeps,
where numpy multiplies masked-dense, and reads each of them once for up to
eight rows: a weight row is added into every row that kept it.  Each row's
numbers are those it gets alone, bit for bit.

It serves a call only when every one of these holds, and returns ``None``
otherwise, so the numpy path (``compute_masks`` then ``sparse_forward``)
runs; that path also stays the reference the tests compare against:

- the method is :class:`~repro.sparsity.dip.DynamicInputPruning` or
  :class:`~repro.sparsity.cache_aware.CacheAwareDIP` (no subclass);
- the MLP's activation is SiLU and the input is float64;
- the kernel is built.

The engine calls it only through the one-call step, so prefill and every
step the per-layer path runs stay on numpy.

Outputs agree with numpy to rounding, not bit for bit; masks agree except
where two scores tie to rounding.  DIP-CA's caches, ``token_index`` and
``CacheHitStats`` advance as ``compute_masks`` would advance them, so prefill
on numpy and decode here share one cache state.  Weight addresses, cache
arrays and keep counts are bound once per method and layer, with every
dtype, shape, contiguity, writability and keep-count check made then, as the
compiled decode attention binds its blocks; later calls use a binding while
the process-wide version has not moved and the layer's MLP and DIP-CA caches
are the objects it was made for, and bind again once something it was made
from (:func:`layer_sources`) has been replaced
(:func:`~repro.utils.native.current_binding`).  Copies and pickles of a
method start without bindings.
"""

from __future__ import annotations

import ctypes
import operator
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, cast

import numpy as np

from repro.nn.mlp import SwiGLUMLP
from repro.sparsity.base import SparsityMethod, keep_count
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.dip import DynamicInputPruning
from repro.utils.native import Binding, CompiledKernel, address, current_binding

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
SERVED = (DynamicInputPruning, CacheAwareDIP)


_FLOAT64, _BOOL, _INT64 = np.dtype(np.float64), np.dtype(np.bool_), np.dtype(np.int64)


def _fits(a: np.ndarray, shape: Tuple[int, ...], dtype: np.dtype = _FLOAT64) -> bool:
    return a.dtype == dtype and a.shape == shape and a.flags.c_contiguous


def _writable(a: np.ndarray, shape: Tuple[int, ...], dtype: np.dtype) -> bool:
    return _fits(a, shape, dtype) and a.flags.writeable


class BoundLayer(Binding):
    """One method's binding of one layer: its ``struct mlp``, DIP-CA's input
    and down caches (empty for DIP) and the units ``kept`` per row over both
    groups."""

    __slots__ = ("caches", "kept")

    def __init__(self, sources: tuple, struct: _MLP, caches: Tuple["LFUCache", ...], kept: int) -> None:
        super().__init__(sources, struct)
        self.caches, self.kept = caches, kept


_mlp_state = operator.attrgetter("config", "up.data", "gate.data", "down.data")
_cache_state = operator.attrgetter("cached", "frequency", "capacity_units")


def layer_sources(method: SparsityMethod, mlp: SwiGLUMLP, layer_index: int) -> tuple:
    """Everything the binding of ``method`` for ``mlp`` reads, gathered when
    it is made: the MLP's config and weights, the method's allocation (its
    keep fractions) and gamma and, for DIP-CA, the layer's input and down
    caches with their arrays and capacities."""
    caches = _layer_caches(method, mlp, layer_index)
    sources = _mlp_state(mlp) + (cast(DynamicInputPruning, method).allocation, method.gamma) + caches
    for cache in caches:
        sources += _cache_state(cache)
    return sources


def _layer_caches(method: SparsityMethod, mlp: SwiGLUMLP, layer_index: int) -> tuple:
    """DIP-CA's input and down caches of the layer, made on first use; none for DIP."""
    if type(method) is not CacheAwareDIP:
        return ()
    dip_ca = cast(CacheAwareDIP, method)
    return dip_ca._cache_for(layer_index, "input", mlp.d_model), dip_ca._cache_for(layer_index, "down", mlp.d_ffn)


def _bind(sources: tuple) -> Optional[BoundLayer]:
    """The binding made from ``sources``, or ``None`` if the kernel cannot
    read the weights, write the caches in place or keep that many units."""
    config, w_up, w_gate, w_down, allocation, gamma = sources[:6]
    d_model, d_ffn = config.d_model, config.d_ffn
    ks = (keep_count(allocation.input_density, d_model), keep_count(allocation.down_density, d_ffn))
    if config.activation != "silu" or not (0 <= ks[0] <= d_model and 0 <= ks[1] <= d_ffn):
        return None
    if not (_fits(w_up, (d_model, d_ffn)) and _fits(w_gate, (d_model, d_ffn)) and _fits(w_down, (d_ffn, d_model))):
        return None
    groups = [_Group(k, 0, 0, 0) for k in ks]  # plain DIP: no caches
    caches = sources[6:8]
    for i, n_units in enumerate((d_model, d_ffn) if caches else ()):  # DIP-CA's input, then down cache
        cached, frequency, capacity = sources[8 + 3 * i : 11 + 3 * i]
        if not (_writable(cached, (n_units,), _BOOL) and _writable(frequency, (n_units,), _INT64)):
            return None
        groups[i] = _Group(ks[i], capacity, cached.ctypes.data, frequency.ctypes.data)
    struct = _MLP(d_model, d_ffn, gamma, w_up.ctypes.data, w_gate.ctypes.data, w_down.ctypes.data, *groups)
    return BoundLayer(sources, struct, caches, ks[0] + ks[1])


def bound_layer(method: SparsityMethod, mlp: SwiGLUMLP, layer_index: int) -> Optional[BoundLayer]:
    """The binding of ``method`` for ``mlp`` when the kernel serves its
    float64 input, or ``None``.

    The binding is held on the method per layer, for ``mlp`` and, for
    DIP-CA, the layer's two caches, and made, and checked, again once one of
    its :func:`layer_sources` has been replaced
    (:func:`~repro.utils.native.current_binding`).
    """
    if type(method) not in SERVED:
        return None
    owners = (mlp,) + _layer_caches(method, mlp, layer_index)
    held = cast(DynamicInputPruning, method)._bound
    return current_binding(held, layer_index, owners, lambda: _bind(layer_sources(method, mlp, layer_index)))


def advance(method: SparsityMethod, layers: Sequence[BoundLayer], rows: int, hits: Sequence[int]) -> None:
    """Advance DIP-CA's ``token_index`` and hit statistics after the kernel
    served ``rows`` rows of each of ``layers`` (from :func:`bound_layer`),
    ``hits[i]`` hits on layer ``i``; the kernel has updated the caches
    themselves."""
    if type(method) is not CacheAwareDIP:
        return
    kept = 0
    for layer in layers:
        for cache in layer.caches:
            cache.token_index += rows
        kept += layer.kept
    total = sum(hits)
    stats = cast(CacheAwareDIP, method).stats
    stats.hits += total
    stats.misses += rows * kept - total


def decode_mlp(method: SparsityMethod, mlp: SwiGLUMLP, layer_index: int, x: np.ndarray) -> Optional[np.ndarray]:
    """The MLP output of ``mlp`` under ``method`` for the rows of ``x``
    ``(T, d_model)``, without the residual, or ``None`` when the numpy path
    must run.  For DIP-CA the method's caches and hit statistics advance."""
    if x.dtype != np.float64 or x.ndim != 2 or x.shape[1] != mlp.d_model:
        return None
    rows = x.shape[0]
    layer = bound_layer(method, mlp, layer_index)  # first, so other methods never load the kernel
    if layer is None:
        return None
    kernel = DECODE_MLP.load()
    if kernel is None:
        return None
    x = np.ascontiguousarray(x)
    out = np.empty(x.shape)
    hits = kernel(layer.address, rows, address(x), address(out))
    if hits < 0:
        raise MemoryError("the decode MLP could not allocate its scratch memory")
    advance(method, (layer,), rows, (hits,))
    return out
