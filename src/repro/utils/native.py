"""Build and load the package's optional C kernels, as one library.

Every kernel is compiled from one translation unit, ``_decode_step.c``,
which includes the other kernel sources, into one shared library:
:data:`LIBRARY`.  The system C compiler (``cc`` or ``gcc`` on ``PATH``)
builds it once per process, under a lock, into the per-user cache directory
(``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``).  The library's name holds
a hash of every file compiled into it (the source and the files it
includes), the flags and the machine architecture, then a digest of its own
bytes, so an edited header builds a new library and a file whose bytes do
not match its name (a truncated build) is never loaded.
:meth:`KernelLibrary.load` returns every kernel function, or ``None`` when
there is no compiler or anything fails, so the kernels load all together or
not at all; callers then run their numpy paths.  A :class:`CompiledKernel`
is one function's handle.  Failures are logged at DEBUG level only.

A :class:`Binding` is a kernel's view of some arrays and scalars, checked
when it is made; :func:`current_binding` is the one rule for when a held
binding is used again.  Each binding is stamped with the process-wide
:data:`VERSION` read before its sources are gathered, and every attribute a
binding reads bumps that version when it is replaced on an existing object
(:class:`BoundAttribute`, :class:`BoundDict`, or a ``__setattr__`` for
``Module`` and ``Parameter``), so a held binding is current while the version
has not moved and its owners are the same objects: one integer compare
instead of gathering and comparing every source.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import logging
import operator
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, MutableMapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

logger = logging.getLogger(__name__)

#: No -march=native or -ffast-math: the kernels must round as numpy does, and
#: a cached library must load on any host of the same architecture.  A kernel
#: that wants wider vectors dispatches on them at load time (target_clones).
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_UNSET: Any = object()

_PACKAGE = Path(__file__).resolve().parent.parent
_size, _pointer = ctypes.c_int64, ctypes.c_void_p

#: Each kernel's ``ctypes`` argument types; every kernel returns an int64.
_ARGTYPES: Dict[str, Sequence[Any]] = {
    "ca_step": [_pointer, _size, _size, _size, ctypes.c_double, _size, _pointer, _pointer, _pointer, _pointer],
    "decode_attn": [_pointer, _pointer, _size, _pointer, _pointer, _pointer],
    "decode_head": [_pointer, _size, _pointer, _pointer],
    "decode_mlp": [_pointer, _size, _pointer, _pointer],
    "decode_step": [_pointer, _size, _pointer, _pointer, _pointer, _pointer],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def address(a: np.ndarray) -> int:
    """The address of ``a``'s first element (``a.ctypes.data`` costs 2-3x more)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:  # read-only or strided
        return a.ctypes.data


def _library(compiler: str, source: Path, headers: Sequence[Path]) -> Path:
    """The library for ``source``, its ``headers`` and the flags, compiled
    unless a sound copy exists."""
    directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = directory.lstat()
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{directory} is not a directory that only this user can write")
    compiled = b"".join(path.read_bytes() for path in (source, *headers))
    stem = "kernels-" + _digest(compiled + " ".join(FLAGS).encode() + platform.machine().encode())
    for candidate in sorted(directory.glob(f"{stem}-*.so")):
        if candidate.name == f"{stem}-{_digest(candidate.read_bytes())}.so":
            return candidate
    fd, tmp = tempfile.mkstemp(prefix=f"{stem}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", tmp, str(source)], check=True, capture_output=True, timeout=120)
        final = directory / f"{stem}-{_digest(Path(tmp).read_bytes())}.so"
        os.replace(tmp, final)
        return final
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class KernelLibrary:
    """The kernel functions, compiled from ``source`` on first use.

    ``headers`` are the files ``source`` includes, which the library's hash
    covers too.  The first :meth:`load` builds or loads the library; every
    later call in the process returns the same result.
    """

    def __init__(self, source: Path, headers: Sequence[Path]) -> None:
        self.source = source
        self.headers = tuple(headers)
        self._functions: Any = _UNSET
        self._lock = threading.Lock()

    def _load(self) -> Optional[Dict[str, Any]]:
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            logger.debug("no C compiler on PATH; the kernels run on numpy")
            return None
        try:
            library = ctypes.CDLL(str(_library(compiler, self.source, self.headers)))
            functions = {symbol: getattr(library, symbol) for symbol in _ARGTYPES}
        except (OSError, AttributeError, RuntimeError, subprocess.SubprocessError) as exc:
            logger.debug("compiled kernels unavailable (%s); they run on numpy", exc)
            return None
        for symbol, function in functions.items():
            function.argtypes = list(_ARGTYPES[symbol])
            function.restype = ctypes.c_int64
        return functions

    def load(self) -> Optional[Dict[str, Any]]:
        """Every compiled function by name, or ``None`` when unavailable."""
        if self._functions is _UNSET:
            with self._lock:
                if self._functions is _UNSET:
                    self._functions = self._load()
        return self._functions


#: The one library: ``_decode_step.c`` includes the other kernel sources.
LIBRARY = KernelLibrary(
    _PACKAGE / "engine" / "_decode_step.c",
    [
        _PACKAGE / path
        for path in (
            "nn/_decode_attn.c",
            "sparsity/_decode_mlp.c",
            "sparsity/_ca_step.c",
            "sparsity/_ca_row.h",
            "utils/_vector.h",
        )
    ],
)


class CompiledKernel:
    """The handle of one function of :data:`LIBRARY`, named ``symbol``."""

    def __init__(self, symbol: str) -> None:
        self.symbol = symbol

    def load(self) -> Optional[Any]:
        """The compiled function, or ``None`` when the library is unavailable."""
        functions = LIBRARY.load()
        return None if functions is None else functions[self.symbol]


class Version:
    """The process-wide version every :class:`Binding` is stamped with.

    :meth:`bump` moves ``now`` to a value no earlier bump has taken, drawn
    from an atomic counter, so two threads replacing arrays at once cannot
    lose a bump.  Only replacing an attribute that some binding reads, on an
    object that exists, bumps: a new object is in no binding yet, and
    per-step writes (lengths, counters, statistics) are not bound."""

    __slots__ = ("now", "_counter")

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self.now = 0

    def bump(self) -> None:
        """Mark every binding made so far stale; called after the store."""
        self.now = next(self._counter)


#: The one version of the process.
VERSION = Version()


class BoundAttribute:
    """A class attribute naming an instance attribute that bindings read:
    assigning it a new object, once the instance holds one, bumps
    :data:`VERSION`.  It defines no ``__get__``, so reads stay plain
    instance-dict reads; first assignments, and an in-place operator that
    assigns the same object back, bump nothing.  Copies and pickles restore
    their ``__dict__`` directly, so they bump nothing either."""

    __slots__ = ("name",)

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __set__(self, instance: Any, value: Any) -> None:
        attributes = instance.__dict__
        old = attributes.get(self.name, value)
        attributes[self.name] = value
        if old is not value:
            VERSION.bump()  # after the store: a binding stamped before it sees a new version


class BoundDict(dict):
    """A dict whose values bindings read: replacing a value (``d[key] =``)
    or removing one (``del d[key]``) bumps :data:`VERSION`; adding a key
    does not, the new value being in no binding yet."""

    __slots__ = ()

    def __setitem__(self, key: Any, value: Any) -> None:
        replaced = self.get(key, value) is not value
        super().__setitem__(key, value)
        if replaced:
            VERSION.bump()

    def __delitem__(self, key: Any) -> None:
        super().__delitem__(key)
        VERSION.bump()


class Binding:
    """A kernel's view of some arrays and scalars: what it was made from
    (``sources``, which it keeps alive), the ``struct`` the kernel reads,
    made after every dtype, shape and value check it needs, and the struct's
    ``address``.  :func:`current_binding` stamps it with the ``version`` it
    was made at and the ``owners`` it was made for.  It holds addresses, so
    its holders drop it from copies and pickles."""

    __slots__ = ("sources", "struct", "address", "version", "owners")

    def __init__(self, sources: Sequence[Any], struct: Any) -> None:
        self.sources, self.struct, self.address = sources, struct, ctypes.addressof(struct)
        self.version, self.owners = -1, ()


_Bound = TypeVar("_Bound", bound=Binding)


def current_binding(
    holder: MutableMapping[Any, Any],
    key: Hashable,
    owners: Tuple[Any, ...],
    bind: Callable[[], Optional[_Bound]],
) -> Optional[_Bound]:
    """The binding ``holder[key]`` if it is current, else ``bind()``, stored
    there: a new binding, or ``None`` when the kernel cannot use what it
    gathers.

    A binding is current while :data:`VERSION` has not moved since it was
    made and it was made for the same ``owners``, the same objects in the
    same order: the objects its sources hang from that no version covers
    (an MLP whose binding the method holds per layer, an item of a list or
    dict).  Every attribute on the way from the holder or an owner to a
    source bumps the version when it is replaced, so a replaced array or
    scalar is bound, and checked, again; ``bind`` gathers the sources only
    then, after the version it is stamped with has been read, so a bump
    while it gathers leaves it stale.

    ``holder`` is the dict the binding is kept in: an object's ``vars()``
    or a method's per-layer bindings.  A binding still current is not
    stored again.  The caller holds the returned binding until its kernel
    call returns: another thread may replace ``holder[key]`` meanwhile."""
    held = holder.get(key)
    if (
        held is not None
        and held.version == VERSION.now
        and len(held.owners) == len(owners)
        and all(map(operator.is_, owners, held.owners))
    ):
        return held
    version = VERSION.now
    bound = holder[key] = bind()
    if bound is not None:
        bound.version, bound.owners = version, owners
    return bound
