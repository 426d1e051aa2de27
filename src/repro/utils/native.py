"""Build and load the package's optional C kernels.

A :class:`CompiledKernel` names one function of one C source shipped with the
package, plus the headers that source includes.  The system C compiler
(``cc`` or ``gcc`` on ``PATH``) builds the source once per process, under a
lock, into the per-user cache directory (``$XDG_CACHE_HOME/repro`` or
``~/.cache/repro``).  A library's name holds a hash of every file compiled
into it (the source and its headers), the flags and the machine
architecture, then a digest of its own bytes, so an edited header builds a
new library and a file whose bytes do not match its name (a truncated
build) is never loaded.  :meth:`CompiledKernel.load` returns the function, or
``None`` when there is no compiler or anything fails; callers then run their
numpy path.  Failures are logged at DEBUG level only.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

#: No -march=native or -ffast-math: the kernels must round as numpy does, and
#: a cached library must load on any host of the same architecture.  A kernel
#: that wants wider vectors dispatches on them at load time (target_clones).
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_UNSET: Any = object()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def address(a: np.ndarray) -> int:
    """The address of ``a``'s first element (``a.ctypes.data`` costs 2-3x more)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:  # read-only or strided
        return a.ctypes.data


def _library(compiler: str, source: Path, headers: Sequence[Path], stem: str) -> Path:
    """The library for ``source``, its ``headers`` and the flags, compiled
    unless a sound copy exists."""
    directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = directory.lstat()
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{directory} is not a directory that only this user can write")
    compiled = b"".join(path.read_bytes() for path in (source, *headers))
    key = _digest(compiled + " ".join(FLAGS).encode() + platform.machine().encode())
    for candidate in sorted(directory.glob(f"{stem}-{key}-*.so")):
        if candidate.name == f"{stem}-{key}-{_digest(candidate.read_bytes())}.so":
            return candidate
    fd, tmp = tempfile.mkstemp(prefix=f"{stem}-{key}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", tmp, str(source)], check=True, capture_output=True, timeout=120)
        final = directory / f"{stem}-{key}-{_digest(Path(tmp).read_bytes())}.so"
        os.replace(tmp, final)
        return final
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class CompiledKernel:
    """The C function ``symbol`` of ``source``, built on first use.

    ``argtypes``/``restype`` are its ``ctypes`` signature; ``headers`` are
    the files ``source`` includes, which the library's hash covers too.  The
    first :meth:`load` builds or loads the library; every later call in the
    process returns the same result.
    """

    def __init__(
        self, source: Path, symbol: str, argtypes: Sequence[Any], restype: Any, headers: Sequence[Path] = ()
    ) -> None:
        self.source = source
        self.headers = tuple(headers)
        self.symbol = symbol
        self.argtypes = list(argtypes)
        self.restype = restype
        self._function: Any = _UNSET
        self._lock = threading.Lock()

    def _load(self) -> Optional[Any]:
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            logger.debug("no C compiler on PATH; %s runs on numpy", self.symbol)
            return None
        try:
            library = _library(compiler, self.source, self.headers, self.symbol)
            function = getattr(ctypes.CDLL(str(library)), self.symbol)
        except (OSError, AttributeError, RuntimeError, subprocess.SubprocessError) as exc:
            logger.debug("compiled %s unavailable (%s); it runs on numpy", self.symbol, exc)
            return None
        function.argtypes = self.argtypes
        function.restype = self.restype
        return function

    def load(self) -> Optional[Any]:
        """The compiled function, or ``None`` when unavailable."""
        if self._function is _UNSET:
            with self._lock:
                if self._function is _UNSET:
                    self._function = self._load()
        return self._function
