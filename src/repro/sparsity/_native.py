"""Build and load DIP-CA's compiled per-token step (``_ca_step.c``).

The system C compiler (``cc`` or ``gcc`` on ``PATH``) builds the source once
per process, under a lock, into the per-user cache directory
(``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``).  A library's name holds a
hash of the source, the flags and the machine architecture, then a digest of
its own bytes, so a file whose bytes do not match its name (a truncated
build) is never loaded.  :func:`load_ca_step` returns the ``ca_step``
function, or ``None`` when there is no compiler or anything fails; callers
then run the numpy step.  Failures are logged at DEBUG level only.
"""

from __future__ import annotations

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
from typing import Any, Optional

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_ca_step.c")
#: No -march=native or -ffast-math: Eq. 10 must round as numpy does, and a
#: cached library must load on any host of the same architecture.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_lock = threading.Lock()
_UNSET: Any = object()
_step: Any = _UNSET


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _library(compiler: str) -> Path:
    """The library for the current source and flags, compiled unless a sound copy exists."""
    directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = directory.lstat()
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{directory} is not a directory that only this user can write")
    key = _digest(SOURCE.read_bytes() + " ".join(FLAGS).encode() + platform.machine().encode())
    for candidate in sorted(directory.glob(f"ca_step-{key}-*.so")):
        if candidate.name == f"ca_step-{key}-{_digest(candidate.read_bytes())}.so":
            return candidate
    fd, tmp = tempfile.mkstemp(prefix=f"ca_step-{key}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)], check=True, capture_output=True, timeout=120)
        final = directory / f"ca_step-{key}-{_digest(Path(tmp).read_bytes())}.so"
        os.replace(tmp, final)
        return final
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> Optional[Any]:
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        logger.debug("no C compiler on PATH; DIP-CA runs its numpy step")
        return None
    try:
        import ctypes  # only DIP-CA needs it

        step = ctypes.CDLL(str(_library(compiler))).ca_step
    except (OSError, AttributeError, RuntimeError, subprocess.SubprocessError) as exc:
        logger.debug("compiled DIP-CA step unavailable (%s); DIP-CA runs its numpy step", exc)
        return None
    pointer, size = ctypes.c_void_p, ctypes.c_int64
    step.argtypes = [pointer, size, size, size, ctypes.c_double, size, pointer, pointer, pointer, pointer]
    step.restype = ctypes.c_int64
    return step


def load_ca_step() -> Optional[Any]:
    """The compiled ``ca_step`` (see ``_ca_step.c``), or ``None`` when unavailable.

    The first call builds or loads the library; every later call in the
    process returns the same result.
    """
    global _step
    if _step is _UNSET:
        with _lock:
            if _step is _UNSET:
                _step = _load()
    return _step
