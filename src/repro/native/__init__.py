"""Native kernels, compiled on first use with the system C compiler.

:func:`load` returns the ``ctypes`` library built from ``relax.c``, or
``None`` when ``REPRO_NATIVE=0`` is set or no working ``cc`` is found;
callers then keep their pure-Python loops, which are also the reference
the tests hold the kernels to.  The library is cached under
``$XDG_CACHE_HOME/repro`` (else ``~/.cache/repro``, else a private
``repro-<uid>`` directory in the system temp dir), named by the hash of
the source, and loaded once per process.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["RelaxCtx", "load"]

SOURCE = Path(__file__).with_name("relax.c")
CFLAGS = ("-O2", "-shared", "-fPIC")

_i64, _ptr = ctypes.c_int64, ctypes.c_void_p


class RelaxCtx(ctypes.Structure):
    """``relax_ctx`` of ``relax.c``: the solve's arrays, the scratch and
    a batch's outputs."""

    _fields_ = [
        ("n", _i64), ("m", _i64), ("ro", _ptr), ("col", _ptr), ("w", _ptr),
        ("dist", _ptr), ("pred", _ptr), ("live_v", _ptr), ("live_d", _ptr),
        ("log_cap", _i64), ("log_u", _ptr), ("log_d", _ptr), ("log_pos", _ptr),
        ("n_live", _i64), ("edges", _i64), ("bad", _i64),
    ]


#: ``relax.c``'s negative return codes
RELAX_BAD_ITEM, RELAX_BAD_OFFSETS, RELAX_BAD_COLUMN, RELAX_LOG_FULL = -1, -2, -3, -4


def load() -> Optional[ctypes.CDLL]:
    """The relax kernel library, or ``None`` for the Python fallback."""
    if os.environ.get("REPRO_NATIVE") == "0":
        return None
    return _build()


def _cache_dirs():
    xdg = os.environ.get("XDG_CACHE_HOME")
    yield Path(xdg) / "repro" if xdg else Path.home() / ".cache" / "repro"
    yield Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


@functools.lru_cache(maxsize=None)
def _build() -> Optional[ctypes.CDLL]:
    src = SOURCE.read_bytes()
    tag = hashlib.sha256(src + " ".join(CFLAGS).encode()).hexdigest()[:16]
    for cache in _cache_dirs():
        lib = cache / f"relax-{tag}.so"
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = cache.stat()
            if st.st_uid != os.getuid() or st.st_mode & 0o022:
                continue  # another user could plant a library here
            if not lib.exists():
                # engine workers race to build: each compiles its own
                # file, and the atomic rename publishes one of them
                fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
                os.close(fd)
                try:
                    subprocess.run(
                        ["cc", *CFLAGS, "-o", tmp, str(SOURCE)],
                        check=True, capture_output=True, timeout=120,
                    )
                    os.replace(tmp, lib)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
            return _declare(ctypes.PyDLL(str(lib)))
        except (OSError, subprocess.SubprocessError):
            continue  # unwritable cache or no compiler: try the next
    return None


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    for fn in (lib.relax_i32, lib.relax_f32):
        fn.argtypes = (_ptr, _i64, _ptr, _ptr)
        fn.restype = _i64
    return lib
