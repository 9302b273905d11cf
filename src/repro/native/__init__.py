"""Native kernels, compiled on first use with the system C compiler.

``relax.c`` holds the ADDS worker's relax (``relax_i32``/``relax_f32``,
which read their items from the bucket arena by address) and its
publication (``publish_groups``: the band and split of its winners, then
the §5.2 writer path of each group on the queue's own metadata, which a
:class:`QueueCtx` points at).  :func:`load` returns the ``ctypes``
library built from it, or ``None`` when ``REPRO_NATIVE=0`` is set or no
working ``cc`` is found; callers then keep their pure-Python loops,
which are also the reference the tests hold the kernels to.  The
library is cached under ``$XDG_CACHE_HOME/repro`` (else
``~/.cache/repro``, else a private ``repro-<uid>`` directory in the
system temp dir), named by the hash of the source and flags
(:func:`library_path`), and loaded once per process.  ``-ffp-contract=off``
keeps the compiler from fusing the push cost's multiply-add on targets
with FMA, which would change the bits of the simulated time.
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

__all__ = ["QueueCtx", "RelaxCtx", "WinBuf", "library_path", "load"]

SOURCE = Path(__file__).with_name("relax.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
LIBS = ("-lm",)

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


class QueueCtx(ctypes.Structure):
    """``queue_ctx`` of ``relax.c``: where the bucket queue's writer-side
    metadata lives (:meth:`BucketQueue.refresh_native
    <repro.core.bucket_queue.BucketQueue.refresh_native>` keeps it
    current)."""

    _fields_ = [
        ("n_buckets", _i64), ("segment_size", _i64), ("slots_per_block", _i64),
        ("words_per_block", _i64), ("resv", _ptr), ("pool", _i64), ("bucket", _ptr),
    ]


class WinBuf(ctypes.Structure):
    """``win_buf`` of ``relax.c``: one worker's winners, from its relax
    until it publishes them, their per-bucket groups, the state of their
    publication across a capacity wait and the counts of the last
    ``publish_groups`` call."""

    _fields_ = [
        ("cap", _i64), ("win", _ptr), ("grp_v", _ptr), ("grp_d", _ptr),
        ("grp", _ptr), ("ng", _i64), ("next", _i64), ("off", _i64),
        ("start", _i64), ("push_cost", ctypes.c_double),
        ("pushed", _i64), ("tail_pushed", _i64), ("atomics", _i64),
        ("fences", _i64), ("low_clips", _i64), ("high_clips", _i64),
        ("slot", _i64), ("need", _i64), ("bad", _i64), ("count", _i64),
    ]


#: ``relax.c``'s negative return codes
RELAX_BAD_ITEM, RELAX_BAD_OFFSETS, RELAX_BAD_COLUMN = -1, -2, -3
RELAX_LOG_FULL, RELAX_WIN_SHORT = -4, -5
PUBLISH_UNMAPPED, PUBLISH_NO_WCC, PUBLISH_WCC_FULL = -6, -7, -8
#: ``publish_groups`` stopped for capacity; pass ``PUBLISH_RESUME`` as its
#: winner count to go on
PUBLISH_WAIT, PUBLISH_RESUME = 1, -1


def load() -> Optional[ctypes.CDLL]:
    """The relax kernel library, or ``None`` for the Python fallback."""
    if os.environ.get("REPRO_NATIVE") == "0":
        return None
    return _build()


def _cache_dirs():
    xdg = os.environ.get("XDG_CACHE_HOME")
    yield Path(xdg) / "repro" if xdg else Path.home() / ".cache" / "repro"
    yield Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def library_path(cache: Optional[Path] = None) -> Path:
    """The file the loader looks for in ``cache`` (default: the first
    cache directory it tries), named by the hash of the source and the
    build flags.  A library put there before the first :func:`load` is
    used as it is, which is how a sanitizer build is slipped in."""
    if cache is None:
        cache = next(_cache_dirs())
    flags = " ".join(CFLAGS + LIBS).encode()
    tag = hashlib.sha256(SOURCE.read_bytes() + flags).hexdigest()[:16]
    return cache / f"relax-{tag}.so"


@functools.lru_cache(maxsize=None)
def _build() -> Optional[ctypes.CDLL]:
    for cache in _cache_dirs():
        lib = library_path(cache)
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
                        ["cc", *CFLAGS, "-o", tmp, str(SOURCE), *LIBS],
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
        fn.argtypes = (_ptr, _ptr, _i64, _ptr)
        fn.restype = _i64
    lib.publish_groups.argtypes = (
        _ptr, _ptr, _ptr, _i64, ctypes.c_double, ctypes.c_double, _i64,
        ctypes.c_double,
    )
    lib.publish_groups.restype = _i64
    return lib
