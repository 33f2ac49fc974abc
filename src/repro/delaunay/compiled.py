"""The bulk build's insert loop, compiled on first use.

``_insert.c`` is the hot loop of
:class:`~repro.delaunay.triangulation.DelaunayTriangulation`'s bulk build
(walk, cavity, ghost conflicts, Hilbert keys) in C.  The first process
that needs it compiles it with the system compiler (``$CC``, default
``cc``) into the user cache directory (``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``), under a name taken from a 64-bit :mod:`zlib` digest
(CRC-32 and Adler-32) of the source and the compile command; later
processes load that file through :mod:`ctypes`.  The name has only to change
when the source or the command does; it is no security boundary (whoever can
write the cache directory can plant a library under any name), so it needs
no cryptographic hash, and no :mod:`hashlib` mapping OpenSSL into every
process that builds a graph.  There is no install step and no dependency
beyond numpy.

:func:`library` never raises: a missing compiler, a failed compile or a
file that does not load gives ``None``, decided once per process and
reported by one :class:`RuntimeWarning` (none where ``CC=false`` asks for
it), and the interpreted loop builds the graph instead.  A cached file
that does not load is compiled again over itself.  Both loops build the
same graph: the C predicates take the float filters of
:mod:`repro.geometry.predicates` in the same order and call its exact
stage back wherever a filter is unsure.
"""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.geometry.predicates import _incircle_exact, _orientation_exact

_SOURCE = Path(__file__).with_name("_insert.c")
#: IEEE double semantics: no contraction into FMAs, no fast-math.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
#: Longest a compile may take before the interpreted loop is used.
_COMPILE_TIMEOUT_S = 120

_EXACT = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.POINTER(ctypes.c_double))

_lock = threading.Lock()
_loaded: list = []  # [library or None] once decided


def library() -> Optional[ctypes.CDLL]:
    """This process's compiled insert, or ``None`` where it cannot be had.

    Decided on the first call and kept: the environment (``CC``, the cache
    directory) is read then.
    """
    with _lock:
        if not _loaded:
            _loaded.append(load(os.environ.get("CC") or "cc"))
        return _loaded[0]


def cache_directory() -> Path:
    """Where compiled libraries live: ``$XDG_CACHE_HOME/repro`` or
    ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME")
    return Path(root) / "repro" if root else Path.home() / ".cache" / "repro"


def load(compiler: str, directory: Optional[Path] = None) -> Optional[ctypes.CDLL]:
    """The library compiled by ``compiler`` (a command, split like a
    shell would) in ``directory`` (default :func:`cache_directory`):
    loaded from there if present and whole, compiled first otherwise.
    ``None`` on any failure, with a :class:`RuntimeWarning` unless
    ``compiler`` is ``false``; never raises."""
    try:
        command, target = _target(compiler, directory or cache_directory())
        if target.exists():
            try:
                return _declare(ctypes.CDLL(str(target)))
            except OSError:
                pass  # damaged, or built against another host's libc: build again
        _compile(command, target)
        return _declare(ctypes.CDLL(str(target)))
    # no compiler, a failed or timed-out compile, an unwritable cache, a
    # file that does not load or lacks a symbol, an unusable $CC or $HOME:
    # the interpreted loop answers instead
    except (OSError, subprocess.SubprocessError, AttributeError, ValueError,
            RuntimeError, KeyError) as error:
        if compiler != "false":
            warnings.warn(
                f"the compiled Delaunay insert is unavailable ({error}); "
                "the interpreted loop builds every graph instead",
                RuntimeWarning,
                stacklevel=2,
            )
        return None


def _compile(command: list, target: Path) -> None:
    """Compile the source to ``target``, replacing whatever is there."""
    target.parent.mkdir(parents=True, exist_ok=True)
    # Two processes may compile at once: each writes its own file and the
    # rename makes one of them the library, whole.
    partial = target.with_name(f"{target.name}.{os.getpid()}-{os.urandom(4).hex()}")
    try:
        subprocess.run(
            [*command, "-o", str(partial), str(_SOURCE), "-lm"],
            check=True,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=_COMPILE_TIMEOUT_S,
        )
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def _target(compiler: str, directory: Path) -> Tuple[list, Path]:
    """The compile command (less its output and input) and the library's
    path, named by a 64-bit digest of the source and that command."""
    # zlib, not hashlib: hashlib maps OpenSSL's libcrypto (3.45 MiB
    # resident) into the process, and a served process never calls it.
    import shlex
    import zlib

    command = [*shlex.split(compiler), *_FLAGS]
    key = _SOURCE.read_bytes() + "\0".join([*command, sys.platform, os.uname().machine]).encode()
    return command, Path(directory) / f"insert-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Give the library's entry points their signatures."""
    i64, p, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib.repro_hilbert_keys.argtypes = [i64, p, p, f64, f64, f64, f64, p]
    lib.repro_hilbert_keys.restype = None
    lib.repro_build.argtypes = [i64, p, p, p, p, p, i64, p, p, p, _EXACT, _EXACT, p]
    lib.repro_build.restype = ctypes.c_int
    lib.repro_emit.argtypes = [i64, p, i64, p, i64, p, p]
    lib.repro_emit.restype = None
    for name in ("repro_orientation", "repro_incircle"):
        getattr(lib, name).argtypes = [ctypes.POINTER(f64), _EXACT]
        getattr(lib, name).restype = f64
    return lib


def _columns(xs, ys, rows) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``xs``, ``ys`` as contiguous float64 and ``rows`` as contiguous
    int64: what the C side reads through bare pointers."""
    return (
        np.ascontiguousarray(xs, dtype=np.float64),
        np.ascontiguousarray(ys, dtype=np.float64),
        np.ascontiguousarray(rows, dtype=np.int64),
    )


def hilbert_order(xs, ys) -> Tuple[np.ndarray, bool]:
    """The insertion order of both graph builds (compiled, interpreted) over
    the non-empty rows ``(xs, ys)``: the stable argsort of their order-31
    Hilbert keys over their :func:`extent` (a cluster a millionth of it wide
    still gets distinct keys) — :func:`hilbert_keys`, else the same keys
    from numpy — and whether no two keys, so no two locations, are equal."""
    box, lib = extent(xs, ys), library()
    if lib is not None:
        keys = hilbert_keys(lib, xs, ys, box)
    else:  # imported here: the engine package imports the layers above this one
        from repro.engine.order import hilbert_keys as curve_keys
        keys = curve_keys((xs - box[0]) / box[2], (ys - box[1]) / box[3], order=31)
    order = np.argsort(keys, kind="stable")
    return order, bool(np.diff(keys[order]).all())  # sorted keys >= 0: no overflow


def hilbert_keys(lib, xs, ys, box) -> np.ndarray:
    """:func:`repro.engine.order.hilbert_keys` at order 31 of the rows
    normalised to ``box`` (``(min_x, min_y, width, height)``)."""
    xs, ys = np.ascontiguousarray(xs, dtype=np.float64), np.ascontiguousarray(ys, dtype=np.float64)
    keys = np.empty(len(xs), dtype=np.int64)
    lib.repro_hilbert_keys(len(xs), xs.ctypes.data, ys.ctypes.data, *box, keys.ctypes.data)
    return keys


def extent(xs: np.ndarray, ys: np.ndarray) -> Tuple[float, float, float, float]:
    """``(min_x, min_y, width, height)`` of the rows; a flat side counts 1."""
    min_x, min_y = float(xs.min()), float(ys.min())
    return min_x, min_y, (float(xs.max()) - min_x) or 1.0, (float(ys.max()) - min_y) or 1.0


def graph(lib, xs, ys, order) -> Tuple[np.ndarray, np.ndarray]:
    """The int32 CSR graph between the locations ``order`` (distinct rows,
    in insertion order) of the rows ``(xs, ys)``: rows not in ``order`` are
    left empty.  The caller keeps the rows within
    :data:`~repro.delaunay.triangulation.MAX_ROWS`."""
    xs, ys, order = _columns(xs, ys, order)
    n, count = len(xs), len(order)
    capacity = max(2 * count - 2, 0)  # the slots a triangulation of count takes
    # the stored row and slot ids are int32 (the rows are within MAX_ROWS,
    # so twice as many slots fit); the C side keeps its arithmetic 64-bit
    tri = np.empty(3 * capacity, dtype=np.int32)
    adj = np.empty(3 * capacity, dtype=np.int32)
    chain = np.empty(count, dtype=np.int32)
    out = np.zeros(3, dtype=np.int64)
    mark = np.empty(capacity, dtype=np.int32)
    by_start = np.empty(n + 1, dtype=np.int32)
    raised: list = []
    status = lib.repro_build(
        count, order.ctypes.data, xs.ctypes.data, ys.ctypes.data, tri.ctypes.data,
        adj.ctypes.data, capacity, mark.ctypes.data, by_start.ctypes.data,
        chain.ctypes.data, _callback(_orientation_exact, 6, raised),
        _callback(_incircle_exact, 8, raised), out.ctypes.data,
    )
    del adj, mark, by_start
    if raised:
        raise raised[0]
    if status == 2:
        raise MemoryError("the compiled insert ran out of memory")
    if status:
        raise RuntimeError(f"the compiled insert failed (status {status})")
    slots, chained, directed = out.tolist()
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(directed, dtype=np.int32)
    lib.repro_emit(n, tri.ctypes.data, slots, chain.ctypes.data, chained,
                   indptr.ctypes.data, indices.ctypes.data)
    return indptr, indices


def _callback(exact, arity: int, raised: list):
    """``exact`` (a predicate's exact stage) as C calls it back.  ctypes
    cannot carry an exception out of a callback, so whatever ``exact``
    raises goes to ``raised`` and C gets a NaN, which stops the build."""

    def call(coordinates):
        try:
            return exact(*coordinates[:arity])
        except BaseException as error:  # re-raised once the build stops
            raised.append(error)
            return math.nan

    return _EXACT(call)
