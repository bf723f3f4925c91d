"""Loader and binding for the compiled kernel (``_select.c``).

Every greedy pass over a CSR or blocked adjacency — Greedy-DisC,
Greedy-C, greedy zoom-in, both zoom-out passes, Basic-DisC's scan and
the live repair — runs in one C loop (:func:`Kernel.run`), and every
grid adjacency build filters its candidate pairs in another
(:meth:`Kernel.grid_rows`).  The kernel
is compiled on first use with the interpreter's C compiler
(``sysconfig``'s ``CC``, ``-O2``, no host-specific flags) and
cached under ``$XDG_CACHE_HOME/repro/`` (default ``~/.cache/repro/``),
keyed by the sha256 of the source, the compiler's identity, the flags
and the machine architecture.  The build writes a temporary file and
``os.replace``\\ s it into place, so processes that start together may
all compile and each loads a complete library.  ``ctypes`` releases the
GIL for the duration of every call.

When no compiler is found or the build fails, :func:`load` returns None
after one :class:`RuntimeWarning`; the selection entry points then run
the legacy heap paths and the grid builds their NumPy batch passes
(same answers, more time).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.cancellation import current_token
from repro.distance.metrics import ChebyshevMetric, EuclideanMetric, ManhattanMetric

__all__ = [
    "Kernel",
    "load",
    "MODE_COVER",
    "MODE_COVER_C",
    "MODE_SCAN",
    "MODE_RED_A",
    "MODE_RED_B",
    "MODE_RED_C",
]

#: Pass modes, mirroring the ``MODE_*`` enum of ``_select.c``.
MODE_COVER, MODE_COVER_C, MODE_SCAN, MODE_RED_A, MODE_RED_B, MODE_RED_C = range(6)

SOURCE = Path(__file__).with_name("_select.c")
#: Ids per score-bound block (``BLOCK`` in ``_select.c``).
_BLOCK = 256
#: ``-ffp-contract=off``: a fused multiply-add in the grid distance
#: would round differently from NumPy and flip ``<= radius`` on ties.
#: ``-fno-math-errno``: ``sqrt`` compiles to one instruction, so the
#: library needs nothing from libm.
FLAGS = (
    "-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno",
)


class _Graph(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("indptr", ctypes.c_void_p),
        ("indices", ctypes.c_void_p),
        ("num_sides", ctypes.c_int64),
        ("side_ptr", ctypes.c_void_p),
        ("side_members", ctypes.c_void_p),
        ("side_partner", ctypes.c_void_p),
        ("side_is_clique", ctypes.c_void_p),
        ("mem_indptr", ctypes.c_void_p),
        ("mem_side", ctypes.c_void_p),
    ]


class _Run(ctypes.Structure):
    _fields_ = [
        ("codes", ctypes.c_void_p),
        ("scores", ctypes.c_void_p),
        ("sentinel", ctypes.c_int64),
        ("pool", ctypes.c_int64),
        ("cursor", ctypes.c_int64),
        ("bound", ctypes.c_void_p),
        ("bounds_ready", ctypes.c_int64),
        ("track_min", ctypes.c_int64),
        ("seed", ctypes.c_int64),
        ("sources", ctypes.c_void_p),
        ("side_delta", ctypes.c_void_p),
        ("side_touched", ctypes.c_void_p),
        ("picks", ctypes.c_void_p),
        ("newly", ctypes.c_void_p),
        ("row_ptr", ctypes.c_void_p),
        ("rows", ctypes.c_void_p),
        ("rows_cap", ctypes.c_int64),
    ]


class _GridRows(ctypes.Structure):
    _fields_ = [
        ("dim", ctypes.c_int64),
        ("metric", ctypes.c_int64),
        ("radius", ctypes.c_double),
        ("points", ctypes.c_void_p),
        ("cell_of", ctypes.c_void_p),
        ("seg_ptr", ctypes.c_void_p),
        ("cand", ctypes.c_void_p),
        ("is_auto", ctypes.c_void_p),
        ("indices", ctypes.c_void_p),
        ("cap", ctypes.c_int64),
        ("degrees", ctypes.c_void_p),
    ]


#: Metrics with an inline distance in ``_select.c`` (``METRIC_*``
#: there), by exact type: a subclass may override ``paired``.
_GRID_METRICS = {EuclideanMetric: 0, ManhattanMetric: 1, ChebyshevMetric: 2}


def _pointer(array: Optional[np.ndarray], dtype, size: int, *, writable=False):
    """Validated data pointer: exact dtype, C-contiguous, ``size`` long."""
    if array is None:
        return None
    if array.dtype != dtype or array.shape != (size,):
        raise ValueError(
            f"kernel array must be {np.dtype(dtype)}[{size}], "
            f"got {array.dtype}{list(array.shape)}"
        )
    if not array.flags.c_contiguous or (writable and not array.flags.writeable):
        raise ValueError("kernel array must be C-contiguous (and writable)")
    return array.ctypes.data


#: One selection batch: the picks, the objects each pick greyed, and
#: (with ``rows``) every pick's neighbors, flat, split by ``row_ptr``.
Batch = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


class Kernel:
    """The loaded ``disc_select_batch`` and ``grid_emit_rows`` entry points."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib  # keeps the library mapped while the entry points are in use
        self._fn = lib.disc_select_batch
        self._fn.argtypes = [
            ctypes.POINTER(_Graph),
            ctypes.POINTER(_Run),
            ctypes.c_int32,
            ctypes.c_int64,
        ]
        self._fn.restype = ctypes.c_int64
        self._emit = lib.grid_emit_rows
        self._emit.argtypes = [
            ctypes.POINTER(_GridRows),
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
        ]
        self._emit.restype = ctypes.c_int64

    def grid_rows(
        self,
        points: np.ndarray,
        metric,
        radius: float,
        cell_of: np.ndarray,
        seg_ptr: np.ndarray,
        cand: np.ndarray,
        auto: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
    ) -> Optional[Callable[[int, int, int], int]]:
        """The row emitter of one grid build, or None when ``metric``
        has no inline distance here.

        ``emit(lo, hi, filled)`` writes rows ``[lo, hi)`` of the
        candidate table (cell ``c``'s candidates ``cand[seg_ptr[c]:
        seg_ptr[c+1]]``, ``auto`` marking the ones kept without a
        distance) as kept ids at ``indices[filled:]`` and per-row counts
        at ``degrees[lo:hi]``, and returns the new fill.  A row of
        ``k`` candidates needs ``k`` free slots, one past its most edges,
        so ``indices`` needs one slot past the last kept edge.
        """
        code = _GRID_METRICS.get(type(metric))
        if code is None:
            return None
        n, dim = points.shape
        table = int(seg_ptr[-1])
        flat = np.ascontiguousarray(points, dtype=np.float64).reshape(-1)
        is_auto = auto.view(np.uint8)
        rows = _GridRows(
            dim=dim,
            metric=code,
            radius=float(radius),
            points=_pointer(flat, np.float64, n * dim),
            cell_of=_pointer(cell_of, np.int64, n),
            seg_ptr=_pointer(seg_ptr, np.int64, seg_ptr.size),
            cand=_pointer(cand, np.int32, table),
            is_auto=_pointer(is_auto, np.uint8, table),
            indices=_pointer(indices, np.int32, indices.size, writable=True),
            cap=indices.size,
            degrees=_pointer(degrees, np.int64, n, writable=True),
        )
        # What the struct points into lives as long as the struct.
        rows.arrays = (flat, cell_of, seg_ptr, cand, is_auto, indices, degrees)
        fn = self._emit

        def emit(lo: int, hi: int, filled: int) -> int:
            if not (0 <= lo <= hi <= n and filled >= 0):
                raise ValueError(f"rows [{lo}, {hi}) from fill {filled} out of range")
            filled = fn(ctypes.byref(rows), lo, hi, filled)
            if filled < 0:
                raise ValueError("grid rows overflow the indices buffer")
            return filled

        return emit

    def run(
        self,
        adjacency,
        codes: np.ndarray,
        scores: Optional[np.ndarray],
        mode: int,
        *,
        pool: int,
        batch: int,
        sentinel: int = 0,
        seed: bool = False,
        rows: bool = False,
    ) -> Iterator[Batch]:
        """Run one pass to completion, yielding after every batch.

        ``codes`` (int8 colors) and ``scores`` (int64, unused by
        :data:`MODE_SCAN`) are updated in place; ``pool`` is the number
        of whites (reds for the red pass) left to remove.  With ``seed``
        the kernel first fills ``scores`` from the colors: each
        candidate's count of white neighbors (red ones for zoom-out a
        and b), ``sentinel`` elsewhere.  Each batch holds at most
        ``batch`` picks and starts with a cancellation checkpoint; with
        ``rows`` it also carries every pick's neighbors.  The yielded
        arrays are reused by the next batch.
        """
        if scores is None and mode != MODE_SCAN:
            raise ValueError("only the scan mode runs without scores")
        if batch < 1:
            raise ValueError(f"batch must be positive, got {batch}")
        n = int(adjacency.n)
        # ``arrays`` holds what ``graph`` points into for the whole pass.
        graph, arrays = _graph(adjacency)
        num_sides = int(graph.num_sides)
        sources = np.empty(n, dtype=np.int32)
        bound = np.empty((n + _BLOCK - 1) // _BLOCK, dtype=np.int64)
        # Zeroed here, kept zeroed by the kernel between uses.
        side_delta = np.zeros(num_sides, dtype=np.int64)
        side_touched = np.empty(num_sides, dtype=np.int32)
        picks = np.empty(batch, dtype=np.int64)
        newly = np.empty(batch, dtype=np.int64)
        row_ptr = np.empty(batch + 1, dtype=np.int64) if rows else None
        # Any one row fits in n entries, so every batch makes progress.
        row_buf = np.empty(max(n, 1), dtype=np.int32) if rows else None
        run = _Run(
            codes=_pointer(codes, np.int8, n, writable=True),
            scores=_pointer(scores, np.int64, n, writable=True),
            sentinel=int(sentinel),
            pool=int(pool),
            cursor=0,
            bound=bound.ctypes.data,
            seed=int(seed),
            sources=sources.ctypes.data,
            side_delta=side_delta.ctypes.data if num_sides else None,
            side_touched=side_touched.ctypes.data if num_sides else None,
            picks=picks.ctypes.data,
            newly=newly.ctypes.data,
            row_ptr=row_ptr.ctypes.data if rows else None,
            rows=row_buf.ctypes.data if rows else None,
            rows_cap=row_buf.size if rows else 0,
        )
        token = current_token()
        while run.pool > 0:
            if token is not None:
                token.checkpoint()
            made = self._fn(ctypes.byref(graph), ctypes.byref(run), mode, batch)
            if made < 0:
                raise RuntimeError(
                    "selection ran out of candidates with objects left in the "
                    "pool; the score array is inconsistent"
                )
            if rows:
                yield picks[:made], newly[:made], row_ptr[: made + 1], row_buf[
                    : row_ptr[made]
                ]
            else:
                yield picks[:made], newly[:made], None, None


def _graph(adjacency) -> Tuple[_Graph, List[np.ndarray]]:
    """The kernel's view of a CSR or blocked adjacency, plus the arrays
    it points into (the caller keeps them alive across calls)."""
    from repro.graph.blocked import BlockedNeighborhood

    n = int(adjacency.n)
    if isinstance(adjacency, BlockedNeighborhood):
        sparse = adjacency.sparse
        mem_indptr, mem_side = adjacency.membership()
        arrays = [
            sparse.indptr,
            sparse.indices,
            adjacency.side_ptr,
            adjacency.side_members,
            adjacency.side_partner,
            adjacency.side_is_clique.view(np.uint8),
            mem_indptr,
            mem_side,
        ]
        num_sides = int(adjacency.num_sides)
    else:
        sparse = adjacency
        arrays = [sparse.indptr, sparse.indices]
        num_sides = 0
    arrays = [np.ascontiguousarray(a) for a in arrays]
    graph = _Graph(
        n=n,
        indptr=_pointer(arrays[0], np.int64, n + 1),
        indices=_pointer(arrays[1], np.int32, int(arrays[0][-1])),
    )
    if num_sides:
        side_ptr = arrays[2]
        graph.num_sides = num_sides
        graph.side_ptr = _pointer(side_ptr, np.int64, num_sides + 1)
        graph.side_members = _pointer(arrays[3], np.int32, int(side_ptr[-1]))
        graph.side_partner = _pointer(arrays[4], np.int64, num_sides)
        graph.side_is_clique = _pointer(arrays[5], np.uint8, num_sides)
        graph.mem_indptr = _pointer(arrays[6], np.int64, n + 1)
        graph.mem_side = _pointer(arrays[7], np.int32, int(arrays[6][-1]))
    return graph, arrays


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------
_lock = threading.Lock()
_loaded = False
_kernel: Optional[Kernel] = None


def _compiler() -> Optional[List[str]]:
    """The C compiler command (``sysconfig``'s ``CC``, else ``cc``),
    with its executable resolved on ``PATH``; None when absent."""
    command = shlex.split(sysconfig.get_config_var("CC") or "cc")
    executable = shutil.which(command[0]) if command else None
    if executable is None:
        return None
    return [executable] + command[1:]


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _library_path(command: List[str]) -> Path:
    """Cache location keyed by source, compiler identity, flags and
    machine.  The compiler is identified by its resolved executable and
    that file's size and mtime, so a compiler upgrade rebuilds without
    running the compiler on a cache hit."""
    executable = os.path.realpath(command[0])
    info = os.stat(executable)
    digest = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        repr(command[1:]).encode(),
        f"{executable}:{info.st_size}:{info.st_mtime_ns}".encode(),
        repr(FLAGS).encode(),
        platform.machine().encode(),
    ):
        digest.update(part)
        digest.update(b"\0")
    return _cache_dir() / f"select-{digest.hexdigest()[:24]}.so"


def _compile(command: List[str], target: Path) -> None:
    """Build the library into ``target`` atomically (temp file, then
    ``os.replace``)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp = tempfile.mkstemp(
        dir=target.parent, prefix=".select-", suffix=".so"
    )
    os.close(handle)
    try:
        subprocess.run(
            [*command, *FLAGS, "-o", temp, str(SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(temp, target)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def _build_and_load() -> Kernel:
    command = _compiler()
    if command is None:
        raise OSError("no C compiler found (sysconfig CC, or cc, on PATH)")
    target = _library_path(command)
    if not target.exists():
        _compile(command, target)
    return Kernel(ctypes.CDLL(str(target)))


def load() -> Optional[Kernel]:
    """The compiled kernel, built on first use; None (after one
    :class:`RuntimeWarning` per process) when it cannot be built."""
    global _loaded, _kernel
    if _loaded:
        return _kernel
    with _lock:
        if not _loaded:
            try:
                _kernel = _build_and_load()
            except (OSError, AttributeError, subprocess.SubprocessError) as exc:
                detail = getattr(exc, "stderr", None) or b""
                warnings.warn(
                    "repro: the compiled selection kernel is unavailable "
                    f"({exc}{': ' + detail.decode(errors='replace')[:400] if detail else ''}); "
                    "selections fall back to the slower heap paths and grid "
                    "builds to the NumPy batch passes",
                    RuntimeWarning,
                    stacklevel=2,
                )
                _kernel = None
            _loaded = True
    return _kernel
