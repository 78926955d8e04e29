"""The compiled library: the maximal-violation loop of the no-intercept
kernel-SVM dual (greedy_ascent), the pass that computes every kernel
argument and pairwise distance (kernel_arguments, behind
kernels.pair_distances), the pass that counts and keeps pair distances
around an order statistic (pair_selection, behind kernels.median_heuristic),
and the elementwise passes of the exact 2-d halfspace sweep
(halfspace_counts, behind depths._bind_halfspace).

_dual.c, shipped beside this module, is compiled on the first kernel
evaluation or exact 2-d halfspace depth, never at import, with the
interpreter's C compiler (sysconfig's CC, else cc) at -O3
-ffp-contract=off, into a per-user cache directory: $XDG_CACHE_HOME/lossdepth,
else ~/.cache/lossdepth, made with mode 0700.  The library's name is a hash
of the source, the compiler command, its flags and the machine, so each
machine compiles once and an edited source gets a new name; it is compiled
under a temporary name and renamed into place, so concurrent processes never
load a half-written file.  subprocess is imported only to compile, so a
process that loads the cached library does not pay for it.  ctypes releases
the interpreter lock for the length of each call.  _library is the one
switch for all of its functions.

-O3 is what lets the compiler vectorise the loop's scan, the distance pass
and the sweep's fold and key passes; -O2 leaves them scalar.  The flags never
name a CPU (no -march=native): the cache key holds only platform.machine(),
and one cache may be shared by machines with different CPUs.  Instead, on
x86-64 with glibc, _dual.c compiles them for AVX-512F, AVX2 and the baseline
instruction set, and the dynamic loader picks the one this CPU runs;
elsewhere, or where the compiler lacks target_clones, they are the plain
loops.  Every clone gives the same bits: the arithmetic per element is the
numpy loop's and scipy's, never contracted or reassociated; the argmax is an
exact maximum over ordered bit patterns followed by the first index that has
it; each pair's distance is summed over the coordinates in order within one
vector lane; the selection pass's counts are integer sums; and the sweep's
passes are exact negations, bit operations and integer counts, between
which numpy's own arctan2 and sort run; no vector width or lane order can
change any of them.  Every function writes only into
arrays that its caller passes in, so the C code allocates nothing and cannot
fail.

Any failure (no compiler, a compile error, an unwritable cache directory, a
library that does not load) leaves this process on the numpy loop of
solvers._greedy_ascent, on scipy's cdist and pdist (blocked, for the
selection pass) and on the numpy sweep depths._halfspace_sweep_2d, which
give the same bits, and prints nothing.
Removing the cache directory only costs the next process one compile.

Nothing here deletes a library, so each edit of _dual.c, or a new compiler
command, leaves the older one (about 45 KB) in the cache for good.  That is
deliberate: checkouts of different revisions, such as the two sides of a
benchmark comparison, share the cache, and a process of the other checkout
may be about to load its library; deleting it could race that process onto
the numpy loop.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shlex
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_dual.c")
# -O3 vectorises the scan; -ffp-contract=off: a fused multiply-add would
# round delta * row and the subtraction once instead of twice, and change bits
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 120
_INT64_MAX = 2**63 - 1
# the scalar steps of kernel_arguments, each name at its index in _dual.c
_STEPS = ("sqeuclidean", "gaussian", "laplacian", "imq")


def cache_directory() -> Path:
    """Where the compiled loop is kept: $XDG_CACHE_HOME/lossdepth when that
    is an absolute path, else ~/.cache/lossdepth."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "lossdepth"


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _compile(command: list[str], target: Path) -> None:
    """Compile _dual.c to target through a temporary file in its directory;
    any failure raises OSError."""
    import subprocess  # local: a load from the cache never pays its import

    handle, temporary = tempfile.mkstemp(dir=target.parent, prefix=".dual-", suffix=".so")
    os.close(handle)
    try:
        subprocess.run([*command, "-o", temporary, str(_SOURCE)], check=True,
                       capture_output=True, timeout=_COMPILE_TIMEOUT_S)
        os.replace(temporary, target)
    except subprocess.SubprocessError as error:
        raise OSError(f"cannot compile {_SOURCE.name}") from error
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)


@functools.cache
def _library():
    """The compiled library, with greedy_ascent, kernel_arguments,
    pair_selection and the three halfspace passes typed, or None when it
    cannot be had; tried once per process.  It is the one switch for all of
    them: without it, each runs its numpy or scipy twin."""
    command = [*_compiler(), *_FLAGS]
    try:
        key = hashlib.sha256(
            repr((_SOURCE.read_bytes(), command, platform.machine(), sys.platform)).encode()
        ).hexdigest()[:16]
        target = cache_directory() / f"dual-{key}.so"
        if not target.is_file():
            target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            _compile(command, target)
        library = ctypes.CDLL(str(target))
        ascent, arguments = library.greedy_ascent, library.kernel_arguments
        selection = library.pair_selection
        fold, keys = library.halfspace_fold, library.halfspace_keys
        counts = library.halfspace_counts
    except (OSError, AttributeError):
        return None
    # raw addresses: each wrapper checks or makes every array a function reads
    # and writes, and holds it in a local name for the length of the call
    ascent.argtypes = [ctypes.c_int64, *[ctypes.c_void_p] * 9, ctypes.c_int64, ctypes.c_double,
                       ctypes.POINTER(ctypes.c_double)]
    ascent.restype = ctypes.c_int64
    arguments.argtypes = [*[ctypes.c_int64] * 3, *[ctypes.c_void_p] * 2, ctypes.c_int64,
                          ctypes.c_double, ctypes.c_int64, ctypes.c_void_p]
    arguments.restype = None
    selection.argtypes = [*[ctypes.c_int64] * 2, *[ctypes.c_void_p] * 3, ctypes.c_int64,
                          *[ctypes.c_void_p] * 3]
    selection.restype = None
    fold.argtypes = [*[ctypes.c_int64] * 2, *[ctypes.c_void_p] * 6]
    keys.argtypes = [ctypes.c_int64, *[ctypes.c_void_p] * 2]
    counts.argtypes = [*[ctypes.c_int64] * 2, *[ctypes.c_void_p] * 3]
    fold.restype = keys.restype = counts.restype = None
    return library


def greedy_ascent(kernel: np.ndarray, diag: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  u: np.ndarray, scores: np.ndarray, floor: np.ndarray, ceiling: np.ndarray,
                  violations: np.ndarray, budget: int,
                  tolerance: float) -> tuple[int, float] | None:
    """Run solvers._greedy_loop in C on the symmetric kernel matrix, with the
    same arguments and results: u, scores, floor and ceiling are updated in
    place, violations is overwritten as scratch, and the number of updates
    and the residual are returned.  Returns None, touching nothing, when the
    library is not available or the arguments are not what it reads: a
    C-contiguous float64 (n, n) kernel with n >= 1, float64 vectors of length
    n, the five it writes C-contiguous and writable, and a budget that fits
    an int64."""
    size = u.size
    vectors = (diag, lo, hi, u, scores, floor, ceiling, violations)
    if not (
        size > 0 and kernel.dtype == np.float64 and kernel.shape == (size, size)
        and kernel.flags.c_contiguous
        and all(vector.dtype == np.float64 and vector.shape == (size,) for vector in vectors)
        and all(vector.flags.c_contiguous and vector.flags.writeable for vector in vectors[3:])
        and 0 < budget <= _INT64_MAX
    ):
        return None
    library = _library()
    if library is None:
        return None
    residual = ctypes.c_double()
    read = [np.ascontiguousarray(vector) for vector in vectors[:3]]  # diag may be a strided view
    updates = library.greedy_ascent(
        size, *(array.ctypes.data for array in (kernel, *read, *vectors[3:])), budget, tolerance,
        ctypes.byref(residual),
    )
    return int(updates), residual.value


def kernel_arguments(left: np.ndarray, right: np.ndarray | None, step: str,
                     parameter: float = 0.0, out: np.ndarray | None = None) -> np.ndarray | None:
    """For each pair of a row of left and a row of right, float64 (m, d) and
    (n, d) arrays, the value that kernels.gram hands to np.exp or np.power,
    with the bits of scipy's cdist followed by its numpy step: by step,
    the squared euclidean distance s ("sqeuclidean"), s * parameter
    ("gaussian", with parameter -gamma), -(l1 / parameter) ("laplacian",
    with parameter sigma) or s + parameter ("imq", with parameter c^2).
    Returns the (m, n) matrix; with right None, pdist's packed m (m - 1) / 2
    pairs i < j of left's rows instead; written into out when it is given, a
    C-contiguous writable float64 array of that shape.  Returns None when the
    library is not available, left and right are not 2-d with the same
    number of columns, or out is not such an array."""
    other = left if right is None else right
    if not (left.ndim == other.ndim == 2 and left.shape[1] == other.shape[1]):
        return None
    rows, columns = left.shape[0], other.shape[0]
    shape = (rows * (rows - 1) // 2,) if right is None else (rows, columns)
    if out is not None and not (out.dtype == np.float64 and out.shape == shape
                                and out.flags.c_contiguous and out.flags.writeable):
        return None
    library = _library()
    if library is None:
        return None
    left = np.ascontiguousarray(left, dtype=np.float64)
    right_t = np.ascontiguousarray(other.T, dtype=np.float64)
    dim = left.shape[1]
    if out is None:
        out = np.empty(shape)
    library.kernel_arguments(rows, columns, dim, left.ctypes.data, right_t.ctypes.data,
                             _STEPS.index(step), parameter, right is None, out.ctypes.data)
    return out


def pair_selection(points: np.ndarray, bounds: np.ndarray,
                   capacity: int) -> tuple[np.ndarray, np.ndarray] | None:
    """One pass over the squared euclidean distances of the pairs i < j of
    the rows of points, a 2-d float64 array of finite values, with pdist's
    bits, none of them held: the int64 counts of those below bounds[0],
    below bounds[1], above bounds[2] and above bounds[3], four ascending
    floats, and the first capacity distances in [bounds[1], bounds[2]], in
    pdist's order.  Returns None when the library is not available."""
    library = _library()
    if library is None:
        return None
    points = np.ascontiguousarray(points, dtype=np.float64)
    points_t = np.ascontiguousarray(points.T)
    bounds = np.ascontiguousarray(bounds, dtype=np.float64)
    rows, dim = points.shape
    # out has a row's room past capacity: the pass copies a whole row before it counts
    row, out, counts = np.empty(rows), np.empty(capacity + rows), np.empty(4, dtype=np.int64)
    library.pair_selection(rows, dim, points.ctypes.data, points_t.ctypes.data,
                           bounds.ctypes.data, capacity, row.ctypes.data, out.ctypes.data,
                           counts.ctypes.data)
    inside = rows * (rows - 1) // 2 - int(counts[1]) - int(counts[2])
    return counts, out[:min(inside, capacity)]


def halfspace_counts(columns: np.ndarray, block: np.ndarray) -> np.ndarray | None:
    """The smallest closed-halfspace count of every row of block, a (rows, 2)
    array of queries, against the reference whose x and y coordinates are
    the rows of columns, a C-contiguous float64 (2, n) array with n >= 1:
    depths._halfspace_sweep_2d's int64 counts, the same integers.  Three
    passes in C fold the differences, form the sort keys from the angles
    and count along each sorted row; between them numpy's arctan2 and sort
    run as the numpy sweep runs them, so each key has the same bits.
    Returns None when the library is not available or the arguments are not
    what it reads."""
    if not (
        columns.dtype == np.float64 and columns.ndim == 2 and columns.shape[0] == 2
        and columns.shape[1] > 0 and columns.flags.c_contiguous
        and block.ndim == 2 and block.shape[1] == 2
    ):
        return None
    library = _library()
    if library is None:
        return None
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, n = block.shape[0], columns.shape[1]
    dx, dy = np.empty((rows, n)), np.empty((rows, n))
    flags = np.empty((rows, n), dtype=np.uint8)
    counts = np.empty(rows, dtype=np.int64)  # each row's duplicates, then its count
    # an address costs a microsecond to read, and ndpointer's checks four
    angles, marks, tallies = dx.ctypes.data, flags.ctypes.data, counts.ctypes.data
    library.halfspace_fold(rows, n, columns.ctypes.data, block.ctypes.data, angles,
                           dy.ctypes.data, marks, tallies)
    np.arctan2(dy, dx, out=dx)
    library.halfspace_keys(rows * n, angles, marks)
    dx.view(np.uint64).sort(axis=1)
    library.halfspace_counts(rows, n, angles, dy.ctypes.data, tallies)  # dy is free now
    return counts
