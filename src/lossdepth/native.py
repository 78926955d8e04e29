"""The compiled library: the maximal-violation loop of the no-intercept
kernel-SVM dual (greedy_ascent), and the pass that computes every kernel
argument and pairwise distance (kernel_arguments, behind
kernels.pair_distances).

_dual.c, shipped beside this module, is compiled on the first kernel
evaluation, never at import, with the interpreter's C compiler
(sysconfig's CC, else cc) at -O3 -ffp-contract=off, into a per-user cache
directory: $XDG_CACHE_HOME/lossdepth, else ~/.cache/lossdepth, made with
mode 0700.  The library's name is a hash of the source, the compiler
command, its flags and the machine, so each machine compiles once and an
edited source gets a new name; it is compiled under a temporary name and
renamed into place, so concurrent processes never load a half-written file.
ctypes releases the interpreter lock for the length of each call.  _library
is the one switch for both functions.

-O3 is what lets the compiler vectorise the loop's scan and the distance
pass; -O2 leaves them scalar.  The flags never name a CPU (no
-march=native): the cache key holds only platform.machine(), and one cache
may be shared by machines with different CPUs.  Instead, on x86-64 with
glibc, _dual.c compiles both for AVX-512F, AVX2 and the baseline instruction
set, and the dynamic loader picks the one this CPU runs; elsewhere, or where
the compiler lacks target_clones, they are the plain loops.  Every clone
gives the same bits: the arithmetic per element is the numpy loop's and
scipy's, never contracted or reassociated; the argmax is an exact maximum
over ordered bit patterns followed by the first index that has it; and each
pair's distance is summed over the coordinates in order within one vector
lane; no vector width or lane order can change any of them.  Both functions
write only into arrays that the caller passes in, so the C code allocates
nothing and cannot fail.

Any failure (no compiler, a compile error, an unwritable cache directory, a
library that does not load) leaves this process on the numpy loop of
solvers._greedy_ascent and on scipy's cdist and pdist, which give the same
bits, and prints nothing.  Removing the cache directory only costs the next
process one compile.

Nothing here deletes a library, so each edit of _dual.c, or a new compiler
command, leaves the older one (about 28 KB) in the cache for good.  That is
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
import subprocess
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
_VECTOR = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS")
_MATRIX = np.ctypeslib.ndpointer(dtype=np.float64, ndim=2, flags="C_CONTIGUOUS")
_OUTPUT = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
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
    """Compile _dual.c to target through a temporary file in its directory."""
    handle, temporary = tempfile.mkstemp(dir=target.parent, prefix=".dual-", suffix=".so")
    os.close(handle)
    try:
        subprocess.run([*command, "-o", temporary, str(_SOURCE)], check=True,
                       capture_output=True, timeout=_COMPILE_TIMEOUT_S)
        os.replace(temporary, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)


@functools.cache
def _library():
    """The compiled library, with greedy_ascent and kernel_arguments typed,
    or None when it cannot be had; tried once per process.  It is the one
    switch for both: without it, each runs its numpy or scipy twin."""
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
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    ascent.argtypes = [ctypes.c_int64, _MATRIX, *[_VECTOR] * 8, ctypes.c_int64, ctypes.c_double,
                       ctypes.POINTER(ctypes.c_double)]
    ascent.restype = ctypes.c_int64
    arguments.argtypes = [*[ctypes.c_int64] * 3, _MATRIX, _MATRIX, ctypes.c_int64,
                          ctypes.c_double, ctypes.c_int64, _OUTPUT]
    arguments.restype = None
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
    updates = library.greedy_ascent(
        size, kernel, *(np.ascontiguousarray(vector) for vector in vectors[:3]), *vectors[3:],
        budget, tolerance, ctypes.byref(residual),
    )
    return int(updates), residual.value


def kernel_arguments(left: np.ndarray, right: np.ndarray | None, step: str,
                     parameter: float = 0.0) -> np.ndarray | None:
    """For each pair of a row of left and a row of right, float64 (m, d) and
    (n, d) arrays, the value that kernels.gram hands to np.exp or np.power,
    with the bits of scipy's cdist followed by its numpy step: by step,
    the squared euclidean distance s ("sqeuclidean"), s * parameter
    ("gaussian", with parameter -gamma), -(l1 / parameter) ("laplacian",
    with parameter sigma) or s + parameter ("imq", with parameter c^2).
    Returns the (m, n) matrix; with right None, pdist's packed m (m - 1) / 2
    pairs i < j of left's rows instead.  Returns None when the library is not
    available or left and right are not 2-d with the same number of columns."""
    other = left if right is None else right
    if not (left.ndim == other.ndim == 2 and left.shape[1] == other.shape[1]):
        return None
    library = _library()
    if library is None:
        return None
    left = np.ascontiguousarray(left, dtype=np.float64)
    right_t = np.ascontiguousarray(other.T, dtype=np.float64)
    (rows, dim), columns = left.shape, right_t.shape[1]
    out = np.empty(rows * (rows - 1) // 2 if right is None else (rows, columns))
    library.kernel_arguments(rows, columns, dim, left, right_t, _STEPS.index(step), parameter,
                             right is None, out)
    return out
