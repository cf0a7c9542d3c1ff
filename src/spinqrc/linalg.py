"""Dense complex matrix helpers for operators up to a few hundred rows.

Three validated functions build and compare operators: ``kron`` (refusing
results above ``MAX_DIM``), ``unitary_exp`` (exp(-i t h) through the
eigendecomposition of a Hermitian ``h``, refusing non-Hermitian input) and
``trace_distance``. Each takes square, finite matrices and returns a fresh
value, never aliased to its inputs.

The module also binds the two BLAS/LAPACK routines the evolution kernel
calls directly (``kernel_blas``: ``zgemm`` and ``zpotrf`` through ctypes,
from the OpenBLAS bundled with numpy, so that scipy is imported only where
numpy bundles none), and holds the package's BLAS thread policy for small
operators (``small_operator_threads``): on dim-64 products a second thread
costs far more in wake-ups and contention than it saves in flops.
"""
from __future__ import annotations

import ctypes
import functools
import importlib
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

# Largest operator dimension the helpers will build. The simulator targets
# arrays of at most ten qubits (dim 1024); the guard only exists to turn a
# runaway Kronecker chain into a clear error instead of an allocation storm.
MAX_DIM = 4096

HERMITICITY_RTOL = 1e-10

# Largest operator dimension (n = 8 qubits) that runs at one BLAS thread.
# perfbench's traced qubit scan on a 2-core host puts the per-step cost at
# two threads against one at 217-256 us vs 119-129 us (n = 6), 5.7-5.8 ms
# vs 4.8-5.8 ms (n = 8), 33-40 ms vs 35-43 ms (n = 9) and 178-255 ms vs
# 288-397 ms (n = 10): the second thread only pays from n = 9 on.
SMALL_OPERATOR_DIM = 256


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) of the result equals a[i, j] * b."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValidationError(f"kron result dimension {dim} exceeds limit {MAX_DIM}")
    return np.kron(a, b)


def unitary_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for Hermitian h, via its eigendecomposition
    ``h = V diag(w) V†``.

    Raises ValidationError when h is not Hermitian to HERMITICITY_RTOL
    relative to its Frobenius norm.
    """
    h = _as_square(h, "h")
    scale = np.linalg.norm(h)
    if scale > 0 and np.linalg.norm(h - h.conj().T) > HERMITICITY_RTOL * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of (a - b), for Hermitian a, b."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


class Blas(NamedTuple):
    """``zgemm`` and ``zpotrf`` of one BLAS/LAPACK library, called through
    ctypes with the Fortran calling convention and ``index`` integers, and
    the library's (get, set) thread-count functions when it exposes them."""

    zgemm: Callable[..., None]
    zpotrf: Callable[..., None]
    index: type
    threads: tuple[Callable[[], int], Callable[[int], None]] | None

    def gemm(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
             alpha: complex = 1.0, beta: complex = 0.0,
             conj_b: bool = False) -> Callable[[], None]:
        """A call that overwrites ``c`` with ``alpha a op(b) + beta c``,
        where op(b) is ``b`` or, with ``conj_b``, ``b†``.

        Every argument is converted here, once; each call of the result
        reruns the product on the same buffers, which it keeps alive.
        """
        dim = _fortran_operands(a, b, c)
        if np.may_share_memory(c, a) or np.may_share_memory(c, b):
            raise ValidationError("zgemm output must not overlap its inputs")
        n = ctypes.byref(self.index(dim))
        return functools.partial(
            self.zgemm, b"N", b"C" if conj_b else b"N", n, n, n,
            _complex(alpha), _pointer(a), n, _pointer(b), n, _complex(beta),
            _pointer(c), n)

    def potrf(self, a: np.ndarray, lower: bool = False) -> Callable[[], int]:
        """A call that Cholesky-factors one triangle of ``a`` in place and
        returns LAPACK's ``info``: 0 exactly when ``a`` is positive
        definite. Arguments are converted once, as in ``gemm``."""
        n = ctypes.byref(self.index(_fortran_operands(a)))
        info = self.index()
        args = (b"L" if lower else b"U", n, _pointer(a), n, ctypes.byref(info))
        zpotrf = self.zpotrf

        def call() -> int:
            zpotrf(*args)
            return info.value

        return call


def _fortran_operands(*arrays: np.ndarray) -> int:
    """Dimension shared by Fortran-ordered square complex128 matrices, the
    last of which is written."""
    dim = arrays[0].shape[0] if arrays[0].ndim == 2 else -1
    for a in arrays:
        if (a.dtype != np.complex128 or a.shape != (dim, dim)
                or not a.flags.f_contiguous):
            raise ValidationError(
                "BLAS operands must be Fortran-ordered square complex128 "
                f"matrices of one size, got {a.dtype} {a.shape}")
    if not arrays[-1].flags.writeable:
        raise ValidationError("BLAS output is read-only")
    return dim


def _pointer(a: np.ndarray) -> ctypes.c_void_p:
    return a.ctypes.data_as(ctypes.c_void_p)  # holds a reference to ``a``


def _complex(z: complex) -> ctypes.Array:
    return (ctypes.c_double * 2)(z.real, z.imag)


def _numpy_openblas() -> tuple:
    lib = ctypes.CDLL(
        importlib.import_module("numpy._core._multiarray_umath").__file__)
    return lib, lib.scipy_zgemm_64_, lib.scipy_zpotrf_64_


def _scipy_cython_api() -> tuple:
    blas = importlib.import_module("scipy.linalg.cython_blas")
    lapack = importlib.import_module("scipy.linalg.cython_lapack")
    return (ctypes.CDLL(blas.__file__), _capsule_function(blas, "zgemm"),
            _capsule_function(lapack, "zpotrf"))


def _capsule_function(module, name: str) -> Callable[..., None]:
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None)(get_pointer(capsule, get_name(capsule)))


# (loader of a library handle with its zgemm and zpotrf, integer type,
# thread-count symbol with "{}" for get/set), in order of preference:
# numpy's bundled 64-bit-integer OpenBLAS, then the 32-bit-integer
# BLAS/LAPACK behind scipy's Cython API, which every scipy build exports
# and which is imported only when the first row is missing.
BLAS_LIBRARIES = (
    (_numpy_openblas, ctypes.c_int64, "scipy_openblas_{}_num_threads64_"),
    (_scipy_cython_api, ctypes.c_int32, "scipy_openblas_{}_num_threads"),
)


def load_blas(row: tuple) -> Blas | None:
    """The binding one ``BLAS_LIBRARIES`` row describes, or None when its
    module or routines are absent. Missing thread symbols (another BLAS
    behind scipy) leave ``threads`` None."""
    loader, index, thread_symbol = row
    try:
        lib, zgemm, zpotrf = loader()
    except (ImportError, OSError, AttributeError, KeyError):
        return None
    # No argtypes: ``Blas.gemm``/``Blas.potrf`` validate the arrays and pass
    # ready-made ctypes objects. Declared argtypes would convert all 13
    # zgemm arguments again on every call, about 2.7 us of a 120 us step.
    for routine in (zgemm, zpotrf):
        routine.argtypes, routine.restype = None, None
    try:
        get = getattr(lib, thread_symbol.format("get"))
        set_ = getattr(lib, thread_symbol.format("set"))
    except AttributeError:
        return Blas(zgemm, zpotrf, index, None)
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return Blas(zgemm, zpotrf, index, (get, set_))


@functools.cache
def kernel_blas() -> Blas:
    """The first ``BLAS_LIBRARIES`` row that resolves, found on first use
    rather than at import."""
    for row in BLAS_LIBRARIES:
        blas = load_blas(row)
        if blas is not None:
            return blas
    raise ImportError("found neither numpy's bundled OpenBLAS nor scipy's "
                      "BLAS/LAPACK")


def blas_threads() -> tuple[int, ...]:
    """Thread count of the library ``kernel_blas`` calls, as a one-element
    tuple; empty when it exposes no thread controls."""
    threads = kernel_blas().threads
    return () if threads is None else (threads[0](),)


def set_blas_threads(counts: Sequence[int]) -> None:
    """Set the thread count of the library ``kernel_blas`` calls, from a
    tuple shaped like ``blas_threads``'s."""
    threads = kernel_blas().threads
    if threads is not None and counts:
        threads[1](counts[0])


@contextmanager
def small_operator_threads(dim: int) -> Iterator[None]:
    """Run the body at one BLAS thread if ``dim <= SMALL_OPERATOR_DIM``.

    Only the library ``kernel_blas`` calls is governed; with numpy's bundled
    OpenBLAS that is also the one behind numpy's own products and
    eigensolvers. The caller's thread count is restored on exit, errors
    included; larger operators and libraries without thread symbols run
    untouched. The thread count is process-wide, so Python threads that
    use BLAS concurrently share it. A caller already at one thread sees no
    thread-count call: in a forked process, OpenBLAS's first such call
    starts a worker thread that spins for about 0.1 s of CPU.
    """
    saved = blas_threads() if dim <= SMALL_OPERATOR_DIM else ()
    if saved == (1,):
        saved = ()
    set_blas_threads([1] * len(saved))
    try:
        yield
    finally:
        set_blas_threads(saved)
