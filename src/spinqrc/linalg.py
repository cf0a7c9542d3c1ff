"""Dense complex matrix helpers for operators up to a few hundred rows.

Two validated functions build and compare operators: ``unitary_exp``
(exp(-i t h) through the eigendecomposition of a Hermitian ``h``) and
``trace_distance``. Each takes square, finite, Hermitian matrices of any
memory layout, refuses any other input, and returns a fresh value, never
aliased to its inputs.

The module also owns the BLAS the evolution kernel calls directly
(``kernel_blas``: ``zgemm`` through ctypes, from the OpenBLAS bundled with
numpy, so that scipy is imported only where numpy bundles none), and each
fact about it:

* which kernel the library runs (``Blas.core`` and ``Blas.config``, read
  from OpenBLAS; ``provenance`` adds the thread count);
* whether a helper process may split that ``zgemm``'s products by column
  blocks without changing a bit (``splits_exactly``, the one statement of
  that rule);
* the package's one BLAS thread rule (``one_blas_thread``): the kernel and
  both functions above run at one thread at every array size. At two
  threads OpenBLAS's ``eigh``, which builds the propagator, rounds
  differently from dim 256 (n = 8) on, under every kernel tried; under
  some kernels (``Haswell``) the kernel's products do too, from dim 64 on.
  One fixed count keeps results independent of the host's core count;
  parallelism comes from worker processes instead.
"""
from __future__ import annotations

import ctypes
import functools
import importlib
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ValidationError

HERMITICITY_RTOL = 1e-10


class Blas(NamedTuple):
    """``zgemm`` of one BLAS library, called through ctypes with the Fortran
    calling convention and ``index`` integers, and what the library's
    OpenBLAS symbols give: its (get, set) thread-count functions, the name
    of the kernel core it picked for this CPU (``SkylakeX``, say; forced by
    ``OPENBLAS_CORETYPE``) and its build's config string. Each of the three
    is None where the library lacks the symbols."""

    zgemm: Callable[..., None]
    index: type
    threads: tuple[Callable[[], int], Callable[[int], None]] | None
    core: str | None
    config: str | None

    def gemm(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
             alpha: complex = 1.0, beta: complex = 0.0,
             conj_b: bool = False,
             cols: slice = slice(None)) -> Callable[[], None]:
        """A call that overwrites the columns ``cols`` of ``c`` with those of
        ``alpha a op(b) + beta c``, where op(b) is ``b`` or, with ``conj_b``,
        ``b†``; op(b)'s columns ``cols`` are ``b[:, cols]`` or
        ``b[cols, :]†``.

        Every argument is converted here, once; each call of the result
        reruns the product on the same buffers, which it keeps alive.
        """
        dim = _fortran_operands(a, b, c)
        lo, hi, stride = cols.indices(dim)
        if stride != 1 or not lo < hi:
            raise ValidationError(
                f"zgemm needs a non-empty block of contiguous columns of "
                f"{dim}, got {cols}")
        if np.may_share_memory(c, a) or np.may_share_memory(c, b):
            raise ValidationError("zgemm output must not overlap its inputs")
        n = ctypes.byref(self.index(dim))
        width = ctypes.byref(self.index(hi - lo))
        return functools.partial(
            self.zgemm, b"N", b"C" if conj_b else b"N", n, width, n,
            _complex(alpha), _pointer(a), n,
            _pointer(b[lo:hi] if conj_b else b[:, lo:hi]), n, _complex(beta),
            _pointer(c[:, lo:hi]), n)


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
    return lib, lib.scipy_zgemm_64_


def _scipy_cython_api() -> tuple:
    blas = importlib.import_module("scipy.linalg.cython_blas")
    return ctypes.CDLL(blas.__file__), _capsule_function(blas, "zgemm")


def _capsule_function(module, name: str) -> Callable[..., None]:
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None)(get_pointer(capsule, get_name(capsule)))


# (loader of a library handle with its zgemm, integer type, OpenBLAS symbol
# name with "{}" for the routine, such as get_num_threads), in order of
# preference: numpy's bundled 64-bit-integer OpenBLAS, then the
# 32-bit-integer BLAS behind scipy's Cython API, which every scipy build
# exports and which is imported only when the first row is missing.
BLAS_LIBRARIES = (
    (_numpy_openblas, ctypes.c_int64, "scipy_openblas_{}64_"),
    (_scipy_cython_api, ctypes.c_int32, "scipy_openblas_{}"),
)


def load_blas(row: tuple) -> Blas | None:
    """The binding one ``BLAS_LIBRARIES`` row describes, or None when its
    module or routine is absent. Missing OpenBLAS symbols (another BLAS
    behind scipy) leave ``threads``, ``core`` and ``config`` None."""
    loader, index, symbol = row
    try:
        lib, zgemm = loader()
    except (ImportError, OSError, AttributeError, KeyError):
        return None
    # No argtypes: ``Blas.gemm`` validates the arrays and passes ready-made
    # ctypes objects. Declared argtypes would convert all 13 arguments
    # again on every call, about 2.7 us of a 120 us step.
    zgemm.argtypes, zgemm.restype = None, None

    def routine(name: str, restype, *argtypes) -> Callable | None:
        function = getattr(lib, symbol.format(name), None)
        if function is not None:
            function.argtypes, function.restype = argtypes, restype
        return function

    get = routine("get_num_threads", ctypes.c_int)
    set_ = routine("set_num_threads", None, ctypes.c_int)
    core, config = (None if text is None else text().decode()
                    for text in (routine("get_corename", ctypes.c_char_p),
                                 routine("get_config", ctypes.c_char_p)))
    threads = None if get is None or set_ is None else (get, set_)
    return Blas(zgemm, index, threads, core, config)


@functools.cache
def kernel_blas() -> Blas:
    """The first ``BLAS_LIBRARIES`` row that resolves, found on first use
    rather than at import."""
    for row in BLAS_LIBRARIES:
        blas = load_blas(row)
        if blas is not None:
            return blas
    raise ImportError("found neither numpy's bundled OpenBLAS nor scipy's "
                      "BLAS")


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body at one BLAS thread.

    Governs the library ``kernel_blas`` calls. Where numpy bundles an
    OpenBLAS with thread symbols, ``kernel_blas`` binds that library, so
    the rule also holds numpy's own products and eigensolvers. The
    caller's thread count is restored on exit, errors included; a library
    without thread symbols runs untouched. The thread count is
    process-wide, so Python threads that use BLAS concurrently share it. A
    library already at one thread sees no thread-count call: in a forked
    process, OpenBLAS's first such call starts a worker thread that spins
    for about 0.1 s of CPU.
    """
    controls = kernel_blas().threads
    count = 1 if controls is None else controls[0]()
    if count != 1:
        controls[1](1)
    try:
        yield
    finally:
        if count != 1:
            controls[1](count)


def provenance() -> dict:
    """The ``core`` and ``config`` of the library ``kernel_blas`` binds, and
    its thread count at this moment (``threads``): inside
    ``one_blas_thread``, the count the kernel runs at. Each is None where
    the library does not say."""
    blas = kernel_blas()
    return {"core": blas.core, "config": blas.config,
            "threads": None if blas.threads is None else blas.threads[0]()}


@functools.cache
@one_blas_thread()
def splits_exactly(dim: int) -> bool:
    """Whether ``kernel_blas`` computes the two half-width column blocks of
    a dim x dim product bit for bit as one call computes them, in both
    forms the evolution kernel calls: ``a b``, and ``alpha a b† + c``.

    This is the package's one rule for splitting a product exactly: a
    helper process computes half the columns of each step's products only
    where it holds (``reservoir._evolve``), so a helper changes no bit of
    a trajectory. Nothing else assumes that a kernel splits exactly. The
    check runs once per ``dim``, on fixed operands, so a True is
    evidence, not proof. OpenBLAS's ``Haswell`` kernel gives False from
    dim 8 on; its ``SkylakeX``, ``Sandybridge`` and ``Katmai`` kernels give
    True.
    """
    x = np.arange(dim * dim).reshape((dim, dim), order="F")
    a, b = (np.cos(k * x) + 1j * np.sin(k * x + 1) for k in (0.3, 0.7))
    for form in ({}, {"alpha": 0.9, "beta": 1.0, "conj_b": True}):
        whole, split = b.copy(order="F"), b.copy(order="F")
        kernel_blas().gemm(a, b, whole, **form)()
        for cols in (slice(0, dim // 2), slice(dim // 2, dim)):
            kernel_blas().gemm(a, b, split, cols=cols, **form)()
        if whole.tobytes() != split.tobytes():
            return False
    return True


def _as_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` as a complex array, checked square, finite and Hermitian to
    HERMITICITY_RTOL relative to its own Frobenius norm; ValidationError
    otherwise."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")
    scale = np.linalg.norm(a)
    if scale > 0 and np.linalg.norm(a - a.conj().T) > HERMITICITY_RTOL * scale:
        raise ValidationError(f"{name} is not Hermitian within tolerance")
    return a


@one_blas_thread()
def unitary_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for Hermitian h, via its eigendecomposition
    ``h = V diag(w) V†``.

    Raises ValidationError when h is not Hermitian (``_as_hermitian``), or
    when a phase ``t w`` overflows.
    """
    h = _as_hermitian(h, "h")
    w, v = np.linalg.eigh(h)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = -1j * t * w
    if not np.isfinite(phases).all():
        raise ValidationError(f"a phase t w of exp(-i t h) is not finite at "
                              f"t = {t!r}")
    return (v * np.exp(phases)) @ v.conj().T


@one_blas_thread()
def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of (a - b), for Hermitian a, b.

    Each of a and b is checked Hermitian against its own norm
    (``_as_hermitian``): eigvalsh reads one triangle only, so a
    non-Hermitian difference would give a silently wrong distance.
    """
    a = _as_hermitian(a, "a")
    b = _as_hermitian(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
