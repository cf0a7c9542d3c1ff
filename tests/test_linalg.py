import ctypes
import re

import numpy as np
import pytest
from conftest import frozen_under

from spinqrc import linalg
from spinqrc.errors import ValidationError
from spinqrc.linalg import (BLAS_LIBRARIES, kernel_blas, load_blas,
                            trace_distance, unitary_exp)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def test_unitary_exp_rejects_nonsquare():
    with pytest.raises(ValidationError):
        unitary_exp(np.ones((2, 3)), 1.0)


def test_unitary_exp_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 1]])
    with pytest.raises(ValidationError):
        unitary_exp(bad, 1.0)


@pytest.mark.parametrize("t", [1e308, np.inf])
def test_unitary_exp_rejects_a_phase_that_overflows(t):
    # pi * theta0 times an eigenvalue of 3 leaves the float range for a
    # theta0 of 5e307; the check raises before any numpy warning.
    with np.errstate(all="raise"), pytest.raises(
            ValidationError, match=re.escape(f"not finite at t = {t!r}")):
        unitary_exp(np.diag([1.0, -3.0]), t)


def test_unitary_exp_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        unitary_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_unitary_exp_pauli_x_quarter_turn():
    # exp(-i (pi/2) X) = cos(pi/2) I - i sin(pi/2) X = -iX
    u = unitary_exp(X, np.pi / 2)
    assert np.allclose(u, -1j * X, atol=1e-12)


def test_unitary_exp_pauli_z_quarter_turn():
    u = unitary_exp(Z, np.pi / 2)
    assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-12)


def test_unitary_exp_is_unitary():
    h = random_hermitian(16, seed=11)
    u = unitary_exp(h, 0.7)
    assert np.linalg.norm(u.conj().T @ u - np.eye(16)) < 1e-12


def test_unitary_exp_zero_time_is_identity():
    h = random_hermitian(4, seed=2)
    assert np.allclose(unitary_exp(h, 0.0), np.eye(4), atol=1e-14)


def test_trace_distance_orthogonal_pure_states():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(rho, sigma) == pytest.approx(1.0)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)


def test_trace_distance_ground_vs_plus():
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    ground = np.diag([1.0, 0.0]).astype(complex)
    # eigenvalues of the difference are +-1/sqrt(2)
    assert trace_distance(ground, plus) == pytest.approx(1 / np.sqrt(2))


def transposed_view(m: np.ndarray) -> np.ndarray:
    """``m`` as the transpose of a C-ordered copy of ``m.T``: equal values,
    whose last axis is not contiguous."""
    return np.ascontiguousarray(m.T).T


@pytest.mark.parametrize("layout", [transposed_view, np.asfortranarray])
def test_any_memory_layout_is_accepted(layout):
    h = random_hermitian(8, seed=4)
    assert not layout(h).flags.c_contiguous
    assert np.array_equal(unitary_exp(layout(h), 0.3), unitary_exp(h, 0.3))
    a = np.diag(np.arange(1.0, 9.0) / 36).astype(complex)
    b = unitary_exp(h, 0.3) @ a @ unitary_exp(h, 0.3).conj().T
    assert trace_distance(layout(a), layout(b)) == trace_distance(a, b)


def test_trace_distance_shape_mismatch():
    with pytest.raises(ValidationError):
        trace_distance(np.eye(2), np.eye(4))


@pytest.mark.parametrize("m", [np.array([[1, 1], [0, 0]]),
                               np.array([[1, 0], [1, 0]])],
                         ids=["upper", "lower"])
def test_trace_distance_rejects_nonhermitian(m):
    # eigvalsh would read one triangle: 0.5 for one of these, 1.118 for
    # the other.
    zero = np.zeros((2, 2))
    for a, b, name in ((m, zero, "a"), (zero, m, "b")):
        with pytest.raises(ValidationError,
                           match=f"^{name} is not Hermitian"):
            trace_distance(a, b)


def test_trace_distance_checks_each_state_against_its_own_norm():
    # Each state is Hermitian to rounding, but their difference is 0.1%
    # off Hermitian relative to its own tiny norm, as the difference of
    # two states that have nearly met after many steps may be.
    a = np.diag([0.5, 0.5]).astype(complex)
    b = a.copy()
    b[0, 1], b[1, 0] = 1e-13, 1.001e-13
    assert trace_distance(a, b) == pytest.approx(1e-13, rel=1e-2)


@pytest.mark.parametrize("routine, call, bad_call", [
    ("eigh", lambda: unitary_exp(random_hermitian(8, seed=5), 0.3),
     lambda: unitary_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)),
    ("eigvalsh", lambda: trace_distance(np.eye(4) / 4, np.diag([1.0, 0, 0, 0])),
     lambda: trace_distance(np.eye(2), np.eye(4))),
], ids=("unitary_exp", "trace_distance"))
def test_decomposes_at_one_thread_and_restores_the_caller(
        routine, call, bad_call, caller_threads, monkeypatch):
    get, set_ = caller_threads
    set_(2)
    decompose = getattr(np.linalg, routine)
    seen = []

    def recording(*args, **kwargs):
        seen.append(get())
        return decompose(*args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, recording)
    call()
    assert seen == [1]
    assert get() == 2
    with pytest.raises(ValidationError):
        bad_call()
    assert get() == 2


def random_fortran(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.asfortranarray(rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))


@pytest.fixture
def one_thread_everywhere():
    """Every library of the binding table at one thread, as the kernel runs;
    OpenBLAS splits a product differently, and rounds it differently, at two
    threads."""
    controls = [blas.threads for blas in map(load_blas, BLAS_LIBRARIES)
                if blas is not None and blas.threads is not None]
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    yield
    for (_, set_), count in zip(controls, saved):
        set_(count)


# Every row of the binding table, the scipy fallback included, is loaded
# here directly, whichever row the kernel uses.
@pytest.mark.parametrize("row", BLAS_LIBRARIES, ids=("numpy", "scipy"))
class TestBlasBinding:
    @pytest.fixture
    def blas(self, row):
        blas = load_blas(row)
        if blas is None:
            pytest.skip("library not present in this build")
        return blas

    def test_gemm_bitwise_equals_scipy_in_both_kernel_forms(
            self, blas, one_thread_everywhere):
        scipy_blas = pytest.importorskip("scipy.linalg.blas")
        rng = np.random.default_rng(0)
        for dim in (4, 7, 16, 64, 100, 256):
            a, b, c0 = (random_fortran(rng, dim) for _ in range(3))
            c = np.empty_like(a)
            blas.gemm(a, b, c)()
            assert c.tobytes() == scipy_blas.zgemm(1.0, a, b).tobytes()
            c = c0.copy(order="F")
            blas.gemm(a, b, c, alpha=0.9, beta=1.0, conj_b=True)()
            expected = scipy_blas.zgemm(0.9, a, b, 1.0, c0, trans_b=2)
            assert c.tobytes() == expected.tobytes()

    def test_reads_the_core_its_config_names(self, blas):
        # OpenBLAS's config string names the core it picked, so the two
        # symbols agree, under a forced OPENBLAS_CORETYPE too.
        if blas.core is None:
            pytest.skip("the library names no kernel core")
        assert blas.core in blas.config.split()

    def test_gemm_reuses_its_buffers(self, blas):
        rng = np.random.default_rng(2)
        a, b = random_fortran(rng, 8), random_fortran(rng, 8)
        c = np.empty_like(a)
        call = blas.gemm(a, b, c)
        a[...] = 2 * a
        call()
        np.testing.assert_allclose(c, a @ b, rtol=1e-13)


# splits_exactly is the one statement of whether a helper may split a
# product by output columns (one helper, so only at dim // 2). On random
# operands, in both kernel forms, its answer must match a direct bit
# comparison of the two half-width column blocks with the one-call
# product, whichever way the library's kernel rounds.
@pytest.mark.parametrize("dim", [32, 64, 100, 128, 256])
def test_column_blocks_equal_the_one_call_product(dim, one_thread_everywhere):
    blas = kernel_blas()
    rng = np.random.default_rng(dim)
    a, b, c0 = (random_fortran(rng, dim) for _ in range(3))
    exact = {}
    for name, form in (("a b", {}),
                       ("alpha a b† + c", dict(alpha=0.9, beta=1.0,
                                               conj_b=True))):
        whole, split = c0.copy(order="F"), c0.copy(order="F")
        blas.gemm(a, b, whole, **form)()
        for cols in (slice(0, dim // 2), slice(dim // 2, dim)):
            blas.gemm(a, b, split, cols=cols, **form)()
            rest = slice(cols.stop, dim)
            assert split[:, rest].tobytes() == c0[:, rest].tobytes()
        exact[name] = split.tobytes() == whole.tobytes()
    assert linalg.splits_exactly(dim) == all(exact.values()), (
        f"{exact}: {frozen_under()}")


def test_binding_rejects_a_block_blas_cannot_take():
    f = np.asfortranarray(np.eye(4, dtype=complex))
    for cols in (slice(0, 4, 2), slice(2, 2), slice(3, 1)):
        with pytest.raises(ValidationError, match="block of contiguous"):
            kernel_blas().gemm(f, f.copy(order="F"), f.copy(order="F"),
                               cols=cols)


def test_binding_rejects_operands_blas_cannot_take():
    blas = kernel_blas()
    f = np.asfortranarray(np.eye(4, dtype=complex))
    for bad in (np.eye(4, dtype=complex) + np.triu(np.ones((4, 4)), 1),
                np.asfortranarray(np.eye(4)),
                np.asfortranarray(np.eye(3, dtype=complex))):
        with pytest.raises(ValidationError):
            blas.gemm(f, f.copy(order="F"), bad)
    with pytest.raises(ValidationError):
        blas.gemm(f, f.copy(order="F"), f)
    frozen = f.copy(order="F")
    frozen.flags.writeable = False
    with pytest.raises(ValidationError):
        blas.gemm(f, f.copy(order="F"), frozen)


def _raising(exc_type):
    def loader():
        raise exc_type("library not found")
    return loader


@pytest.mark.parametrize("exc_type", [ImportError, OSError, AttributeError,
                                      KeyError])
def test_a_row_whose_loader_raises_is_absent(exc_type):
    assert load_blas((_raising(exc_type), ctypes.c_int64, "x_{}")) is None


def test_a_library_without_thread_symbols_has_no_thread_controls():
    loader, index, _ = next(row for row in BLAS_LIBRARIES
                            if load_blas(row) is not None)
    blas = load_blas((loader, index, "no_such_symbol_{}_num_threads"))
    assert blas.threads is blas.core is blas.config is None
    a = np.asfortranarray(np.eye(4, dtype=complex))
    c = np.empty_like(a)
    blas.gemm(a, 2 * a, c)()
    assert c.tobytes() == (2 * a).tobytes()


def test_no_row_resolving_raises_import_error(monkeypatch):
    monkeypatch.setattr(linalg, "BLAS_LIBRARIES",
                        ((_raising(ImportError), ctypes.c_int64, "x_{}"),))
    kernel_blas.cache_clear()
    try:
        with pytest.raises(ImportError, match="found neither"):
            kernel_blas()
    finally:
        monkeypatch.undo()
        kernel_blas.cache_clear()
