"""Determinants, wedge magnitudes, Gram-Schmidt and the symmetric eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dircurv.errors import (
    DimensionMismatchError,
    NonFiniteValueError,
    NotSymmetricError,
    NumericalError,
    RankDeficientError,
)
from dircurv.linalg import determinant, exterior_magnitude, orthonormalize, sym_eigen


def _cofactor_det(a):
    # independent textbook expansion, exponential but fine for n <= 5
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for c in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), c, axis=1)
        total += (-1.0) ** c * a[0, c] * _cofactor_det(minor)
    return total


# ---------------------------------------------------------------- determinant


def test_determinant_1x1():
    assert determinant(np.array([[2.0]])) == 2.0


def test_determinant_2x2():
    assert determinant(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(-2.0, abs=1e-14)


def test_determinant_identity():
    assert determinant(np.eye(5)) == 1.0


def test_determinant_singular_is_zero():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert determinant(a) == pytest.approx(0.0, abs=1e-14)


def test_determinant_permutation_sign():
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert determinant(p) == pytest.approx(1.0, abs=1e-14)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert determinant(swap) == pytest.approx(-1.0, abs=1e-14)


def test_determinant_against_cofactor_expansion():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            a = rng.uniform(-2.0, 2.0, size=(n, n))
            want = _cofactor_det(a)
            got = determinant(a)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_determinant_row_scaling():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    b = a.copy()
    b[2] *= 3.0
    assert determinant(b) == pytest.approx(3.0 * determinant(a), rel=1e-12)


@pytest.mark.parametrize("shape", [(6, 4, 4), (3, 0, 0), (1, 2, 2), (2, 3, 4), (2, 3), (3,), ()],
                         ids=["stack", "empty-stack", "stack-of-one", "rectangular-stack",
                              "rectangular", "vector", "scalar"])
def test_determinant_takes_one_square_matrix(shape):
    with pytest.raises(DimensionMismatchError):
        determinant(np.ones(shape))


# ---------------------------------------------------------------- wedge


def test_exterior_magnitude_unit_square():
    assert exterior_magnitude(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_exterior_magnitude_parallel_is_zero():
    u = np.array([1.0, 2.0, 3.0])
    assert exterior_magnitude(u, 2.0 * u) == pytest.approx(0.0, abs=1e-12)


def test_exterior_magnitude_matches_cross_product_in_3d():
    rng = np.random.default_rng(9)
    for _ in range(50):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert exterior_magnitude(u, v) == pytest.approx(
            np.linalg.norm(np.cross(u, v)), rel=1e-12)


def test_exterior_magnitude_rejects_mismatched_lengths():
    with pytest.raises(DimensionMismatchError):
        exterior_magnitude(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_exterior_magnitude_lagrange_identity():
    # |u ^ v|^2 = |u|^2 |v|^2 - <u, v>^2 across many dimensions
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        lhs = exterior_magnitude(u, v) ** 2
        rhs = (u @ u) * (v @ v) - (u @ v) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------- Gram-Schmidt


def test_orthonormalize_produces_orthonormal_set():
    vs = [np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])]
    q = orthonormalize(vs)
    g = np.array([[qi @ qj for qj in q] for qi in q])
    assert np.max(np.abs(g - np.eye(3))) <= 1e-14


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(11)
    vs = [rng.standard_normal(5) for _ in range(3)]
    q = orthonormalize(vs)
    for v in vs:
        resid = v - sum((v @ qi) * qi for qi in q)
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(v)


def test_orthonormalize_flags_dependent_vector_with_index():
    v = np.array([1.0, 2.0, 0.0])
    with pytest.raises(RankDeficientError) as exc:
        orthonormalize([v, 2.0 * v])
    assert "2" in str(exc.value)


def test_orthonormalize_handles_nearly_dependent_input():
    # classical one-pass Gram-Schmidt loses orthogonality here; the second
    # projection pass keeps it at working precision
    vs = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1e-8, 0.0])]
    q = orthonormalize(vs)
    assert abs(q[0] @ q[1]) <= 1e-14


# ---------------------------------------------------------------- eigensolver


def test_sym_eigen_diagonal():
    vals, vecs = sym_eigen(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0], atol=1e-14)
    # eigenvector columns match the sorted diagonal entries
    assert abs(abs(vecs[1, 0]) - 1.0) <= 1e-14
    assert abs(abs(vecs[2, 1]) - 1.0) <= 1e-14
    assert abs(abs(vecs[0, 2]) - 1.0) <= 1e-14


def test_sym_eigen_known_2x2():
    vals, vecs = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert vals == pytest.approx([1.0, 3.0], abs=1e-14)


def test_sym_eigen_1x1():
    vals, vecs = sym_eigen(np.array([[4.0]]))
    assert vals[0] == 4.0 and vecs[0, 0] == 1.0


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eigen_reconstructs_matrix():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            vals, vecs = sym_eigen(a)
            scale = max(1.0, np.max(np.abs(a)))
            # ascending order
            assert all(vals[i] <= vals[i + 1] + 1e-14 * scale for i in range(n - 1))
            # orthonormal eigenvector columns
            assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-12
            # A v = lambda v columnwise
            assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-12 * scale
            # spectrum invariants
            assert np.sum(vals) == pytest.approx(np.trace(a), rel=1e-10, abs=1e-10)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_sym_eigen_rayleigh_bounds(n, seed):
    """Every Rayleigh quotient lies between the extreme eigenvalues."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    vals, _ = sym_eigen(a)
    scale = max(1.0, np.max(np.abs(a)))
    for _ in range(5):
        w = rng.standard_normal(n)
        rq = (w @ a @ w) / (w @ w)
        assert vals[0] - 1e-10 * scale <= rq <= vals[-1] + 1e-10 * scale


def test_sym_eigen_lapack_failure_is_numerical_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError) as exc:
        sym_eigen(np.eye(3))
    assert exc.value.code == "no_convergence"
    assert exc.value.exit_code == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sym_eigen_rejects_non_finite_entries(bad):
    a = np.eye(3)
    a[1, 1] = bad
    with pytest.raises(NonFiniteValueError):
        sym_eigen(a)
