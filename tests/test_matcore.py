import numpy as np
import pytest

from ptlg.errors import DegenerateWeightError, DomainError, UsageError
from ptlg.matcore import (
    I2,
    I4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QubitDensity,
    hermitian_eigvals_2x2,
    partial_trace_first,
    projector,
    tensor,
)


def random_cmat(rng, n=2):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_dichotomic(rng):
    """Hermitian M with M^2 = I: a unit Bloch vector dotted into the Paulis."""
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


class TestProjector:
    def test_sigma_z_plus(self):
        p = projector(SIGMA_Z, +1)
        np.testing.assert_allclose(p.mat, np.diag([1.0, 0.0]), atol=0)

    def test_sigma_y_plus_by_hand(self):
        p = projector(SIGMA_Y, +1)
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_allclose(p.mat, expected, atol=1e-15)

    def test_completeness(self):
        total = projector(SIGMA_Z, +1).mat + projector(SIGMA_Z, -1).mat
        np.testing.assert_array_equal(total, I2)

    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            m = random_dichotomic(rng)
            plus, minus = projector(m, +1).mat, projector(m, -1).mat
            np.testing.assert_allclose(plus @ plus, plus, atol=1e-12)
            np.testing.assert_allclose(plus @ minus, np.zeros((2, 2)), atol=1e-12)

    def test_rejects_non_dichotomic(self):
        with pytest.raises(DomainError):
            projector(2.0 * SIGMA_Z, +1)
        with pytest.raises(DomainError):
            projector(np.array([[0, 1], [0, 0]], dtype=complex), +1)

    def test_rejects_bad_outcome(self):
        with pytest.raises(UsageError):
            projector(SIGMA_Z, 0)


class TestTensorAndPartialTrace:
    def test_identity_tensor(self):
        np.testing.assert_array_equal(tensor(I2, I2), I4)

    def test_product_state_reduction(self):
        rng = np.random.default_rng(15)
        a, b = random_cmat(rng), random_cmat(rng)
        np.testing.assert_allclose(partial_trace_first(tensor(a, b)),
                                   np.trace(a) * b, atol=1e-12)

    def test_bell_marginal_maximally_mixed(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace_first(rho), I2 / 2, atol=1e-15)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(16)
        a, b = random_cmat(rng), random_cmat(rng)
        assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(17)
        x = random_cmat(rng, 4)
        assert abs(np.trace(partial_trace_first(x)) - np.trace(x)) < 1e-12


class TestQubitDensity:
    def test_normalize(self):
        rho = QubitDensity(3.0 * I2 / 2).normalize()
        assert abs(rho.weight - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            QubitDensity(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            QubitDensity(np.diag([1.0, -0.5]).astype(complex))

    def test_degenerate_weight(self):
        with pytest.raises(DegenerateWeightError):
            QubitDensity(np.zeros((2, 2), dtype=complex)).normalize()

    def test_closed_form_eigenvalues(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            a = random_cmat(rng)
            h = (a + a.conj().T) / 2
            lo, hi = hermitian_eigvals_2x2(h)
            ref = np.linalg.eigvalsh(h)
            np.testing.assert_allclose([lo, hi], ref, atol=1e-12)
