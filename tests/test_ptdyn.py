import numpy as np
import pytest
from scipy.linalg import expm

from ptlg.closedform import uu_dagger_coefficients, uu_dagger_reference
from ptlg.errors import DomainError, ExceptionalPointError
from ptlg.matcore import I2, SIGMA_X
from ptlg.ptdyn import (
    PTParams,
    composition_check,
    eigensystem,
    hamiltonian,
    propagator,
    uu_dagger,
    with_t,
)


class TestParams:
    def test_rejects_exceptional_point(self):
        with pytest.raises(ExceptionalPointError):
            PTParams(alpha=np.pi / 2, t=0.5)
        with pytest.raises(ExceptionalPointError):
            PTParams(alpha=-1.6, t=0.5)

    def test_near_exceptional_point_accepted(self):
        PTParams(alpha=np.pi / 2.05, t=0.5)

    def test_rejects_bad_scale_and_duration(self):
        with pytest.raises(DomainError):
            PTParams(alpha=0.3, t=0.5, s=0.0)
        with pytest.raises(DomainError):
            PTParams(alpha=0.3, t=-0.1)


class TestHamiltonian:
    def test_hermitian_limit_is_sigma_x(self):
        np.testing.assert_allclose(hamiltonian(PTParams(0.0, 1.0)), SIGMA_X, atol=0)

    def test_pi_over_3(self):
        h = hamiltonian(PTParams(np.pi / 3, 1.0))
        expected = np.array([[1j * np.sqrt(3) / 2, 1.0], [1.0, -1j * np.sqrt(3) / 2]])
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_traceless(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = PTParams(rng.uniform(-1.5, 1.5), rng.uniform(0, 3), s=rng.uniform(0.5, 2))
            assert abs(np.trace(hamiltonian(p))) < 1e-15


class TestEigensystem:
    def test_hermitian_limit(self):
        es = eigensystem(PTParams(0.0, 1.0))
        assert es.e_plus == pytest.approx(1.0)
        assert es.e_minus == pytest.approx(-1.0)
        assert abs(np.vdot(es.v_plus, es.v_minus)) < 1e-12

    def test_energies_at_pi_over_3(self):
        es = eigensystem(PTParams(np.pi / 3, 1.0))
        assert es.e_plus == pytest.approx(0.5)
        assert es.e_minus == pytest.approx(-0.5)

    def test_nonorthogonal_eigenvectors(self):
        es = eigensystem(PTParams(np.pi / 3, 1.0))
        overlap = abs(np.vdot(es.v_plus / np.linalg.norm(es.v_plus),
                              es.v_minus / np.linalg.norm(es.v_minus)))
        assert overlap > 0.1

    def test_eigenvalue_equation(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            p = PTParams(rng.uniform(-1.4, 1.4), rng.uniform(0, 3))
            h, es = hamiltonian(p), eigensystem(p)
            assert np.linalg.norm(h @ es.v_plus - es.e_plus * es.v_plus) < 1e-10
            assert np.linalg.norm(h @ es.v_minus - es.e_minus * es.v_minus) < 1e-10


class TestPropagator:
    def test_no_evolution(self):
        np.testing.assert_allclose(propagator(PTParams(0.7, 0.0)), I2, atol=1e-15)

    def test_hermitian_limit_unitary(self):
        t = 0.9
        u = propagator(PTParams(0.0, t))
        expected = np.array([[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]])
        np.testing.assert_allclose(u, expected, atol=1e-15)
        np.testing.assert_allclose(u @ u.conj().T, I2, atol=1e-15)

    def test_matches_matrix_exponential_oracle(self):
        p = PTParams(np.pi / 3, 0.7)
        tau = p.t / (p.s * np.cos(p.alpha))
        np.testing.assert_allclose(propagator(p), expm(-1j * hamiltonian(p) * tau),
                                   atol=1e-10)

    def test_matches_expm_random(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = PTParams(rng.uniform(-1.5, 1.5), rng.uniform(0, 3), s=rng.uniform(0.5, 2))
            tau = p.t / (p.s * np.cos(p.alpha))
            np.testing.assert_allclose(propagator(p), expm(-1j * hamiltonian(p) * tau),
                                       atol=1e-10)

    def test_unit_determinant(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p = PTParams(rng.uniform(-1.5, 1.5), rng.uniform(0, 3))
            assert abs(np.linalg.det(propagator(p)) - 1.0) < 1e-12

    def test_secant_closed_form(self):
        p = PTParams(np.pi / 3, 0.7)
        sec = 1 / np.cos(p.alpha)
        expected = sec * np.array([
            [np.cos(p.t - p.alpha), -1j * np.sin(p.t)],
            [-1j * np.sin(p.t), np.cos(p.t + p.alpha)],
        ])
        np.testing.assert_allclose(propagator(p), expected, atol=1e-14)

    def test_biorthogonal_reconstruction(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            p = PTParams(rng.uniform(-2 * np.pi / 5, 2 * np.pi / 5), rng.uniform(0, 3))
            es = eigensystem(p)
            v = np.column_stack([es.v_plus, es.v_minus])
            w = np.linalg.inv(v)
            tau = p.t / (p.s * np.cos(p.alpha))
            u_spec = (np.exp(-1j * es.e_plus * tau) * np.outer(v[:, 0], w[0, :])
                      + np.exp(-1j * es.e_minus * tau) * np.outer(v[:, 1], w[1, :]))
            np.testing.assert_allclose(propagator(p), u_spec, atol=1e-9)


class TestComposition:
    def test_unitary_group(self):
        assert composition_check(PTParams(0.0, 1.0), 0.4, 1.1) < 1e-12

    def test_nonunitary_semigroup(self):
        assert composition_check(PTParams(np.pi / 3, 1.0), 0.3, 0.5) < 1e-12

    def test_zero_second_duration(self):
        assert composition_check(PTParams(1.1, 1.0), 0.8, 0.0) < 1e-15


class TestUUDagger:
    def test_hermitian_limit(self):
        np.testing.assert_allclose(uu_dagger(PTParams(0.0, 1.3)), I2, atol=1e-14)

    def test_no_evolution(self):
        np.testing.assert_allclose(uu_dagger(PTParams(1.1, 0.0)), I2, atol=1e-14)

    def test_off_diagonal_magnitude(self):
        alpha, t = np.pi / 3, 0.7
        m = uu_dagger(PTParams(alpha, t))
        expected = 2.0 / np.cos(alpha) * np.sin(t) ** 2 * np.tan(alpha)
        assert abs(abs(m[0, 1]) - expected) < 1e-12

    def test_closed_form(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            alpha, t = rng.uniform(-1.5, 1.5), rng.uniform(0, 3)
            np.testing.assert_allclose(uu_dagger(PTParams(alpha, t)),
                                       uu_dagger_reference(alpha, t), atol=1e-10)

    def test_nonunitarity_on_grid(self):
        for alpha in (np.pi / 6, np.pi / 3, 2 * np.pi / 5):
            for t in (0.3, 0.7, 1.2):
                dev = np.max(np.abs(uu_dagger(PTParams(alpha, t)) - I2))
                assert dev > 1e-6

    def test_coefficient_sign_convention(self):
        # the (0, 1) entry is +i d2 under the pinned exponentiation convention
        alpha, t = 0.9, 1.1
        _, d2, _ = uu_dagger_coefficients(alpha, t)
        m = uu_dagger(PTParams(alpha, t))
        assert abs(m[0, 1] - 1j * d2) < 1e-12


def test_with_t_replaces_duration():
    p = PTParams(0.5, 1.0, s=2.0)
    q = with_t(p, 0.25)
    assert q.t == 0.25 and q.alpha == p.alpha and q.s == p.s


def test_propagator_independent_of_scale():
    # s cancels in U = cos(t) I - i sin(t) H / (s cos alpha); the bound covers
    # three roundings: s times an entry of H, s cos(alpha), and their quotient
    rng = np.random.default_rng(27)
    eps = np.finfo(float).eps
    for _ in range(500):
        alpha, t = rng.uniform(-1.5, 1.5), rng.uniform(0, 3)
        u = propagator(PTParams(alpha, t))
        for s in (0.3, 1.0, 7.0, 100.0):
            gap = np.max(np.abs(propagator(PTParams(alpha, t, s)) - u))
            assert gap <= 4 * eps * np.max(np.abs(u))
