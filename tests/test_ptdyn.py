import numpy as np
import pytest
from scipy.linalg import expm

from ptlg.closedform import uu_dagger_reference
from ptlg.errors import DomainError, ExceptionalPointError, UsageError
from ptlg import ptdyn
from ptlg.matcore import I2, SIGMA_X, dagger
from ptlg.ptdyn import (
    PTParams,
    composition_check,
    eigensystem,
    hamiltonian,
    propagator,
)


def uu_dagger(p):
    u = propagator(p)
    return u @ dagger(u)


class TestParams:
    def test_rejects_exceptional_point(self):
        with pytest.raises(ExceptionalPointError):
            PTParams(alpha=np.pi / 2, t=0.5)
        with pytest.raises(ExceptionalPointError):
            PTParams(alpha=-1.6, t=0.5)

    def test_near_exceptional_point_accepted(self):
        PTParams(alpha=np.pi / 2.05, t=0.5)

    def test_rejects_negative_duration(self):
        with pytest.raises(DomainError):
            PTParams(alpha=0.3, t=-0.1)

    def test_rejects_unaligned_stacks(self):
        with pytest.raises(UsageError, match="aligned"):
            PTParams((0.1, 0.2), (0.5, 0.6, 0.7))

    def test_stack_names_every_failing_point(self):
        with pytest.raises(DomainError) as stacked:
            PTParams(0.3, (0.5, -0.1, 1.0, -2.0))
        assert str(stacked.value) == "duration t must be >= 0, got -0.1"
        assert stacked.value.failures == {1: "duration t must be >= 0, got -0.1",
                                          3: "duration t must be >= 0, got -2.0"}
        with pytest.raises(ExceptionalPointError) as stacked:
            PTParams((0.3, 1.6), 0.5)
        with pytest.raises(ExceptionalPointError) as alone:
            PTParams(1.6, 0.5)
        assert stacked.value.failures == {1: str(alone.value)}


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
            p = PTParams(rng.uniform(-1.5, 1.5), rng.uniform(0, 3))
            assert abs(np.trace(hamiltonian(p))) < 1e-15


class TestEigensystem:
    def test_hermitian_limit(self):
        e, v = eigensystem(PTParams(0.0, 1.0))
        assert e == pytest.approx(1.0)
        assert abs(np.vdot(v[:, 0], v[:, 1])) < 1e-12

    def test_energies_at_pi_over_3(self):
        e, _ = eigensystem(PTParams(np.pi / 3, 1.0))
        assert e == pytest.approx(0.5)

    def test_nonorthogonal_eigenvectors(self):
        _, v = eigensystem(PTParams(np.pi / 3, 1.0))
        overlap = abs(np.vdot(v[:, 0] / np.linalg.norm(v[:, 0]),
                              v[:, 1] / np.linalg.norm(v[:, 1])))
        assert overlap > 0.1

    def test_eigenvalue_equation(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            p = PTParams(rng.uniform(-1.4, 1.4), rng.uniform(0, 3))
            h, (e, v) = hamiltonian(p), eigensystem(p)
            assert np.linalg.norm(h @ v[:, 0] - e * v[:, 0]) < 1e-10
            assert np.linalg.norm(h @ v[:, 1] + e * v[:, 1]) < 1e-10

    def test_stack_matches_points(self):
        rng = np.random.default_rng(28)
        alphas = np.append(rng.uniform(-1.55, 1.55, 31), 0.0)
        e, v = eigensystem(PTParams(alphas, 0.5))
        assert e.shape == (32,) and v.shape == (32, 2, 2)
        for i, a in enumerate(alphas):
            e_i, v_i = eigensystem(PTParams(a, 0.5))
            assert e[i].tobytes() == e_i.tobytes() and v[i].tobytes() == v_i.tobytes()
        h = hamiltonian(PTParams(alphas, 0.5))
        eigen_values = v * np.stack([e, -e], axis=-1)[:, None, :]  # column k scaled by +-e
        np.testing.assert_allclose(h @ v, eigen_values, rtol=0, atol=1e-10)


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
        tau = p.t / np.cos(p.alpha)
        np.testing.assert_allclose(propagator(p), expm(-1j * hamiltonian(p) * tau),
                                   atol=1e-10)

    def test_matches_expm_random(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = PTParams(rng.uniform(-1.5, 1.5), rng.uniform(0, 3))
            tau = p.t / np.cos(p.alpha)
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
            e, v = eigensystem(p)
            w = np.linalg.inv(v)
            tau = p.t / np.cos(p.alpha)
            u_spec = (np.exp(-1j * e * tau) * np.outer(v[:, 0], w[0, :])
                      + np.exp(1j * e * tau) * np.outer(v[:, 1], w[1, :]))
            np.testing.assert_allclose(propagator(p), u_spec, atol=1e-9)


class TestComposition:
    def test_unitary_group(self):
        assert composition_check(0.0, 0.4, 1.1) < 1e-12

    def test_nonunitary_semigroup(self):
        assert composition_check(np.pi / 3, 0.3, 0.5) < 1e-12

    def test_zero_second_duration(self):
        assert composition_check(1.1, 0.8, 0.0) < 1e-15

    def test_stack_is_the_max_over_its_points(self, monkeypatch):
        # the angles and both durations broadcast against each other, point by point, and
        # U(t1), U(t2) and U(t1 + t2) come from one propagator stack
        rng = np.random.default_rng(7)
        alphas, t1, t2 = rng.uniform(-1.5, 1.5, 9), rng.uniform(0, 3, 9), rng.uniform(0, 3, 9)
        alone = [composition_check(a, x, y) for a, x, y in zip(alphas, t1, t2)]
        calls = []
        monkeypatch.setattr(ptdyn, "propagator", lambda p: calls.append(p) or propagator(p))
        assert composition_check(alphas, t1, t2) == max(alone)
        assert len(calls) == 1 and len(calls[0].t) == 27
        assert composition_check(0.7, t1, t2) == composition_check(np.full(9, 0.7), t1, t2)
        assert composition_check(alphas, 0.4, t2) == composition_check(alphas, np.full(9, 0.4), t2)

    def test_checks_each_point(self):
        with pytest.raises(ExceptionalPointError):
            composition_check([0.3, np.pi / 2], 0.4, 0.5)
        with pytest.raises(DomainError):
            composition_check(0.3, [0.4, -0.1], 0.5)


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
        # the (0, 1) entry is +i d2, d2 = 2 sec(alpha) sin^2(t) tan(alpha), under
        # the pinned exponentiation convention, in the engine and the closed form
        alpha, t = 0.9, 1.1
        d2 = 2.0 / np.cos(alpha) * np.sin(t) ** 2 * np.tan(alpha)
        for m in (uu_dagger(PTParams(alpha, t)), uu_dagger_reference(alpha, t)):
            assert abs(m[0, 1] - 1j * d2) < 1e-12
