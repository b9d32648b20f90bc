import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlg.errors import DomainError, UsageError
from ptlg.matcore import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QubitDensity,
    as_cmat,
    hermitian_eigvals_2x2,
    mixture,
    projector,
    raise_where,
    weights,
)


def random_cmat(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def random_dichotomic(rng):
    """Hermitian M with M^2 = I: a unit Bloch vector dotted into the Paulis."""
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


class TestProjector:
    def test_sigma_z_plus(self):
        p = projector(SIGMA_Z, +1)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=0)

    def test_sigma_y_plus_by_hand(self):
        p = projector(SIGMA_Y, +1)
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_allclose(p, expected, atol=1e-15)

    def test_completeness(self):
        total = projector(SIGMA_Z, +1) + projector(SIGMA_Z, -1)
        np.testing.assert_array_equal(total, I2)

    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            m = random_dichotomic(rng)
            plus, minus = projector(m, +1), projector(m, -1)
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

    def test_rejects_a_stack(self):
        with pytest.raises(UsageError, match="2x2 observable"):
            projector(np.array([SIGMA_Z, SIGMA_Y]), +1)


def test_as_cmat_rejects_a_3x3_matrix():
    with pytest.raises(UsageError, match=r"shape \(3, 3\)"):
        as_cmat(np.eye(3))


class TestQubitDensity:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            QubitDensity(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            QubitDensity(np.diag([1.0, -0.5]).astype(complex))

    def test_stack_names_every_failing_point(self):
        mats = [I2 / 2, np.diag([1.0, -0.5]), I2 / 2, np.diag([1.0, -0.25])]
        with pytest.raises(DomainError) as stacked:
            QubitDensity(np.array(mats, dtype=complex))
        alone = {}
        for i in (1, 3):
            with pytest.raises(DomainError) as exc:
                QubitDensity(mats[i].astype(complex))
            alone[i] = str(exc.value)
        assert str(stacked.value) == alone[1]
        assert stacked.value.failures == alone

    def test_closed_form_eigenvalues(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            a = random_cmat(rng)
            h = (a + a.conj().T) / 2
            lo, hi = hermitian_eigvals_2x2(h)
            ref = np.linalg.eigvalsh(h)
            np.testing.assert_allclose([lo, hi], ref, atol=1e-12)


class TestMixture:
    def test_mixed_state_is_its_basis_kets_at_half_weight(self):
        assert np.array_equal(mixture((0.5, 0.5), I2), I2 / 2)

    def test_columns_give_u_u_dagger(self):
        rng = np.random.default_rng(21)
        us = np.array([random_cmat(rng) for _ in range(5)])
        stacked = mixture((0.5, 0.5), us)
        np.testing.assert_allclose(stacked, us @ us.conj().swapaxes(-1, -2) / 2,
                                   rtol=0, atol=1e-14)
        for u, rho in zip(us, stacked):  # each point of a stack as alone, bit for bit
            assert np.array_equal(mixture((0.5, 0.5), u), rho)

    def test_one_ket_is_its_outer_product(self):
        psi = np.array([[0.6j], [0.8]])
        np.testing.assert_allclose(mixture((1.0,), psi), [[0.36, 0.48j], [-0.48j, 0.64]],
                                   rtol=0, atol=1e-15)


class TestNonContiguousInput:
    def test_transposed_input_accepted(self):
        rng = np.random.default_rng(19)
        a = random_cmat(rng)
        r = (a @ a.conj().T) / np.trace(a @ a.conj().T).real
        np.testing.assert_array_equal(QubitDensity(r.T).mat, QubitDensity(r.T.copy()).mat)
        np.testing.assert_array_equal(projector(SIGMA_Y.T, +1),
                                      projector(SIGMA_Y.T.copy(), +1))
        stack = np.stack([a, a.T])
        np.testing.assert_array_equal(as_cmat(stack.swapaxes(-1, -2)),
                                      stack.swapaxes(-1, -2).copy())

    def test_transposed_nan_rejected(self):
        m = np.array([[0.5, np.nan], [0.0, 0.5]], dtype=complex)
        with pytest.raises(UsageError):
            QubitDensity(m.T)
        with pytest.raises(UsageError):
            projector(m.T, +1)


def count_nonzero_raise_where(bad, values, error):
    """`raise_where` as it read before a point's flag was read by truthiness: the reference."""
    if not np.count_nonzero(bad):
        return
    if not isinstance(bad, np.ndarray):
        raise error(values)
    errors = {int(i): error(float(values[i])) for i in np.flatnonzero(bad)}
    first = next(iter(errors.values()))
    first.failures = {i: str(e) for i, e in errors.items()}
    raise first


def raised(guard, bad, values):
    """(class, message, failures) of what `guard` raises, or None where it returns."""
    try:
        guard(bad, values, lambda v: DomainError(f"bad value {v!r}"))
    except Exception as e:  # any raise, compared with the reference's
        return type(e), str(e), getattr(e, "failures", None)
    return None


class TestRaiseWhere:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_matches_the_count_nonzero_reference(self, data):
        form = data.draw(st.sampled_from(("stack", "0-d", "numpy bool", "bool", "int", "gated")))
        value = st.floats(-1e3, 1e3)
        if form == "stack":  # (0,) or (k,), with random failing points
            flags = data.draw(st.lists(st.booleans(), max_size=12))
            bad = np.array(flags, dtype=bool)
            values = np.array(data.draw(st.lists(value, min_size=len(flags),
                                                 max_size=len(flags))), dtype=float)
        elif form == "0-d":
            bad, values = np.array(data.draw(st.booleans())), np.array(data.draw(value))
        elif form == "gated":  # `i and alpha != 0`, at one angle or a stack holding zeros
            i = data.draw(st.sampled_from((0, 1)))
            alpha = data.draw(st.sampled_from([0.0, -0.0]) | value | st.lists(
                st.sampled_from([0.0, -0.0]) | value, min_size=1, max_size=8).map(np.array))
            bad, values = i and alpha != 0, alpha
        else:
            flag = data.draw(st.integers(-2, 2) if form == "int" else st.booleans())
            bad, values = np.bool_(flag) if form == "numpy bool" else flag, data.draw(value)
        want = raised(count_nonzero_raise_where, bad, values)
        assert raised(raise_where, bad, values) == want
        if not np.count_nonzero(bad):
            assert want is None
