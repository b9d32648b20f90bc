import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlg.closedform import uu_dagger_reference
from ptlg.errors import ExceptionalPointError
from ptlg.matcore import I2, hermitian_defect, weights
from ptlg.nosignal import bob_reduced, signaling_deviation
from ptlg.ptdyn import PTParams, propagator

EPS = np.finfo(float).eps
ALPHAS = st.floats(-1.5703, 1.5703)
TIMES = st.floats(0.0, np.pi)
BELL_PAIR = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2  # (|00> + |11>) / sqrt(2)


def trace_first(m: np.ndarray) -> np.ndarray:
    """Trace a 4x4 two-qubit matrix over its first qubit."""
    return m[:2, :2] + m[2:, 2:]


def bell_pair_reference(alpha: float, t: float) -> np.ndarray:
    """The partner state by the two-qubit route: U x I on the Bell pair, then the
    trace over the first qubit, renormalized."""
    local = np.kron(propagator(PTParams(alpha, t)), I2)
    reduced = trace_first(local @ BELL_PAIR @ local.conj().T)
    return reduced / np.trace(reduced).real


class TestBellState:
    """The reference pair itself."""

    def test_unit_trace(self):
        assert np.trace(BELL_PAIR).real == pytest.approx(1.0, abs=1e-14)

    def test_maximally_entangled_marginal(self):
        np.testing.assert_allclose(trace_first(BELL_PAIR), I2 / 2, atol=1e-14)

    def test_pure(self):
        assert np.trace(BELL_PAIR @ BELL_PAIR).real == pytest.approx(1.0, abs=1e-14)


class TestBobReduced:
    def test_hermitian_limit(self):
        np.testing.assert_allclose(bob_reduced(PTParams(0.0, 0.9)).mat, I2 / 2,
                                   atol=1e-14)

    def test_no_evolution(self):
        np.testing.assert_allclose(bob_reduced(PTParams(1.1, 0.0)).mat, I2 / 2,
                                   atol=1e-14)

    def test_deformed_state(self):
        rho = bob_reduced(PTParams(np.pi / 3, 0.7))
        assert weights(rho.mat) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-12
        assert signaling_deviation(PTParams(np.pi / 3, 0.7)) > 1e-3

    def test_closed_form_entries(self):
        # U^T = U makes the partner state U U^dag / tr(U U^dag); every entry,
        # the complex off-diagonals included
        rng = np.random.default_rng(61)
        for _ in range(25):
            alpha, t = rng.uniform(-1.5, 1.5), rng.uniform(0, np.pi)
            ref = uu_dagger_reference(alpha, t)
            rho = bob_reduced(PTParams(alpha, t)).mat
            assert np.abs(rho - ref / np.trace(ref).real).max() <= 1e-9


class TestBellPairProperties:
    @settings(derandomize=True, deadline=None)
    @given(alpha=ALPHAS, t=TIMES)
    def test_matches_bell_pair_reference(self, alpha, t):
        rho = bob_reduced(PTParams(alpha, t)).mat
        assert np.abs(rho - bell_pair_reference(alpha, t)).max() <= 4 * EPS
        assert abs(weights(rho) - 1.0) <= 2 * EPS
        assert hermitian_defect(rho) <= 2 * EPS

    @settings(derandomize=True, deadline=None)
    @given(alpha=ALPHAS, t=TIMES)
    def test_no_signal_when_hermitian_or_trivial(self, alpha, t):
        assert signaling_deviation(PTParams(0.0, t)) < 1e-12
        assert signaling_deviation(PTParams(alpha, 0.0)) < 1e-12
        assert signaling_deviation(PTParams(alpha, np.pi)) < 1e-12


class TestSignalingDeviation:
    def test_hermitian_limit_never_signals(self):
        for t in np.linspace(0.0, np.pi, 17):
            assert signaling_deviation(PTParams(0.0, t)) < 1e-12

    def test_trivial_evolution_never_signals(self):
        # sin t = 0 makes the propagator proportional to the identity
        for alpha in (np.pi / 6, np.pi / 3, 2 * np.pi / 5):
            assert signaling_deviation(PTParams(alpha, 0.0)) < 1e-12
            assert signaling_deviation(PTParams(alpha, np.pi)) < 1e-12

    def test_generic_point_signals(self):
        assert signaling_deviation(PTParams(2 * np.pi / 5, 0.8)) > 1e-3

    def test_closed_form_zero_set(self):
        # deviation vanishes exactly where the closed form says it does
        alpha = 2 * np.pi / 5
        ref = uu_dagger_reference(alpha, np.pi)
        assert np.abs(ref / np.trace(ref).real - I2 / 2).max() < 1e-12
        assert signaling_deviation(PTParams(alpha, np.pi)) < 1e-12

    def test_exceptional_point_rejected(self):
        with pytest.raises(ExceptionalPointError):
            signaling_deviation(PTParams(np.pi / 2, 0.5))
