"""Exact identities of the three-time protocol over the whole parameter domain.

Hypothesis draws |alpha| <= 1.5703 (the EP is at pi/2), t in [0, pi], the
pure-state angles and the chain, for both PT presets.  Every identity below
holds exactly, so the only slack is roundoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_reference import err_bound

from ptlg.lgexpr import CONTEXTS, expression, l123_and_beta, table, v123_and_delta
from ptlg.macrodiag import (decomposition_residual_standard, decomposition_residual_variant,
                            degree_report)
from ptlg.protocol import pt_standard, pt_variant, unitary_variant
from ptlg.ptdyn import PTParams, propagator

EPS = np.finfo(float).eps
TOL = 1e-12
RESIDUAL_TOL = 1e-10
ALPHAS = st.floats(-1.5703, 1.5703)
ANGLES = st.floats(0.0, np.pi)


@st.composite
def pt_presets(draw):
    """A standard or pure-state PT preset under the sequential or published chain."""
    alpha = draw(ALPHAS)
    t = draw(ANGLES)
    published = draw(st.booleans())
    if draw(st.booleans()):
        return pt_standard(alpha, t, published=published)
    return pt_variant(alpha, t, draw(ANGLES), draw(st.floats(0.0, 2 * np.pi)),
                      published=published)


@settings(derandomize=True, deadline=None)
@given(preset=pt_presets())
def test_each_context_sums_to_one(preset):
    tab = table(preset)
    for times in CONTEXTS:
        assert abs(sum(tab[times].rows) - 1.0) <= TOL


@settings(derandomize=True, deadline=None)
@given(preset=pt_presets())
def test_each_degree_table_sums_to_zero(preset):
    rep = degree_report(preset)
    for degrees in (rep.d_123, rep.d_1_2_3, rep.r_12_3, rep.r_1_23):
        assert abs(sum(degrees.ravel())) <= TOL


@settings(derandomize=True, deadline=None)
@given(preset=pt_presets())
def test_full_context_identities(preset):
    tab = table(preset)
    l123, beta = l123_and_beta(tab)
    v123, delta = v123_and_delta(tab)
    assert abs(l123 - (1 - 4 * beta)) <= TOL
    assert abs(v123 - (1 - 4 * delta)) <= TOL


@settings(derandomize=True, deadline=None)
@given(preset=pt_presets())
def test_decomposition_residuals(preset):
    tab = table(preset)
    assert decomposition_residual_standard(tab) <= RESIDUAL_TOL
    assert decomposition_residual_variant(tab) <= RESIDUAL_TOL


@settings(derandomize=True, deadline=None)
@given(t=ANGLES, theta=ANGLES, phi=st.floats(0.0, 2 * np.pi))
def test_unitary_aot_degrees_vanish(t, theta, phi):
    assert degree_report(unitary_variant(t, theta, phi)).max_aot() <= TOL


@settings(derandomize=True, deadline=None)
@given(alpha=ALPHAS, t=ANGLES)
def test_propagator_is_antiperiodic(alpha, t):
    # U(t + pi) = -U(t), so every probability is pi-periodic in t.  The entries
    # scale as sec(alpha), and t + pi carries the roundoff of its sum and of pi.
    u, shifted = propagator(PTParams(alpha, t)), propagator(PTParams(alpha, t + np.pi))
    assert np.abs(shifted + u).max() <= 8 * EPS / np.cos(alpha)


@settings(derandomize=True, deadline=None)
@given(alpha=st.floats(-1.5, 1.5), t=ANGLES, theta=ANGLES, phi=st.floats(0.0, 2 * np.pi),
       chain=st.sampled_from(("sequential", "bare", "published", "unitary")))
def test_phi_reflection_leaves_every_distribution_unchanged(alpha, t, theta, phi, chain):
    # The ket (e^{i phi} sin theta, cos theta) goes under phi -> pi - phi to
    # sigma_z K of itself (K: complex conjugation), up to a global sign.
    # H = [[i sin alpha, 1], [1, -i sin alpha]] has sigma_z H* sigma_z = -H, so
    # sigma_z U* sigma_z = U for U = exp(-i H t); sigma_z sigma_y* sigma_z =
    # sigma_y, so each projector (I + m sigma_y) / 2 maps to itself.  Every
    # chain amplitude therefore maps to its complex conjugate, and all seven
    # distributions are equal.  Hence phi = pi / 2 is stationary in phi.  The
    # closed form (`tfit`) says the same on every chain, the unitary one and
    # the sequential one without pre-evolution too: in the measured basis every
    # leg is real, so a weight reads only the state's symmetric part, and the
    # sin 2 theta cos phi feature, the one the reflection flips, has none.
    def preset(p):
        if chain == "unitary":
            return unitary_variant(t, theta, p)
        return pt_variant(alpha, t, theta, p, pre_evolution=chain != "bare",
                          published=chain == "published")

    tabs = [table(preset(p)) for p in (phi, np.pi - phi)]
    tol = err_bound(0.0 if chain == "unitary" else alpha)
    for times in CONTEXTS:
        assert np.abs(tabs[0][times].probs - tabs[1][times].probs).max() <= tol, times
    for name in ("V1", "V2", "V3"):
        assert abs(expression(name, tabs[0]) - expression(name, tabs[1])) <= tol
    reports = [degree_report(tab) for tab in tabs]
    for field in ("d_123", "d_1_2_3", "r_12_3", "r_1_23"):
        mine, mirrored = (getattr(rep, field) for rep in reports)
        assert np.abs(mine - mirrored).max() <= tol, field
