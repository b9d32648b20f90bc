"""An LG expression along t, or over (t, state), as an exact ratio of trigonometric polynomials.

Each term of an expression is a correlator in its own context (`lgexpr.TERMS`):
a signed sum N_c of its outcome weights over their total D_c, times the term's
sign, which `fit` folds into N_c: V is the plain sum of the rows' quotients, and
nothing else reads TERMS.  In the measured observable's eigenbasis the PT
propagator is real, U~(t) = D R(t) D^-1 (`protocol.chain_tables`), R(t) the rotation
by t.  So on a preset's chain N_c and D_c, nothing divided out, are trigonometric
polynomials in theta = 2 t of degree at most 3 (8 on the published chain, whose
legs reach U(4 t)), fixed by their values at M = 7 (17) equispaced t (`fit`;
Trefethen, Approximation Theory and Approximation Practice, SIAM (2013)).
Along t they give the exact derivatives (`slopes`) and where the maximum in a
window can lie (`candidates`).  Both are also affine in the pure state's Bloch
features (`features`), so `fit` also gives V over all of (t, theta, phi)
(`values`), its exact gradient and Hessian (`derivatives`), and where each term
peaks (`term_maxima`); `search` climbs it.

Coefficients are laid out as c_k, k = -n .. n, of sum_k c_k e^(i k theta).
"""

from __future__ import annotations

import numpy as np

from .lgexpr import TERMS, outcome_signs
from .matcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .protocol import (PURE, ScenarioPreset, _measured_basis, chain_products, chain_tables, ratio,
                       symmetric_part)

SCAN_DENSITY = 128  # scan steps of V' per radian of theta (`candidates`)
NEWTON_STEPS = 8  # safeguarded Newton steps that polish each maximum
SETTLED = 1e-7  # longest last Newton step, in theta, of a settled maximum
RESOLVE = 1e-6  # relative depth of a total below which the fit cannot resolve V
ROOT_TOLERANCE = 1e-3  # distance from the unit circle up to which a root counts (`real_roots`)
TRIM = 1e-10  # relative size below which a coefficient or a (t, state) fit's total is roundoff
STENCIL = 1e-9 * np.arange(-8, 9)  # the engine's readings about each settled maximum in t
SEARCH = 1e-4  # least half-width of the engine's own search about an unsettled maximum
DIP_RATIO = 10 ** 0.125  # ratio of successive DIP_OFFSETS, readings from 0.1 to 1e-6 each side
DIP_OFFSETS = np.outer((-1, 1), DIP_RATIO ** -np.arange(8, 49)).ravel()
# PURE(theta, phi) = I/2 - sigma_z/2 cos 2 theta + (sigma_x cos phi - sigma_y sin phi)/2 sin 2 theta
FEATURES = np.array([I2, -SIGMA_Z, SIGMA_X, -SIGMA_Y]) / 2

# by M (7, or 17 on the published chain): `fit`'s multiples j t, j = 0..4, at M
# equispaced t on [0, pi) (5, 1, M), and its M x M DFT matrix, formed once
_SAMPLING = {m: (np.multiply.outer(np.arange(5), np.arange(m) * np.pi / m)[:, None],
                 np.exp(-2j * np.pi / m * np.outer(np.arange(m), np.arange(m) - m // 2)) / m)
             for m in (7, 17)}


def features(theta, phi) -> np.ndarray:
    """The Bloch features (1, cos 2 theta, sin 2 theta cos phi, sin 2 theta sin phi)
    of PURE(theta, phi), the leading axis of 4, at each (theta, phi)."""
    theta, phi = np.broadcast_arrays(theta, phi)
    s = np.sin(2 * theta)
    return np.array([np.ones(theta.shape), np.cos(2 * theta), s * np.cos(phi), s * np.sin(phi)])


def fit(expression: str, preset: ScenarioPreset, states: bool = False) -> np.ndarray:
    """The coefficients of each term's signed numerator and total, rows
    (sign_1 N_1, D_1, sign_2 N_2, D_2, ...), of `expression` on the chain of the
    one-point `preset` (its observable, alpha, chain, pre-evolution and state;
    never its t), from U~(j t), j = 0..4, at M equispaced t on [0, pi) through
    the fixed M x M DFT matrix; the sign is an exact negation.  The weights and
    tables are `protocol.chain_tables`' from the bare state, the pre-evolution
    inside the legs, per Bloch feature (its `symmetric_part`; sigma_x's is 0; a
    mixed state has the first alone).  The rows run along t (R, 2 n + 1) at the
    preset's state; with `states` each has a feature axis (R, 4, 2 n + 1), row r
    at PURE(theta, phi) being features(theta, phi) @ c[r]."""
    state, alpha = preset.initial_state, preset.evolution.alpha
    basis, flip = _measured_basis(preset.observable, alpha)
    s = symmetric_part(FEATURES, basis) * np.array([1, *3 * [state.kind == PURE]])
    s = s if states else s @ features(state.theta, state.phi)
    lead = 1 if preset.published else 0 if preset.pre_evolution else -1
    jt, dft = _SAMPLING[17 if preset.published else 7]
    w, tables = chain_tables(jt, ratio(alpha, basis), lead, preset.published, s.reshape(3, -1, 1))
    if flip:  # a negated observable swaps its outcomes
        w, tables = w[:, ::-1], tables[:, ::-1, ::-1]
    rows = []
    for sign, times in TERMS[expression]:
        raw = chain_products(w, tables, times)
        rows += [sign * (outcome_signs(times, times, len(times) + 2) * raw).sum(0), raw.sum(0)]
    coef = np.array(rows) @ dft
    return coef if states else coef[:, 0]


def scales(coef: np.ndarray) -> np.ndarray:
    """Each term's bound on its total, the sum of |c| over its coefficients, as a column."""
    return abs(coef[1::2]).reshape(len(coef) // 2, -1).sum(1)[:, None]


def _resolved(coef: np.ndarray, den: np.ndarray) -> np.ndarray:
    """1 at each point of the (t, state) fit's totals `den` (C, ...), NaN where a
    total is below TRIM of its scale: roundoff of its coefficients."""
    floor = TRIM * scales(coef).reshape((-1,) + (1,) * (den.ndim - 1))
    return np.where((den >= floor).all(0), 1.0, np.nan)


def values(coef: np.ndarray, t, theta, phi) -> np.ndarray:
    """V of the (t, state) fit `coef` (`fit` with `states`) at (t, theta, phi),
    broadcast against each other, NaN where a total is below TRIM of its scale.
    The tensor is contracted on t, then on the features: a grid's axes
    (`np.ix_`) cost one contraction each."""
    rows = (trig(coef, 2 * np.asarray(t))[0] * features(theta, phi)).sum(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (_resolved(coef, rows[1::2]) * rows[::2] / rows[1::2]).sum(0)


def term_maxima(coef: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The state (theta, phi), each (C, len t), where each signed term of the
    (t, state) fit peaks at each t.  It is (m0 + m.b) / (d0 + d.b) in the Bloch
    vector b = features[1:], d0 >= |d|; its peak Q is the larger root of
    (|d|^2 - d0^2) Q^2 - 2 (m.d - m0 d0) Q + |m|^2 - m0^2 = 0, at b parallel to
    m - Q d, or -d (a zero of the total) if Q is not finite.  Near the EP the
    sharpest peaks of V lie by these states, where one term dominates."""
    a = trig(coef, 2 * np.asarray(t))[0]  # (R, 4, len t)
    (m0, m), (d0, d) = ((r[:, 0], r[:, 1:]) for r in (a[::2], a[1::2]))
    qa, qb, qc = (d * d).sum(1) - d0 * d0, (m * d).sum(1) - m0 * d0, (m * m).sum(1) - m0 * m0
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN where the term is constant
        root = np.sqrt(np.maximum(qb * qb - qa * qc, 0))
        b = m - np.fmax((qb + root) / qa, (qb - root) / qa)[:, None] * d
        b = np.where(np.isfinite(b).all(1, keepdims=True), b, -d)
        b = b / np.sqrt((b * b).sum(1, keepdims=True))
        return np.arccos(np.clip(b[:, 0], -1, 1)) / 2, np.arctan2(b[:, 2], b[:, 1])


_ANGLE_FACTORS = np.array([1, 2, 1, -4, 2, 1])[:, None, None]  # of the rows of `derivatives`' angle


def derivatives(coef: np.ndarray):
    """A function of aligned points (t, theta, phi) that gives `values` there, its
    gradient (3, P) and its Hessian (3, 3, P) in (t, theta, phi), all NaN where
    `values` is; all that depends on the fit alone is formed once.  A
    t-derivative of order m is a factor (2 i k)^m on c_k, an angle derivative
    one of `features`, and each term's quotient rule is applied as in `slopes`."""
    ik = 2j * (np.arange(coef.shape[-1]) - coef.shape[-1] // 2)
    by_order = coef[:, :, None] * np.array([ik ** 0, ik, ik * ik])

    def at(t, theta, phi):
        along_t = trig(by_order, 2 * np.asarray(t))[0]  # (R, 4, 3 orders, P)
        c2, s2, c, s = np.cos(2 * theta), np.sin(2 * theta), np.cos(phi), np.sin(phi)
        s2c, s2s, c2c, c2s, zero = s2 * c, s2 * s, c2 * c, c2 * s, np.zeros_like(c2)
        # the features, then their derivatives in theta, phi, theta theta, theta phi, phi phi
        angle = np.array([[zero + 1, c2, s2c, s2s], [zero, -s2, c2c, c2s], [zero, zero, -s2s, s2c],
                          [zero, c2, s2c, s2s], [zero, zero, -c2s, c2c], [zero, zero, -s2c, -s2s]])
        rows = (along_t.transpose(3, 2, 0, 1).reshape(len(c2), -1, 4) @ (
            angle * _ANGLE_FACTORS).transpose(2, 1, 0)).reshape(len(c2), 3, len(coef), 6)
        rows = rows.transpose(1, 2, 3, 0)  # (3 orders, R, 6 angle rows, P)
        r, dr = rows[0, :, 0], rows[[1, 0, 0], :, [0, 1, 2]]  # by (order in t, angle row)
        ddr = rows[[[2, 1, 1], [1, 0, 0], [1, 0, 0]], :, [[0, 1, 2], [1, 3, 4], [2, 4, 5]]]
        d, dd, ddd = r[1::2], dr[:, 1::2], ddr[:, :, 1::2]
        mask = _resolved(coef, d)  # NaN where unresolved
        with np.errstate(divide="ignore", invalid="ignore"):
            q = r[::2] / d
            dq = (dr[:, ::2] - q * dd) / d  # (3, C, P)
            ddq = (ddr[:, :, ::2] - q * ddd - dq[:, None] * dd[None] - dd[:, None] * dq[None]) / d
            return (mask * q).sum(-2), (mask * dq).sum(-2), (mask * ddq).sum(-2)
    return at


def trig(c: np.ndarray, theta, orders=(0,)) -> list[np.ndarray]:
    """The theta-derivatives of each order in `orders` of the real trigonometric
    polynomials with coefficients c (..., 2 n + 1), at theta of any shape: each
    has c's leading axes, then theta's."""
    k = np.arange(c.shape[-1]) - c.shape[-1] // 2
    e = np.exp(1j * np.multiply.outer(k, theta))
    return [((1j * k) ** order * c @ e.reshape(len(k), -1)).real.reshape(c.shape[:-1] + e.shape[1:])
            for order in orders]


def real_roots(p: np.ndarray) -> np.ndarray:
    """The real roots theta of the real trigonometric polynomial with coefficients
    p: the arguments of the eigenvalues z of the companion matrix of z^m P(z) that
    lie on the unit circle up to ROOT_TOLERANCE (Boyd, SIAM Review 55, 375
    (2013)).  Coefficients below TRIM of the largest are roundoff, and the degree
    m stops short of them."""
    big = np.flatnonzero(abs(p) > TRIM * abs(p).max(initial=0))
    m = abs(big - p.size // 2).max(initial=0)
    if not m:
        return np.empty(0)
    p = p[p.size // 2 - m:p.size // 2 + m + 1]
    companion = np.diag(np.ones(2 * m - 1, dtype=complex), -1)
    companion[0] = -p[-2::-1] / p[-1]
    z = np.linalg.eigvals(companion)
    return np.angle(z[abs(abs(z) - 1) <= ROOT_TOLERANCE])


def slopes(coef: np.ndarray, theta, second: bool = True) -> tuple:
    """The fit's V' and (if `second`) V'' in theta at each theta, NaN at a pole
    (a total D_c = 0), then the totals D_c, one row per term.  `second` is off
    for the scan of `candidates`: V'' adds 15-40% to a 392-point call."""
    (n, d), (dn, dd), *dd2 = (v.reshape(len(coef) // 2, 2, len(theta)).transpose(1, 0, 2)
                              for v in trig(coef, theta, (0, 1, 2)[:2 + second]))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dn * d - n * dd) / (d * d)
        if not second:
            return w.sum(0), None, d
        (ddn, ddd), = dd2
        return w.sum(0), ((ddn * d - n * ddd) / (d * d) - 2 * dd * w / d).sum(0), d


def candidates(coef: np.ndarray, lo: float, hi: float):
    """The t in [lo, hi] at which the engine should read the expression to find
    its maximum there, and for each the half-width of the engine's own search
    about it should the reading win (0 where the fit settles the maximum): the
    STENCIL offsets about each settled maximum of the fit, each unsettled one
    (half-width at least SEARCH), and the DIP_OFFSETS about each bottom of a
    total's dip (half-width the gap to the next offset).

    Every local maximum is a point where V' falls through zero.  A scan of V'
    at SCAN_DENSITY steps per radian of theta over the window's first period
    (V has period pi in t), whatever the grid, brackets each fall that it sees,
    and Newton steps on V' and V'' (bisection where a step would leave its
    bracket) polish it.  The scan sees every maximum but one that shares a
    scan step h with a minimum.  Such a maximum rises at most h^2 max|V''| / 2
    above one end of its step, from which V rises away from the step to a fall
    the scan sees or to a window end (a period's end repeats lo); both are
    read, so a missed maximum costs at most that much.  A maximum is settled
    once the last step is below SETTLED and every total there is at least
    RESOLVE of its scale: the fit resolves V only where each total stays well
    above the roundoff of its coefficients.  A dip of a total below RESOLVE of
    its scale is found as a root of D_c' (`real_roots`) wherever a scan point
    lies below the bound that |D_c''| <= n^2 scale leaves for it.
    """
    hi = min(hi, lo + np.pi)  # the rest of the window repeats this period
    steps = max(int(np.ceil(SCAN_DENSITY * 2 * (hi - lo))), 1)
    theta = np.linspace(2 * lo, 2 * hi, steps + 1)
    d1, _, den = slopes(coef, theta, second=False)
    falls = np.flatnonzero((d1[:-1] > 0) & (d1[1:] <= 0))
    left, right = theta[falls], theta[falls + 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # the secant's zero, or the midpoint
        x = left + d1[falls] / (d1[falls] - d1[falls + 1]) * (right - left)
    x = np.where((left <= x) & (x <= right), x, (left + right) / 2)
    for _ in range(NEWTON_STEPS):
        d1, d2, at_x = slopes(coef, x)
        left, right = np.where(d1 > 0, x, left), np.where(d1 > 0, right, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = d1 / d2
        x = np.where((left <= x - step) & (x - step <= right), x - step, (left + right) / 2)
        if np.all(abs(step) <= SETTLED):
            break
    scale = scales(coef)
    settled = (abs(step) <= SETTLED) & (at_x >= RESOLVE * scale).all(0)
    n, h = coef.shape[1] // 2, theta[1] - theta[0]
    dips = [np.empty(0)]
    for row, bound, low in zip(coef[1::2], scale[:, 0],
                               (den < (RESOLVE + n * n * h * h / 8) * scale).any(1)):
        if low:  # a scan point lies within h / 2 of every such dip
            u = real_roots(1j * np.arange(-n, n + 1) * row)  # where D_c' = 0
            dips.append(u[trig(row, u)[0] < RESOLVE * bound])
    periods = np.pi * np.arange(np.floor(lo / np.pi) - 1, np.ceil(hi / np.pi) + 1)
    dips = (np.concatenate(dips)[:, None] % (2 * np.pi) / 2 + periods).ravel()  # 2 t = u mod 2 pi
    ts = np.concatenate([(x[settled, None] / 2 + STENCIL).ravel(), x[~settled] / 2,
                         (dips[:, None] + DIP_OFFSETS).ravel()])
    gaps = np.concatenate([np.zeros(settled.sum() * STENCIL.size),
                           np.maximum((right - left)[~settled] / 4, SEARCH),
                           np.tile(abs(DIP_OFFSETS) * (DIP_RATIO - 1), dips.size)])
    inside = (lo <= ts) & (ts <= hi)
    return ts[inside], gaps[inside]
