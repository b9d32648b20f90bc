"""An LG expression along t alone, as an exact ratio of trigonometric polynomials.

Fix every parameter but t.  Each term of an expression is a correlator
N_c / D_c in its own context (`lgexpr.TERMS`): a signed sum N_c of the
context's outcome weights over their total D_c.  With the weight that
`protocol._start` divides out put back, both are trigonometric polynomials in
theta = 2 t: the sequential chain's legs are the pre-evolution U(t), then U(t)
and U(2 t), so the degree is at most 3; the published chain's reach U(4 t), so
it is at most 8.  M = 7 (17) equispaced samples on [0, pi) determine them
(`fit`; Trefethen, Approximation Theory and Approximation Practice, SIAM
(2013)), and with them the expression's exact derivatives (`slopes`) and the
points where its maximum in a window can lie (`candidates`).

Each weight, with that start weight put back, is also linear in the initial
state, so affine in the pure state's Bloch features (1, cos 2 theta,
sin 2 theta cos phi, sin 2 theta sin phi) (`features`).  The same M samples
at each of four fixed STATES therefore determine every term over all of
(t, theta, phi): `fit` with `states` solves the 4 x 4 feature system for a
coefficient tensor with a feature axis, and `section` contracts it on two
coordinates to give V along the third.

Coefficients are laid out as c_k, k = -n .. n, of sum_k c_k e^(i k theta).
"""

from __future__ import annotations

import numpy as np

from .lgexpr import TERMS, outcome_signs
from .protocol import MeasurementContext, ScenarioPreset, context_weights

SCAN_DENSITY = 128  # scan steps of V' per radian of theta (`candidates`)
NEWTON_STEPS = 8  # safeguarded Newton steps that polish each maximum
SETTLED = 1e-7  # longest last Newton step, in theta, of a settled maximum
RESOLVE = 1e-6  # relative depth of a total below which the fit cannot resolve V
ROOT_TOLERANCE = 1e-3  # distance from the unit circle up to which a root counts (`real_roots`)
TRIM = 1e-10  # relative size below which a coefficient is roundoff (`real_roots`)
STENCIL = 1e-9 * np.arange(-8, 9)  # the engine's readings about each settled maximum in t
SEARCH = 1e-4  # least half-width of the engine's own search about an unsettled maximum
DIP_RATIO = 10 ** 0.125  # ratio of successive DIP_OFFSETS, readings from 0.1 to 1e-6 each side
DIP_OFFSETS = np.outer((-1, 1), DIP_RATIO ** -np.arange(8, 49)).ravel()
STATES = ((0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 4, 0.0), (np.pi / 4, np.pi / 2))  # (theta, phi)


def sample_times(published: bool) -> tuple[float, ...]:
    """The M equispaced t on [0, pi) at which `fit` needs the expression's chain."""
    m = 17 if published else 7
    return tuple(np.arange(m) * np.pi / m)


def sample_states(published: bool) -> dict[str, tuple[float, ...]]:
    """The (t, theta, phi) stacks at which `fit` with `states` needs the chain:
    `sample_times` at each of STATES in turn."""
    ts = sample_times(published)
    return {"t": ts * len(STATES), "theta": tuple(th for th, _ in STATES for _ in ts),
            "phi": tuple(ph for _, ph in STATES for _ in ts)}


def features(theta, phi) -> np.ndarray:
    """The Bloch features (1, cos 2 theta, sin 2 theta cos phi, sin 2 theta sin phi)
    of PURE(theta, phi), the leading axis of 4, at each (theta, phi)."""
    theta, phi = np.broadcast_arrays(theta, phi)
    s = np.sin(2 * theta)
    return np.array([np.ones(theta.shape), np.cos(2 * theta), s * np.cos(phi), s * np.sin(phi)])


def fit(preset: ScenarioPreset, expression: str, states: bool = False) -> np.ndarray:
    """The coefficients of each term's signed numerator and total, rows (N_1, D_1,
    N_2, D_2, ...), from `preset` stacked at `sample_times`, through the fixed
    M x M DFT matrix: the expression is sum_c sign_c N_c / D_c.  With `states`,
    `preset` is stacked at `sample_states`, and each row has a feature axis
    (R, 4, 2 n + 1): row r at PURE(theta, phi) is features(theta, phi) @ c[r]."""
    start, rows = preset.transfer[2], []
    for _, times in TERMS[expression]:
        raw = context_weights(MeasurementContext(preset, times)) * start
        rows += [sum(outcome_signs(times, times, len(times) + 1) * raw), sum(raw)]
    m = len(rows[0]) // (len(STATES) if states else 1)
    dft = np.exp(-2j * np.pi / m * np.outer(np.arange(m), np.arange(m) - m // 2)) / m
    coef = np.array(rows).reshape(-1, m) @ dft
    if not states:
        return coef
    # formed here, not at import: a process's first np.linalg.inv costs it about 0.5 MB
    unmix = np.linalg.inv(features(*zip(*STATES)).T)  # the samples at STATES -> features
    return unmix @ coef.reshape(len(rows), len(STATES), -1)


def scales(coef: np.ndarray) -> np.ndarray:
    """Each term's bound on its total, the sum of |c| over its coefficients, as a column."""
    return abs(coef[1::2]).reshape(len(coef) // 2, -1).sum(1)[:, None]


def section(expression: str, coef: np.ndarray, params: dict, name: str):
    """The expression along `name` ("t", "theta" or "phi") through the (t, state)
    fit `coef` (`fit` with `states`), the other two held at `params`: a function
    of K probe values, giving V at each, or None if a total at some probe is
    below RESOLVE of its scale, where the fit cannot resolve V.  The tensor is
    contracted on the two held coordinates once, to trigonometric polynomials
    in 2 t, 2 theta or phi, so each call is one (R, K) product (`trig`)."""
    signs, scale = np.array([sign for sign, _ in TERMS[expression]]), scales(coef)
    t, theta, phi = params["t"], params["theta"], params["phi"]
    if name == "t":
        line, rate = coef.transpose(0, 2, 1) @ features(theta, phi), 2
    else:  # a0 + a1 cos u + b1 sin u has the coefficients ((a1 + i b1) / 2, a0, (a1 - i b1) / 2)
        k = np.arange(coef.shape[-1]) - coef.shape[-1] // 2
        a = (coef @ np.exp(2j * t * k)).real  # (R, 4), one per feature
        if name == "theta":  # u = 2 theta: a0 = a_1, a1 = a_z, b1 = a_x cos phi + a_y sin phi
            c, s = np.cos(phi) / 2, np.sin(phi) / 2
            to_line, rate = [[0, 1, 0], [0.5, 0, 0.5], [1j * c, 0, -1j * c], [1j * s, 0, -1j * s]], 2
        else:  # u = phi: a0 = a_1 + a_z cos 2 theta, a1 = a_x sin 2 theta, b1 = a_y sin 2 theta
            c, s = np.cos(2 * theta), np.sin(2 * theta) / 2
            to_line, rate = [[0, 1, 0], [0, c, 0], [s, 0, s], [1j * s, 0, -1j * s]], 1
        line = a @ np.array(to_line)
    ik, floor = 1j * rate * (np.arange(line.shape[-1]) - line.shape[-1] // 2), RESOLVE * scale

    def values(x):
        rows = (line @ np.exp(np.multiply.outer(ik, x))).real  # `trig`, with k scaled once
        return None if (rows[1::2] <= floor).any() else signs @ (rows[::2] / rows[1::2])
    return values


def trig(c: np.ndarray, theta, orders=(0,)) -> list[np.ndarray]:
    """The theta-derivatives of each order in `orders` of the real trigonometric
    polynomials with coefficients c (..., 2 n + 1), at each theta."""
    k = np.arange(c.shape[-1]) - c.shape[-1] // 2
    e = np.exp(1j * np.outer(k, theta))
    return [((1j * k) ** order * c @ e).real for order in orders]


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


def slopes(expression: str, coef: np.ndarray, theta, second: bool = True) -> tuple:
    """The fit's V' and (if `second`) V'' in theta at each theta, NaN at a pole
    (a total D_c = 0), then the totals D_c, one row per term.  `second` is off
    for the scan of `candidates`: V'' adds 15-40% to a 392-point call."""
    (n, d), (dn, dd), *dd2 = (v.reshape(len(coef) // 2, 2, len(theta)).transpose(1, 0, 2)
                              for v in trig(coef, theta, (0, 1, 2)[:2 + second]))
    signs = np.array([sign for sign, _ in TERMS[expression]])
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dn * d - n * dd) / (d * d)
        if not second:
            return signs @ w, None, d
        (ddn, ddd), = dd2
        return signs @ w, signs @ ((ddn * d - n * ddd) / (d * d) - 2 * dd * w / d), d


def candidates(expression: str, coef: np.ndarray, lo: float, hi: float):
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
    d1, _, den = slopes(expression, coef, theta, second=False)
    falls = np.flatnonzero((d1[:-1] > 0) & (d1[1:] <= 0))
    left, right = theta[falls], theta[falls + 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # the secant's zero, or the midpoint
        x = left + d1[falls] / (d1[falls] - d1[falls + 1]) * (right - left)
    x = np.where((left <= x) & (x <= right), x, (left + right) / 2)
    for _ in range(NEWTON_STEPS):
        d1, d2, at_x = slopes(expression, coef, x)
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
