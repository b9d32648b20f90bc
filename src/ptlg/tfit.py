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

Coefficients are laid out as c_k, k = -n .. n, of sum_k c_k e^(i k theta).
"""

from __future__ import annotations

import numpy as np

from .lgexpr import TERMS, outcome_signs
from .protocol import MeasurementContext, ScenarioPreset, context_weights

SCAN = 16  # least scan steps of V' per grid spacing (`candidates`) ...
SCAN_DENSITY = 128  # ... and per radian of theta,
SCAN_CAP = 4096  # but at most this many in all
NEWTON_STEPS = 8  # safeguarded Newton steps that polish each maximum
SETTLED = 1e-7  # longest last Newton step, in theta, of a settled maximum
RESOLVE = 1e-6  # relative depth of a total below which the fit cannot resolve V
ROOT_TOLERANCE = 1e-3  # distance from the unit circle up to which a root counts (`real_roots`)
TRIM = 1e-10  # relative size below which a coefficient is roundoff (`real_roots`)
STENCIL = 1e-9 * np.arange(-8, 9)  # the engine's readings about each settled maximum in t
SEARCH = 1e-4  # least half-width of the engine's own search about an unsettled maximum
DIP_RATIO = 10 ** 0.125  # ratio of successive DIP_OFFSETS, readings from 0.1 to 1e-6 each side
DIP_OFFSETS = np.outer((-1, 1), DIP_RATIO ** -np.arange(8, 49)).ravel()


def sample_times(published: bool) -> tuple[float, ...]:
    """The M equispaced t on [0, pi) at which `fit` needs the expression's chain."""
    m = 17 if published else 7
    return tuple(np.arange(m) * np.pi / m)


def fit(preset: ScenarioPreset, expression: str) -> np.ndarray:
    """The coefficients of each term's signed numerator and total, rows (N_1, D_1,
    N_2, D_2, ...), from `preset` stacked at `sample_times`, through the fixed
    M x M DFT matrix: the expression is sum_c sign_c N_c / D_c."""
    start, rows = preset.transfer[2], []
    for _, times in TERMS[expression]:
        raw = context_weights(MeasurementContext(preset, times)) * start
        rows += [sum(outcome_signs(times, times, len(times) + 1) * raw), sum(raw)]
    m = len(rows[0])
    dft = np.exp(-2j * np.pi / m * np.outer(np.arange(m), np.arange(m) - m // 2)) / m
    return np.array(rows) @ dft


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
    (a total D_c = 0), then the totals D_c, one row per term."""
    (n, d), (dn, dd), *dd2 = (v.reshape(len(coef) // 2, 2, len(theta)).transpose(1, 0, 2)
                              for v in trig(coef, theta, (0, 1, 2)[:2 + second]))
    signs = np.array([sign for sign, _ in TERMS[expression]])
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dn * d - n * dd) / (d * d)
        if not second:
            return signs @ w, None, d
        (ddn, ddd), = dd2
        return signs @ w, signs @ ((ddn * d - n * ddd) / (d * d) - 2 * dd * w / d), d


def candidates(expression: str, coef: np.ndarray, lo: float, hi: float, count: int):
    """The t in [lo, hi] at which the engine should read the expression to find
    its maximum there, and for each the half-width of the engine's own search
    about it should the reading win (0 where the fit settles the maximum): the
    STENCIL offsets about each settled maximum of the fit, each unsettled one
    (half-width at least SEARCH), and the DIP_OFFSETS about each bottom of a
    total's dip (half-width the gap to the next offset).

    Every local maximum is a point where V' falls through zero.  A scan of V'
    at SCAN steps per spacing of a `count`-point grid of the window, and at
    least SCAN_DENSITY per radian of theta, brackets each fall that it sees,
    and Newton steps on V' and V'' (bisection where a step would leave its
    bracket) polish it.  The scan sees every maximum but one that shares a
    scan step h with a minimum.  Such a maximum rises at most h^2 max|V''| / 2
    above one end of its step, from which V rises away from the step to a fall
    the scan sees or to a window end; both are read, so a missed maximum costs
    at most that much.  A maximum is settled once the last step is below
    SETTLED and every total there is at least RESOLVE of its scale: the fit
    resolves V only where each total stays well above the roundoff of its
    coefficients.  A dip of a total below RESOLVE of its scale is found as a
    root of D_c' (`real_roots`) wherever a scan point lies below the bound
    that |D_c''| <= n^2 scale leaves for it.
    """
    steps = min(max(SCAN * (count - 1), int(np.ceil(SCAN_DENSITY * 2 * (hi - lo)))), SCAN_CAP)
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
    scale = abs(coef[1::2]).sum(1)[:, None]  # bounds each total
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
