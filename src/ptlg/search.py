"""The maxima of the (t, state) fit (`tfit`; its rows carry the terms' signs) in
a box: trust-region Newton steps on its exact derivatives (`maxima`) from many
starts at once (`starts`).

Near the EP the fit's peaks can be narrower than 1e-3 in theta and phi, where
one term's total is small and that term dominates.  So besides the local
maxima of a coarse grid, the starts include the states where each term peaks
(`tfit.term_maxima`), by which those peaks lie.
"""

from __future__ import annotations

import numpy as np

from . import tfit

PERIODS = (np.pi, np.pi, 2 * np.pi)  # V's period in t, theta and phi
SEED_GRID = (12, 6, 12)  # points per axis, in (t, theta, phi), of the grid of `starts`
STARTS = 8  # cap on each kind of start, best first (`starts`)
RADII = (8.0, 2.0, 1.0, 0.5, 0.125, 0.03125)  # trust radius multiples tried at once (`maxima`)
ITERATIONS = 150  # cap on the trust-region iterations of `maxima`


def starts(coef: np.ndarray, x, lo, hi) -> np.ndarray:
    """Starts of `maxima` in the box [lo, hi], rows of (t, theta, phi): x; the
    best STARTS local maxima (cells at least their neighbours) of `values` on a
    SEED_GRID over the box's first period; the states of `term_maxima` at x's t
    and the best STARTS at the grid's t, clipped to the box, ranked by `_tiers`
    and within a tier by t, then term.  NaN ones go."""
    axes = [np.linspace(a, min(b, a + p), n) if b > a else np.array([a])
            for a, b, p, n in zip(lo, hi, PERIODS, SEED_GRID)]
    v = np.fmax(tfit.values(coef, *np.ix_(*axes)), -np.inf)  # NaN -> -inf
    top = np.full(np.add(v.shape, 2), -np.inf)
    top[1:-1, 1:-1, 1:-1] = v
    for a in range(3):  # the largest value over each cell's 3 x 3 x 3 neighbourhood
        top = np.moveaxis(top, a, 0)
        top = np.moveaxis(np.maximum(np.maximum(top[:-2], top[1:-1]), top[2:]), 0, a)
    cells = np.flatnonzero((v == top) & (v > -np.inf))
    cells = cells[np.argsort(-v.ravel()[cells])][:STARTS]
    ts = np.append(x[0], axes[0])
    theta, phi = tfit.term_maxima(coef, ts)  # (C, len ts)
    mid = (lo[2] + hi[2]) / 2  # of the pairs (theta, phi) and (pi - theta, phi + pi) of a
    pairs = [np.array([th, mid + (ph - mid + np.pi) % (2 * np.pi) - np.pi])  # state, the one
             for th, ph in ((theta, phi), (np.pi - theta, phi + np.pi))]  # nearer the box
    out = [np.maximum(lo[1:, None, None] - p, p - hi[1:, None, None]).max(0) for p in pairs]
    state = np.where(out[0] <= out[1], *pairs).reshape(2, -1)
    terms = np.clip(np.column_stack([np.tile(ts, len(theta)), *state]), lo, hi)
    at = np.fmax(tfit.values(coef, *terms.T), -np.inf)
    term, t = np.divmod(np.arange(len(at)), len(ts))
    order = np.lexsort((term, -t, np.where(t == 0, -1, _tiers(at))))
    return np.vstack([x, np.column_stack([ax[i] for ax, i in zip(axes, np.unravel_index(
        cells, v.shape))]), terms[order[at[order] > -np.inf][:STARTS + len(theta)]]])


def _tiers(v: np.ndarray) -> np.ndarray:
    """Each value's tier, 0 for the best: down the sorted values, a gap above
    tfit.TRIM starts the next tier, so values within TRIM of a neighbour tie and
    the roundoff of the fit cannot rank them (-inf ones share the last tier)."""
    order = np.argsort(-v)
    with np.errstate(invalid="ignore"):  # -inf - -inf
        tiers = np.cumsum(np.diff(v[order], prepend=v[order[0]]) < -tfit.TRIM)
    return tiers[np.argsort(order)]


def maxima(coef: np.ndarray, x, lo, hi, radius: float):
    """Trust-region Newton steps on `values` in the box [lo, hi] from each start
    x (S, 3) at once (More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553
    (1983)): the ends, their values, and whether each converged and could win.
    Off the coordinates pinned at a bound by an outward gradient (and the held
    ones, lo == hi), a step is Newton's, or Levenberg-shifted on the Hessian's
    eigenvalues where that is not negative definite or longer than the trust
    radius.  Each iteration tries the radius times each of RADII and keeps the
    best trial that gains (a NaN one does not), with its radius doubled; else
    the radius is a quarter of the least step.  Converged: an unshifted step
    below SETTLED on a negative-definite Hessian, or no coordinate free.  A
    start stops at a radius below SETTLED, a zero gradient or ITERATIONS
    spent, and cannot win once its concave model peaks below the best value so
    far."""
    at = tfit.derivatives(coef)
    (f, g, h), x = at(*x.T), np.array(x, dtype=float)
    g, h, f = g.T, h.transpose(2, 0, 1), np.fmax(f, -np.inf)  # NaN -> -inf
    radius, converged, wins = np.full(len(x), radius), np.zeros(len(x), dtype=bool), f > -np.inf
    live, radii, eye, held = np.flatnonzero(wins), np.array(RADII), np.eye(3), lo >= hi
    for _ in range(ITERATIONS):
        xl, fl, gl, hl = x[live], f[live], g[live], h[live]
        free = ~(held | (xl <= lo) & (gl < 0) | (xl >= hi) & (gl > 0))
        w, v = np.linalg.eigh(np.where(free[:, :, None] & free[:, None, :], hl, -eye))
        gv, top = (v * (gl * free)[:, :, None]).sum(1), w[:, -1:]  # v^T g; the largest eigenvalue
        r = radius[live][:, None] * radii  # (S, len(RADII))
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN steps gain nothing
            newton = gv / w
            size = np.where(top[:, 0] < 0, np.sqrt((newton * newton).sum(1)), np.inf)
            converged[live] = size < tfit.SETTLED
            wins[live] = (top[:, 0] >= 0) | (fl - (gv * newton).sum(1) / 2 >= f.max())
            shift = np.where(size[:, None] <= r, 0.0, np.maximum(top, 0) + np.sqrt(
                (gv * gv).sum(1, keepdims=True)) / r)
            step = (gv[:, None] / (shift[:, :, None] - w[:, None])) @ v.transpose(0, 2, 1)
        stay = ~converged[live] & wins[live] & gv.any(1)
        if not stay.any():
            break
        trial = np.clip(xl[:, None] + step * free[:, None], lo, hi)
        ft, gt, ht = at(*trial.reshape(-1, 3).T)
        ft, rows = np.fmax(ft.reshape(len(live), -1), -np.inf), np.arange(len(live))
        k = ft.argmax(1)
        gain, pick = (ft[rows, k] > fl) & stay, rows * len(radii) + k
        radius[live] = np.where(gain, 2 * r[rows, k], np.sqrt(
            ((trial - xl[:, None]) ** 2).sum(2)).min(1) / 4)
        b, pick = live[gain], pick[gain]
        x[b], f[b] = trial.reshape(-1, 3)[pick], ft.ravel()[pick]
        g[b], h[b] = gt[:, pick].T, ht[:, :, pick].T
        live = live[stay & (radius[live] >= tfit.SETTLED)]
    return x, f, converged, wins
