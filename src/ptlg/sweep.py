"""Parameter-space scans, refinement, and figure-data generation.

Grids are evaluated in deterministic lexicographic order over the parameter
axes (t, alpha, theta, phi).  Domain errors at individual grid points are
recorded per row instead of aborting the scan, so near-exceptional-point
grids still produce complete figures.

Every grid is evaluated as one stacked preset (see `protocol`): each alpha's
t-grid of a figure, a `scan`'s whole Cartesian grid, and each round of
`refine_max`.  `grid_columns` runs the stack; the points that a check names
as failing drop out of it, and the rest run again as one stack.

`refine_max` has two routes.  When only t moves, the expression is an exact
ratio of trigonometric polynomials in 2 t, fitted from M = 7 samples (17 on
the published chain) in one stack (`tfit`); a fine scan of the fit's
derivative and Newton steps on it locate every maximum of the fit in the
window, and one more stack reads the engine there, at the window ends and at
the seed (`_refine_t`).  When several coordinates move, a cyclic k-section (K
probes per round) and a trust-region Newton phase (one central-difference
stencil per iteration) climb from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DegenerateWeightError, DomainError, UsageError
from . import tfit
from .lgexpr import EXPRESSIONS, expression, table
from .macrodiag import degree_report
from .protocol import ScenarioPreset, pt_standard, pt_variant, unitary_standard, unitary_variant

PARAM_ORDER = ("t", "alpha", "theta", "phi")
DEFAULT_ALPHAS = (0.0, np.pi / 3, 2 * np.pi / 5, np.pi / 2.05)
DEFAULT_THETA = 5 * np.pi / 6
DEFAULT_PHI = np.pi / 2
REFINE_TOLERANCE = 1e-7
START_CYCLES = 6  # cap on the k-section passes that start `refine_max`
NEWTON_ITERATIONS = 150  # cap on the trust-region iterations that finish it
H = 1e-5  # central-difference step of the Newton phase
K = 16  # interior probes per k-section round, evaluated as one stack
KINDS = ("unitary", "pt", "pt-published")


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise UsageError(f"grid count must be >= 1, got {self.count}")
        if self.hi < self.lo:
            raise UsageError(f"grid bounds reversed: [{self.lo}, {self.hi}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)

    def spacing(self) -> float:
        if self.count == 1:
            return 0.0
        return (self.hi - self.lo) / (self.count - 1)


@dataclass(frozen=True)
class SweepConfig:
    """What to evaluate and where.

    `grids` lists the swept parameters; anything else comes from `fixed` or
    the defaults (theta = 5 pi / 6, phi = pi / 2; alpha is required by the
    non-unitary kinds and refused by the unitary one).  Kind "pt" runs the
    sequential chain and "pt-published" the published chain (see `protocol`).
    """

    expression: str
    kind: str  # one of KINDS
    grids: dict[str, GridSpec] = field(default_factory=dict)
    fixed: dict[str, float] = field(default_factory=dict)
    pre_evolution: bool = True
    refine: bool = False

    def __post_init__(self):
        if self.expression not in EXPRESSIONS:
            raise UsageError(f"expression must be one of {EXPRESSIONS}")
        if self.kind not in KINDS:
            raise UsageError(f"kind must be one of {KINDS}")
        unknown = (set(self.grids) | set(self.fixed)) - set(PARAM_ORDER)
        if unknown:
            raise UsageError(f"unknown parameters {sorted(unknown)}")
        if "t" not in self.grids and "t" not in self.fixed:
            raise UsageError("parameter 't' must be gridded or fixed")
        if (self.kind == "unitary") == ("alpha" in self.grids or "alpha" in self.fixed):
            raise UsageError("non-unitary sweeps need 'alpha' gridded or fixed; the unitary "
                             "kind evolves at alpha = 0 and takes none")


@dataclass(frozen=True)
class SweepRow:
    params: dict[str, float]
    value: float
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: list[SweepRow]
    argmax_params: dict[str, float]
    argmax_value: float
    converged: bool | None = None  # whether refinement converged; None without refinement


def _pt_preset(expr: str, alpha, t, theta, phi,
               pre_evolution: bool, published: bool = False) -> ScenarioPreset:
    """The standard preset for L13, the pure-state variant for V1..V3."""
    if expr == "L13":
        return pt_standard(alpha, t, pre_evolution=pre_evolution, published=published)
    return pt_variant(alpha, t, theta, phi, pre_evolution=pre_evolution, published=published)


def build_preset(cfg: SweepConfig, params: dict) -> ScenarioPreset:
    """The preset at `params`; any parameter may be a stack, aligned with the others."""
    t = params["t"]
    theta = params.get("theta", DEFAULT_THETA)
    phi = params.get("phi", DEFAULT_PHI)
    if cfg.kind != "unitary":
        return _pt_preset(cfg.expression, params["alpha"], t, theta, phi, cfg.pre_evolution,
                          published=cfg.kind == "pt-published")
    if cfg.expression == "L13":
        return unitary_standard(t)
    return unitary_variant(t, theta, phi)


def evaluate_expression(cfg: SweepConfig, params: dict):
    """The expression at `params`; an array if a stacked parameter moves it."""
    return expression(cfg.expression, build_preset(cfg, params))


def grid_columns(f, axes: dict[str, list], width: int) -> tuple[list[list], list]:
    """The `width` columns of `f` over N aligned points, evaluated as stacks,
    and each point's failure reason (None where it succeeded).

    `axes` maps each varying parameter to its N values; `f(**params)` takes
    them as tuples and returns `width` arrays (or constants).  A domain or
    degenerate-weight error names its failing points (`matcore.raise_where`):
    they give NaN and their reason, and the rest run again as one stack.  An
    error that names no points fails every point still running.
    """
    n = max(map(len, axes.values()), default=1)
    axes = {name: np.asarray(v, dtype=float) for name, v in axes.items()}
    live, errors = np.arange(n), [None] * n
    cols = np.full((width, n), np.nan)
    while live.size:
        try:
            values = f(**{name: tuple(v[live].tolist()) for name, v in axes.items()})
        except (DomainError, DegenerateWeightError) as exc:
            failures = getattr(exc, "failures", dict.fromkeys(range(live.size), str(exc)))
            for j, reason in failures.items():
                errors[live[j]] = reason
            live = np.delete(live, list(failures))
            continue
        for col, v in zip(cols, values):
            col[live] = v
        break
    return cols.tolist(), errors


def scan(cfg: SweepConfig) -> SweepResult:
    """Dense evaluation over the Cartesian grid as one stack, then optional
    local refinement."""
    names = [n for n in PARAM_ORDER if n in cfg.grids]
    points = list(product(*(cfg.grids[n].values() for n in names)))
    axes = {n: [p[i] for p in points] for i, n in enumerate(names)}
    (values,), errors = grid_columns(
        lambda **point: (evaluate_expression(cfg, cfg.fixed | point),), axes, 1)
    rows = [SweepRow(params=dict(cfg.fixed) | dict(zip(names, p)), value=v, error=e)
            for p, v, e in zip(points, values, errors)]
    valid = [r for r in rows if r.error is None]
    if not valid:
        raise DomainError("every grid point failed; nothing to maximize")
    best = max(valid, key=lambda r: r.value)
    argmax_params, argmax_value, converged = dict(best.params), best.value, None
    if cfg.refine:
        argmax_params, argmax_value, converged = refine_max(cfg, argmax_params)
    return SweepResult(config=cfg, rows=rows, argmax_params=argmax_params,
                       argmax_value=argmax_value, converged=converged)


def _ksection_max(cfg: SweepConfig, params: dict, name: str, lo: float, hi: float):
    """The best probe of `name` in [lo, hi], the other parameters held at `params`.

    Each round evaluates K evenly spaced interior probes as one stack (a failing
    probe counts as -inf) and keeps the two spacings around the best probe so
    far, until the bracket is at most REFINE_TOLERANCE wide."""
    x, fx = None, -np.inf
    while True:
        xs = np.linspace(lo, hi, K + 2)
        (values,), _ = grid_columns(lambda **probe: (evaluate_expression(cfg, params | probe),),
                                    {name: xs[1:-1].tolist()}, 1)
        values = np.fmax(values, -np.inf)  # NaN -> -inf
        i = int(np.argmax(values))
        if x is None or values[i] > fx:
            x, fx = float(xs[i + 1]), float(values[i])
        lo, hi = max(lo, x - (xs[1] - xs[0])), min(hi, x + (xs[1] - xs[0]))
        if hi - lo <= REFINE_TOLERANCE:
            return x, fx


def _refine_t(cfg: SweepConfig, params: dict, grid: GridSpec):
    """`refine_max` along t alone, through the exact fit (`tfit`): one stacked
    call samples the fit, and one more reads the engine at the seed, both window
    ends and `tfit.candidates`.  The best engine value wins.  A reading carries
    the engine's roundoff (about `err_bound(alpha)` near the EP); the exact V
    cannot tell the readings about a maximum apart, so their best stands for
    it, as the best probe of a k-section did.  A winning reading where the fit
    does not settle V is finished by a k-section of the engine about it.

    Converged: the winner is a reading of a settled maximum of the fit, or a
    window end where V rises outward.
    """
    preset = build_preset(cfg, params | {"t": tfit.sample_times(cfg.kind == "pt-published")})
    coef = tfit.fit(preset, cfg.expression)
    ts, gaps = tfit.candidates(cfg.expression, coef, grid.lo, grid.hi, grid.count)
    ts, gaps = np.append([params["t"], grid.lo, grid.hi], ts), np.append(np.zeros(3), gaps)
    (values,), _ = grid_columns(lambda **probe: (evaluate_expression(cfg, params | probe),),
                                {"t": ts.tolist()}, 1)
    if not np.isfinite(values[0]):
        raise UsageError(f"objective not finite at seed {params}")
    i = int(np.argmax(np.fmax(values, -np.inf)))  # the seed wins a tie
    t, best = float(ts[i]), float(values[i])
    if gaps[i]:
        x, fx = _ksection_max(cfg, params, "t", max(grid.lo, t - gaps[i]),
                              min(grid.hi, t + gaps[i]))
        return params | {"t": x if fx > best else t}, max(fx, best), False
    if i >= 3:
        return params | {"t": t}, best, True  # a reading of a settled maximum of the fit
    slope = tfit.slopes(cfg.expression, coef, [2 * t], second=False)[0][0]
    return params | {"t": t}, best, bool(t == grid.lo and slope < 0 or t == grid.hi and slope > 0)


def refine_max(cfg: SweepConfig, seed: dict[str, float]) -> tuple[dict[str, float], float, bool]:
    """Maximization from a seed point: the point, its value (never below the
    seed's) and whether it converged.

    When only t moves, the window's maximum through the exact fit
    (`_refine_t`).  Otherwise, or when a sample of the fit fails a check, a
    local search: a cyclic per-coordinate k-section (bracket: one grid
    spacing, clipped to the grid; at most START_CYCLES passes, one for a lone
    coordinate) starts it.  Trust-region Newton steps finish it, each
    iteration one stacked central-difference stencil (step H) at the trial
    point.  Converged there: an unshifted Newton step below REFINE_TOLERANCE
    on a negative-definite Hessian over the coordinates not pinned at a grid
    bound by an outward gradient.
    """
    params = dict(cfg.fixed) | {k: float(v) for k, v in seed.items()}
    sweepable = [(n, g) for n, g in cfg.grids.items() if g.count >= 2]
    if [n for n, _ in sweepable] == ["t"]:
        try:
            return _refine_t(cfg, params, sweepable[0][1])
        except (DomainError, DegenerateWeightError):
            pass  # a sample the engine refuses: the coordinate search below
    best = evaluate_expression(cfg, params)
    if not np.isfinite(best):
        raise UsageError(f"objective not finite at seed {seed}")
    if not sweepable:
        return params, best, True
    for _ in range(START_CYCLES if len(sweepable) > 1 else 1):
        moved = 0.0
        for name, grid in sweepable:
            radius = grid.spacing()
            lo = max(grid.lo, params[name] - radius)
            hi = min(grid.hi, params[name] + radius)
            if hi <= lo:
                continue
            x, fx = _ksection_max(cfg, params, name, lo, hi)
            if fx > best:
                moved = max(moved, abs(x - params[name]))
                params[name], best = x, fx
        if moved < REFINE_TOLERANCE:
            break
    names, lo, hi = zip(*[(name, g.lo, g.hi) for name, g in sweepable])
    n, eye, (i, j) = len(names), np.eye(len(names)), np.triu_indices(len(names), 1)
    offsets = H * np.vstack([np.zeros(n), eye, -eye] + [
        s * eye[a] + u * eye[b] for a, b in zip(i, j) for s, u in product((1, -1), repeat=2)])

    def stencil(x):  # (f, gradient, Hessian) at x, or None if a probe fails
        f = np.asarray(grid_columns(lambda **probe: (evaluate_expression(cfg, params | probe),),
                                    dict(zip(names, (x + offsets).T.tolist())), 1)[0][0])
        fp, fm = f[1:n + 1], f[n + 1:2 * n + 1]
        hess = np.diag((fp - 2 * f[0] + fm) / H**2)
        hess[i, j] = hess[j, i] = f[2 * n + 1:].reshape(-1, 4) @ (1, -1, -1, 1) / (4 * H**2)
        return (f[0], (fp - fm) / (2 * H), hess) if np.isfinite(f).all() else None

    x = np.array([params[name] for name in names])
    at_x, radius = stencil(x), min(g.spacing() for _, g in sweepable)
    for _ in range(NEWTON_ITERATIONS):
        if at_x is None or radius < REFINE_TOLERANCE:
            break
        fx, grad, hess = at_x
        free = ~((x <= lo) & (grad < 0) | (x >= hi) & (grad > 0))  # all pinned: w, gv empty, converged
        w, v = np.linalg.eigh(hess[np.ix_(free, free)])
        gv = v.T @ grad[free]
        newton = np.linalg.norm(gv / w) if np.all(w < 0) else np.inf
        if newton < REFINE_TOLERANCE or not gv.any():  # a zero gradient off a maximum ends it
            return params, best, bool(newton < REFINE_TOLERANCE)
        shift = 0.0 if newton <= radius else max(w.max(), 0.0) + np.linalg.norm(gv) / radius
        step = np.zeros(n)
        step[free] = v @ (gv / (shift - w))
        trial = np.clip(x + step, lo, hi)
        step, at_trial = trial - x, stencil(trial)
        if at_trial is None or at_trial[0] <= max(fx, best):  # refused
            radius = np.linalg.norm(step) / 4
            continue
        if at_trial[0] - fx >= 0.75 * (grad @ step + step @ hess @ step / 2):
            radius *= 2  # the model predicted the gain well
        x, at_x = trial, at_trial
        params, best = params | dict(zip(names, x.tolist())), float(at_x[0])
    return params, best, False


@dataclass(frozen=True)
class FigureData:
    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]


# DegreeReport field -> its columns, one per outcome row in the field's order (+1 first)
_DEGREE_COLUMNS = {
    "d_123": ("D123_pp", "D123_pm", "D123_mp", "D123_mm"),
    "d_1_2_3": ("D1_2_3_pp", "D1_2_3_pm", "D1_2_3_mp", "D1_2_3_mm"),
    "r_12_3": ("R12_3_pp", "R12_3_pm", "R12_3_mp", "R12_3_mm"),
    "r_1_23": ("R1_23_p", "R1_23_m"),
}
# figure -> (plotted expression, degree tables, constant trailing columns)
_FIGURES = {
    1: ("L13", (), ()),
    2: ("V3", (), ("theta", "phi")),
    3: ("L13", ("d_123", "d_1_2_3", "r_12_3"), ()),
    4: ("V1", ("d_123", "r_1_23"), ()),
}


def figure_data(fig: int, t_steps: int = 512, alphas=DEFAULT_ALPHAS,
                theta: float = DEFAULT_THETA, phi: float = DEFAULT_PHI,
                pre_evolution: bool = True,
                t_min: float = 0.0, t_max: float = np.pi) -> FigureData:
    """Plot-ready curve data for the four diagnostic figures.

    1: standard LG value vs t per alpha.
    2: variant V3 vs t per alpha (pure-state preset).
    3: standard LG value plus all NSIT/AOT degree curves per alpha.
    4: variant V1 plus its NSIT and AOT degree curves per alpha.

    Each alpha's t-grid is one stacked preset and one context table.  A point
    outside the domain, or with a degenerate context, gives a row of NaNs
    after its (alpha, t) (see `grid_columns`).
    """
    if fig not in _FIGURES:
        raise UsageError(f"figure index must be 1..4, got {fig}")
    ts = GridSpec(t_min, t_max, t_steps).values()
    expr, tables, trailing = _FIGURES[fig]
    degree_cols = tuple(c for name in tables for c in _DEGREE_COLUMNS[name])
    columns = ("alpha", "t", expr) + degree_cols + trailing
    constants = tuple({"theta": theta, "phi": phi}[c] for c in trailing)
    rows: list[tuple[float, ...]] = []
    for alpha in alphas:
        def values(t):
            tab = table(_pt_preset(expr, alpha, t, theta, phi, pre_evolution))
            rep = degree_report(tab) if tables else None
            return [expression(expr, tab), *(row for name in tables
                                             for row in getattr(rep, name).reshape(-1, len(t)))]

        cols, _ = grid_columns(values, {"t": ts}, 1 + len(degree_cols))
        rows += [(alpha, t) + tuple(v) + constants for t, *v in zip(ts, *cols)]
    return FigureData(columns, rows)
