"""Parameter-space scans, local refinement, and figure-data generation.

Grids are evaluated in deterministic lexicographic order over the parameter
axes (t, alpha, theta, phi).  Domain errors at individual grid points are
recorded per row instead of aborting the scan, so near-exceptional-point
grids still produce complete figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DegenerateWeightError, DomainError, UsageError
from .lgexpr import EXPRESSIONS, expression, table
from .macrodiag import degree_report
from .protocol import ScenarioPreset, pt_standard, pt_variant, unitary_standard, unitary_variant

PARAM_ORDER = ("t", "alpha", "theta", "phi")
DEFAULT_ALPHAS = (0.0, np.pi / 3, 2 * np.pi / 5, np.pi / 2.05)
DEFAULT_THETA = 5 * np.pi / 6
DEFAULT_PHI = np.pi / 2
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
REFINE_TOLERANCE = 1e-7


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
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)

    def spacing(self) -> float:
        if self.count == 1:
            return 0.0
        return (self.hi - self.lo) / (self.count - 1)


@dataclass(frozen=True)
class SweepConfig:
    """What to evaluate and where.

    `grids` lists the swept parameters; anything else comes from `fixed` or
    the defaults (theta = 5 pi / 6, phi = pi / 2, alpha required only for the
    non-unitary kind).
    """

    expression: str
    kind: str  # "unitary" | "pt"
    grids: dict[str, GridSpec] = field(default_factory=dict)
    fixed: dict[str, float] = field(default_factory=dict)
    pre_evolution: bool = True
    refine: bool = False

    def __post_init__(self):
        if self.expression not in EXPRESSIONS:
            raise UsageError(f"expression must be one of {EXPRESSIONS}")
        if self.kind not in ("unitary", "pt"):
            raise UsageError("kind must be 'unitary' or 'pt'")
        unknown = (set(self.grids) | set(self.fixed)) - set(PARAM_ORDER)
        if unknown:
            raise UsageError(f"unknown parameters {sorted(unknown)}")
        if "t" not in self.grids and "t" not in self.fixed:
            raise UsageError("parameter 't' must be gridded or fixed")
        if self.kind == "pt" and "alpha" not in self.grids and "alpha" not in self.fixed:
            raise UsageError("non-unitary sweeps need 'alpha' gridded or fixed")


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


def _pt_preset(expr: str, alpha: float, t: float, theta: float, phi: float,
               pre_evolution: bool) -> ScenarioPreset:
    """The standard preset for L13, the pure-state variant for V1..V3."""
    if expr == "L13":
        return pt_standard(alpha, t, pre_evolution=pre_evolution)
    return pt_variant(alpha, t, theta, phi, pre_evolution=pre_evolution)


def build_preset(cfg: SweepConfig, params: dict[str, float]) -> ScenarioPreset:
    t = params["t"]
    theta = params.get("theta", DEFAULT_THETA)
    phi = params.get("phi", DEFAULT_PHI)
    if cfg.kind == "pt":
        return _pt_preset(cfg.expression, params["alpha"], t, theta, phi, cfg.pre_evolution)
    if cfg.expression == "L13":
        return unitary_standard(t)
    return unitary_variant(t, theta, phi)


def evaluate_expression(cfg: SweepConfig, params: dict[str, float]) -> float:
    return expression(cfg.expression, build_preset(cfg, params))


def _param_axes(cfg: SweepConfig) -> list[tuple[str, np.ndarray]]:
    axes = []
    for name in PARAM_ORDER:
        if name in cfg.grids:
            axes.append((name, cfg.grids[name].values()))
    return axes


def scan(cfg: SweepConfig) -> SweepResult:
    """Dense evaluation over the Cartesian grid, then optional local refinement."""
    axes = _param_axes(cfg)
    names = [n for n, _ in axes]
    points = [dict(cfg.fixed) | dict(zip(names, combo))
              for combo in product(*(vals for _, vals in axes))]

    def one(params: dict[str, float]) -> SweepRow:
        try:
            return SweepRow(params=params, value=evaluate_expression(cfg, params))
        except (DomainError, DegenerateWeightError) as exc:
            return SweepRow(params=params, value=float("nan"), error=str(exc))

    rows = [one(p) for p in points]
    valid = [r for r in rows if r.error is None]
    if not valid:
        raise DomainError("every grid point failed; nothing to maximize")
    best = max(valid, key=lambda r: r.value)
    argmax_params, argmax_value = dict(best.params), best.value
    if cfg.refine:
        argmax_params, argmax_value = refine_max(cfg, argmax_params)
    return SweepResult(config=cfg, rows=rows, argmax_params=argmax_params,
                       argmax_value=argmax_value)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def refine_max(cfg: SweepConfig, seed: dict[str, float]) -> tuple[dict[str, float], float]:
    """Cyclic per-coordinate golden-section ascent from a seed point.

    Each swept coordinate is refined inside a bracket of one grid spacing
    around the current point (clipped to the grid bounds), cycling until a
    full pass improves no coordinate by more than the tolerance.  The result
    never falls below the seed's value.
    """
    params = dict(cfg.fixed) | {k: float(v) for k, v in seed.items()}
    best = evaluate_expression(cfg, params)
    if not np.isfinite(best):
        raise UsageError(f"objective not finite at seed {seed}")
    sweepable = [(n, g) for n, g in cfg.grids.items() if g.count >= 2]
    for _ in range(60):
        moved = 0.0
        for name, grid in sweepable:
            radius = grid.spacing()

            def f(x, _name=name):
                trial = dict(params)
                trial[_name] = x
                try:
                    return evaluate_expression(cfg, trial)
                except (DomainError, DegenerateWeightError):
                    return -np.inf

            lo = max(grid.lo, params[name] - radius)
            hi = min(grid.hi, params[name] + radius)
            if hi <= lo:
                continue
            x, fx = _golden_max(f, lo, hi, REFINE_TOLERANCE)
            if fx > best:
                moved = max(moved, abs(x - params[name]))
                params[name], best = x, fx
        if moved < REFINE_TOLERANCE:
            break
    return params, best


@dataclass(frozen=True)
class FigureData:
    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]


_PAIRS = (((+1, +1), "pp"), ((+1, -1), "pm"), ((-1, +1), "mp"), ((-1, -1), "mm"))
# DegreeReport field -> (column prefix, (outcome key, column suffix) in column order)
_DEGREE_COLUMNS = {
    "d_123": ("D123", _PAIRS),
    "d_1_2_3": ("D1_2_3", _PAIRS),
    "r_12_3": ("R12_3", _PAIRS),
    "r_1_23": ("R1_23", ((+1, "p"), (-1, "m"))),
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

    A point outside the domain, or with a degenerate context, gives a row of
    NaNs after its (alpha, t).
    """
    if fig not in _FIGURES:
        raise UsageError(f"figure index must be 1..4, got {fig}")
    if t_steps < 1:
        raise UsageError(f"t_steps must be >= 1, got {t_steps}")
    expr, tables, trailing = _FIGURES[fig]
    degree_cols = []  # (DegreeReport field, outcome key, column name)
    for name in tables:
        prefix, keys = _DEGREE_COLUMNS[name]
        degree_cols += [(name, key, f"{prefix}_{suffix}") for key, suffix in keys]
    columns = ("alpha", "t", expr) + tuple(c for _, _, c in degree_cols) + trailing
    constants = tuple({"theta": theta, "phi": phi}[c] for c in trailing)
    ts = np.linspace(t_min, t_max, t_steps)
    rows: list[tuple[float, ...]] = []
    for alpha in alphas:
        for t in ts:
            try:
                tab = table(_pt_preset(expr, alpha, t, theta, phi, pre_evolution))
                values = (expression(expr, tab),)
                if degree_cols:
                    rep = degree_report(tab)
                    values += tuple(getattr(rep, name)[key] for name, key, _ in degree_cols)
            except (DomainError, DegenerateWeightError):
                values = (float("nan"),) * (1 + len(degree_cols))
            rows.append((alpha, t) + values + constants)
    return FigureData(columns, rows)
