"""Parameter-space scans, refinement, and figure-data generation.

Grids are evaluated in deterministic lexicographic order over the parameter
axes (t, alpha, theta, phi), each as one stacked preset (see `protocol`):
`grid_columns` runs the stack, gives each point that a check names as failing
its reason instead of aborting, and runs the rest again as one stack.

`refine_max` refines on exact fits (`tfit`, from the closed form: no engine
call) of the chain that `build_preset` gives at t = 0, and ends in one stacked
engine reading, so the value it reports is the engine's: along t alone, at the
maxima of the fit of each term in 2 t (`_refine_t`); at fixed alpha with an
angle moving, at the ends of Newton steps on the (t, state) fit from many
starts (`_refine_state`).  The winning column of that reading is the argmax's
preset (`SweepResult.preset`).  Along t alone the fit's readings ride in
`scan`'s grid stack, so a refined scan forms the chain once; with an angle
moving, twice: for its grid, and for the reading.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .errors import DegenerateWeightError, DomainError, ExceptionalPointError, UsageError
from . import search, tfit
from .lgexpr import EXPRESSIONS, expression, table
from .macrodiag import degree_report
from .protocol import ScenarioPreset, pt_standard, pt_variant, unitary_standard, unitary_variant

PARAM_ORDER = ("t", "alpha", "theta", "phi")
DEFAULT_ALPHAS = (0.0, np.pi / 3, 2 * np.pi / 5, np.pi / 2.05)
DEFAULT_THETA = 5 * np.pi / 6
DEFAULT_PHI = np.pi / 2
REFINE_TOLERANCE = 1e-7
K = 16  # interior probes per k-section round, evaluated as one stack
READS = 64  # cap on the engine's readings that end a search on the (t, state) fit
FIT_AXES = ("t", "theta", "phi")  # the coordinates of the (t, state) fit
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
        if both := sorted(set(self.grids) & set(self.fixed)):
            raise UsageError(f"parameters {both} are both gridded and fixed")
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
    preset: ScenarioPreset | None = None  # the argmax's, `refine_max`'s column or built afresh


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


def evaluate_expression(cfg: SweepConfig, params: dict | ScenarioPreset):
    """The expression at `params`, or of a preset already built; an array if a stack moves it."""
    return expression(cfg.expression, params if isinstance(params, ScenarioPreset)
                      else build_preset(cfg, params))


def grid_columns(f, axes: dict[str, list], width: int) -> tuple[np.ndarray, list]:
    """The `width` columns of `f` over N aligned points, evaluated as stacks, as
    one (width, N) array, and each point's failure reason (None where it succeeded).

    `axes` maps each varying parameter to its N values; `f(**params)` takes
    them as arrays and returns `width` arrays (or constants).  A domain or
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
            values = f(**{name: v[live] for name, v in axes.items()})
        except (DomainError, DegenerateWeightError) as exc:
            failures = getattr(exc, "failures", dict.fromkeys(range(live.size), str(exc)))
            for j, reason in failures.items():
                errors[live[j]] = reason
            live = np.delete(live, list(failures))
            continue
        for col, v in zip(cols, values):
            col[live] = v
        break
    return cols, errors


def _read(cfg: SweepConfig, params: dict, axes: dict):
    """`grid_columns` of `evaluate_expression` over the aligned stacks `axes` on
    `params`: the values, each point's failure reason, and `column(i)`, the preset of a
    point i that did not fail: a column of the last call's stack, which holds those points."""
    presets = [None]

    def f(**point):
        presets.append(build_preset(cfg, params | point))
        return (evaluate_expression(cfg, presets[-1]),)

    (values,), errors = grid_columns(f, axes, 1)
    return values.tolist(), errors, lambda i: presets[-1].column(
        i - sum(e is not None for e in errors[:i]))


def scan(cfg: SweepConfig) -> SweepResult:
    """Dense evaluation over the Cartesian grid as one stack, then refinement.
    Along t alone the grid is `_refine_t`'s head: its readings and the fit's ride
    in one stack, whose first maximum is the one `refine_max` reaches from the
    grid's best point."""
    names = [n for n in PARAM_ORDER if n in cfg.grids]
    points = list(product(*(cfg.grids[n].values() for n in names)))
    axes = {n: [p[i] for p in points] for i, n in enumerate(names)}
    refined = None
    if cfg.refine and names == ["t"] and len(points) > 1:
        with suppress(ExceptionalPointError):  # the fit preset's alpha check; every row fails too
            refined, values, errors = _refine_t(cfg, {k: float(v) for k, v in cfg.fixed.items()},
                                                cfg.grids["t"], axes["t"])
    if refined is None:
        values, errors, _ = _read(cfg, cfg.fixed, axes)
    rows = [SweepRow(params=dict(cfg.fixed) | dict(zip(names, p)), value=v, error=e)
            for p, v, e in zip(points, values, errors)]
    valid = [r for r in rows if r.error is None]
    if not valid:
        raise DomainError("every grid point failed; nothing to maximize")
    best = max(valid, key=lambda r: r.value)
    argmax_params, argmax_value, converged, preset = dict(best.params), best.value, None, None
    if cfg.refine:
        argmax_params, argmax_value, converged, preset = refined or refine_max(cfg, argmax_params)
    return SweepResult(config=cfg, rows=rows, argmax_params=argmax_params,
                       argmax_value=argmax_value, converged=converged,
                       preset=preset or build_preset(cfg, argmax_params))


def _ksection_max(values, lo: float, hi: float):
    """The best probe in [lo, hi] of `values`, a function of K probe values of one
    coordinate: each round evaluates K evenly spaced interior probes at once (a
    failing one counts as -inf) and keeps the two spacings around the best probe
    so far, until the bracket is at most REFINE_TOLERANCE wide."""
    x, fx = None, -np.inf
    while True:
        xs = np.linspace(lo, hi, K + 2)
        probes = np.fmax(values(xs[1:-1]), -np.inf)  # NaN -> -inf
        i = int(np.argmax(probes))
        if x is None or probes[i] > fx:
            x, fx = float(xs[i + 1]), float(probes[i])
        lo, hi = max(lo, x - (xs[1] - xs[0])), min(hi, x + (xs[1] - xs[0]))
        if hi - lo <= REFINE_TOLERANCE:
            return x, fx


def _refine_t(cfg: SweepConfig, params: dict, grid: GridSpec, head):
    """`refine_max` along t alone, through the fit along t (`tfit.fit`): one stacked
    call reads the engine at the t of `head`, then at `tfit.candidates`.  `head`
    is the scan's grid, whose first best reading is the seed, or the seed and
    both window ends.  The first best engine value wins, so the seed wins a tie.
    A reading carries the engine's roundoff (about `err_bound(alpha)` near the
    EP); the exact V cannot tell the readings about a maximum apart, so their
    best stands for it, as the best probe of a k-section did.  An unsettled
    winner is finished by k-sections about every unsettled reading at least its
    unsettled neighbours.

    Converged: the winner is a reading of a settled maximum of the fit, or a
    window end where V rises outward.  Returns `refine_max`'s four values, then
    the head's values and failure reasons (see `_read`).
    """
    coef = tfit.fit(cfg.expression, build_preset(cfg, params | {"t": 0.0}))
    ts, gaps = tfit.candidates(coef, grid.lo, grid.hi)
    n = len(head)
    ts, gaps = np.append(head, ts), np.append(np.zeros(n), gaps)
    values, errors, column = _read(cfg, params, {"t": ts})
    i = int(np.argmax(np.fmax(values, -np.inf)))  # a failing reading (NaN) cannot win
    t, best = float(ts[i]), float(values[i])
    if gaps[i]:  # the unsettled readings in t order, and those at least their neighbours
        order = np.flatnonzero(gaps)[np.argsort(ts[gaps > 0])]
        v = np.pad(np.fmax(values, -np.inf)[order], 1, constant_values=-np.inf)  # NaN -> -inf
        peaks = order[(v[1:-1] > -np.inf) & (v[1:-1] >= np.fmax(v[:-2], v[2:]))]
        reads = [_ksection_max(lambda xs: _read(cfg, params, {"t": xs})[0], *np.clip(
            ts[j] + (-gaps[j], gaps[j]), grid.lo, grid.hi)) for j in peaks]
        t, best = max([(t, best)] + reads, key=lambda p: p[1])
        return (params | {"t": t}, best, False, None), values[:n], errors[:n]
    slope = tfit.slopes(coef, [2 * t], second=False)[0][0] if i < n else 0.0
    converged = i >= n or bool(t == grid.lo and slope < 0 or t == grid.hi and slope > 0)
    return ((params | {"t": t}, best, converged, None if np.isnan(best) else column(i)),
            values[:n], errors[:n])


def _refine_state(cfg: SweepConfig, params: dict, grids: list):
    """`refine_max` at fixed alpha over `grids` among (t, theta, phi) through the
    (t, state) fit (`tfit.fit`): `search.maxima` from `search.starts` (trust radius: the
    least grid spacing), then one engine stack at the ends that could win, best
    first (at most READS - 1), and at the seed.  The best reading wins;
    converged if it is a converged end's."""
    coef = tfit.fit(cfg.expression, build_preset(cfg, params | {"t": 0.0}), states=True)
    x = np.array([({"theta": DEFAULT_THETA, "phi": DEFAULT_PHI} | params)[n] for n in FIT_AXES])
    lo, hi = (np.array([getattr(dict(grids).get(n), e, x[i]) for i, n in enumerate(FIT_AXES)])
              for e in ("lo", "hi"))
    ends, fit, converged, wins = search.maxima(coef, search.starts(coef, x, lo, hi), lo, hi, min(
        g.spacing() for _, g in grids))
    keep = np.argsort(np.where(wins, -fit, np.inf))[:min(wins.sum(), READS - 1)]
    points = np.vstack([ends[keep], x])
    names = [n for n, _ in grids]
    values, errors, column = _read(cfg, params, {n: points[:, FIT_AXES.index(n)] for n in names})
    if not np.isfinite(values[-1]):
        raise UsageError(f"objective not finite at seed {params}")
    i = int(np.nanargmax(values))  # an end wins a tie with the seed; a failing reading cannot
    return (params | {n: float(points[i, FIT_AXES.index(n)]) for n in names}, float(values[i]),
            bool(i < len(keep) and converged[keep[i]]), column(i))


def refine_max(cfg: SweepConfig, seed: dict[str, float]):
    """Maximization from a seed point: the point, its value (never below the
    seed's), whether it converged, and its preset if a column of the final
    engine stack (`ScenarioPreset.column`).  At fixed alpha `_refine_t` or
    `_refine_state`, or, with nothing moving, the seed's one reading, converged.
    A gridded alpha is k-sectioned over one grid spacing about the seed's, each
    probe the fixed-alpha refinement there (-inf where it fails); the seed's
    alpha or the best probe wins, converged as its refinement is unless no alpha was
    probed past it toward a bracket end inside the grid, where V may rise on."""
    params = dict(cfg.fixed) | {k: float(v) for k, v in seed.items()}
    sweepable = [(n, g) for n, g in cfg.grids.items() if g.count >= 2]
    moving = [n for n, _ in sweepable]
    if "alpha" in moving:
        grid, alpha = cfg.grids["alpha"], params["alpha"]
        others = {n: g for n, g in cfg.grids.items() if n != "alpha"}

        def at(a):
            return refine_max(replace(cfg, grids=others, fixed=cfg.fixed | {"alpha": a}),
                              params | {"alpha": a})

        def probes(alphas):
            for a in alphas.tolist():
                try:
                    results[a] = at(a)
                except (DomainError, DegenerateWeightError, UsageError):
                    results[a] = params | {"alpha": a}, -np.inf, False, None
            return [results[a][1] for a in alphas.tolist()]

        results = {alpha: at(alpha)}
        lo, hi = max(grid.lo, alpha - grid.spacing()), min(grid.hi, alpha + grid.spacing())
        a = max((alpha, _ksection_max(probes, lo, hi)[0]), key=lambda a: results[a][1])
        edge = a == min(results) and lo > grid.lo or a == max(results) and hi < grid.hi
        point, value, converged, preset = results[a]
        return point, value, converged and not edge, preset
    if moving == ["t"]:
        grid = sweepable[0][1]
        refined, head, _ = _refine_t(cfg, params, grid, [params["t"], grid.lo, grid.hi])
        if not np.isfinite(head[0]):
            raise UsageError(f"objective not finite at seed {params}")
        return refined
    if moving:
        return _refine_state(cfg, params, sweepable)
    best = evaluate_expression(cfg, params)
    if not np.isfinite(best):
        raise UsageError(f"objective not finite at seed {seed}")
    return params, best, True, None


@dataclass(frozen=True)
class FigureData:
    columns: tuple[str, ...]
    blocks: list[np.ndarray]  # a (len(columns), N) block per alpha, in order
    errors: list[str | None]  # each row's failure reason (None where it succeeded)


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

    Each alpha's t-grid is one stacked preset, one context table and one block.
    A point outside the domain, or with a degenerate context, gives a row of
    NaNs after its (alpha, t), and its reason (see `grid_columns`).
    """
    if fig not in _FIGURES:
        raise UsageError(f"figure index must be 1..4, got {fig}")
    ts = GridSpec(t_min, t_max, t_steps).values()
    expr, tables, trailing = _FIGURES[fig]
    degree_cols = tuple(c for name in tables for c in _DEGREE_COLUMNS[name])
    columns = ("alpha", "t", expr) + degree_cols + trailing
    blocks, errors = [], []
    for alpha in alphas:
        def values(t):
            tab = table(_pt_preset(expr, alpha, t, theta, phi, pre_evolution))
            rep = degree_report(tab) if tables else None
            return [expression(expr, tab), *(row for name in tables
                                             for row in getattr(rep, name).reshape(-1, len(t)))]

        cols, errs = grid_columns(values, {"t": ts}, 1 + len(degree_cols))
        blocks.append(np.vstack([np.full_like(ts, alpha), ts, cols, *(
            np.full_like(ts, {"theta": theta, "phi": phi}[c]) for c in trailing)]))
        errors += errs
    return FigureData(columns, blocks, errors)
