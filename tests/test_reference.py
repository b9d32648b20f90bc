"""A 40-digit reference for both chains, and the engine's error bound.

The reference re-derives every context distribution in mpmath at 40
significant digits from the model's closed forms: the propagator
cos(t) I - i sin(t) H / cos(alpha), the projectors (I + m M) / 2, and the
branch-state chains that `protocol` documents (sequential and published).
It shares no code with the engine.

`err_bound` is the error model C eps sec^4(alpha) for the absolute error of
any probability.  C was fixed from the branch-state engine before the
transfer form replaced it: its largest ratio err / (eps sec^4 alpha) was 1.84
over the seeded uniform and near-EP samples below, and 5.93 over the four
figure grids (512 t in [0, pi] at each reference alpha, both figure presets),
at alpha = 2 pi/5, t = 1.6108 for the pure state.  There a context's total
weight is ~0.03, so renormalizing amplifies roundoff beyond the sec^4 trend.
C = 12 leaves a factor of two over that worst case.

`deep_bound` is C' eps sec^2(alpha), for the sequential chain at
pi/2 - |alpha| in [1e-6, 1e-3], where `err_bound` grows too fast to say
anything.  There the tables come from the real closed form U~ = D R(t) D^-1,
and what error is left is the pre-evolved start's: its symmetric part in the
sigma_y basis is read off the computational-basis density, with an absolute
error of about eps, which the legs amplify by up to r^2 ~ 4 sec^2(alpha).
C' was fixed from the seeded `DEEP_EP` sample below (drawn before C' was
chosen): its largest ratio err / (eps sec^2 alpha) was 0.89, at
pi/2 - alpha = 6.65e-4, t = 2.052 for the pure state, and C' = 1.8 leaves a
factor of two over it.  The model is not uniform in t: near t = pi/2 a
context's total weight falls to about 2 / r^2 and amplifies the start's
error once more (off the test, ratios of 23 at pi/2 - alpha = 1e-4,
t = 1.633 and 219 at 1e-6, t = 1.623).
"""

from itertools import product

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from ptlg.protocol import (
    MeasurementContext,
    distribution,
    pt_standard,
    pt_variant,
    unitary_standard,
    unitary_variant,
)
from ptlg.lgexpr import l13, table, variant_v
from ptlg.sweep import DEFAULT_ALPHAS, DEFAULT_PHI, DEFAULT_THETA, grid_columns

EPS = float(np.finfo(float).eps)
ERR_CONSTANT = 12.0
DEEP_CONSTANT = 1.8
CONTEXTS = ((1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3))
# kind -> (engine preset from (alpha, t, theta, phi), pure start, sigma_y probe,
#          pre-evolution, published chain); the unitary kinds run at alpha = 0
KINDS = {
    "pt_standard": (lambda a, t, th, ph: pt_standard(a, t), False, True, True, False),
    "pt_variant": (lambda a, t, th, ph: pt_variant(a, t, th, ph), True, True, True, False),
    "published_standard": (lambda a, t, th, ph: pt_standard(a, t, published=True),
                           False, True, True, True),
    "published_variant": (lambda a, t, th, ph: pt_variant(a, t, th, ph, published=True),
                          True, True, True, True),
    "unitary_standard": (lambda a, t, th, ph: unitary_standard(t), False, False, False, False),
    "unitary_variant": (lambda a, t, th, ph: unitary_variant(t, th, ph),
                        True, False, False, False),
}
UNITARY = ("unitary_standard", "unitary_variant")
# points where the pre-evolved pure state once failed the Hermiticity check
NEAR_EP_POINTS = ((1.488, 1.2912, 2.3701, 3 * np.pi / 2),
                  (1.568845399174301, 0.7675616660816886, 0.7838492964452946, np.pi / 2),
                  (1.56195977120889, 2.167985257270927, 0.788477192126862, np.pi / 2))


def err_bound(alpha: float) -> float:
    """Largest accepted |engine - reference| on a probability at angle alpha."""
    return ERR_CONSTANT * EPS / np.cos(alpha) ** 4


def deep_bound(alpha: float) -> float:
    """Largest accepted |engine - reference| on a sequential-chain probability at
    pi/2 - |alpha| in [1e-6, 1e-3]."""
    return DEEP_CONSTANT * EPS / np.cos(alpha) ** 2


def _sample(n: int, lo: float, hi: float, seed: int):
    """n seeded (alpha, t, theta, phi) with lo <= |alpha| <= hi."""
    rng = np.random.default_rng(seed)
    alphas = rng.choice((-1.0, 1.0), n) * rng.uniform(lo, hi, n)
    return list(zip(alphas, rng.uniform(0.0, np.pi, n), rng.uniform(0.0, np.pi, n),
                    rng.uniform(0.0, 2 * np.pi, n)))


def _deep_sample(n: int, seed: int):
    """n seeded (alpha, t, theta, phi) with pi/2 - |alpha| log-uniform in [1e-6, 1e-3]."""
    rng = np.random.default_rng(seed)
    alphas = rng.choice((-1.0, 1.0), n) * (np.pi / 2 - 10 ** rng.uniform(-6, -3, n))
    return list(zip(alphas, rng.uniform(0.0, np.pi, n), rng.uniform(0.0, np.pi, n),
                    rng.uniform(0.0, 2 * np.pi, n)))


UNIFORM = _sample(12, 0.0, 1.55, seed=606)
NEAR_EP = _sample(8, 1.45, 1.566, seed=607)
DEEP_EP = _deep_sample(16, seed=608)
# every other point of the 512-point figure grid where the worst ratios sit,
# t in [1.43, 1.77], for both figure presets at the reference alphas
FIGURE_WINDOW = [(alpha, t, DEFAULT_THETA, DEFAULT_PHI)
                 for alpha in DEFAULT_ALPHAS[1:]
                 for t in np.linspace(0.0, np.pi, 512)[232:290:2]]


# 2x2 matrices as row-major 4-tuples of mpc
def _mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _dag(a):
    return (a[0].conjugate(), a[2].conjugate(), a[1].conjugate(), a[3].conjugate())


def _sandwich(u, rho):
    return _mul(_mul(u, rho), _dag(u))


def _scaled(rho, w):
    return tuple(x / w for x in rho)


def _trace(a):
    return (a[0] + a[3]).real


def reference(kind: str, alpha: float, t: float, theta: float, phi: float):
    """{measured times: {outcomes: probability}} as 40-digit mpf values."""
    _, pure, sigma_y, pre_evolution, published = KINDS[kind]
    with mp.workdps(40):
        a, t = mpf(0 if kind in UNITARY else alpha), mpf(t)
        sec, tan = 1 / mp.cos(a), mp.tan(a)

        def u(n):
            c, s = mp.cos(n * t), mp.sin(n * t)
            return (c + s * tan, mpc(0, -1) * s * sec, mpc(0, -1) * s * sec, c - s * tan)

        if pure:  # cos(theta)|0> + e^{i phi} sin(theta)|1>, |0> the lower sigma_z ket
            psi = (mp.expj(mpf(phi)) * mp.sin(mpf(theta)), mpc(mp.cos(mpf(theta))))
            rho0 = (psi[0] * psi[0].conjugate(), psi[0] * psi[1].conjugate(),
                    psi[1] * psi[0].conjugate(), psi[1] * psi[1].conjugate())
        else:
            rho0 = (mpc(0.5), mpc(0), mpc(0), mpc(0.5))
        rho0 = _scaled(rho0, _trace(rho0))
        rho1 = _sandwich(u(1), rho0) if pre_evolution else rho0
        rho1 = _scaled(rho1, _trace(rho1))

        def proj(m):
            if sigma_y:
                return (mpc(0.5), mpc(0, -0.5 * m), mpc(0, 0.5 * m), mpc(0.5))
            return (mpc((1 + m) / 2), mpc(0), mpc(0), mpc((1 - m) / 2))

        out = {}
        for times in CONTEXTS:
            if published:
                start = rho0
                legs = [u(times[0] + 1)] + [_mul(u(b - a + 1), _dag(u(1)))
                                            for a, b in zip(times, times[1:])]
            else:
                start = rho1
                legs = [u(times[0] - 1)] + [u(b - a) for a, b in zip(times, times[1:])]
            raw = {}
            for oc in product((+1, -1), repeat=len(times)):
                rho = start
                for g, m in zip(legs, oc):
                    p = proj(m)
                    rho = _mul(_mul(p, _sandwich(g, rho)), p)
                raw[oc] = _trace(rho)
            total = sum(raw.values())
            out[times] = {oc: v / total for oc, v in raw.items()}
        return out


def reference_error(kind: str, alpha: float, t: float, theta: float, phi: float) -> float:
    """Largest |engine - reference| over every probability of every context."""
    preset = KINDS[kind][0](alpha, t, theta, phi)
    ref = reference(kind, alpha, t, theta, phi)
    err = 0.0
    for times in CONTEXTS:
        dist = distribution(MeasurementContext(preset, times))
        err = max(err, max(float(abs(dist[oc] - p)) for oc, p in ref[times].items()))
    return err


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("sample", [UNIFORM, NEAR_EP + list(NEAR_EP_POINTS)],
                         ids=["uniform", "near-ep"])
def test_engine_within_err_bound(kind, sample):
    for point in sample:
        alpha = 0.0 if kind in UNITARY else point[0]
        err = reference_error(kind, *point)
        assert err <= err_bound(alpha), (kind, point, err, err_bound(alpha))


@pytest.mark.parametrize("kind", ["pt_standard", "pt_variant"])
def test_deep_ep_within_deep_bound(kind):
    for point in DEEP_EP:
        err = reference_error(kind, *point)
        assert err <= deep_bound(point[0]), (kind, point, err, deep_bound(point[0]))


def test_deep_ep_grid_values_are_lg_values():
    # 1,800 mixed-state L13 points and 1,000 pure-state points of V1-V3 at
    # pi/2 - |alpha| in [1e-6, 1e-5]: a correlator lies in [-1, 1], so every value
    # the engine returns lies in [-3, 3] up to roundoff, and no mixed-state point
    # raises; a pure-state point may fail by its start's error (none does here)
    d = np.logspace(-6, -5, 30)
    alphas = np.concatenate([np.pi / 2 - d[::2], d[1::2] - np.pi / 2])
    ts = np.linspace(0.05, np.pi - 0.05, 60)
    grid = dict(zip(("alpha", "t"), (x.ravel() for x in np.meshgrid(alphas, ts, indexing="ij"))))
    (values,), errors = grid_columns(lambda alpha, t: (l13(pt_standard(alpha, t)),), grid, 1)
    assert errors == [None] * 1800
    assert np.all(abs(values) <= 3 + 1e-12)
    rng, n = np.random.default_rng(609), 1000
    points = {"alpha": rng.choice((-1.0, 1.0), n) * (np.pi / 2 - 10 ** rng.uniform(-6, -5, n)),
              "t": rng.uniform(0.05, np.pi - 0.05, n), "theta": rng.uniform(0, np.pi, n),
              "phi": rng.uniform(0, 2 * np.pi, n)}
    values, errors = grid_columns(lambda **p: tuple(variant_v(k, table(pt_variant(**p)))
                                                    for k in (1, 2, 3)), points, 3)
    ok = [e is None for e in errors]
    assert np.all(abs(values[:, ok]) <= 3 + 1e-12)


def test_figure_window_within_err_bound():
    for kind in ("pt_standard", "pt_variant"):
        for point in FIGURE_WINDOW:
            err = reference_error(kind, *point)
            assert err <= err_bound(point[0]), (kind, point, err, err_bound(point[0]))


def test_reference_is_the_documented_chain():
    # at alpha = 0 and t = pi/6 the mixed-state sigma_y chain gives the
    # unitary Lueders value: C12 = C23 = cos 2t, C13 = cos 4t
    ref = reference("pt_standard", 0.0, np.pi / 6, 0.0, 0.0)
    corr = {pair: sum(a * b * p for (a, b), p in ref[pair].items())
            for pair in ((1, 2), (2, 3), (1, 3))}
    assert corr[(1, 2)] + corr[(2, 3)] - corr[(1, 3)] == pytest.approx(1.5, abs=1e-15)
