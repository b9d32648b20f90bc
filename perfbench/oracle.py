"""Scalar oracle for verifying benchmark outputs.

It re-derives every quantity the workloads print from the model's closed
forms in plain Python complex arithmetic.  It imports nothing from `ptlg`, so
a defect in the engine's propagator, projectors or normalization cannot hide
by corrupting the oracle too.  The chain is the one `ptlg.protocol`
documents for `unnormalized_chain`: measure at the chosen times, evolve with a
single composed propagator across gaps, normalize once per context.  The
self-tests pin this oracle to `unnormalized_chain`.
"""

from __future__ import annotations

import math
from itertools import product

EPS = 2.220446049250313e-16
CONTEXTS = ((1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3))
PAIR_FOR_VARIANT = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
OUTCOME_ORDER = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


def tolerance(alpha: float) -> float:
    """Largest accepted |engine - oracle| gap at non-Hermiticity angle alpha.

    Outputs carry 12 significant digits, so rounding alone contributes up to
    ~1.5e-11 for |values| <= 3.  The floor 1e-9 admits that plus any
    reformulation a few hundred ulp away from the scalar chain.  The second
    term follows the forward-error growth near the exceptional point, which
    scales like eps sec^4(alpha): a batched reformulation differed from the
    scalar engine by 5.7e-11 at alpha = pi/2.05 (0.5 eps sec^4), and the
    engine differs from this oracle by up to 17 eps sec^4 at random points and
    78 eps sec^4 at a flat optimum near the EP.  The factor 1e4 leaves two
    orders of margin over the worst of these, so a reformulation with a
    different rounding pattern still passes.  Real defects are far larger: a
    1e-3 propagator perturbation moves values by more than 1e-5, above the
    tolerance (1e-6) even at alpha = pi/2.05.
    """
    sec = 1.0 / math.cos(alpha)
    return 1e-9 + 1e4 * EPS * sec**4


# 2x2 complex matrices as row-major 4-tuples.
def _mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _dag(a):
    return (a[0].conjugate(), a[2].conjugate(), a[1].conjugate(), a[3].conjugate())


def _sandwich(u, rho):
    return _mul(_mul(u, rho), _dag(u))


def _trace(a) -> float:
    return (a[0] + a[3]).real


def pt_propagator(alpha: float, t: float):
    """cos(t) I - i sin(t) H / cos(alpha) for H = [[i sin a, 1], [1, -i sin a]]."""
    c, s = math.cos(t), math.sin(t)
    sec, tan = 1.0 / math.cos(alpha), math.tan(alpha)
    return (complex(c + s * tan), -1j * s * sec, -1j * s * sec, complex(c - s * tan))


class Point:
    """One parameter point of the PT presets, as the CLI and `sweep` build them
    (pre-evolution on): sigma_y probes, one pre-evolution step, and the state
    I/2 if standard, else the pure state (e^{i phi} sin theta, cos theta).
    """

    def __init__(self, standard: bool, t: float, alpha: float,
                 theta: float = 0.0, phi: float = 0.0):
        self.standard = standard
        self.alpha, self.t, self.theta, self.phi = alpha, t, theta, phi
        self._dists: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
        self._steps: dict[int, tuple] = {}
        self._rho1: tuple | None = None

    def step(self, n: int):
        if n not in self._steps:
            self._steps[n] = pt_propagator(self.alpha, n * self.t)
        return self._steps[n]

    @staticmethod
    def projector(m: int):
        """(I + m sigma_y) / 2."""
        return (0.5 + 0j, -0.5j * m, 0.5j * m, 0.5 + 0j)

    def state_at_t1(self):
        if self._rho1 is None:
            self._rho1 = self._state_at_t1()
        return self._rho1

    def _state_at_t1(self):
        if self.standard:
            rho = (0.5 + 0j, 0j, 0j, 0.5 + 0j)
        else:
            a = complex(math.cos(self.phi), math.sin(self.phi)) * math.sin(self.theta)
            b = complex(math.cos(self.theta))
            rho = (a * a.conjugate(), a * b.conjugate(), b * a.conjugate(), b * b.conjugate())
            w = _trace(rho)
            rho = tuple(x / w for x in rho)
        rho = _sandwich(self.step(1), rho)
        w = _trace(rho)
        return tuple(x / w for x in rho)

    def chain(self, times: tuple[int, ...], outcomes: tuple[int, ...]) -> float:
        rho, current = self.state_at_t1(), 1
        for j, m in zip(times, outcomes):
            if j > current:
                rho = _sandwich(self.step(j - current), rho)
            p = self.projector(m)
            rho = _mul(_mul(p, rho), p)
            current = j
        return max(_trace(rho), 0.0)

    def dist(self, times: tuple[int, ...]) -> dict[tuple[int, ...], float]:
        if times not in self._dists:
            raw = {oc: self.chain(times, oc) for oc in product((+1, -1), repeat=len(times))}
            total = sum(raw.values())
            self._dists[times] = {oc: v / total for oc, v in raw.items()}
        return self._dists[times]

    def corr(self, ctx: tuple[int, ...], which: tuple[int, ...]) -> float:
        pos = [ctx.index(j) for j in which]
        return sum(p * math.prod(oc[i] for i in pos) for oc, p in self.dist(ctx).items())

    def l13(self) -> float:
        return (self.corr((1, 2), (1, 2)) + self.corr((2, 3), (2, 3))
                - self.corr((1, 3), (1, 3)))

    def variant(self, k: int) -> float:
        pair = PAIR_FOR_VARIANT[k]
        return (-self.corr((1, 2, 3), (1, 2, 3)) + self.corr(pair, pair)
                + self.corr((k,), (k,)))

    def expression(self, name: str) -> float:
        return self.l13() if name == "L13" else self.variant(int(name[1]))

    def _marginal(self, keep: tuple[int, ...]) -> dict[tuple[int, ...], float]:
        out: dict[tuple[int, ...], float] = {}
        for oc, p in self.dist((1, 2, 3)).items():
            key = tuple(oc[j - 1] for j in keep)
            out[key] = out.get(key, 0.0) + p
        return out

    def degrees(self) -> dict[str, dict]:
        """The four NSIT/AOT tables: coarse context minus the full-context marginal."""
        tables = {}
        for name, ctx in (("d_123", (2, 3)), ("d_1_2_3", (1, 3)), ("r_12_3", (1, 2)),
                          ("r_1_23", (1,))):
            marg = self._marginal(ctx)
            tables[name] = {oc: p - marg[oc] for oc, p in self.dist(ctx).items()}
        return tables


def partner_deviation(alpha: float, t: float) -> float:
    """Trace distance of the entangled partner's state from I/2.

    With U applied to one half of (|00> + |11>)/sqrt(2), the partner holds
    (U^dag U)^T / Tr(U^dag U); its distance from I/2 is the eigenvalue
    half-gap sqrt(((a - d) / 2)^2 + |b|^2) / (a + d) of U^dag U = [[a, b], [b*, d]].
    """
    u = pt_propagator(alpha, t)
    m = _mul(_dag(u), u)
    a, d, b = m[0].real, m[3].real, m[1]
    return math.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2) / (a + d)
