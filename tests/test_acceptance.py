"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion is asserted at its stated tolerance; failures carry the measured
values in the assertion message.
"""

from itertools import product

import numpy as np

from ptlg.closedform import (
    pair_correlator_reference,
    pair_normalization_reference,
    uu_dagger_reference,
)
from ptlg.lgexpr import correlator, l123_and_beta, table, v123_and_delta, variant_v
from ptlg.macrodiag import (
    decomposition_residual_standard,
    decomposition_residual_variant,
    degree_report,
)
from ptlg.nosignal import bob_reduced, signaling_deviation
from ptlg.protocol import (
    MeasurementContext,
    distribution,
    pt_standard,
    pt_variant,
    unitary_standard,
    unitary_variant,
    unnormalized_chain,
)
from ptlg.ptdyn import PTParams, composition_check, propagator
from ptlg.sweep import GridSpec, SweepConfig, scan

PM = (+1, -1)


def report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_unitary_luders_bound():
    # restrict to the first period, where pi/6 is the unique interior maximum
    cfg = SweepConfig(expression="L13", kind="unitary",
                      grids={"t": GridSpec(0.01, np.pi / 2, 201)}, refine=True)
    res = scan(cfg)
    ok = (abs(res.argmax_value - 1.5) <= 1e-6
          and abs(res.argmax_params["t"] - np.pi / 6) <= 1e-6)
    line = report(1, "unitary-luders-bound", ok,
                  f"max={res.argmax_value:.9f} at t={res.argmax_params['t']:.7f}")
    assert ok, line


def test_criterion_02_unitary_variant_optimum():
    value = variant_v(3, unitary_variant(0.41, 2.66, np.pi / 2))
    ok = abs(value - 1.93) <= 0.005
    line = report(2, "unitary-variant-optimum", ok, f"V3={value:.6f} want 1.93+-0.005")
    assert ok, line


def test_criterion_03_pt_escalation():
    # passes when one chain (sequential "pt" or "pt-published") meets all four conditions
    alphas = (0.0, np.pi / 3, 2 * np.pi / 5, np.pi / 2.05)
    verdicts, details = [], []
    for kind in ("pt", "pt-published"):
        maxima = []
        for alpha in alphas:
            cfg = SweepConfig(expression="L13", kind=kind,
                              grids={"t": GridSpec(0.01, np.pi, 161)},
                              fixed={"alpha": alpha}, refine=True)
            maxima.append(scan(cfg).argmax_value)
        increasing = all(a < b for a, b in zip(maxima, maxima[1:]))
        above_luders = all(m > 1.5 for m in maxima[1:])
        near_ep = maxima[-1] > 2.5
        bounded = all(m <= 3.0 + 1e-9 for m in maxima)
        verdicts.append(increasing and above_luders and near_ep and bounded)
        details.append(f"{kind}: maxima=" + ", ".join(f"{m:.6f}" for m in maxima)
                       + f"; increasing={increasing} above1.5={above_luders} "
                         f"above2.5_at_EP={near_ep} bounded={bounded}")
    ok = any(verdicts)
    line = report(3, "pt-escalation", ok, " | ".join(details))
    assert ok, line


def test_criterion_04_pt_variant_optimum():
    conventions = {"pre-evolution on": {}, "off": {"pre_evolution": False},
                   "published": {"published": True}}
    values = {name: variant_v(3, pt_variant(np.pi / 3, 0.785, 5 * np.pi / 6, np.pi / 2, **kw))
              for name, kw in conventions.items()}
    best = max(values.values())
    ok = best >= 2.9
    line = report(4, "pt-variant-optimum", ok,
                  ", ".join(f"V3({name})={v:.6f}" for name, v in values.items())
                  + ", want >= 2.9")
    assert ok, line


def test_criterion_05_pair_closed_form_oracle():
    rng = np.random.default_rng(505)
    points = [(rng.uniform(-2 * np.pi / 5, 2 * np.pi / 5), rng.uniform(0.05, np.pi - 0.05))
              for _ in range(20)]
    conventions = {"pre-on": {}, "pre-off": {"pre_evolution": False},
                   "published": {"published": True}}
    deviations = {}
    for name, kw in conventions.items():
        worst = 0.0
        for alpha, t in points:
            preset = pt_standard(alpha, t, **kw)
            for pair in ((1, 2), (2, 3), (1, 3)):
                ctx = MeasurementContext(preset=preset, measured_times=pair)
                c = correlator(distribution(ctx), pair)
                worst = max(worst, abs(c - pair_correlator_reference(alpha, t, pair)))
                total = sum(unnormalized_chain(ctx, (a, b)) for a in PM for b in PM)
                worst = max(worst, abs(total - pair_normalization_reference(alpha, t, pair)))
        deviations[name] = worst
    ok = min(deviations.values()) <= 1e-9
    line = report(5, "pair-closed-form-oracle", ok,
                  "max deviation " + ", ".join(f"{k}={v:.3e}" for k, v in deviations.items())
                  + ", want <= 1e-9 for one convention")
    assert ok, line


def test_criterion_06_identity_suite():
    rng = np.random.default_rng(606)
    worst = {"beta": 0.0, "delta": 0.0, "standard": 0.0, "variant": 0.0,
             "uu": 0.0, "comp": 0.0}
    for _ in range(50):
        alpha = rng.uniform(-1.5, 1.5)
        t = rng.uniform(0.01, np.pi)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        preset = pt_variant(alpha, t, theta, phi) if rng.random() < 0.5 \
            else pt_standard(alpha, t)
        l123, beta = l123_and_beta(preset)
        v123, delta = v123_and_delta(preset)
        worst["beta"] = max(worst["beta"], abs(l123 - (1 - 4 * beta)))
        worst["delta"] = max(worst["delta"], abs(v123 - (1 - 4 * delta)))
        worst["standard"] = max(worst["standard"], decomposition_residual_standard(preset))
        worst["variant"] = max(worst["variant"], decomposition_residual_variant(preset))
        p = PTParams(alpha, t)
        u = propagator(p)
        worst["uu"] = max(worst["uu"], float(np.max(np.abs(
            u @ u.conj().T - uu_dagger_reference(alpha, t)))))
        worst["comp"] = max(worst["comp"],
                            composition_check(p, rng.uniform(0, 2), rng.uniform(0, 2)))
    ok = (worst["beta"] <= 1e-10 and worst["delta"] <= 1e-10
          and worst["standard"] <= 1e-10 and worst["variant"] <= 1e-10
          and worst["uu"] <= 1e-10 and worst["comp"] <= 1e-12)
    line = report(6, "identity-suite", ok,
                  ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert ok, line


def test_criterion_07_aot_dichotomy():
    worst_unitary = 0.0
    for t in np.linspace(0.005, np.pi - 0.005, 256):
        worst_unitary = max(worst_unitary,
                            degree_report(unitary_variant(t, 1.1, 0.7)).max_aot())
    best_pt = max(degree_report(pt_standard(np.pi / 3, t)).max_aot()
                  for t in (0.3, 0.7, 1.2))
    ok = worst_unitary <= 1e-12 and best_pt > 1e-6
    line = report(7, "aot-dichotomy", ok,
                  f"unitary max|R|={worst_unitary:.2e} (<=1e-12), "
                  f"pt alpha=pi/3 max|R|={best_pt:.3e} (>1e-6)")
    assert ok, line


def test_criterion_08_headline_phenomenon():
    # search over (t, theta, phi) near the exceptional point, under the
    # sequential and the published chain, for a point with V1 > 1, every NSIT
    # degree within 1e-8 of zero, and a live AOT degree
    alpha = np.pi / 2.05
    thetas = np.linspace(0.15, np.pi - 0.15, 9)
    phis = np.linspace(0.0, 2 * np.pi, 7)[:-1]
    t_grid = np.concatenate([np.linspace(0.02, np.pi - 0.02, 96),
                             np.pi / 2 + np.linspace(-0.02, 0.02, 24)])
    # the whole (theta, phi, t) grid as one stack per chain, t running fastest
    theta, phi, t = np.array(list(product(thetas, phis, t_grid))).T
    found, details = None, []
    for chain, published in (("sequential", False), ("published", True)):
        tab = table(pt_variant(alpha, t, theta, phi, published=published))
        rep = degree_report(tab)
        v1 = variant_v(1, tab)
        nsit = np.max(np.abs([*rep.d_123.values(), *rep.d_1_2_3.values()]), axis=0)
        live_aot = np.max(np.abs([*rep.r_12_3.values(), *rep.r_1_23.values()]), axis=0) > 1e-6
        # smallest NSIT degree among V1-violating points
        best_d = nsit[(v1 > 1.0) & live_aot].min(initial=np.inf)
        # largest V1 among NSIT-silent points
        best_v1 = v1[(nsit <= 1e-8) & live_aot].max(initial=-np.inf)
        hits = np.flatnonzero((v1 > 1.0) & live_aot & (nsit <= 1e-8))
        if hits.size:
            i = hits[-1]
            found = (chain, t[i], theta[i], phi[i], v1[i])
        details.append(f"{chain}: smallest max|D| among V1-violating points={best_d:.3e}; "
                       f"largest V1 among NSIT-silent points={best_v1:.6f}")
    ok = found is not None
    detail = (f"found ({found[0]} chain) t={found[1]:.5f} theta={found[2]:.4f} "
              f"phi={found[3]:.4f} V1={found[4]:.6f}" if ok else
              f"alpha={alpha:.5f}: " + " | ".join(details))
    line = report(8, "headline-phenomenon", ok, detail)
    assert ok, line


def test_criterion_09_no_signaling_demo():
    worst_zero, worst_pos = 0.0, np.inf
    iff_ok = True
    for alpha in (0.0, np.pi / 6, np.pi / 3, 2 * np.pi / 5, np.pi / 2.05):
        for t in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
            dev = signaling_deviation(PTParams(alpha, t))
            if alpha == 0.0 or abs(np.sin(t)) < 1e-12:
                worst_zero = max(worst_zero, dev)
                iff_ok = iff_ok and dev <= 1e-12
            else:
                worst_pos = min(worst_pos, dev)
                iff_ok = iff_ok and dev > 1e-12
    rng = np.random.default_rng(909)
    worst_entry = 0.0
    for _ in range(20):
        alpha, t = rng.uniform(-1.5, 1.5), rng.uniform(0, np.pi)
        ref = uu_dagger_reference(alpha, t)
        rho = bob_reduced(PTParams(alpha, t)).mat
        worst_entry = max(worst_entry, np.abs(rho - ref / np.trace(ref).real).max())
    ok = iff_ok and worst_entry <= 1e-9
    line = report(9, "no-signaling-demo", ok,
                  f"zero-set max={worst_zero:.2e}, min positive={worst_pos:.3e}, "
                  f"closed-form entry deviation={worst_entry:.2e}")
    assert ok, line


def test_criterion_10_probability_sanity():
    rng = np.random.default_rng(1010)
    worst_sum, worst_range = 0.0, 0.0
    for i in range(100):
        alpha = rng.uniform(-1.5, 1.5)
        t = rng.uniform(0.0, np.pi)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        preset = [pt_standard(alpha, t), pt_variant(alpha, t, theta, phi),
                  unitary_standard(t), unitary_variant(t, theta, phi)][i % 4]
        for times in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]:
            d = distribution(MeasurementContext(preset=preset, measured_times=times))
            worst_sum = max(worst_sum, abs(sum(d.probs.values()) - 1.0))
            for p in d.probs.values():
                worst_range = max(worst_range, -p, p - 1.0)
    ok = worst_sum <= 1e-12 and worst_range <= 1e-12
    line = report(10, "probability-sanity", ok,
                  f"max |sum-1|={worst_sum:.2e}, max out-of-range={worst_range:.2e}")
    assert ok, line
