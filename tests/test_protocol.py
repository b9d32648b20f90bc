from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptlg import protocol
from ptlg.closedform import (pair_correlator_reference, pair_normalization_reference,
                             pair_numerator_reference)
from ptlg.errors import DegenerateWeightError, DomainError, UsageError
from ptlg.lgexpr import ContextTable, l123_and_beta, v123_and_delta
from ptlg.macrodiag import (decomposition_residual_standard, decomposition_residual_variant,
                            degree_report)
from ptlg.matcore import (DICHOTOMY_TOL, I2, SIGMA_X, SIGMA_Y, SIGMA_Z, QubitDensity, as_cmat,
                          mixture, projector, raise_where, weights)
from ptlg.nosignal import bob_reduced
from ptlg.protocol import (
    MeasurementContext,
    ScenarioPreset,
    StackedPreset,
    distribution,
    initial_state_at_t1,
    maximally_mixed,
    pt_standard,
    pt_variant,
    pure_state,
    unitary_standard,
    unitary_variant,
    unnormalized_chain,
)
from ptlg.ptdyn import PTParams, propagator

ALL_CONTEXTS = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]


def ctx(preset, *times):
    return MeasurementContext(preset=preset, measured_times=times)


def walk(context, outcomes):
    """p~ of one outcome tuple by a branch walk of its own along the oracle's legs."""
    times, obs = context.measured_times, context.preset.observable
    start, *legs = context.preset.chain
    rho = start
    for u, m in zip([legs[times[0] - 1]] + [legs[b - a - 3] for a, b in zip(times, times[1:])],
                    outcomes):
        rho = u @ rho @ u.conj().swapaxes(-1, -2)
        pi = projector(obs, m)
        rho = pi @ rho @ pi
    return np.maximum(weights(rho), 0.0)


@st.composite
def chain_starts(draw):
    """A PT preset with |alpha| <= pi/2 - 1e-8, mixed or pure, on the sequential chain with
    pre-evolution on or off or on the published chain."""
    alpha = draw(st.floats(0.0, np.pi / 2 - 1e-8)) * draw(st.sampled_from((1, -1)))
    t = draw(st.floats(0.0, np.pi))
    pre_evolution, published = draw(st.sampled_from(((True, False), (False, False), (True, True))))
    if draw(st.booleans()):
        return pt_standard(alpha, t, pre_evolution, published)
    return pt_variant(alpha, t, draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2 * np.pi)),
                      pre_evolution, published)


def one_time_probability(preset, j):
    """(P(+1), P(-1)) at time j: the branch-state chain of context (j,), normalized."""
    p_plus, p_minus = (unnormalized_chain(ctx(preset, j), (m,)) for m in (+1, -1))
    return p_plus / (p_plus + p_minus), p_minus / (p_plus + p_minus)


class TestInitialState:
    def test_mixed_is_invariant_under_unitary_pre_evolution(self):
        preset = pt_standard(0.0, 0.9)
        np.testing.assert_allclose(initial_state_at_t1(preset), I2 / 2, atol=1e-14)

    def test_nonunitary_pre_evolution_deforms_mixed_state(self):
        rho = initial_state_at_t1(pt_standard(np.pi / 3, 0.7))
        assert abs(weights(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.max(np.abs(rho - I2 / 2)) > 1e-3
        for ts in (0.7, (0.0, 0.7, 1.6, 2.9)):  # U (I/2) U^dag is the partner state, U U^dag / tr
            assert np.array_equal(initial_state_at_t1(pt_standard(np.pi / 3, ts)),
                                  bob_reduced(PTParams(np.pi / 3, ts)))

    def test_normalize(self):
        rho = protocol._start(maximally_mixed(), np.sqrt(3.0) * I2)  # weight 3
        assert abs(weights(rho) - 1.0) < 1e-12

    def test_degenerate_weight(self):
        with pytest.raises(DegenerateWeightError):
            protocol._start(maximally_mixed(), np.zeros((2, 2), dtype=complex))
        with pytest.raises(DegenerateWeightError) as stacked:
            protocol._start(maximally_mixed(), np.array([I2, 0 * I2, I2]))
        assert stacked.value.failures == {
            1: "pre-evolution weight 0.000e+00 cannot be renormalized"}

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(preset=chain_starts())
    @example(preset=pt_variant(1.488, 1.2912, 2.3701, 3 * np.pi / 2))
    @example(preset=pt_variant(1.488, 1.2912, 2.3701, 3 * np.pi / 2, published=True))
    @example(preset=pt_variant(np.pi / 2 - 1e-7, 1.2912, 2.3701, 3 * np.pi / 2))
    @example(preset=pt_standard(np.pi / 2 - 1e-7, 1.2912))
    def test_every_start_passes_the_density_checks(self, preset):
        # a start is a plain array, unchecked but for its weight; wrapped, it is Hermitian and
        # PSD within the density tolerances wherever its weight can be renormalized
        try:
            start = preset.start
        except DegenerateWeightError:
            return
        assert type(start) is np.ndarray and start.shape == (2, 2)
        QubitDensity(start)

    def test_pure_state_is_rank_one(self):
        theta, phi = 5 * np.pi / 6, np.pi / 2
        rho = initial_state_at_t1(unitary_variant(0.3, theta, phi))
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
        assert abs(weights(rho) - 1.0) < 1e-12
        # basis labeling: <sigma_z> = -cos(2 theta), <sigma_y> = -sin(2 theta) sin(phi)
        assert rho[0, 0].real - rho[1, 1].real == pytest.approx(-np.cos(2 * theta))

    def test_pure_state_sigma_y_expectation(self):
        theta, phi = 0.8, 0.6
        rho = initial_state_at_t1(unitary_variant(0.3, theta, phi))
        assert weights(rho @ SIGMA_Y) == pytest.approx(-np.sin(2 * theta) * np.sin(phi))


class TestChains:
    def test_unitary_chain_sums_to_one_unnormalized(self):
        preset = unitary_variant(0.7, 1.1, 0.4)
        total = sum(unnormalized_chain(ctx(preset, 1, 2, 3), (a, b, c))
                    for a in (1, -1) for b in (1, -1) for c in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_time_chain_is_born_rule(self):
        preset = pt_standard(np.pi / 3, 0.7)
        rho = initial_state_at_t1(preset)
        for m in (+1, -1):
            want = weights(rho @ (I2 + m * SIGMA_Y) / 2)
            assert unnormalized_chain(ctx(preset, 1), (m,)) == pytest.approx(want, abs=1e-12)
            assert unnormalized_chain(ctx(preset, 1), (m,)) >= 0

    @pytest.mark.parametrize("preset", (lambda t: pt_standard(1.2, t),
                                        lambda t: pt_variant(1.2, t, 1.1, 0.4, published=True),
                                        lambda t: unitary_variant(t, 1.1, 0.4)))
    def test_t_stack_equals_points_alone(self, preset):
        ts = (0.0, 0.3, 0.7, 1.2, 2.9)
        for times in ALL_CONTEXTS:
            for oc in product((+1, -1), repeat=len(times)):
                stacked = unnormalized_chain(ctx(preset(ts), *times), oc)
                assert stacked.tolist() == [unnormalized_chain(ctx(preset(t), *times), oc)
                                            for t in ts]

    @pytest.mark.parametrize("points", (None, 13))
    def test_rows_are_the_per_tuple_walks(self, points):
        # one walk of a context's branch tree keeps the bits of one walk per outcome tuple, on
        # either chain, sigma_y and sigma_z, mixed and pure, in `OutcomeDistribution.rows` order
        rng = np.random.default_rng(35)
        alpha, t, theta, phi = (rng.uniform(lo, hi, points) for lo, hi in
                                ((-1.2, 1.2), (0.05, 3.0), (0.0, np.pi), (0.0, 2 * np.pi)))
        for preset in (pt_standard(alpha, t), pt_variant(alpha, t, theta, phi),
                       pt_variant(alpha, t, theta, phi, pre_evolution=False),
                       pt_standard(alpha, t, published=True),
                       pt_variant(alpha, t, theta, phi, published=True),
                       unitary_standard(t), unitary_variant(t, theta, phi)):
            for times in ALL_CONTEXTS:
                c, tuples = ctx(preset, *times), list(product((+1, -1), repeat=len(times)))
                rows = protocol.unnormalized_rows(c)
                assert rows.shape == (2 ** len(times),) + np.shape(t)
                assert rows.tobytes() == np.array([walk(c, oc) for oc in tuples]).tobytes()
                assert [np.asarray(unnormalized_chain(c, oc)).tobytes() for oc in tuples] == [
                    row.tobytes() for row in rows]
                d = distribution(c)
                assert np.array_equal([d[oc] for oc in tuples], d.rows)
                np.testing.assert_allclose(rows / sum(rows), d.rows, rtol=1e-9, atol=1e-12)

    def test_steps_scale_the_checked_duration(self, monkeypatch):
        # each leg U(n t) of the oracle's chain is the propagator of n t, bit for bit: U(t) is
        # the preset's `u`, and only the checked PTParams of n t >= 2 t are built, at the same
        # angles; the published gaps are U((n + 1) t) U(t)^dagger
        alphas, ts = (0.2, 0.9, 1.4), (0.3, 1.1, 2.5)
        sequential, published = (pt_variant(alphas, ts, 1.1, 0.4, published=chain)
                                 for chain in (False, True))
        params = [PTParams(alphas, n * np.array(ts)) for n in range(5)]
        want = [propagator(p) for p in params]
        built = []
        original = PTParams.__post_init__
        monkeypatch.setattr(PTParams, "__post_init__",
                            lambda self: built.append(self) or original(self))
        _, _, u, u2 = sequential.chain
        assert u is sequential.u and np.array_equal(u, want[1]) and np.array_equal(u2, want[2])
        _, *legs = published.chain
        assert [leg.tobytes() for leg in legs] == [want[n].tobytes() for n in (2, 3, 4)] + [
            (want[n + 1] @ want[1].conj().swapaxes(-1, -2)).tobytes() for n in (1, 2)]
        assert np.array_equal(published.u, want[1])
        assert built == [params[n] for n in (2, 2, 3, 4)]

    def test_step_multiple_that_overflows_is_a_domain_error(self):
        # each t is finite, but the legs take 2 t (sequential) and up to 4 t (published)
        with pytest.raises(DomainError, match="^duration t must be >= 0, got inf$"):
            distribution(ctx(pt_standard(0.5, 1e308), 1, 2, 3))
        for published in (False, True):
            with pytest.raises(DomainError) as stacked:
                distribution(ctx(pt_standard(0.5, (0.3, 1e308, 7e307), published=published),
                                 1, 2, 3))
            assert stacked.value.failures == {1: "duration t must be >= 0, got inf"}

    def test_published_chain_needs_pre_evolution(self):
        # the preset holds the rule, so a hand-built or replaced preset keeps it too
        message = "^the published chain fixes its own start; it needs pre_evolution=True$"
        base = pt_standard(0.5, 0.7)
        for build in (lambda: pt_standard(0.5, 0.7, pre_evolution=False, published=True),
                      lambda: pt_variant(0.5, 0.7, 1.1, 0.4, pre_evolution=False, published=True),
                      lambda: ScenarioPreset(label="CUSTOM", initial_state=base.initial_state,
                                             observable=SIGMA_Y, evolution=base.evolution,
                                             pre_evolution=False, published=True),
                      lambda: replace(pt_standard(0.5, 0.7, published=True), pre_evolution=False)):
            with pytest.raises(UsageError, match=message):
                build()
        custom = ScenarioPreset(label="CUSTOM", initial_state=base.initial_state,
                                observable=SIGMA_Y, evolution=base.evolution,
                                pre_evolution=True, published=True)
        for got, want in zip(custom.transfer, pt_standard(0.5, 0.7, published=True).transfer):
            assert np.array_equal(got, want)

    def test_chain_outcome_length_checked(self):
        preset = unitary_standard(0.5)
        with pytest.raises(UsageError):
            unnormalized_chain(ctx(preset, 1, 2), (1,))

    def test_distribution_matches_reference_chains(self):
        preset = pt_variant(2 * np.pi / 5, 0.9, 0.7, 1.3)
        for times in ALL_CONTEXTS:
            d = distribution(ctx(preset, *times))
            raw = {oc: unnormalized_chain(ctx(preset, *times), oc)
                   for oc in product((+1, -1), repeat=len(times))}
            total = sum(raw.values())
            for oc in raw:
                assert d[oc] == pytest.approx(raw[oc] / total, abs=1e-13)


class TestDistributions:
    def test_full_context_normalized(self):
        d = distribution(ctx(unitary_standard(np.pi / 6), 1, 2, 3))
        assert d.probs.shape == (2, 2, 2)
        assert sum(d.rows) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= -1e-12 for p in d.rows)

    def test_hermitian_limit_marginals_are_half(self):
        d = distribution(ctx(pt_standard(0.0, 0.8), 1, 2))
        assert d.marginal((1,)) == pytest.approx(np.array([0.5, 0.5]), abs=1e-12)

    def test_future_marginal_mismatch_under_nonunitary_steps(self):
        preset = pt_standard(np.pi / 3, 0.7)
        d12 = distribution(ctx(preset, 1, 2))
        d1 = distribution(ctx(preset, 1))
        gap = np.abs(d12.marginal((1,)) - d1.probs).max()
        assert gap > 1e-6

    def test_unitary_future_marginals_exact(self):
        # summing a unitary context over its LATER outcomes reproduces the
        # prefix context exactly; earlier-outcome marginals need not match
        # (that mismatch is the measurement-disturbance effect).
        pairs = [((1,), (1, 2)), ((1,), (1, 3)), ((1,), (1, 2, 3)),
                 ((1, 2), (1, 2, 3)), ((2,), (2, 3))]
        rng = np.random.default_rng(31)
        for _ in range(10):
            preset = unitary_variant(rng.uniform(0.1, 3.0), rng.uniform(0, np.pi),
                                     rng.uniform(0, 2 * np.pi))
            for prefix, fine in pairs:
                coarse = distribution(ctx(preset, *prefix))
                marg = distribution(ctx(preset, *fine)).marginal(prefix)
                assert coarse.probs == pytest.approx(marg, abs=1e-12)

    def test_unitary_presets_step_is_the_sigma_x_rotation(self):
        # the unitary presets take the alpha = 0 PT step, which is the Schroedinger
        # step exp(-i n t sigma_x) bit for bit: U(t) and U(2 t) as the preset and its
        # chain hold them, U(3 t) as the propagator of 3 t
        for t in np.linspace(0.0, 7.0, 2001):
            for preset in (unitary_standard(t), unitary_variant(t, 1.1, 0.4)):
                _, _, u, u2 = preset.chain
                assert u is preset.u
                for n, got in ((1, u), (2, u2), (3, propagator(PTParams(0.0, 3 * t)))):
                    want = np.cos(n * t) * I2 - 1j * np.sin(n * t) * SIGMA_X
                    assert np.array_equal(got, want), (t, n)

    def test_observable_needs_rank_one_projectors(self):
        # +-I is dichotomic, but its projectors are I and 0: no transfer form; the
        # propagator is real only in the basis of sigma_y, or of sigma_z at alpha = 0,
        # so sigma_x, and sigma_z at alpha != 0, are refused as well
        unitary, pt = unitary_standard(0.5), pt_standard(0.5, 0.7)
        refused = [(unitary, obs, "eigenvalues") for obs in (I2, -I2)] + [
            (unitary, SIGMA_X, "sigma_y"), (pt, -SIGMA_X, "sigma_y"),
            (pt, SIGMA_Z, "alpha = 0, got 0.5"), (pt, -SIGMA_Z, "alpha = 0, got 0.5")]
        for base, obs, message in refused:
            preset = ScenarioPreset(label="CUSTOM", initial_state=base.initial_state,
                                    observable=obs, evolution=base.evolution,
                                    pre_evolution=base.pre_evolution)
            for times in ((1, 2), (3,)):  # raised at each read, not when the preset is built
                with pytest.raises(DomainError, match=message):
                    distribution(ctx(preset, *times))
        stacked = ScenarioPreset(label="CUSTOM", initial_state=pt.initial_state,
                                 observable=SIGMA_Z, pre_evolution=False,
                                 evolution=PTParams((0.0, 0.3, -0.0, -1.2), 0.7))
        with pytest.raises(DomainError) as error:
            distribution(ctx(stacked, 1))
        assert set(error.value.failures) == {1, 3}

    def test_probabilities_in_range_random(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            preset = pt_variant(rng.uniform(-1.5, 1.5), rng.uniform(0, np.pi),
                                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            for times in ALL_CONTEXTS:
                d = distribution(ctx(preset, *times))
                assert sum(d.rows) == pytest.approx(1.0, abs=1e-12)
                for p in d.rows:
                    assert -1e-12 <= p <= 1.0 + 1e-12


class TestStackedTransfer:
    """Each probability of a t-stack equals that point evaluated alone, bit for bit."""

    @pytest.mark.parametrize("preset", [
        pytest.param(lambda t: pt_standard(1.2, t), id="pt_standard-sequential"),
        pytest.param(lambda t: pt_standard(1.2, t, pre_evolution=False),
                     id="pt_standard-sequential-no-pre-evolution"),
        pytest.param(lambda t: pt_standard(1.2, t, published=True), id="pt_standard-published"),
        pytest.param(lambda t: pt_variant(1.45, t, 1.1, 0.4), id="pt_variant-sequential"),
        pytest.param(lambda t: pt_variant(1.45, t, 1.1, 0.4, pre_evolution=False),
                     id="pt_variant-sequential-no-pre-evolution"),
        pytest.param(lambda t: pt_variant(1.45, t, 1.1, 0.4, published=True),
                     id="pt_variant-published"),
        pytest.param(unitary_standard, id="unitary_standard"),
        pytest.param(lambda t: unitary_variant(t, 1.1, 0.4), id="unitary_variant"),
    ])
    def test_t_stack_equals_points_alone(self, preset):
        ts = tuple(np.linspace(0.0, 3.0, 13).tolist())
        stacked, alone = ContextTable(preset(ts)), [ContextTable(preset(t)) for t in ts]

        def same(f, what):  # a stack entry equals its point alone, which is a float
            values = [f(tab) for tab in alone]
            assert all(type(v) is float for v in values), what
            assert f(stacked).tolist() == values, what

        for times in ALL_CONTEXTS:
            assert stacked[times].probs.shape == (2,) * len(times) + (len(ts),)
            for oc in product((+1, -1), repeat=len(times)):
                same(lambda tab: tab[times][oc], (times, oc))
            same(lambda tab: tab.correlator(*times), ("correlator", times))
        for f in (l123_and_beta, v123_and_delta):
            for i in (0, 1):
                same(lambda tab: f(tab)[i], (f.__name__, i))
        reports = degree_report(stacked), [degree_report(tab) for tab in alone]
        for name in ("d_123", "d_1_2_3", "r_12_3", "r_1_23"):
            table = getattr(reports[0], name)
            assert np.moveaxis(table, -1, 0).tolist() == [
                getattr(rep, name).tolist() for rep in reports[1]], name
        same(lambda tab: degree_report(tab).max_nsit(), "max_nsit")
        same(lambda tab: degree_report(tab).max_aot(), "max_aot")
        same(decomposition_residual_standard, "decomposition_residual_standard")
        same(decomposition_residual_variant, "decomposition_residual_variant")


class TestStackedPreset:
    """A stack of preset families is each family's own stack, slice by slice."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_family_slices_are_their_own_tables(self, n, seed):
        rng = np.random.default_rng(seed)
        alphas, ts = rng.uniform(-1.4, 1.4, n), rng.uniform(0.0, np.pi, n)
        thetas, phis = rng.uniform(0.0, np.pi, n), rng.uniform(0.0, 2 * np.pi, n)
        families = (pt_standard(alphas, ts), pt_variant(alphas, ts, thetas, phis),
                    unitary_standard(ts), unitary_variant(ts, thetas, phis))
        stack = StackedPreset(*families)
        # the attributes a tracer keys each distribution call by
        hash((stack.label, stack.initial_state, stack.evolution, stack.pre_evolution))
        stacked = ContextTable(stack)
        for i, family in enumerate(families):
            alone = ContextTable(family)
            for times in ALL_CONTEXTS:
                got, want = stacked[times].probs[..., i * n:(i + 1) * n], alone[times].probs
                assert np.array_equal(got, want), (i, times)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (i, times)


    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(alphas=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1.5, 1.5), min_size=1,
                           max_size=64),
           seed=st.integers(0, 2**32 - 1), pre=st.tuples(st.booleans(), st.booleans()),
           published=st.booleans())
    def test_one_chain_tables_call_is_each_members_transfer(self, alphas, seed, pre, published):
        # PT members with pre-evolution on or off, mixed and pure, one with the negated
        # observable, beside the unitary families on the sequential chain, or the published
        # PT members alone; every slice of the one call is that member's own `transfer`
        alphas, rng = np.array(alphas), np.random.default_rng(seed)
        n = len(alphas)
        ts, thetas, phis = (rng.uniform(0.0, hi, n) for hi in (np.pi, np.pi, 2 * np.pi))
        chain = {"published": True} if published else {}
        on = (True, True) if published else pre
        pts = (pt_standard(alphas, ts, on[0], **chain),  # each member with its own r
               pt_variant(alphas[::-1], ts, thetas, phis, on[1], **chain),
               replace(pt_variant(-alphas, ts, thetas, phis, on[0], **chain), observable=-SIGMA_Y))
        families = pts if published else pts + (unitary_standard(ts),
                                                unitary_variant(ts, thetas, phis))
        calls = []
        original = protocol.chain_tables
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "chain_tables", lambda *a: calls.append(a) or original(*a))
            stack = StackedPreset(*families)
        assert len(calls) == 1
        for i, family in enumerate(families):
            for got, want in zip(stack.transfer, replace(family).transfer):
                got = got[..., i * n:(i + 1) * n]
                assert np.array_equal(got, want), i
                assert np.array_equal(np.signbit(got), np.signbit(want)), i

    def test_members_on_different_chains_are_refused(self):
        ts = (0.3, 1.2)
        with pytest.raises(UsageError, match="published PT_STANDARD=False, PT_VARIANT=True"):
            StackedPreset(pt_standard(0.4, ts), pt_variant(0.4, ts, 0.2, 0.3, published=True))


def compared_basis(observable, alpha):
    """`protocol._measured_basis` as it read before the module observables were recognized by
    identity: every observable by comparison, the reference."""
    m = as_cmat(observable)
    if abs(weights(m)) > DICHOTOMY_TOL:
        raise DomainError("observable needs the eigenvalues +1 and -1")
    for i, flip in ((0, False), (0, True), (1, False), (1, True)):
        if np.max(abs(m - (-1) ** flip * protocol.BASES[i][0])) <= DICHOTOMY_TOL:
            raise_where(i and alpha != 0, alpha, lambda a: DomainError(
                f"sigma_z is measured on the unitary step only, at alpha = 0, got {a!r}"))
            return i, flip
    raise DomainError("observable must be +-sigma_y, or +-sigma_z at alpha = 0")


def basis_or_error(route, observable, alpha):
    try:
        return route(observable, alpha)
    except DomainError as e:
        return type(e), str(e), getattr(e, "failures", None)


class TestMeasuredBasis:
    @pytest.mark.parametrize("observable", (SIGMA_Y, SIGMA_Z, SIGMA_Y.copy(), -SIGMA_Y,
                                            SIGMA_Z.copy(), -SIGMA_Z, SIGMA_X))
    @pytest.mark.parametrize("alpha", (0.0, -0.0, 0.7, np.zeros(3),
                                       np.array([0.0, 0.4, -0.0, -1.2, 0.0])))
    def test_by_identity_as_by_comparison(self, observable, alpha):
        got = basis_or_error(protocol._measured_basis, observable, alpha)
        assert got == basis_or_error(compared_basis, observable, alpha)

    def test_sigma_z_names_each_nonzero_angle_of_a_stack(self):
        got = basis_or_error(protocol._measured_basis, SIGMA_Z, np.array([0.0, 0.4, -0.0, -1.2]))
        message = "sigma_z is measured on the unitary step only, at alpha = 0, got {}"
        assert got == (DomainError, message.format(0.4),
                       {1: message.format(0.4), 3: message.format(-1.2)})

    def test_preset_on_a_copy_of_sigma_y_reads_the_module_objects_transfer(self):
        alphas, ts = np.linspace(-1.4, 1.4, 9), np.linspace(0.0, np.pi, 9)
        module = pt_variant(alphas, ts, 0.4, 1.3)
        copied = replace(module, observable=SIGMA_Y.copy())
        for got, want in zip(copied.transfer, module.transfer):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestOneTimeProbability:
    def test_mixed_state_is_unbiased(self):
        for j in (1, 2, 3):
            p_plus, p_minus = one_time_probability(unitary_standard(0.7), j)
            assert p_plus == pytest.approx(0.5, abs=1e-12)
            assert p_minus == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate_is_deterministic(self):
        # theta = 0 prepares the lower sigma_z eigenstate
        p_plus, p_minus = one_time_probability(unitary_variant(0.4, 0.0, 0.0), 1)
        assert p_plus == pytest.approx(0.0, abs=1e-12)
        assert p_minus == pytest.approx(1.0, abs=1e-12)

    def test_matches_distribution_route(self):
        for preset in (pt_standard(np.pi / 3, 0.7),
                       pt_variant(np.pi / 3, 0.7, 1.1, 0.4, published=True)):
            for j in (1, 2, 3):
                p_plus, p_minus = one_time_probability(preset, j)
                d = distribution(ctx(preset, j))
                assert p_plus == pytest.approx(d[+1], abs=1e-12)
                assert p_minus == pytest.approx(d[-1], abs=1e-12)
                assert 0.0 <= p_plus <= 1.0

    def test_bad_time_index(self):
        with pytest.raises(UsageError):
            ctx(unitary_standard(0.5), 4)


RECORDED_PAIR_CORRELATORS = {
    (1, 2): ["0x1.e31ada0edb4a5p-1", "0x1.7a32677e38ee9p-1", "-0x1.f2648922aeb73p-1",
             "0x1.e45bf0d235402p-1", "0x1.a8492afe7ac8fp-1", "0x1.91b85b63327c0p-1",
             "0x1.376f2621602f3p-2", "0x1.a8fe6226116abp-1", "-0x1.2c3e2e4b5a6c3p-1",
             "0x1.5fdac6a858a94p-1", "-0x1.b089ed883c9eap-1", "-0x1.9dac81a4a2d3fp-1",
             "0x1.20e5804419045p-1", "0x1.d647ec3a85e5ep-1", "0x1.a9a962adc40d8p-1",
             "0x1.7a804d7581f67p-1", "0x1.5e584d5b81ffap-3", "0x1.70f01dece122dp-1",
             "-0x1.b811ba1c830ecp-1", "-0x1.54da25da14e78p-2"],
    (2, 3): ["0x1.b9046699bc66ep-1", "0x1.8732c02b3f815p-1", "-0x1.f1dd21c6b319ap-1",
             "0x1.cb53ddfd0654cp-1", "0x1.625c29d6486d8p-1", "0x1.a04b6afb73f54p-1",
             "0x1.ec1c5210fdc2dp-3", "0x1.cdddac12c5042p-1", "-0x1.2d287695f4f27p-1",
             "0x1.6551ad14ace19p-1", "-0x1.ae619c1759a49p-1", "-0x1.9d94b2c8d14c8p-1",
             "0x1.281189e3cbb6ap-1", "0x1.d6769b09db535p-1", "0x1.bfff412673066p-1",
             "0x1.b3612c5f10e1cp-1", "0x1.6d2a6b854cde8p-4", "0x1.0c33a3d5026f9p-1",
             "-0x1.af0b9af782eadp-1", "-0x1.3e9f04578ecd9p-2"],
    (1, 3): ["-0x1.15f996ad78b0cp-1", "0x1.2587bdb2332cbp-1", "0x1.fe5af2598fe8ap-1",
             "-0x1.eabf1cb1df27ap-1", "-0x1.e12b2bdc379f6p-1", "0x1.35e9e7fbad8a0p-1",
             "-0x1.c3e39e640a9ebp-1", "0x1.03e60812e71e7p-1", "-0x1.334a24e557132p-2",
             "-0x1.59e7c0bcea12bp-3", "0x1.12014eec143e1p-1", "0x1.ffa602248fbe2p-1",
             "-0x1.a9e3b8cd6f97dp-2", "0x1.616a46c219d60p-1", "0x1.c48f8b151cc57p-1",
             "0x1.4122a83a59e14p-1", "-0x1.e9270021428d9p-1", "-0x1.79c0dae026cf1p-1",
             "0x1.ce0ea046aad06p-1", "0x1.984e5d49b2624p-1"],
}


class TestPublishedChain:
    def test_alpha_zero_equals_sequential_for_mixed_state(self):
        for t in (0.3, 0.9, 2.2):
            seq, pub = pt_standard(0.0, t), pt_standard(0.0, t, published=True)
            for times in ALL_CONTEXTS:
                dp = distribution(ctx(pub, *times))
                ds = distribution(ctx(seq, *times))
                assert dp.probs == pytest.approx(ds.probs, abs=1e-12)

    def test_chain_is_the_stated_product(self):
        # bare state, U(2t) into time 1, U(3t) U(t)^dagger across the gap to time 3
        alpha, t = 0.9, 0.6
        preset = pt_variant(alpha, t, 1.1, 0.4, published=True)
        u = {n: propagator(PTParams(alpha, n * t)) for n in (1, 2, 3)}
        for m1 in (+1, -1):
            for m3 in (+1, -1):
                rho = u[2] @ mixture(*preset.initial_state.kets()) @ u[2].conj().T
                p1 = projector(SIGMA_Y, m1)
                rho = p1 @ rho @ p1
                gap = u[3] @ u[1].conj().T
                p3 = projector(SIGMA_Y, m3)
                rho = p3 @ gap @ rho @ gap.conj().T @ p3
                assert unnormalized_chain(ctx(preset, 1, 3), (m1, m3)) == pytest.approx(
                    float(np.trace(rho).real), rel=1e-12)

    def test_differs_from_sequential_off_alpha_zero(self):
        seq, pub = pt_standard(0.9, 0.6), pt_standard(0.9, 0.6, published=True)
        d_seq, d_pub = distribution(ctx(seq, 1, 3)), distribution(ctx(pub, 1, 3))
        assert np.abs(d_seq.probs - d_pub.probs).max() > 1e-3

    def test_requires_pre_evolution(self):
        with pytest.raises(UsageError):
            pt_standard(0.5, 0.7, pre_evolution=False, published=True)
        with pytest.raises(UsageError):
            pt_variant(0.5, 0.7, 1.0, 0.2, pre_evolution=False, published=True)

    def test_pair_forms_know_only_the_three_pairs(self):
        for form in (pair_normalization_reference, pair_numerator_reference):
            with pytest.raises(UsageError, match=r"unknown pair \(1, 1\)"):
                form(0.5, 0.7, (1, 1))

    def test_pair_correlators_keep_their_bits(self):
        # criterion 05's 20 points, recorded when each correlator formed its numerator and its
        # normalization in one function: the numerator over the normalization keeps every bit
        rng = np.random.default_rng(505)
        points = [(rng.uniform(-2 * np.pi / 5, 2 * np.pi / 5), rng.uniform(0.05, np.pi - 0.05))
                  for _ in range(20)]
        for pair, want in RECORDED_PAIR_CORRELATORS.items():
            assert [float(pair_correlator_reference(a, t, pair)).hex() for a, t in points] == want


class TestOneChainPerPreset:
    """The seven contexts of a preset multiply one set of tables, formed on first use."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for name in ("initial_state_at_t1", "projector", "propagator"):
            def counting(*args, _f=getattr(protocol, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _f(*args)
            monkeypatch.setattr(protocol, name, counting)
        return counts

    def test_sequential_chain_is_formed_once(self, calls):
        preset = pt_variant(2 * np.pi / 5, 0.9, 5 * np.pi / 6, np.pi / 2)
        for _ in range(2):  # a second table of the same preset forms nothing new
            tab = ContextTable(preset)
            for times in ALL_CONTEXTS:
                tab[times]
        assert calls.get("initial_state_at_t1") == 1
        assert calls.get("propagator") == 1  # U(t) of the start; the legs are the closed form's
        assert calls.get("projector") is None  # the observable is compared with BASES

    def test_published_chain_is_formed_once(self, calls):
        tab = ContextTable(pt_standard(np.pi / 3, 0.7, published=True))
        for times in ALL_CONTEXTS:
            tab[times]
        assert calls.get("propagator") is None  # the bare start; U~(t) .. U~(4 t) in closed form
        assert calls.get("projector") is None
        assert "initial_state_at_t1" not in calls

    def test_other_observable_is_validated_per_preset(self, calls):
        base = pt_standard(np.pi / 3, 0.7)
        preset = ScenarioPreset(label="CUSTOM", initial_state=base.initial_state,
                                observable=SIGMA_Y.copy(), evolution=base.evolution,
                                pre_evolution=True)
        tab = ContextTable(preset)
        for times in ALL_CONTEXTS:
            tab[times]
        assert calls.get("projector") is None  # a copy of sigma_y is sigma_y by value
        for times in ALL_CONTEXTS:
            assert np.array_equal(tab[times].probs, ContextTable(base)[times].probs)

    def test_degenerate_pre_evolution_raises_at_first_use(self, monkeypatch):
        monkeypatch.setattr(protocol, "propagator", lambda p: np.zeros((2, 2), dtype=complex))
        preset = pt_standard(0.5, 0.7)
        for _ in range(2):  # a failed chain is not cached
            with pytest.raises(DegenerateWeightError, match="pre-evolution"):
                distribution(ctx(preset, 2))


class TestStackFormat:
    """A stacked parameter is held as a read-only array copied from the caller's
    tuple, list or array; presets compare and hash by value."""

    @pytest.mark.parametrize("published", (False, True))
    def test_tuple_list_and_array_give_the_same_bits(self, published):
        rng = np.random.default_rng(31)
        params = (rng.uniform(-1.5, 1.5, 9), rng.uniform(0.0, np.pi, 9),
                  rng.uniform(0.0, np.pi, 9), rng.uniform(0.0, 2 * np.pi, 9))
        for build in (lambda a, t, th, ph: pt_variant(a, t, th, ph, published=published),
                      lambda a, t, th, ph: pt_standard(0.7, t, published=published),
                      lambda a, t, th, ph: unitary_variant(t, th, ph)):
            first, *others = [build(*(form(x.tolist()) for x in params))
                              for form in (tuple, list, np.array)]
            for other in others:
                for got, want in zip(other.transfer, first.transfer):
                    assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                        np.signbit(want))
                for times in ALL_CONTEXTS:
                    got, want = distribution(ctx(other, *times)), distribution(ctx(first, *times))
                    assert np.array_equal(got.probs, want.probs)

    def test_mutating_the_callers_array_changes_nothing(self):
        given = [np.array([0.2, -0.9, 1.4]), np.array([0.3, 1.1, 2.5]),
                 np.array([0.4, 1.0, 2.0]), np.array([0.1, 3.0, 5.0])]
        want = [x.copy() for x in given]
        preset = pt_variant(*given)
        for x in given:
            x += 0.125
        p, s = preset.evolution, preset.initial_state
        for held, w in zip((p.alpha, p.t, s.theta, s.phi), want):
            assert np.array_equal(held, w) and not held.flags.writeable
            with pytest.raises(ValueError):
                held[1] = 0.0
        for got, w in zip(preset.transfer, pt_variant(*want).transfer):
            assert np.array_equal(got, w)

    def test_equal_states_compare_and_hash_equal(self):
        a, b = pure_state((0.4, 1.0, 2.0), 0.5), pure_state(np.array([0.4, 1.0, 2.0]), 0.5)
        assert a == b and hash(a) == hash(b)
        for c in (pure_state((0.4, np.nextafter(1.0, 2.0), 2.0), 0.5),
                  pure_state((0.4, 1.0, 2.0), 0.25)):
            assert a != c and hash(a) != hash(c)
        assert maximally_mixed() == maximally_mixed() != pure_state(0.0, 0.0)
        # the key a tracer counts distinct contexts by
        keys = {(q.label, q.initial_state, q.evolution, q.pre_evolution)
                for q in (pt_variant(0.3, (0.5, 0.6), (0.4, 1.0), 0.5),
                          pt_variant(0.3, [0.5, 0.6], np.array([0.4, 1.0]), 0.5),
                          pt_variant(0.3, (0.5, 0.6), (0.4, 1.5), 0.5))}
        assert len(keys) == 2


class TestContextValidation:
    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            MeasurementContext(preset=unitary_standard(0.5), measured_times=())

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(UsageError):
            MeasurementContext(preset=unitary_standard(0.5), measured_times=(2, 1))
        with pytest.raises(UsageError):
            MeasurementContext(preset=unitary_standard(0.5), measured_times=(1, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(UsageError):
            MeasurementContext(preset=unitary_standard(0.5), measured_times=(0, 1))

    def test_rejects_unaligned_stacks(self):
        with pytest.raises(UsageError, match="aligned"):
            pt_variant(0.5, (0.1, 0.2, 0.3), (1.0, 2.0), 0.0)
        with pytest.raises(UsageError, match="aligned"):
            unitary_variant((0.1, 0.2), 1.0, (0.5, 0.6, 0.7))

    def test_marginal_requires_measured_times(self):
        d = distribution(ctx(unitary_standard(0.5), 1, 2))
        with pytest.raises(UsageError):
            d.marginal((3,))

    def test_outcome_tuple_reads_its_entry(self):
        d = distribution(ctx(pt_variant(0.9, 0.6, 1.1, 0.4), 1, 2, 3))
        for oc in product((+1, -1), repeat=3):
            assert d[oc] == d.probs[tuple((1 - m) // 2 for m in oc)]
            assert type(d[oc]) is float
        assert d[+1, -1, +1] == d.probs[0, 1, 0] == d.rows[2]
        for bad in ((+1, -1), (+1, 0, -1), (+1, -1, +1, +1)):
            with pytest.raises(UsageError):
                d[bad]

    def test_marginal_sums_in_outcome_order(self):
        d = distribution(ctx(pt_standard(1.2, (0.3, 0.8, 2.1)), 1, 2, 3))
        p = d.probs
        assert np.array_equal(d.marginal((2, 3)), 0.0 + p[0] + p[1])
        assert np.array_equal(d.marginal((1, 3)), 0.0 + p[:, 0] + p[:, 1])
        assert np.array_equal(d.marginal((3, 1)), (0.0 + p[:, 0] + p[:, 1]).swapaxes(0, 1))
        assert np.array_equal(d.marginal((1,)),
                              0.0 + p[:, 0, 0] + p[:, 0, 1] + p[:, 1, 0] + p[:, 1, 1])


def test_pure_state_needs_finite_angles():
    for theta, phi in ((np.nan, 0.4), (1.1, np.inf)):
        with pytest.raises(DomainError, match="must be finite"):
            pure_state(theta, phi)
    with pytest.raises(DomainError) as stacked:
        pure_state((0.3, np.nan, 1.1, -np.inf), (0.2, 0.4, np.inf, 0.9))
    assert stacked.value.failures == {1: "theta must be finite, got nan",
                                      3: "theta must be finite, got -inf"}
    with pytest.raises(DomainError) as stacked:
        pure_state((0.3, 0.7), (0.2, np.nan))
    assert stacked.value.failures == {1: "phi must be finite, got nan"}


def test_pure_state_norm():
    rng = np.random.default_rng(33)
    for _ in range(10):
        st = pure_state(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert weights(mixture(*st.kets())) == pytest.approx(1.0, abs=1e-12)
