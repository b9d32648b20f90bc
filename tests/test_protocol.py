from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlg import protocol
from ptlg.errors import DegenerateWeightError, DomainError, UsageError
from ptlg.lgexpr import ContextTable, l123_and_beta, v123_and_delta
from ptlg.macrodiag import (decomposition_residual_standard, decomposition_residual_variant,
                            degree_report)
from ptlg.matcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, mixture, projector, weights
from ptlg.nosignal import bob_reduced
from ptlg.protocol import (
    MeasurementContext,
    PTEvolution,
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


def one_time_probability(preset, j):
    """(P(+1), P(-1)) at time j: the branch-state chain of context (j,), normalized."""
    p_plus, p_minus = (unnormalized_chain(ctx(preset, j), (m,)) for m in (+1, -1))
    return p_plus / (p_plus + p_minus), p_minus / (p_plus + p_minus)


class TestInitialState:
    def test_mixed_is_invariant_under_unitary_pre_evolution(self):
        preset = pt_standard(0.0, 0.9)
        np.testing.assert_allclose(initial_state_at_t1(preset).mat, I2 / 2, atol=1e-14)

    def test_nonunitary_pre_evolution_deforms_mixed_state(self):
        rho = initial_state_at_t1(pt_standard(np.pi / 3, 0.7))
        assert abs(weights(rho.mat) - 1.0) < 1e-12
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-12
        assert np.max(np.abs(rho.mat - I2 / 2)) > 1e-3
        for ts in (0.7, (0.0, 0.7, 1.6, 2.9)):  # U (I/2) U^dag is the partner state, U U^dag / tr
            assert np.array_equal(initial_state_at_t1(pt_standard(np.pi / 3, ts)).mat,
                                  bob_reduced(PTParams(np.pi / 3, ts)).mat)

    def test_normalize(self):
        rho = protocol._start(maximally_mixed(), np.sqrt(3.0) * I2)  # weight 3
        assert abs(weights(rho.mat) - 1.0) < 1e-12

    def test_degenerate_weight(self):
        with pytest.raises(DegenerateWeightError):
            protocol._start(maximally_mixed(), np.zeros((2, 2), dtype=complex))
        with pytest.raises(DegenerateWeightError) as stacked:
            protocol._start(maximally_mixed(), np.array([I2, 0 * I2, I2]))
        assert stacked.value.failures == {
            1: "pre-evolution weight 0.000e+00 cannot be renormalized"}

    def test_pure_state_is_rank_one(self):
        theta, phi = 5 * np.pi / 6, np.pi / 2
        rho = initial_state_at_t1(unitary_variant(0.3, theta, phi))
        np.testing.assert_allclose(rho.mat @ rho.mat, rho.mat, atol=1e-12)
        assert abs(weights(rho.mat) - 1.0) < 1e-12
        # basis labeling: <sigma_z> = -cos(2 theta), <sigma_y> = -sin(2 theta) sin(phi)
        assert rho.mat[0, 0].real - rho.mat[1, 1].real == pytest.approx(-np.cos(2 * theta))

    def test_pure_state_sigma_y_expectation(self):
        theta, phi = 0.8, 0.6
        rho = initial_state_at_t1(unitary_variant(0.3, theta, phi))
        assert weights(rho.mat @ SIGMA_Y) == pytest.approx(-np.sin(2 * theta) * np.sin(phi))


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
            want = weights(rho.mat @ (I2 + m * SIGMA_Y) / 2)
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

    def test_steps_scale_the_checked_duration(self, monkeypatch):
        # U(n t) is the propagator of n t, bit for bit, and no step builds PTParams
        alphas, ts = (0.2, 0.9, 1.4), (0.3, 1.1, 2.5)
        preset = pt_variant(alphas, ts, 1.1, 0.4)
        want = [propagator(PTParams(alphas, n * np.array(ts))) for n in range(5)]
        built = []
        original = PTParams.__post_init__
        monkeypatch.setattr(PTParams, "__post_init__",
                            lambda self: built.append(self) or original(self))
        for n in range(5):
            assert np.array_equal(preset.evolution.step(n), want[n])
        assert built == []

    def test_step_multiple_that_overflows_is_a_domain_error(self):
        # each t is finite, but the legs take 2 t (sequential) and up to 4 t (published)
        with pytest.raises(DomainError, match="^duration t must be >= 0, got inf$"):
            distribution(ctx(pt_standard(0.5, 1e308), 1, 2, 3))
        for published in (False, True):
            with pytest.raises(DomainError) as stacked:
                distribution(ctx(pt_standard(0.5, (0.3, 1e308, 7e307), published=published),
                                 1, 2, 3))
            assert stacked.value.failures == {1: "duration t must be >= 0, got inf"}

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
        # step exp(-i n t sigma_x) bit for bit
        for t in np.linspace(0.0, 7.0, 2001):
            for preset in (unitary_standard(t), unitary_variant(t, 1.1, 0.4)):
                for n in (1, 2, 3):
                    want = np.cos(n * t) * I2 - 1j * np.sin(n * t) * SIGMA_X
                    assert np.array_equal(preset.evolution.step(n), want), (t, n)

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
                                 evolution=PTEvolution(PTParams((0.0, 0.3, -0.0, -1.2), 0.7)))
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
