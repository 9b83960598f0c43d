import math

import numpy as np
import pytest

from eprsim.polarization import (
    AnalyzerChannel,
    Channel,
    Frame,
    Handedness,
    LinearPolarizer,
    NormalizationError,
    QuarterWavePlate,
    apply,
    canonical_axis,
    circular,
    linear,
    phase_insensitive_equals,
    rotation_matrix,
)
from eprsim.reference import RAnalyzer, _pass_probability
from eprsim.twophoton import (
    Arm,
    ChannelOutcome,
    TwoPhotonState,
    arm_local_angle_to_shared,
    chain_transmission,
    circular_entangled,
    joint_probabilities,
    joint_probabilities_sequential,
    linear_entangled,
    measure_arm,
    measure_arm_chain,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def product_state(v1, v2) -> TwoPhotonState:
    return TwoPhotonState(np.outer(v1.amplitudes, v2.amplitudes))


class TestEntangledBuilders:
    def test_linear_entangled_amplitudes(self):
        amps = linear_entangled().amplitudes
        assert np.allclose(amps, [[INV_SQRT2, 0.0], [0.0, INV_SQRT2]])

    def test_circular_entangled_equals_linear_entangled(self):
        # the same state written in two bases; the frame convention makes the
        # four amplitudes literally coincide
        assert circular_entangled().phase_insensitive_equals(linear_entangled(), 1e-12)

    def test_builders_normalized(self):
        assert abs(linear_entangled().norm() - 1.0) < 1e-12
        assert abs(circular_entangled().norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", np.linspace(0.0, math.pi, 9))
    def test_rotational_invariance(self, alpha):
        r = rotation_matrix(alpha).astype(complex)
        rotated = TwoPhotonState(r @ linear_entangled().amplitudes @ r.T)
        assert rotated.phase_insensitive_equals(linear_entangled(), 1e-12)


class TestMeasureArm:
    def test_entangled_marginal_is_half(self):
        for orientation in (0.0, 0.3, 1.2):
            m = measure_arm(linear_entangled(), Arm.ONE, orientation, 0.3)
            assert m.prob_plus == pytest.approx(0.5, abs=1e-12)

    def test_reduction_to_product_state(self):
        a = 0.7
        m = measure_arm(linear_entangled(), Arm.ONE, a, 0.0)
        assert m.outcome is ChannelOutcome.PLUS
        expected = product_state(linear(a), linear(a, Frame.MINUS_Z))
        assert m.state.phase_insensitive_equals(expected, 1e-12)

    def test_minus_outcome_reduces_to_orthogonal_pair(self):
        a = 0.7
        m = measure_arm(linear_entangled(), Arm.ONE, a, 0.9)
        assert m.outcome is ChannelOutcome.MINUS
        perp = a + math.pi / 2
        expected = product_state(linear(perp), linear(perp, Frame.MINUS_Z))
        assert m.state.phase_insensitive_equals(expected, 1e-12)

    def test_eigenstate_passthrough(self):
        state = product_state(linear(0.0), linear(0.0, Frame.MINUS_Z))
        m = measure_arm(state, Arm.ONE, 0.0, 0.999)
        assert m.outcome is ChannelOutcome.PLUS
        assert m.prob_plus == 1.0
        assert m.state.phase_insensitive_equals(state, 1e-12)

    def test_strict_coin_rule_at_zero_probability(self):
        state = product_state(linear(0.0), linear(0.0, Frame.MINUS_Z))
        # orthogonal analyzer: prob snaps to exactly 0, coin 0.0 must not fire
        m = measure_arm(state, Arm.ONE, math.pi / 2, 0.0)
        assert m.prob_plus == 0.0
        assert m.outcome is ChannelOutcome.MINUS

    def test_the_coin_picks_the_named_channel(self):
        # a pair polarized at 0 against an analyzer at 0.4: the perpendicular
        # channel has probability sin²(0.4), and a coin below it picks that channel
        state = product_state(linear(0.0), linear(0.0, Frame.MINUS_Z))
        p_minus = math.sin(0.4) ** 2
        for coin, outcome in ((p_minus - 1e-9, ChannelOutcome.MINUS),
                              (p_minus + 1e-9, ChannelOutcome.PLUS)):
            m = measure_arm(state, Arm.ONE, 0.4, coin, perpendicular=True)
            assert m.outcome is outcome
            assert m.prob_plus == pytest.approx(1.0 - p_minus, abs=1e-12)
            named = linear(0.4, perpendicular=outcome is ChannelOutcome.MINUS)
            expected = product_state(named, linear(0.0, Frame.MINUS_Z))
            assert m.state.phase_insensitive_equals(expected, 1e-12)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(NormalizationError):
            measure_arm(TwoPhotonState(np.eye(2)), Arm.ONE, 0.0, 0.5)

    def test_rejects_bad_coin(self):
        with pytest.raises(ValueError):
            measure_arm(linear_entangled(), Arm.ONE, 0.0, 1.0)


class TestJointProbabilities:
    @pytest.mark.parametrize("theta", [0.0, 0.2, math.pi / 8, math.pi / 4, 1.1])
    def test_closed_form(self, theta):
        jp = joint_probabilities(linear_entangled(), 0.3, 0.3 + theta)
        assert jp.p_pp == pytest.approx(0.5 * math.cos(theta) ** 2, abs=1e-12)
        assert jp.p_mm == pytest.approx(0.5 * math.cos(theta) ** 2, abs=1e-12)
        assert jp.p_pm == pytest.approx(0.5 * math.sin(theta) ** 2, abs=1e-12)
        assert jp.p_mp == pytest.approx(0.5 * math.sin(theta) ** 2, abs=1e-12)

    def test_parallel_settings_perfect_correlation(self):
        jp = joint_probabilities(linear_entangled(), 0.8, 0.8)
        assert jp.as_tuple() == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-12)

    def test_completeness_on_random_states(self, random_states):
        rng = np.random.default_rng(7)
        for state in random_states(50):
            a, b = rng.uniform(0.0, math.pi, size=2)
            assert joint_probabilities(state, a, b).total() == pytest.approx(1.0, abs=1e-12)

    def test_order_invariance_on_random_states(self, random_states):
        rng = np.random.default_rng(8)
        for state in random_states(100):
            a, b = rng.uniform(0.0, math.pi, size=2)
            first = joint_probabilities_sequential(state, a, b, Arm.ONE)
            second = joint_probabilities_sequential(state, a, b, Arm.TWO)
            direct = joint_probabilities(state, a, b)
            for x, y, z in zip(first.as_tuple(), second.as_tuple(), direct.as_tuple()):
                assert x == pytest.approx(y, abs=1e-12)
                assert x == pytest.approx(z, abs=1e-12)

    @pytest.mark.parametrize("shift", np.linspace(0.0, math.pi, 7))
    def test_rotational_covariance(self, shift):
        base = joint_probabilities(linear_entangled(), 0.0, 0.4)
        shifted = joint_probabilities(linear_entangled(), shift, 0.4 + shift)
        for x, y in zip(base.as_tuple(), shifted.as_tuple()):
            assert x == pytest.approx(y, abs=1e-12)

    def test_no_signalling_of_reduction(self, random_states):
        # averaging the arm-2 marginal over arm-1 outcomes reproduces the
        # unconditional arm-2 marginal
        rng = np.random.default_rng(9)
        for state in random_states(25):
            a, b = rng.uniform(0.0, math.pi, size=2)
            jp = joint_probabilities(state, a, b)
            m_plus = measure_arm(state, Arm.ONE, a, 0.0)
            conditional = []
            for coin, weight in ((0.0, m_plus.prob_plus), (0.999999, 1.0 - m_plus.prob_plus)):
                if weight < 1e-15:
                    continue
                m1 = measure_arm(state, Arm.ONE, a, coin)
                m2 = measure_arm(m1.state, Arm.TWO, b, 0.0)
                conditional.append(weight * m2.prob_plus)
            assert sum(conditional) == pytest.approx(jp.p_pp + jp.p_mp, abs=1e-12)


class TestArmChains:
    def test_entangled_state_chain_transmission_is_half(self):
        chain = RAnalyzer().elements(Arm.ONE)
        m = measure_arm_chain(circular_entangled(), Arm.ONE, chain, [0.1])
        assert m.prob_detect == pytest.approx(0.5, abs=1e-12)
        assert m.detected

    @pytest.mark.parametrize("fast_axis", [0.0, 0.37, math.pi / 3])
    def test_chain_statistics_ignore_the_plate_orientation(self, fast_axis):
        # the chain certifies helicity whatever the plate's fast axis is
        chain = RAnalyzer(fast_axis)
        m = measure_arm_chain(circular_entangled(), Arm.ONE, chain.elements(Arm.ONE), [0.1])
        assert m.prob_detect == pytest.approx(0.5, abs=1e-12)
        assert chain_transmission(m.state, Arm.TWO, chain.elements(Arm.TWO)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_detection_collapses_partner_to_matching_helicity(self):
        m = measure_arm_chain(circular_entangled(), Arm.ONE, RAnalyzer().elements(Arm.ONE), [0.1])
        partner = m.state.single_photon_state(Arm.TWO)
        assert phase_insensitive_equals(partner, circular(Handedness.R, Frame.MINUS_Z), 1e-12)
        assert chain_transmission(m.state, Arm.TWO, RAnalyzer().elements(Arm.TWO)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_absorption_collapses_partner_to_opposite_helicity(self):
        m = measure_arm_chain(circular_entangled(), Arm.ONE, RAnalyzer().elements(Arm.ONE), [0.9])
        assert not m.detected
        assert m.absorbed_arm is Arm.ONE
        partner = m.state.single_photon_state(Arm.TWO)
        assert phase_insensitive_equals(partner, circular(Handedness.L, Frame.MINUS_Z), 1e-12)
        assert chain_transmission(m.state, Arm.TWO, RAnalyzer().elements(Arm.TWO)) == 0.0

    def test_matching_helicity_product_state_transmits_surely(self):
        state = product_state(circular(Handedness.R), linear(0.2, Frame.MINUS_Z))
        assert chain_transmission(state, Arm.ONE, RAnalyzer().elements(Arm.ONE)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_opposite_helicity_product_state_is_blocked(self):
        state = product_state(circular(Handedness.L), linear(0.2, Frame.MINUS_Z))
        assert chain_transmission(state, Arm.ONE, RAnalyzer().elements(Arm.ONE)) == 0.0

    def test_arm_two_chain_certifies_its_own_helicity(self):
        state = product_state(linear(0.2), circular(Handedness.R, Frame.MINUS_Z))
        assert chain_transmission(state, Arm.TWO, RAnalyzer().elements(Arm.TWO)) == pytest.approx(
            1.0, abs=1e-12
        )
        state = product_state(linear(0.2), circular(Handedness.L, Frame.MINUS_Z))
        assert chain_transmission(state, Arm.TWO, RAnalyzer().elements(Arm.TWO)) == 0.0

    def test_chain_rejects_two_channel_analyzers(self):
        with pytest.raises(ValueError):
            measure_arm_chain(
                linear_entangled(),
                Arm.ONE,
                [AnalyzerChannel(0.0, Channel.PARALLEL)],
                [0.5],
            )

    def test_chain_requires_enough_coins(self):
        chain = [LinearPolarizer(0.1), LinearPolarizer(0.1)]
        with pytest.raises(ValueError):
            measure_arm_chain(linear_entangled(), Arm.ONE, chain, [0.0])

    def test_prob_detect_multiplies_through_absorption(self):
        # first polarizer passes 1/2; second (orthogonal to the first) blocks
        chain = [LinearPolarizer(0.0), LinearPolarizer(math.pi / 2)]
        m = measure_arm_chain(linear_entangled(), Arm.ONE, chain, [0.0, 0.0])
        assert m.prob_detect == 0.0
        assert not m.detected


def test_arm_local_angle_mapping():
    assert arm_local_angle_to_shared(0.25, Arm.ONE) == 0.25
    assert arm_local_angle_to_shared(0.25, Arm.TWO) == -0.25
    # the arm-2 chain elements live at mirrored shared angles
    plate, polarizer = RAnalyzer(0.1).elements(Arm.TWO)
    assert isinstance(plate, QuarterWavePlate)
    assert plate.fast_axis == pytest.approx(math.pi - 0.1)
    assert polarizer.axis == pytest.approx(math.pi - (0.1 + math.pi / 4))


@pytest.mark.parametrize("angle", [1e20, -1e20, 7.5e17, 1e300])
def test_elements_far_past_two_pi_stand_where_their_angle_names(angle):
    # the fold is by pi, not by the float nearest it, whose error grows with
    # the angle: at 1e20 rad that would be thousands of radians
    for theta in (0.0, 0.3, 1.0, 2.5):
        photon = linear(theta)
        want = _pass_probability(photon, angle)
        assert apply(LinearPolarizer(angle), photon)[0] == pytest.approx(want, abs=1e-12)
        channel = AnalyzerChannel(angle, Channel.PERPENDICULAR)
        want = _pass_probability(photon, angle, perpendicular=True)
        assert apply(channel, photon)[0] == pytest.approx(want, abs=1e-12)


def test_axes_in_range_are_kept_bit_for_bit():
    rng = np.random.default_rng(3)
    for angle in [0.0, 1e-300, 0.3, math.pi / 2, math.nextafter(math.pi, 0.0),
                  *(rng.random(100) * math.pi).tolist()]:
        assert canonical_axis(angle) == angle
