import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprsim.polarization import (
    ABSORBED,
    AnalyzerChannel,
    Channel,
    Frame,
    Handedness,
    JonesVector,
    LinearPolarizer,
    NormalizationError,
    QuarterWavePlate,
    apply,
    canonical_axis,
    circular,
    jones_matrix,
    linear,
    phase_insensitive_equals,
)
from eprsim.twophoton import TwoPhotonState

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_linear_basis_states():
    assert np.allclose(linear(0.0).amplitudes, [1.0, 0.0])
    assert np.allclose(linear(math.pi / 2).amplitudes, [0.0, 1.0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(linear(math.pi / 4).amplitudes, [s, s])


def test_circular_conventions():
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(circular(Handedness.R).amplitudes, [s, -1j * s])
    assert np.allclose(circular(Handedness.L).amplitudes, [s, 1j * s])
    # counter-propagating photon: imaginary parts swap sign
    assert np.allclose(circular(Handedness.R, Frame.MINUS_Z).amplitudes, [s, 1j * s])
    assert np.allclose(circular(Handedness.L, Frame.MINUS_Z).amplitudes, [s, -1j * s])


def test_circular_states_are_orthogonal():
    for frame in Frame:
        r = circular(Handedness.R, frame)
        l = circular(Handedness.L, frame)
        assert abs(r.overlap(l)) < 1e-12


@given(theta=angles)
def test_linear_is_normalized(theta):
    assert abs(linear(theta).norm() - 1.0) < 1e-12


@given(alpha=angles, delta=angles)
def test_malus_law(alpha, delta):
    prob, _ = apply(LinearPolarizer(alpha), linear(alpha + delta))
    assert prob == pytest.approx(math.cos(delta) ** 2, abs=1e-12)


def test_malus_aligned_and_crossed():
    prob, out = apply(LinearPolarizer(0.0), linear(0.0))
    assert prob == 1.0
    assert phase_insensitive_equals(out, linear(0.0))
    prob, out = apply(LinearPolarizer(math.pi / 2), linear(0.0))
    assert prob == 0.0
    assert out is ABSORBED


def test_polarizer_post_state_lies_along_its_axis():
    prob, out = apply(LinearPolarizer(0.4), linear(0.0))
    assert prob == pytest.approx(math.cos(0.4) ** 2, abs=1e-12)
    assert phase_insensitive_equals(out, linear(0.4))


@given(alpha=angles, theta=angles)
def test_projector_idempotence(alpha, theta):
    polarizer = LinearPolarizer(alpha)
    prob, out = apply(polarizer, linear(theta))
    if out is ABSORBED:
        return
    prob2, out2 = apply(polarizer, out)
    assert prob2 == pytest.approx(1.0, abs=1e-12)


@given(alpha=angles, theta=angles, phase=angles)
def test_channel_completeness(alpha, theta, phase):
    state = JonesVector(linear(theta).amplitudes * np.exp(1j * phase))
    p_par, _ = apply(AnalyzerChannel(alpha, Channel.PARALLEL), state)
    p_perp, _ = apply(AnalyzerChannel(alpha, Channel.PERPENDICULAR), state)
    assert p_par + p_perp == pytest.approx(1.0, abs=1e-12)


def test_channel_completeness_circular():
    for handedness in Handedness:
        state = circular(handedness)
        p_par, _ = apply(AnalyzerChannel(0.7, Channel.PARALLEL), state)
        p_perp, _ = apply(AnalyzerChannel(0.7, Channel.PERPENDICULAR), state)
        assert p_par + p_perp == pytest.approx(1.0, abs=1e-12)
        assert p_par == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("phi", np.linspace(0.0, math.pi, 13)[:-1])
def test_qwp_convention_lock(phi):
    plate = QuarterWavePlate(phi)
    _, out_r = apply(plate, circular(Handedness.R))
    _, out_l = apply(plate, circular(Handedness.L))
    assert phase_insensitive_equals(out_r, linear(phi + math.pi / 4))
    assert phase_insensitive_equals(out_l, linear(phi - math.pi / 4))


def test_qwp_is_unitary_and_projectors_idempotent():
    m = jones_matrix(QuarterWavePlate(0.3))
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
    for element in (LinearPolarizer(1.1), AnalyzerChannel(0.4, Channel.PERPENDICULAR)):
        p = jones_matrix(element)
        assert np.allclose(p @ p, p, atol=1e-12)


def test_linear_polarizer_matrix_on_x_axis():
    assert np.allclose(jones_matrix(LinearPolarizer(0.0)), [[1, 0], [0, 0]])


@given(phase=angles)
def test_phase_insensitive_equality(phase):
    u = linear(0.3)
    v = JonesVector(u.amplitudes * np.exp(1j * phase))
    assert phase_insensitive_equals(u, v)


def test_phase_insensitive_inequalities():
    assert not phase_insensitive_equals(linear(0.0), linear(math.pi / 2))
    # |<R|45deg>| = 1/sqrt(2), well below equality
    assert not phase_insensitive_equals(circular(Handedness.R), linear(math.pi / 4))


def test_the_state_algebra_takes_no_tolerance():
    # NORM_ACCEPT_TOL and ALGEBRA_TOL are the module's constants, not keywords
    with pytest.raises(TypeError):
        linear(0.0).require_normalized(tol=1e-3)
    with pytest.raises(TypeError):
        phase_insensitive_equals(linear(0.0), linear(0.0), 1e-12)


def test_states_have_no_normalized():
    assert not hasattr(JonesVector, "normalized")
    assert not hasattr(TwoPhotonState, "normalized")


def test_phase_equality_rejects_mixed_frames():
    with pytest.raises(ValueError):
        phase_insensitive_equals(linear(0.0), linear(0.0, Frame.MINUS_Z))


def test_apply_rejects_unnormalized_input():
    bad = JonesVector(np.array([1.0, 1.0]))
    with pytest.raises(NormalizationError):
        apply(LinearPolarizer(0.0), bad)


def test_amplitudes_must_be_finite():
    with pytest.raises(ValueError):
        JonesVector(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        JonesVector(np.array([np.inf + 0j, 0.0]))


def test_axis_canonicalization():
    assert canonical_axis(-0.25) == pytest.approx(math.pi - 0.25)
    assert LinearPolarizer(math.pi + 0.1).axis == pytest.approx(0.1)
    assert QuarterWavePlate(-math.pi / 4).fast_axis == pytest.approx(3 * math.pi / 4)


@given(theta=angles, phi=angles)
def test_unitaries_preserve_norm(theta, phi):
    _, out = apply(QuarterWavePlate(phi), linear(theta))
    assert abs(out.norm() - 1.0) < 1e-12
