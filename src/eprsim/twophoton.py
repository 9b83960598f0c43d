"""Two-photon polarization states, projective measurement and reduction.

Photon 1 propagates along +z, photon 2 along -z. Amplitudes ``c[i, j]`` are
indexed by photon 1's (x, y) component i and photon 2's component j, both in
the shared transverse basis. With the frame convention of
:mod:`eprsim.polarization`, building the entangled source from same-helicity
circular pairs or from correlated linear pairs yields literally the same four
amplitudes.

Measurement splits into a deterministic part (outcome probabilities and
conditional post-states) and an externally supplied uniform coin, compared
with strict less-than: probability 0 never fires, probability 1 always does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .models import Arm, ChannelOutcome, snap_probability
from .polarization import (
    AnalyzerChannel,
    Frame,
    Handedness,
    JonesVector,
    LinearPolarizer,
    OpticalElement,
    QuarterWavePlate,
    _PureState,
    circular,
    jones_matrix,
    projector_matrix,
)


def frame_of_arm(arm: Arm) -> Frame:
    return Frame.PLUS_Z if arm is Arm.ONE else Frame.MINUS_Z


def other_arm(arm: Arm) -> Arm:
    return Arm.TWO if arm is Arm.ONE else Arm.ONE


def arm_local_angle_to_shared(angle: float, arm: Arm) -> float:
    """Map an angle quoted in an arm's own right-handed frame to shared coordinates.

    Observers on both arms look toward the source; the arm-2 observer's y axis
    is the mirror of the shared one, so arm-2 local angles flip sign.
    """
    return angle if arm is Arm.ONE else -angle


@dataclass(frozen=True, eq=False)
class TwoPhotonState(_PureState):
    """Four complex amplitudes over the product linear basis, with the
    algebra of `eprsim.polarization._PureState`."""

    _SHAPE = (2, 2)

    def single_photon_state(self, arm: Arm) -> JonesVector:
        """The given photon's conditional state when the pair is a product state.

        Raises ValueError if the state is entangled (no single-photon factor).
        """
        u, s, vh = np.linalg.svd(self.amplitudes)
        if s[1] > 1e-9:
            raise ValueError("state is entangled; no single-photon factor exists")
        # amplitudes = outer(u[:, 0], vh[0, :]) up to the singular value
        amps = u[:, 0] if arm is Arm.ONE else vh[0, :]
        return JonesVector(amps, frame_of_arm(arm))


def linear_entangled() -> TwoPhotonState:
    """The source state written as correlated linear pairs: (|xx> + |yy>)/sqrt(2)."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return TwoPhotonState(np.array([[inv_sqrt2, 0.0], [0.0, inv_sqrt2]]))


def circular_entangled() -> TwoPhotonState:
    """The source state written as same-helicity circular pairs: (|RR> + |LL>)/sqrt(2).

    Helicity is taken in each photon's own frame; expanding in the shared
    linear basis reproduces :func:`linear_entangled` exactly.
    """
    r1 = circular(Handedness.R, Frame.PLUS_Z).amplitudes
    r2 = circular(Handedness.R, Frame.MINUS_Z).amplitudes
    l1 = circular(Handedness.L, Frame.PLUS_Z).amplitudes
    l2 = circular(Handedness.L, Frame.MINUS_Z).amplitudes
    amps = (np.outer(r1, r2) + np.outer(l1, l2)) / math.sqrt(2.0)
    return TwoPhotonState(amps)


def _arm_operator(matrix: np.ndarray, arm: Arm, amps: np.ndarray) -> np.ndarray:
    """Apply a single-photon operator to one tensor factor."""
    if arm is Arm.ONE:
        return matrix @ amps
    return amps @ matrix.T


def _check_coin(coin: float) -> None:
    if not (0.0 <= coin < 1.0):
        raise ValueError(f"sampled coin must lie in [0, 1), got {coin!r}")


@dataclass(frozen=True)
class ArmMeasurement:
    outcome: ChannelOutcome
    state: TwoPhotonState
    prob_plus: float


def measure_arm(
    state: TwoPhotonState, arm: Arm, orientation: float, coin: float,
    perpendicular: bool = False,
) -> ArmMeasurement:
    """Two-channel analyzer measurement on one arm, with state reduction.

    The outcome is the parallel channel, or the perpendicular one if
    `perpendicular`, iff ``coin`` is below its squared projection norm, and
    the other channel otherwise; ``prob_plus`` is the parallel channel's;
    the returned state is the renormalized projection consistent with it.
    """
    state.require_normalized()
    _check_coin(coin)
    projections = [_arm_operator(projector_matrix(orientation, minus), arm, state.amplitudes)
                   for minus in (False, True)]
    raw = [float(np.real(np.vdot(amps, amps))) for amps in projections]
    minus = perpendicular if coin < snap_probability(raw[perpendicular]) else not perpendicular
    outcome = ChannelOutcome.MINUS if minus else ChannelOutcome.PLUS
    reduced = TwoPhotonState(projections[minus] / math.sqrt(raw[minus]))
    return ArmMeasurement(outcome, reduced, snap_probability(raw[False]))


@dataclass(frozen=True)
class JointProbabilities:
    """Joint two-channel outcome probabilities; '+' = parallel channel."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def total(self) -> float:
        return self.p_pp + self.p_pm + self.p_mp + self.p_mm

    def correlation(self) -> float:
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)


def joint_probabilities(state: TwoPhotonState, a: float, b: float) -> JointProbabilities:
    """Closed-form joint outcome probabilities for analyzers at a and b.

    Computed by double projection, which is manifestly independent of which
    arm is treated first; see :func:`joint_probabilities_sequential` for the
    narrative-order variant.
    """
    state.require_normalized()
    probs = []
    for minus_a in (False, True):
        pa = projector_matrix(a, minus_a)
        for minus_b in (False, True):
            pb = projector_matrix(b, minus_b)
            amps = pa @ state.amplitudes @ pb.T
            probs.append(float(np.real(np.vdot(amps, amps))))
    return JointProbabilities(*probs)


def joint_probabilities_sequential(
    state: TwoPhotonState, a: float, b: float, first: Arm = Arm.ONE
) -> JointProbabilities:
    """Joint probabilities via marginal-then-conditional reduction.

    Measures the ``first`` arm, reduces, then measures the other arm. The
    result agrees with :func:`joint_probabilities` for every state: the order
    in the collapse narrative does not change the distribution.
    """
    state.require_normalized()
    first_angle, second_angle = (a, b) if first is Arm.ONE else (b, a)
    second = other_arm(first)
    table = {}
    for o1 in (False, True):
        proj1 = _arm_operator(projector_matrix(first_angle, o1), first, state.amplitudes)
        raw1 = float(np.real(np.vdot(proj1, proj1)))
        for o2 in (False, True):
            if snap_probability(raw1) == 0.0:
                table[(o1, o2)] = 0.0
                continue
            reduced = proj1 / math.sqrt(raw1)
            proj2 = _arm_operator(projector_matrix(second_angle, o2), second, reduced)
            cond = float(np.real(np.vdot(proj2, proj2)))
            table[(o1, o2)] = raw1 * cond
    if first is Arm.ONE:
        key = lambda sa, sb: (sa, sb)
    else:
        key = lambda sa, sb: (sb, sa)
    return JointProbabilities(
        p_pp=table[key(False, False)],
        p_pm=table[key(False, True)],
        p_mp=table[key(True, False)],
        p_mm=table[key(True, True)],
    )


@dataclass(frozen=True)
class ChainMeasurement:
    """Outcome of sending one arm's photon through a chain of elements.

    ``prob_detect`` is the unconditional probability of surviving the whole
    chain. ``state`` is the conditional post-measurement two-photon state
    given the sampled outcome; when the photon was absorbed, ``absorbed_arm``
    names it and the state reflects the blocked channel of the element that
    stopped it.
    """

    detected: bool
    prob_detect: float
    state: TwoPhotonState
    absorbed_arm: Arm | None = None


def _validate_chain(elements: Iterable[OpticalElement]) -> list[OpticalElement]:
    chain = list(elements)
    for element in chain:
        if isinstance(element, AnalyzerChannel):
            raise ValueError(
                "chains accept unitary elements and single-exit polarizers; "
                "two-channel analyzers belong to measure_arm"
            )
        if not isinstance(element, (LinearPolarizer, QuarterWavePlate)):
            raise TypeError(f"not a chain element: {element!r}")
    return chain


def chain_transmission(state: TwoPhotonState, arm: Arm, elements: Iterable[OpticalElement]) -> float:
    """Unconditional probability that the arm's photon survives the chain:
    `measure_arm_chain`'s ``prob_detect``, which no coin changes."""
    return measure_arm_chain(state, arm, elements, itertools.repeat(0.0)).prob_detect


def measure_arm_chain(
    state: TwoPhotonState,
    arm: Arm,
    elements: Iterable[OpticalElement],
    coins: Sequence[float],
) -> ChainMeasurement:
    """Send one arm's photon through a chain, sampling each polarizer.

    One coin is consumed per polarizer reached; a photon absorbed partway
    consumes no further coins. ``prob_detect`` always reports the full-chain
    transmission probability, whatever the sampled outcome.
    """
    state.require_normalized()
    chain = _validate_chain(elements)
    coin_iter = iter(coins)
    prob_detect = 1.0
    pass_amps = state.amplitudes
    detected = True
    result_amps = None
    for element in chain:
        if isinstance(element, QuarterWavePlate):
            # Unitaries keep propagating the hypothetical pass branch so the
            # full-chain transmission probability stays well defined even
            # after an absorption; the sampled outcome state is untouched.
            pass_amps = _arm_operator(jones_matrix(element), arm, pass_amps)
            continue
        passed = _arm_operator(projector_matrix(element.axis), arm, pass_amps)
        raw = float(np.real(np.vdot(passed, passed)))
        prob = snap_probability(raw)
        if detected:
            try:
                coin = next(coin_iter)
            except StopIteration:
                raise ValueError("chain needs one sampled coin per polarizer") from None
            _check_coin(coin)
            if coin >= prob:
                detected = False
                blocked = _arm_operator(projector_matrix(element.axis, True), arm, pass_amps)
                raw_blocked = float(np.real(np.vdot(blocked, blocked)))
                result_amps = blocked / math.sqrt(raw_blocked)
        prob_detect *= prob
        if prob == 0.0:
            break
        pass_amps = passed / math.sqrt(raw)
    if detected:
        result_amps = pass_amps
    return ChainMeasurement(
        detected=detected,
        prob_detect=prob_detect,
        state=TwoPhotonState(result_amps),
        absorbed_arm=None if detected else arm,
    )
