"""The object layer: each hypothesis model's per-trial answer by Jones calculus.

This is the reference the vectorized kernels are checked against, trial by
trial. A model's ``emit``, ``respond_two_channel`` and ``respond_qwp_chain``
methods (:mod:`eprsim.models`) call the answers kept here for its type in
`ANSWERS`, and import this module on first call. So the Jones algebra
(:mod:`eprsim.polarization`, :mod:`eprsim.twophoton`) loads only where the
object layer is used, never on a run of the kernels such as every ``epr``
command.

Every model consumes per-trial randomness through :class:`TrialDraws`, one
uniform per slot of the stream's documented layout (settings choice, emission,
arm-A draw, arm-B draw, ordering choice; see :mod:`eprsim.kernels`), so trials
are reproducible and the same draws can be replayed through the vectorized
kernels (`eprsim.engine.trial_draws`). The per-trial records a run
replays from the kernels (`TwoChannelRecord`, `ChainRecord`) are kept here
too, so a run that makes none, such as every ``epr`` command, defines none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    Arm,
    ChannelOutcome,
    DefiniteCircular,
    Lhv,
    NdvNonlocal,
    Ordering,
    QMFormal,
)
from .polarization import (
    ZERO_PROJECTION,
    Handedness,
    JonesVector,
    LinearPolarizer,
    OpticalElement,
    QuarterWavePlate,
    apply,
    circular,
    linear,
    projector_matrix,
)
from .twophoton import (
    TwoPhotonState,
    arm_local_angle_to_shared,
    circular_entangled,
    frame_of_arm,
    linear_entangled,
    measure_arm,
    measure_arm_chain,
    other_arm,
)

_QUARTER_PI = math.pi / 4


@dataclass(frozen=True)
class TrialDraws:
    """The uniform [0, 1) draws one trial may consume, one per stream slot.

    ``settings`` (slot 0) is reserved, read by no model or kernel,
    ``ordering`` (slot 4) breaks measurement-order ties on random-order
    runs, and the model draws are ``emission`` (slot 1), ``arm_a`` (slot 2)
    and ``arm_b`` (slot 3). Each is ``k * 2**-53`` for the slot's 53-bit draw
    k, whose top bit is its coin-plane bit, so ``draw < 0.5`` is the slot's
    fair coin (see :mod:`eprsim.kernels`).
    """

    settings: float
    ordering: float
    emission: float
    arm_a: float
    arm_b: float


@dataclass(frozen=True)
class TwoChannelRecord:
    """One two-channel trial of a run, as `TwoChannelRun.records` replays it."""

    trial_index: int
    a: float
    b: float
    first_arm: Arm
    outcome_a: ChannelOutcome
    outcome_b: ChannelOutcome
    spacelike: bool


@dataclass(frozen=True)
class ChainRecord:
    """One chain-protocol trial of a run, as `QwpChainRun.records` replays it."""

    trial_index: int
    first_arm: Arm
    detected_a: bool
    detected_b: bool
    spacelike: bool


def first_arm(ordering: Ordering, draws: TrialDraws) -> Arm:
    if ordering is Ordering.ARM1_FIRST:
        return Arm.ONE
    if ordering is Ordering.ARM2_FIRST:
        return Arm.TWO
    return Arm.ONE if draws.ordering < 0.5 else Arm.TWO


@dataclass(frozen=True)
class LambdaSample:
    """One draw of a hidden parameter, tagged with its distribution's name."""

    value: float
    distribution: str


@dataclass(frozen=True)
class RAnalyzer:
    """A quarter-wave plate followed by a linear polarizer at +45 degrees to
    its fast axis, both angles quoted in the arm's own frame.

    The combination transmits the photon's own right-circular state with
    certainty and blocks left-circular completely, so a click behind it
    certifies right helicity at the input.
    """

    fast_axis: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.fast_axis):
            raise ValueError("fast axis must be finite")

    def polarizer_axis_local(self) -> float:
        return self.fast_axis + _QUARTER_PI

    def elements(self, arm: Arm) -> tuple[OpticalElement, ...]:
        plate = QuarterWavePlate(arm_local_angle_to_shared(self.fast_axis, arm))
        polarizer = LinearPolarizer(
            arm_local_angle_to_shared(self.polarizer_axis_local(), arm)
        )
        return (plate, polarizer)


def _require_kind(emission, expected_type, model_name: str):
    if not isinstance(emission, expected_type):
        raise TypeError(
            f"{model_name} cannot respond to an emission of type {type(emission).__name__}"
        )


def _require_chains(chain_a, chain_b) -> None:
    for chain in (chain_a, chain_b):
        if not isinstance(chain, RAnalyzer):
            raise TypeError(f"chain must be an RAnalyzer, got {type(chain).__name__}")


def _order_arms(ordering: Ordering, draws: TrialDraws) -> tuple[Arm, Arm]:
    first = first_arm(ordering, draws)
    return first, other_arm(first)


def _coin_for(arm: Arm, draws: TrialDraws) -> float:
    return draws.arm_a if arm is Arm.ONE else draws.arm_b


def _outcome_pair(results: dict[Arm, ChannelOutcome]) -> tuple[ChannelOutcome, ChannelOutcome]:
    return results[Arm.ONE], results[Arm.TWO]


def _pass_probability(photon: JonesVector, setting: float, perpendicular: bool = False) -> float:
    """The Malus rule for the analyzer's parallel channel, or perpendicular
    one, at the setting as given, as the kernels read it."""
    photon.require_normalized()
    out = projector_matrix(setting, perpendicular) @ photon.amplitudes
    raw = float(np.real(np.vdot(out, out)))
    return 0.0 if raw < ZERO_PROJECTION else min(raw, 1.0)


def _chain_detected(photon: JonesVector, chain: RAnalyzer, arm: Arm, coin: float) -> bool:
    state = photon
    for element in chain.elements(arm):
        prob, state = apply(element, state)
        if isinstance(element, LinearPolarizer):
            return coin < prob
    raise AssertionError("RAnalyzer chains always end in a polarizer")


# Each class below holds one model type's three answers, called on the class
# with the model first: ``ANSWERS[type(model)].emit(model, draws)``.


class _QMFormal:
    """`QMFormal`: the reduced state answers the second analyzer."""

    def emit(model: QMFormal, draws: TrialDraws) -> TwoPhotonState:
        return linear_entangled()

    def respond_two_channel(
        model: QMFormal,
        emission: TwoPhotonState,
        a: float,
        b: float,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[ChannelOutcome, ChannelOutcome]:
        _require_kind(emission, TwoPhotonState, "QMFormal")
        first, second = _order_arms(ordering, draws)
        settings = {Arm.ONE: a, Arm.TWO: b}
        m1 = measure_arm(emission, first, settings[first], _coin_for(first, draws))
        # the second coin picks the channel named like the first exit
        m2 = measure_arm(m1.state, second, settings[second], _coin_for(second, draws),
                         perpendicular=m1.outcome is ChannelOutcome.MINUS)
        return _outcome_pair({first: m1.outcome, second: m2.outcome})

    def respond_qwp_chain(
        model: QMFormal,
        emission: TwoPhotonState,
        chain_a: RAnalyzer,
        chain_b: RAnalyzer,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[bool, bool]:
        _require_kind(emission, TwoPhotonState, "QMFormal")
        _require_chains(chain_a, chain_b)
        first, second = _order_arms(ordering, draws)
        chains = {Arm.ONE: chain_a, Arm.TWO: chain_b}
        m1 = measure_arm_chain(
            emission, first, chains[first].elements(first), [_coin_for(first, draws)]
        )
        m2 = measure_arm_chain(
            m1.state, second, chains[second].elements(second), [_coin_for(second, draws)]
        )
        detected = {first: m1.detected, second: m2.detected}
        return detected[Arm.ONE], detected[Arm.TWO]


class _NdvNonlocal:
    """`NdvNonlocal`: the collapse narrative, step by step."""

    def emit(model: NdvNonlocal, draws: TrialDraws) -> TwoPhotonState:
        return circular_entangled()

    def respond_two_channel(
        model: NdvNonlocal,
        emission: TwoPhotonState,
        a: float,
        b: float,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[ChannelOutcome, ChannelOutcome]:
        _require_kind(emission, TwoPhotonState, "NdvNonlocal")
        first, second = _order_arms(ordering, draws)
        settings = {Arm.ONE: a, Arm.TWO: b}
        parallel = _coin_for(first, draws) < 0.5
        first_outcome = ChannelOutcome.PLUS if parallel else ChannelOutcome.MINUS
        # The distant photon now *is* linearly polarized along the first
        # analyzer's exit channel, and by the Malus rule leaves by the same.
        partner = linear(settings[first], frame_of_arm(second), perpendicular=not parallel)
        prob = _pass_probability(partner, settings[second], perpendicular=not parallel)
        same = _coin_for(second, draws) < prob
        second_outcome = ChannelOutcome.PLUS if same == parallel else ChannelOutcome.MINUS
        return _outcome_pair({first: first_outcome, second: second_outcome})

    def respond_qwp_chain(
        model: NdvNonlocal,
        emission: TwoPhotonState,
        chain_a: RAnalyzer,
        chain_b: RAnalyzer,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[bool, bool]:
        _require_kind(emission, TwoPhotonState, "NdvNonlocal")
        _require_chains(chain_a, chain_b)
        first, second = _order_arms(ordering, draws)
        chains = {Arm.ONE: chain_a, Arm.TWO: chain_b}
        # No definite value before measurement: the first photon clears its
        # polarizer with probability 1/2 and leaves it linearly polarized
        # along the polarizer axis (or is absorbed, fixing the orthogonal
        # polarization on the partner).
        detected_first = _coin_for(first, draws) < 0.5
        axis_shared = arm_local_angle_to_shared(chains[first].polarizer_axis_local(), first)
        partner = linear(axis_shared, frame_of_arm(second), perpendicular=not detected_first)
        detected_second = _chain_detected(
            partner, chains[second], second, _coin_for(second, draws)
        )
        detected = {first: detected_first, second: detected_second}
        return detected[Arm.ONE], detected[Arm.TWO]


def _circular_photon(handedness: Handedness, arm: Arm) -> JonesVector:
    return circular(handedness, frame_of_arm(arm))


class _DefiniteCircular:
    """`DefiniteCircular`: each photon answers locally from its helicity."""

    def emit(model: DefiniteCircular, draws: TrialDraws) -> Handedness:
        return Handedness.R if draws.emission < 0.5 else Handedness.L

    def respond_two_channel(
        model: DefiniteCircular,
        emission: Handedness,
        a: float,
        b: float,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[ChannelOutcome, ChannelOutcome]:
        _require_kind(emission, Handedness, "DefiniteCircular")
        outcomes = {}
        for arm, setting in ((Arm.ONE, a), (Arm.TWO, b)):
            prob = _pass_probability(_circular_photon(emission, arm), setting)
            outcomes[arm] = (
                ChannelOutcome.PLUS if _coin_for(arm, draws) < prob else ChannelOutcome.MINUS
            )
        return _outcome_pair(outcomes)

    def respond_qwp_chain(
        model: DefiniteCircular,
        emission: Handedness,
        chain_a: RAnalyzer,
        chain_b: RAnalyzer,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[bool, bool]:
        _require_kind(emission, Handedness, "DefiniteCircular")
        _require_chains(chain_a, chain_b)
        detected = {}
        for arm, chain in ((Arm.ONE, chain_a), (Arm.TWO, chain_b)):
            detected[arm] = _chain_detected(
                _circular_photon(emission, arm), chain, arm, _coin_for(arm, draws)
            )
        return detected[Arm.ONE], detected[Arm.TWO]


class _Lhv:
    """`Lhv`: each arm answers its response to the shared hidden value."""

    def emit(model: Lhv, draws: TrialDraws) -> LambdaSample:
        value = float(model.model.sample(np.asarray(draws.emission)))
        return LambdaSample(value=value, distribution=model.model.name)

    def respond_two_channel(
        model: Lhv,
        emission: LambdaSample,
        a: float,
        b: float,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[ChannelOutcome, ChannelOutcome]:
        _require_kind(emission, LambdaSample, "Lhv")
        lam = emission.value
        p_a = float(model.model.response_a(a, np.asarray(lam)))
        p_b = float(model.model.response_b(b, np.asarray(lam)))
        out_a = ChannelOutcome.PLUS if draws.arm_a < p_a else ChannelOutcome.MINUS
        out_b = ChannelOutcome.PLUS if draws.arm_b < p_b else ChannelOutcome.MINUS
        return out_a, out_b

    def respond_qwp_chain(
        model: Lhv,
        emission: LambdaSample,
        chain_a: RAnalyzer,
        chain_b: RAnalyzer,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[bool, bool]:
        """Chain response, treating lambda as a definite linear polarization.

        The analyzer responses do not define behaviour behind a wave plate,
        so the chain is completed by Jones calculus: a photon linearly
        polarized at lambda crosses a quarter-wave plate plus a polarizer at
        45 degrees to its fast axis with probability exactly 1/2, whatever
        lambda is.
        """
        _require_kind(emission, LambdaSample, "Lhv")
        _require_chains(chain_a, chain_b)
        detected = {}
        for arm, chain in ((Arm.ONE, chain_a), (Arm.TWO, chain_b)):
            photon = linear(emission.value, frame_of_arm(arm))
            detected[arm] = _chain_detected(photon, chain, arm, _coin_for(arm, draws))
        return detected[Arm.ONE], detected[Arm.TWO]


ANSWERS = {
    QMFormal: _QMFormal,
    NdvNonlocal: _NdvNonlocal,
    DefiniteCircular: _DefiniteCircular,
    Lhv: _Lhv,
}
