"""The competing per-trial physical models and the factorized-model oracle.

Four hypotheses about what an emitted photon pair "is" and how it answers
polarization analyzers:

* ``QMFormal`` — the pair is the entangled state; measuring one arm reduces
  the state vector and the other arm responds to the reduced state.
* ``Lhv`` — a local hidden-variable model: each pair carries a parameter
  ``lambda`` drawn from a density on [0, pi), and the two arms respond
  independently given ``lambda``. Joint probabilities therefore factorize
  under the integral, which is what the quadrature oracle evaluates.
* ``DefiniteCircular`` — every pair leaves the source with a definite common
  helicity (both right or both left, each in its own frame); each photon then
  responds locally by Jones calculus.
* ``NdvNonlocal`` — the pair carries no definite polarization; the first
  photon measured answers with probability 1/2, and its partner instantly
  assumes the measured linear polarization and responds locally afterwards.

``NdvNonlocal`` deliberately follows this collapse narrative literally, even
where it disagrees with ``QMFormal``: the two coincide on every two-channel
correlation but split on the wave-plate chain experiment, which is exactly
the observable meant to tell them apart.

Every model consumes per-trial randomness through :class:`TrialDraws`, one
uniform per slot of the stream's documented layout (settings choice, emission,
arm-A draw, arm-B draw, ordering choice; see :mod:`eprsim.kernels`), so trials
are reproducible and the same draws can be replayed through the vectorized
kernels.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polarization import (
    AnalyzerChannel,
    Channel,
    Handedness,
    JonesVector,
    LinearPolarizer,
    OpticalElement,
    QuarterWavePlate,
    apply,
    circular,
    linear,
)
from .twophoton import (
    Arm,
    ChannelOutcome,
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
_HALF_PI = math.pi / 2

LAMBDA_SUPPORT = (0.0, math.pi)


class Ordering(enum.Enum):
    """Which arm's measurement event is booked first."""

    ARM1_FIRST = "arm1-first"
    ARM2_FIRST = "arm2-first"
    RANDOM_PER_TRIAL = "random"


@dataclass(frozen=True)
class TrialDraws:
    """The uniform [0, 1) draws one trial may consume, one per stream slot.

    ``settings`` (slot 0) selects the analyzer pair on randomized-settings
    runs, ``ordering`` (slot 4) breaks measurement-order ties on random-order
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
class LhvModel:
    """A factorized hidden-variable model on the support [0, pi).

    ``density`` is the normalized distribution of the hidden parameter;
    ``sample`` maps a uniform draw through its inverse CDF. ``response_a`` and
    ``response_b`` give each arm's probability of the parallel channel as a
    function of (analyzer setting, lambda); both must broadcast over numpy
    arrays of lambda. The setting is a scalar, or on randomized-settings
    runs a per-trial array matching lambda, and both must give the same
    probabilities. ``response_breakpoints`` lists the discontinuity
    locations of the responses for a given setting so the oracle can
    integrate piecewise-smooth integrands exactly.

    ``deterministic`` declares that both responses are exactly 0 or 1, so an
    arm never reads its coin and its outcome is a step function of the
    emission draw that can flip only at the declared breakpoints. The
    kernel then decides such a model on integer cuts of the emission word
    (`kernels.two_channel_block_lhv`); the claim needs breakpoints, and
    `validate_lhv_model` checks it.
    """

    name: str
    density: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[np.ndarray], np.ndarray]
    response_a: Callable[[float, np.ndarray], np.ndarray]
    response_b: Callable[[float, np.ndarray], np.ndarray]
    response_breakpoints: Callable[[float], np.ndarray] | None = None
    deterministic: bool = False


def validate_lhv_model(model: LhvModel, tol: float = 1e-6, n: int = 4096) -> None:
    """Check the model invariants: density normalized, responses in [0, 1]
    (exactly 0 or 1 for a deterministic model, which must also declare its
    breakpoints), and a per-trial array of settings answered as the scalar
    setting is."""
    lo, hi = LAMBDA_SUPPORT
    grid = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    rho = np.asarray(model.density(grid), dtype=float)
    if np.any(rho < 0.0):
        raise ValueError(f"{model.name}: density must be nonnegative")
    mass = float(np.sum(rho)) * (hi - lo) / n
    if abs(mass - 1.0) > tol:
        raise ValueError(f"{model.name}: density integrates to {mass!r}, not 1 within {tol}")
    if model.deterministic and model.response_breakpoints is None:
        raise ValueError(f"{model.name}: a deterministic model must declare response_breakpoints")
    for label, resp in (("response_a", model.response_a), ("response_b", model.response_b)):
        probs = np.asarray(resp(0.3, grid), dtype=float)
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError(f"{model.name}: {label} must map into [0, 1]")
        if model.deterministic and not np.all((probs == 0.0) | (probs == 1.0)):
            raise ValueError(f"{model.name}: deterministic {label} must be exactly 0 or 1")
        try:
            same = np.array_equal(np.asarray(resp(np.full(n, 0.3), grid), dtype=float), probs)
        except (TypeError, ValueError, IndexError):
            same = False
        if not same:
            raise ValueError(f"{model.name}: {label} must accept per-trial settings like a scalar")


def _uniform_density(lam: np.ndarray) -> np.ndarray:
    return np.full_like(np.asarray(lam, dtype=float), 1.0 / math.pi)


def _uniform_sample(u: np.ndarray) -> np.ndarray:
    return np.asarray(u, dtype=float) * math.pi


def _sign_response(setting: float, lam: np.ndarray) -> np.ndarray:
    return (np.cos(2.0 * (setting - np.asarray(lam, dtype=float))) > 0.0).astype(float)


def _malus_response(setting: float, lam: np.ndarray) -> np.ndarray:
    return np.cos(setting - np.asarray(lam, dtype=float)) ** 2


def _sign_breakpoints(setting: float) -> np.ndarray:
    return np.array([(setting - _QUARTER_PI) % math.pi, (setting + _QUARTER_PI) % math.pi])


def deterministic_sign_model() -> LhvModel:
    """Hidden polarization angle, deterministic channel choice.

    lambda is uniform on [0, pi); an analyzer at ``s`` answers the parallel
    channel iff cos 2(s - lambda) > 0. Its correlation is the triangle wave
    E(theta) = 1 - 4*theta/pi on [0, pi/2], which saturates the factorized
    bound |S| = 2.
    """
    model = LhvModel(
        name="lhv-sign",
        density=_uniform_density,
        sample=_uniform_sample,
        response_a=_sign_response,
        response_b=_sign_response,
        response_breakpoints=_sign_breakpoints,
        deterministic=True,
    )
    validate_lhv_model(model)
    return model


def malus_response_model() -> LhvModel:
    """Hidden polarization angle with probabilistic cos^2 channel response.

    Yields E(theta) = cos(2*theta)/2, so its best CHSH value is sqrt(2).
    """
    model = LhvModel(
        name="lhv-malus",
        density=_uniform_density,
        sample=_uniform_sample,
        response_a=_malus_response,
        response_b=_malus_response,
    )
    validate_lhv_model(model)
    return model


def definite_circular_as_lhv() -> LhvModel:
    """The definite-helicity model recast in factorized form.

    A circular photon passes either channel of a linear analyzer with
    probability 1/2 regardless of orientation, so both responses are constant
    and the hidden parameter carries no analyzer-visible information.
    """
    half = lambda setting, lam: np.full_like(np.asarray(lam, dtype=float), 0.5)
    model = LhvModel(
        name="definite-circular-lhv",
        density=_uniform_density,
        sample=_uniform_sample,
        response_a=half,
        response_b=half,
    )
    validate_lhv_model(model)
    return model


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on [-1, 1],
    read-only. Computed on first use, not at import: `leggauss` loads
    numpy.polynomial and calls LAPACK."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _segments(model: LhvModel, a: float, b: float) -> np.ndarray:
    points = [LAMBDA_SUPPORT[0], LAMBDA_SUPPORT[1]]
    if model.response_breakpoints is not None:
        for setting in (a, b):
            points.extend(float(x) for x in model.response_breakpoints(setting))
    return np.unique(np.clip(points, *LAMBDA_SUPPORT))


def _lhv_moments(
    model: LhvModel, a: float, b: float, method: str, n: int
) -> tuple[float, float, float]:
    """Integrals of rho*pA, rho*pB and rho*pA*pB over the support."""
    if method == "midpoint":
        lo, hi = LAMBDA_SUPPORT
        lam = lo + (np.arange(n) + 0.5) * (hi - lo) / n
        weights = np.full(n, (hi - lo) / n)
    elif method == "segmented":
        # Gauss-Legendre on each smooth segment: exact for the built-in
        # piecewise-constant and trigonometric responses at any settings.
        edges = _segments(model, a, b)
        centers = (edges[1:] + edges[:-1]) / 2.0
        halves = (edges[1:] - edges[:-1]) / 2.0
        nodes, node_weights = _gauss_legendre()
        lam = (centers[:, None] + halves[:, None] * nodes[None, :]).ravel()
        weights = (halves[:, None] * node_weights[None, :]).ravel()
    else:
        raise ValueError(f"unknown quadrature method {method!r}")
    rho = np.asarray(model.density(lam), dtype=float)
    pa = np.asarray(model.response_a(a, lam), dtype=float)
    pb = np.asarray(model.response_b(b, lam), dtype=float)
    w = weights * rho
    return float(np.sum(w * pa)), float(np.sum(w * pb)), float(np.sum(w * pa * pb))


def lhv_joint_probabilities(
    model: LhvModel, a: float, b: float, *, method: str = "segmented", n: int = 4096
):
    """Quadrature oracle for the factorized joint outcome probabilities.

    Evaluates the defining integral of the model: the joint probability of
    each channel pair is the lambda-average of the product of the two local
    response probabilities. Relative error is at most 1e-6 for any model
    whose responses are smooth between declared breakpoints.
    """
    from .twophoton import JointProbabilities

    validate_lhv_model(model)
    m_a, m_b, m_ab = _lhv_moments(model, a, b, method, n)
    return JointProbabilities(
        p_pp=m_ab,
        p_pm=m_a - m_ab,
        p_mp=m_b - m_ab,
        p_mm=1.0 - m_a - m_b + m_ab,
    )


def lhv_correlation(model: LhvModel, a: float, b: float, **kwargs) -> float:
    """Oracle correlation E(a, b) for a factorized model."""
    return lhv_joint_probabilities(model, a, b, **kwargs).correlation()


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


def _parallel_pass_probability(photon: JonesVector, setting: float) -> float:
    prob, _ = apply(AnalyzerChannel(setting, Channel.PARALLEL), photon)
    return prob


def _chain_detected(photon: JonesVector, chain: RAnalyzer, arm: Arm, coin: float) -> bool:
    state = photon
    for element in chain.elements(arm):
        prob, state = apply(element, state)
        if isinstance(element, LinearPolarizer):
            return coin < prob
    raise AssertionError("RAnalyzer chains always end in a polarizer")


@dataclass(frozen=True)
class QMFormal:
    """State-vector reduction, and nothing else."""

    def emit(self, draws: TrialDraws) -> TwoPhotonState:
        return linear_entangled()

    def respond_two_channel(
        self,
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
        m2 = measure_arm(m1.state, second, settings[second], _coin_for(second, draws))
        return _outcome_pair({first: m1.outcome, second: m2.outcome})

    def respond_qwp_chain(
        self,
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


@dataclass(frozen=True)
class NdvNonlocal:
    """No definite polarization at emission, plus instantaneous collapse.

    The first photon measured answers with probability 1/2; its partner then
    carries the first photon's post-measurement linear polarization and
    responds locally. This is kept as the literal step-by-step story even
    where it departs from the formal reduction, because that departure is the
    testable content.
    """

    def emit(self, draws: TrialDraws) -> TwoPhotonState:
        return circular_entangled()

    def respond_two_channel(
        self,
        emission: TwoPhotonState,
        a: float,
        b: float,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[ChannelOutcome, ChannelOutcome]:
        _require_kind(emission, TwoPhotonState, "NdvNonlocal")
        first, second = _order_arms(ordering, draws)
        settings = {Arm.ONE: a, Arm.TWO: b}
        if _coin_for(first, draws) < 0.5:
            first_outcome = ChannelOutcome.PLUS
            assigned = settings[first]
        else:
            first_outcome = ChannelOutcome.MINUS
            assigned = settings[first] + _HALF_PI
        # The distant photon now *is* linearly polarized along `assigned` and
        # answers its own analyzer by the Malus rule.
        partner = linear(assigned, frame_of_arm(second))
        prob = _parallel_pass_probability(partner, settings[second])
        second_outcome = (
            ChannelOutcome.PLUS if _coin_for(second, draws) < prob else ChannelOutcome.MINUS
        )
        return _outcome_pair({first: first_outcome, second: second_outcome})

    def respond_qwp_chain(
        self,
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
        axis_local = chains[first].polarizer_axis_local()
        if not detected_first:
            axis_local += _HALF_PI
        assigned_shared = arm_local_angle_to_shared(axis_local, first)
        partner = linear(assigned_shared, frame_of_arm(second))
        detected_second = _chain_detected(
            partner, chains[second], second, _coin_for(second, draws)
        )
        detected = {first: detected_first, second: detected_second}
        return detected[Arm.ONE], detected[Arm.TWO]


@dataclass(frozen=True)
class DefiniteCircular:
    """Both photons leave the source with the same definite helicity."""

    def emit(self, draws: TrialDraws) -> Handedness:
        return Handedness.R if draws.emission < 0.5 else Handedness.L

    def _photon(self, handedness: Handedness, arm: Arm) -> JonesVector:
        return circular(handedness, frame_of_arm(arm))

    def respond_two_channel(
        self,
        emission: Handedness,
        a: float,
        b: float,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[ChannelOutcome, ChannelOutcome]:
        _require_kind(emission, Handedness, "DefiniteCircular")
        outcomes = {}
        for arm, setting in ((Arm.ONE, a), (Arm.TWO, b)):
            prob = _parallel_pass_probability(self._photon(emission, arm), setting)
            outcomes[arm] = (
                ChannelOutcome.PLUS if _coin_for(arm, draws) < prob else ChannelOutcome.MINUS
            )
        return _outcome_pair(outcomes)

    def respond_qwp_chain(
        self,
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
                self._photon(emission, arm), chain, arm, _coin_for(arm, draws)
            )
        return detected[Arm.ONE], detected[Arm.TWO]


@dataclass(frozen=True)
class Lhv:
    """A pair governed by a shared hidden parameter with local responses."""

    model: LhvModel

    def emit(self, draws: TrialDraws) -> LambdaSample:
        value = float(self.model.sample(np.asarray(draws.emission)))
        return LambdaSample(value=value, distribution=self.model.name)

    def respond_two_channel(
        self,
        emission: LambdaSample,
        a: float,
        b: float,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[ChannelOutcome, ChannelOutcome]:
        _require_kind(emission, LambdaSample, "Lhv")
        lam = emission.value
        p_a = float(self.model.response_a(a, np.asarray(lam)))
        p_b = float(self.model.response_b(b, np.asarray(lam)))
        out_a = ChannelOutcome.PLUS if draws.arm_a < p_a else ChannelOutcome.MINUS
        out_b = ChannelOutcome.PLUS if draws.arm_b < p_b else ChannelOutcome.MINUS
        return out_a, out_b

    def respond_qwp_chain(
        self,
        emission: LambdaSample,
        chain_a: RAnalyzer,
        chain_b: RAnalyzer,
        ordering: Ordering,
        draws: TrialDraws,
    ) -> tuple[bool, bool]:
        """Chain response, treating lambda as a definite linear polarization.

        The analyzer responses above do not define behaviour behind a wave
        plate, so the chain is completed by Jones calculus: a photon linearly
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


HypothesisModel = QMFormal | NdvNonlocal | DefiniteCircular | Lhv
