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

Each model answers trials two ways. The vectorized kernels
(:mod:`eprsim.kernels`) answer a block at a time and are what every run uses.
The object layer answers one trial at a time by Jones calculus with state
reduction (the ``emit`` and ``respond_*`` methods, kept by model type in
:mod:`eprsim.reference` with :class:`~eprsim.reference.TrialDraws`,
:class:`~eprsim.reference.RAnalyzer` and
:class:`~eprsim.reference.LambdaSample`); it is the reference the kernels
are checked against. This module imports neither the object layer nor the
Jones algebra, so a run on the kernels never loads them. The enums a run's
records name (`Arm`, `ChannelOutcome`, `Ordering`) live here for the same
reason.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _Frozen

_QUARTER_PI = math.pi / 4

LAMBDA_SUPPORT = (0.0, math.pi)


class Arm(enum.Enum):
    ONE = "arm1"
    TWO = "arm2"


class ChannelOutcome(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    ABSORBED = "absorbed"


class Ordering(enum.Enum):
    """Which arm's measurement event is booked first."""

    ARM1_FIRST = "arm1-first"
    ARM2_FIRST = "arm2-first"
    RANDOM_PER_TRIAL = "random"


@dataclass(frozen=True)
class LhvModel:
    """A factorized hidden-variable model on the support [0, pi).

    ``density`` is the normalized distribution of the hidden parameter;
    ``sample`` maps a uniform draw through its inverse CDF. ``response_a`` and
    ``response_b`` give each arm's probability of the parallel channel as a
    function of (analyzer setting, lambda); both must broadcast over numpy
    arrays of lambda. Every caller passes the setting as a scalar, so a
    response need not take an array of settings. ``response_breakpoints``
    lists the discontinuity locations of the responses for a given setting
    so the oracle can integrate piecewise-smooth integrands exactly.

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
    """Check the model invariants: density normalized, and responses in
    [0, 1] (exactly 0 or 1 for a deterministic model, which must also
    declare its breakpoints)."""
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


@functools.lru_cache(maxsize=256)
def _validated(model: LhvModel) -> None:
    validate_lhv_model(model)


def validate_lhv_model_once(model: LhvModel) -> None:
    """`validate_lhv_model` at its defaults, once per process for each model
    that hashes: equal models share one check, as they share the cuts that
    `kernels._word_steps` caches. A cache keeps no exception, so an invalid
    model raises on every call, and a model that does not hash is checked
    every time."""
    try:
        hash(model)
    except TypeError:
        validate_lhv_model(model)
    else:
        _validated(model)


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
    validate_lhv_model_once(model)
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
    validate_lhv_model_once(model)
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

    validate_lhv_model_once(model)
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


class _PerTrial(_Frozen):
    """The object layer's per-trial methods, forwarded to this model type's
    answers in :mod:`eprsim.reference`, which loads on the first call."""

    def _answers(self):
        from .reference import ANSWERS

        return ANSWERS[type(self)]

    def emit(self, draws):
        """The pair's emitted state, or its hidden value, for one trial."""
        return self._answers().emit(self, draws)

    def respond_two_channel(self, emission, a, b, ordering, draws):
        """Both arms' two-channel outcomes at analyzer angles a and b."""
        return self._answers().respond_two_channel(self, emission, a, b, ordering, draws)

    def respond_qwp_chain(self, emission, chain_a, chain_b, ordering, draws):
        """Both arms' detection flags behind right-helicity analyzer chains."""
        return self._answers().respond_qwp_chain(self, emission, chain_a, chain_b, ordering, draws)


class QMFormal(_PerTrial):
    """State-vector reduction, and nothing else."""


class NdvNonlocal(_PerTrial):
    """No definite polarization at emission, plus instantaneous collapse.

    The first photon measured answers with probability 1/2; its partner then
    carries the first photon's post-measurement linear polarization and
    responds locally. This is kept as the literal step-by-step story even
    where it departs from the formal reduction, because that departure is the
    testable content.
    """


class DefiniteCircular(_PerTrial):
    """Both photons leave the source with the same definite helicity."""


class Lhv(_PerTrial):
    """A pair governed by a shared hidden parameter with local responses."""

    model: LhvModel

    def __post_init__(self) -> None:
        if not isinstance(self.model, LhvModel):
            raise TypeError(f"not a hidden-variable model: {self.model!r}")


HypothesisModel = QMFormal | NdvNonlocal | DefiniteCircular | Lhv
