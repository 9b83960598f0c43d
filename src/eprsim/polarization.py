"""Jones-calculus primitives for single-photon polarization.

Angles are radians, measured counterclockwise from a shared transverse x
axis; polarizer and wave-plate axes are orientation symmetric and get
canonicalized to [0, pi). Amplitudes are always written in the shared
(x, y) linear basis. A vector's frame records the photon's propagation
direction along the z axis, which fixes the sign convention for circular
states: helicity is defined with respect to the photon's own propagation
direction, so right-circular reads (1, -i)/sqrt(2) for a +z photon and
(1, +i)/sqrt(2) for a -z photon.

Convention lock: the quarter-wave plate with fast axis x acts as diag(1, i)
up to a global phase, mapping the right-circular state of a +z photon to a
linear state at +45 degrees and the left-circular state to -45 degrees.

A `JonesVector` and a `eprsim.twophoton.TwoPhotonState` share one algebra
(`_PureState`), with the tolerances ``NORM_ACCEPT_TOL`` and ``ALGEBRA_TOL``.
Pass probabilities snap by `eprsim.models.snap_probability`, as the kernels' do.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .models import snap_probability

ALGEBRA_TOL = 1e-12
NORM_ACCEPT_TOL = 1e-9


class NormalizationError(ValueError):
    """A state that must be normalized is not (beyond NORM_ACCEPT_TOL)."""


class Frame(enum.Enum):
    """Propagation direction of a photon along the shared z axis."""

    PLUS_Z = "+z"
    MINUS_Z = "-z"


class Handedness(enum.Enum):
    R = "R"
    L = "L"


class Channel(enum.Enum):
    PARALLEL = "parallel"
    PERPENDICULAR = "perpendicular"


class _Absorbed:
    """Singleton marking a photon absorbed by a single-exit polarizer.

    Absorption is a physical outcome, not an error.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "Absorbed"


ABSORBED = _Absorbed()


def canonical_axis(angle: float) -> float:
    """Fold an optical-axis angle into [0, pi); axes are pi-periodic. An angle
    outside is folded by pi, not by the float nearest it, as a double angle."""
    if not math.isfinite(angle):
        raise ValueError(f"axis angle must be finite, got {angle!r}")
    if 0.0 <= angle < math.pi:
        return angle
    s, c = math.sin(angle), math.cos(angle)  # libm reduces any angle exactly
    return math.atan2(2.0 * s * c, (c - s) * (c + s)) / 2.0 % math.pi


@dataclass(frozen=True, eq=False)
class _PureState:
    """Complex amplitudes of a pure state, finite and read-only, in the
    shape ``_SHAPE``, with the algebra every such state shares."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != self._SHAPE:
            raise ValueError(f"expected amplitudes of shape {self._SHAPE}, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def require_normalized(self) -> None:
        if abs(self.norm() - 1.0) > NORM_ACCEPT_TOL:
            raise NormalizationError(
                f"state norm {self.norm()!r} is not 1 within {NORM_ACCEPT_TOL}"
            )

    def overlap(self, other) -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def phase_insensitive_equals(self, other) -> bool:
        """True iff the states coincide up to a global phase: |<self|other>| >= 1 - ALGEBRA_TOL."""
        self.require_normalized()
        other.require_normalized()
        return abs(self.overlap(other)) >= 1.0 - ALGEBRA_TOL


@dataclass(frozen=True, eq=False)
class JonesVector(_PureState):
    """Pure polarization state: two complex amplitudes over {|x>, |y>}."""

    _SHAPE = (2,)

    frame: Frame = Frame.PLUS_Z

    def phase_insensitive_equals(self, other: "JonesVector") -> bool:
        """True iff the states coincide up to a global phase; states of two
        frames are not comparable."""
        if self.frame is not other.frame:
            raise ValueError("cannot compare states tagged with different frames")
        return super().phase_insensitive_equals(other)

    def __repr__(self) -> str:
        ax, ay = self.amplitudes
        return f"JonesVector(({ax:.6g}, {ay:.6g}), frame={self.frame.value})"


# ``phase_insensitive_equals(u, v)`` of two Jones vectors
phase_insensitive_equals = JonesVector.phase_insensitive_equals


def _direction(theta: float, perpendicular: bool) -> np.ndarray:
    """The unit vector at angle theta, or at right angles to it. The right
    angle is built exactly, as (-sin theta, cos theta): ``theta + pi/2``
    loses its quarter turn to rounding once theta is past about 1.7e18."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([-s, c] if perpendicular else [c, s])


def linear(
    theta: float, frame: Frame = Frame.PLUS_Z, *, perpendicular: bool = False
) -> JonesVector:
    """Linear polarization at angle theta to the shared x axis, or at right
    angles to it."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return JonesVector(_direction(theta, perpendicular), frame)


def circular(handedness: Handedness, frame: Frame = Frame.PLUS_Z) -> JonesVector:
    """Circular polarization of the given helicity in the photon's own sense."""
    sign = -1.0 if (handedness is Handedness.R) == (frame is Frame.PLUS_Z) else 1.0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return JonesVector(np.array([inv_sqrt2, sign * 1j * inv_sqrt2]), frame)


@dataclass(frozen=True)
class LinearPolarizer:
    """Single-exit polarizer transmitting along `axis`; the rest is absorbed."""

    axis: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", canonical_axis(self.axis))


@dataclass(frozen=True)
class QuarterWavePlate:
    """Quarter-wave retarder with the given fast axis; unitary."""

    fast_axis: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "fast_axis", canonical_axis(self.fast_axis))


@dataclass(frozen=True)
class AnalyzerChannel:
    """One exit channel of a two-channel polarization analyzer."""

    orientation: float
    channel: Channel

    def __post_init__(self) -> None:
        object.__setattr__(self, "orientation", canonical_axis(self.orientation))


OpticalElement = LinearPolarizer | QuarterWavePlate | AnalyzerChannel


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def projector_matrix(axis: float, perpendicular: bool = False) -> np.ndarray:
    """Projector onto the linear state at `axis`, or at right angles to it."""
    e = _direction(axis, perpendicular)
    return np.outer(e, e).astype(np.complex128)


def jones_matrix(element: OpticalElement) -> np.ndarray:
    """The 2x2 operator realizing an optical element in the shared basis."""
    if isinstance(element, LinearPolarizer):
        return projector_matrix(element.axis)
    if isinstance(element, QuarterWavePlate):
        r = rotation_matrix(element.fast_axis)
        return r @ np.diag([1.0, 1.0j]) @ r.T
    if isinstance(element, AnalyzerChannel):
        return projector_matrix(element.orientation, element.channel is Channel.PERPENDICULAR)
    raise TypeError(f"not an optical element: {element!r}")


def is_projective(element: OpticalElement) -> bool:
    return not isinstance(element, QuarterWavePlate)


def apply(element: OpticalElement, v: JonesVector) -> tuple[float, JonesVector | _Absorbed]:
    """Send a photon through one element.

    Returns ``(pass_probability, post_state)``. For projective elements the
    probability follows the Malus rule and the post state is the renormalized
    projection, or ABSORBED when the element blocks the state outright. For
    unitary elements the probability is 1. The computation is deterministic;
    sampling an outcome against the probability is the caller's job.
    """
    v.require_normalized()
    out = jones_matrix(element) @ v.amplitudes
    if not is_projective(element):
        return 1.0, JonesVector(out, v.frame)
    raw = float(np.real(np.vdot(out, out)))
    prob = snap_probability(raw)
    if prob == 0.0:
        return 0.0, ABSORBED
    return prob, JonesVector(out / math.sqrt(raw), v.frame)
