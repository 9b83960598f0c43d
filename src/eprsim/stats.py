"""Estimators and verdicts for coincidence-counting experiments.

Counts are exact integers and merge by component-wise addition, so statistics
accumulated over any partition of a run equal a single sequential pass
exactly. Probabilities and correlations are always derived from counts, never
accumulated as floats. The counts take nothing but `PackedFlags`: a ±1 or
0/1 integer array, or an unpacked boolean one, raises TypeError instead of
being counted by truth. The order test's χ² tail is exact in closed form
(its 2×k tables have 1 to 3 degrees of freedom), so numpy is the package's
one dependency.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import _Frozen

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0


def pack_words(flags: np.ndarray) -> np.ndarray:
    """Boolean flags packed 64 to a uint64 word: flag i is bit ``i % 64`` of
    word ``i // 64``, and the bits past the last flag are zero."""
    packed = np.packbits(flags, bitorder="little")
    if packed.size % 8:
        packed = np.concatenate([packed, np.zeros(-packed.size % 8, dtype=np.uint8)])
    return np.asarray(packed.view("<u8"), dtype=np.uint64)


class PackedFlags:
    """Per-trial flags of a block, 64 to a word: the flag of the block's
    trial i is bit ``i % 64`` of ``words[i // 64]``, a uint64 array, and the
    bits past its `count` trials are zero. The kernels answer in it, and the
    counts below read it with one popcount per word."""

    __slots__ = ("words", "count")

    def __init__(self, words: np.ndarray, count: int) -> None:
        self.words = words
        self.count = count

    @classmethod
    def pack(cls, flags: np.ndarray) -> "PackedFlags":
        """A boolean array packed; any other dtype raises TypeError."""
        dtype = getattr(flags, "dtype", type(flags).__name__)
        if dtype != bool:
            raise TypeError(f"flags must be a boolean array, got {dtype}")
        return cls(pack_words(flags), flags.size)

    def unpack(self) -> np.ndarray:
        """The flags as a boolean array, one per trial."""
        octets = np.asarray(self.words, dtype="<u8").view(np.uint8)
        return np.unpackbits(octets, count=self.count, bitorder="little").view(bool)

    def popcount(self) -> int:
        """How many trials are flagged."""
        return int(np.bitwise_count(self.words).sum(dtype=np.uint64))


def _tally(a: PackedFlags, b: PackedFlags) -> tuple[int, int, int, int]:
    """The popcounts of two blocks' flags: (a, b, both, trials).

    Flags are `PackedFlags` of one trial count; anything else raises
    TypeError, since a -1 or a 0/1 integer would be counted by truth and not
    by meaning.
    """
    for name, flags in (("a", a), ("b", b)):
        if not isinstance(flags, PackedFlags):
            raise TypeError(
                f"{name}: flags must be packed boolean flags (PackedFlags), "
                f"got {type(flags).__name__}"
            )
    if a.count != b.count:
        raise ValueError("flags of different trial counts")
    n = a.count
    a, b = a.words, b.words
    # One reduction over the three rows of per-word popcounts: a reduction
    # costs about as much as the popcounts of a block's words.
    counts = np.empty((3, a.size), dtype=np.uint8)
    np.bitwise_count(a, out=counts[0])
    np.bitwise_count(b, out=counts[1])
    np.bitwise_count(a & b, out=counts[2])
    n_a, n_b, n_ab = np.add.reduce(counts, axis=1, dtype=np.uint64).tolist()
    return n_a, n_b, n_ab, n


class _Counts(_Frozen):
    """Exact integer counts: every field is nonnegative, and two counts of
    one class add field by field."""

    def __post_init__(self) -> None:
        for name in self._fields:
            if self.__dict__[name] < 0:
                raise ValueError(f"{name} must be nonnegative")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # A count's __dict__ holds its fields alone, in field order.
        return type(self)(*map(operator.add, self.__dict__.values(), other.__dict__.values()))


class CoincidenceCounts(_Counts):
    """Joint two-channel outcome counts for one settings pair."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def as_array(self) -> np.ndarray:
        return np.array([self.n_pp, self.n_pm, self.n_mp, self.n_mm], dtype=np.int64)

    @classmethod
    def from_outcomes(cls, out_a: PackedFlags, out_b: PackedFlags) -> "CoincidenceCounts":
        """Count joint outcomes from per-trial channel flags (set: parallel):
        N_pp is the `_tally` of both arms, the other cells follow from it."""
        n_a, n_b, n_pp, n = _tally(out_a, out_b)
        return cls(n_pp, n_a - n_pp, n_b - n_pp, n - n_a - n_b + n_pp)


class ChainCounts(_Counts):
    """Detection counts behind per-arm element chains."""

    n_det_a: int
    n_det_b: int
    n_det_both: int
    n_total: int

    @classmethod
    def from_flags(cls, det_a: PackedFlags, det_b: PackedFlags) -> "ChainCounts":
        """Count detections from per-trial detection flags of each arm."""
        return cls(*_tally(det_a, det_b))


def estimate_correlation(counts: CoincidenceCounts) -> tuple[float, float]:
    """Correlation estimate E and its binomial standard error.

    E = (N_pp + N_mm - N_pm - N_mp) / N_total, stderr = sqrt((1 - E^2) / N).
    """
    n = counts.total
    if n < 1:
        raise ValueError("cannot estimate a correlation from zero counts")
    e = (counts.n_pp + counts.n_mm - counts.n_pm - counts.n_mp) / n
    stderr = math.sqrt(max(1.0 - e * e, 0.0) / n)
    return e, stderr


class PairEstimate(_Frozen):
    """Correlation estimate at one analyzer settings pair (angles in radians)."""

    a: float
    b: float
    counts: CoincidenceCounts
    e: float
    e_stderr: float

    @classmethod
    def from_counts(cls, a: float, b: float, counts: CoincidenceCounts) -> "PairEstimate":
        e, stderr = estimate_correlation(counts)
        return cls(a=a, b=b, counts=counts, e=e, e_stderr=stderr)


class ChshReport(_Frozen):
    """The four-pair correlation combination with verdicts.

    ``s = E(a,b) - E(a,b') + E(a',b) + E(a',b')``; the stored pair estimates
    let the combination be recomputed exactly. ``violates_classical`` means
    |S| exceeds 2 by at least ``k_sigma`` standard errors, and is never
    claimed on a zero standard error: that comes from pairs whose every trial
    agreed (or every trial disagreed), which is too few trials to measure
    the spread, not a certain violation. ``within_tsirelson`` means |S| does
    not exceed 2*sqrt(2) by more than ``k_sigma`` standard errors.
    """

    pairs: tuple[PairEstimate, PairEstimate, PairEstimate, PairEstimate]
    s: float
    s_stderr: float
    k_sigma: float
    violates_classical: bool
    within_tsirelson: bool

    @property
    def settings(self) -> tuple[float, float, float, float]:
        """(a, b, a', b') in radians."""
        return (self.pairs[0].a, self.pairs[0].b, self.pairs[2].a, self.pairs[1].b)


def chsh_report(
    pair_ab: PairEstimate,
    pair_ab2: PairEstimate,
    pair_a2b: PairEstimate,
    pair_a2b2: PairEstimate,
    k_sigma: float = 3.0,
) -> ChshReport:
    """Combine four pair estimates laid out as (a,b), (a,b'), (a',b), (a',b')."""
    if not (
        math.isclose(pair_ab.a, pair_ab2.a)
        and math.isclose(pair_a2b.a, pair_a2b2.a)
        and math.isclose(pair_ab.b, pair_a2b.b)
        and math.isclose(pair_ab2.b, pair_a2b2.b)
    ):
        raise ValueError("pair estimates do not share the (a, b, a', b') structure")
    s = pair_ab.e - pair_ab2.e + pair_a2b.e + pair_a2b2.e
    s_stderr = math.sqrt(
        pair_ab.e_stderr**2 + pair_ab2.e_stderr**2 + pair_a2b.e_stderr**2 + pair_a2b2.e_stderr**2
    )
    return ChshReport(
        pairs=(pair_ab, pair_ab2, pair_a2b, pair_a2b2),
        s=s,
        s_stderr=s_stderr,
        k_sigma=k_sigma,
        violates_classical=s_stderr > 0.0 and (abs(s) - CLASSICAL_BOUND) >= k_sigma * s_stderr,
        within_tsirelson=abs(s) <= TSIRELSON_BOUND + k_sigma * s_stderr,
    )


def conditional_detection(counts: ChainCounts) -> tuple[float, float]:
    """P(arm-B detection | arm-A detection) with its binomial standard error."""
    if counts.n_det_a < 1:
        raise ValueError("no arm-A detections to condition on")
    p = counts.n_det_both / counts.n_det_a
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / counts.n_det_a)
    return p, stderr


class OrderInvarianceResult(_Frozen):
    chi_square: float
    p_value: float
    degrees_of_freedom: int
    consistent: bool


MIN_ORDER_TEST_TRIALS = 10_000
ORDER_TEST_ALPHA = 0.01


def _chi2_tail(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with ``dof`` of 1, 2 or 3, in closed form."""
    if dof == 2:
        return math.exp(-x / 2)
    tail = math.erfc(math.sqrt(x / 2))
    if dof == 3:
        tail += math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    return tail


def order_invariance_test(
    counts_first: CoincidenceCounts, counts_second: CoincidenceCounts
) -> OrderInvarianceResult:
    """Pearson chi-square homogeneity test between two joint-outcome histograms.

    Both samples must hold at least 10^4 trials. ``consistent`` is True when
    the p-value exceeds ``ORDER_TEST_ALPHA``, i.e. the two measurement orders
    produced statistically indistinguishable distributions.
    """
    if counts_first.total < MIN_ORDER_TEST_TRIALS or counts_second.total < MIN_ORDER_TEST_TRIALS:
        raise ValueError(f"order test needs at least {MIN_ORDER_TEST_TRIALS} trials per ordering")
    table = np.vstack([counts_first.as_array(), counts_second.as_array()])
    keep = table.sum(axis=0) > 0
    table = table[:, keep]
    if table.shape[1] < 2:
        # Both runs concentrated on one category: identical by construction.
        return OrderInvarianceResult(0.0, 1.0, 0, True)
    if np.array_equal(table[0], table[1]):
        return OrderInvarianceResult(0.0, 1.0, int(table.shape[1] - 1), True)
    # Pearson's statistic without continuity correction, in float64.
    observed = table.astype(np.float64)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    dof = int(table.shape[1] - 1)
    p_value = _chi2_tail(chi2, dof)
    return OrderInvarianceResult(chi2, p_value, dof, p_value > ORDER_TEST_ALPHA)


def binomial_stderr(p: float, n: int) -> float:
    """Standard error of a proportion estimated from n trials."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)
