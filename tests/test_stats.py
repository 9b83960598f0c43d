import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from eprsim.stats import (
    MIN_ORDER_TEST_TRIALS,
    ChainCounts,
    CoincidenceCounts,
    PackedFlags,
    PairEstimate,
    binomial_stderr,
    chsh_report,
    conditional_detection,
    estimate_correlation,
    order_invariance_test,
)


class TestCorrelationEstimator:
    def test_perfect_correlation(self):
        e, stderr = estimate_correlation(CoincidenceCounts(50, 0, 0, 50))
        assert e == 1.0
        assert stderr == 0.0

    def test_no_correlation(self):
        e, stderr = estimate_correlation(CoincidenceCounts(25, 25, 25, 25))
        assert e == 0.0
        assert stderr == pytest.approx(math.sqrt(1.0 / 100))

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            estimate_correlation(CoincidenceCounts(0, 0, 0, 0))

    def test_stderr_formula(self):
        counts = CoincidenceCounts(40, 10, 10, 40)
        e, stderr = estimate_correlation(counts)
        assert e == pytest.approx(0.6)
        assert stderr == pytest.approx(math.sqrt((1 - 0.36) / 100))

    def test_from_outcomes(self):
        out_a = PackedFlags.pack(np.array([True, True, False, False, True]))
        out_b = PackedFlags.pack(np.array([True, False, True, False, True]))
        counts = CoincidenceCounts.from_outcomes(out_a, out_b)
        assert counts == CoincidenceCounts(2, 1, 1, 1)

    @staticmethod
    def _bincount_counts(out_a, out_b):
        """The earlier int64/bincount tally, kept as the reference."""
        a_bit = 1 - out_a.astype(np.int64)
        b_bit = 1 - out_b.astype(np.int64)
        return CoincidenceCounts(*(int(c) for c in np.bincount(a_bit * 2 + b_bit, minlength=4)))

    @pytest.mark.parametrize("size", [0, 1, 7, 1000, 65_537])
    def test_from_outcomes_matches_bincount_tally(self, size):
        rng = np.random.default_rng(size)
        out_a = rng.choice(np.array([False, True]), size)
        out_b = rng.choice(np.array([False, True]), size)
        packed_a, packed_b = PackedFlags.pack(out_a), PackedFlags.pack(out_b)
        assert CoincidenceCounts.from_outcomes(packed_a, packed_b) == self._bincount_counts(
            out_a, out_b
        )
        pair_index = rng.integers(0, 3, size).astype(np.int32)
        for j in range(3):
            mask = pair_index == j
            got = CoincidenceCounts.from_outcomes(packed_a, packed_b, PackedFlags.pack(mask))
            assert got == self._bincount_counts(out_a[mask], out_b[mask])
        assert CoincidenceCounts.from_outcomes(
            packed_a, packed_b, PackedFlags.pack(np.zeros(size, dtype=bool))
        ) == CoincidenceCounts(0, 0, 0, 0)

    def test_counts_are_mergeable(self):
        a = CoincidenceCounts(1, 2, 3, 4)
        b = CoincidenceCounts(10, 20, 30, 40)
        assert a + b == CoincidenceCounts(11, 22, 33, 44)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CoincidenceCounts(-1, 0, 0, 0)


def _pair(a, b, e, n=1_000_000):
    """A pair estimate with correlation ~e from balanced synthetic counts."""
    n_agree = round(n * (1 + e) / 2)
    n_pp = n_agree // 2
    n_pm = (n - n_agree) // 2
    counts = CoincidenceCounts(n_pp, n_pm, n - n_agree - n_pm, n_agree - n_pp)
    return PairEstimate.from_counts(a, b, counts)


class TestChshReport:
    def test_s_is_recomputable_from_pairs(self):
        a, b, a2, b2 = 0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8
        report = chsh_report(
            _pair(a, b, 0.7), _pair(a, b2, -0.7), _pair(a2, b, 0.7), _pair(a2, b2, 0.7)
        )
        recomputed = (
            report.pairs[0].e - report.pairs[1].e + report.pairs[2].e + report.pairs[3].e
        )
        assert report.s == recomputed  # exact, not approximate

    def test_verdicts(self):
        a, b, a2, b2 = 0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8
        quantum = chsh_report(
            _pair(a, b, 0.707), _pair(a, b2, -0.707), _pair(a2, b, 0.707), _pair(a2, b2, 0.707)
        )
        assert quantum.violates_classical
        assert quantum.within_tsirelson
        classical = chsh_report(
            _pair(a, b, 0.5), _pair(a, b2, -0.5), _pair(a2, b, 0.5), _pair(a2, b2, 0.5)
        )
        assert not classical.violates_classical
        assert classical.within_tsirelson

    def test_zero_stderr_claims_no_violation(self):
        # one trial per pair: every pair's E is +-1 with stderr 0, and
        # S = 4 says nothing about a violation
        a, b, a2, b2 = 0.0, 0.1, 0.2, 0.3
        agree, disagree = CoincidenceCounts(1, 0, 0, 0), CoincidenceCounts(0, 1, 0, 0)
        report = chsh_report(
            PairEstimate.from_counts(a, b, agree),
            PairEstimate.from_counts(a, b2, disagree),
            PairEstimate.from_counts(a2, b, agree),
            PairEstimate.from_counts(a2, b2, agree),
        )
        assert report.s == 4.0
        assert report.s_stderr == 0.0
        assert not report.violates_classical
        assert not report.within_tsirelson
        assert estimate_correlation(agree) == (1.0, 0.0)

    def test_stderr_combines_in_quadrature(self):
        a, b, a2, b2 = 0.0, 0.1, 0.2, 0.3
        pairs = [_pair(a, b, 0.0), _pair(a, b2, 0.0), _pair(a2, b, 0.0), _pair(a2, b2, 0.0)]
        report = chsh_report(*pairs)
        want = math.sqrt(sum(p.e_stderr**2 for p in pairs))
        assert report.s_stderr == pytest.approx(want)

    def test_mismatched_settings_rejected(self):
        a, b, a2, b2 = 0.0, 0.1, 0.2, 0.3
        with pytest.raises(ValueError):
            chsh_report(
                _pair(a, b, 0.0), _pair(a, b2, 0.0), _pair(a2, 0.9, 0.0), _pair(a2, b2, 0.0)
            )

    def test_settings_echo(self):
        a, b, a2, b2 = 0.0, 0.1, 0.2, 0.3
        report = chsh_report(
            _pair(a, b, 0.0), _pair(a, b2, 0.0), _pair(a2, b, 0.0), _pair(a2, b2, 0.0)
        )
        assert report.settings == (a, b, a2, b2)


class TestConditionalDetection:
    def test_certain_conditional(self):
        p, stderr = conditional_detection(ChainCounts(500, 500, 500, 1000))
        assert p == 1.0
        assert stderr == 0.0

    def test_half_conditional(self):
        p, stderr = conditional_detection(ChainCounts(1000, 1000, 500, 2000))
        assert p == 0.5
        assert stderr == pytest.approx(math.sqrt(0.25 / 1000))

    def test_requires_conditioning_events(self):
        with pytest.raises(ValueError):
            conditional_detection(ChainCounts(0, 10, 0, 100))

    def test_from_flags(self):
        det_a = PackedFlags.pack(np.array([True, True, False, False, True]))
        det_b = PackedFlags.pack(np.array([True, False, True, False, True]))
        counts = ChainCounts.from_flags(det_a, det_b)
        assert counts == ChainCounts(3, 3, 2, 5)


@pytest.mark.parametrize(
    "count,args",
    [
        (CoincidenceCounts.from_outcomes, (np.array([1, -1], dtype=np.int8),) * 2),
        (
            CoincidenceCounts.from_outcomes,
            (PackedFlags.pack(np.ones(2, bool)),) * 2 + (np.ones(2, int),),
        ),
        (ChainCounts.from_flags, (np.array([1, 0], dtype=np.uint8),) * 2),
        (ChainCounts.from_flags, (np.ones(2, bool),) * 2),
        (PackedFlags.pack, (np.array([1, -1], dtype=np.int8),)),
    ],
    ids=["signs", "integer-mask", "uint8", "unpacked", "pack-signs"],
)
def test_counts_take_only_boolean_flags(count, args):
    # a -1 is truthy, so a +-1 array counted by truth would read every trial as parallel
    with pytest.raises(TypeError, match="boolean"):
        count(*args)


def test_counts_take_flags_of_one_trial_count():
    five = PackedFlags.pack(np.ones(5, bool))
    six = PackedFlags.pack(np.ones(6, bool))
    with pytest.raises(ValueError, match="trial counts"):
        CoincidenceCounts.from_outcomes(five, six)
    with pytest.raises(ValueError, match="trial counts"):
        CoincidenceCounts.from_outcomes(five, five, six)


class TestOrderInvariance:
    def test_identical_histograms(self):
        counts = CoincidenceCounts(5000, 2500, 1500, 1000)
        result = order_invariance_test(counts, counts)
        assert result.chi_square == 0.0
        assert result.consistent

    def test_multinomial_noise_passes(self):
        rng = np.random.default_rng(4)
        p = (0.45, 0.05, 0.05, 0.45)
        a = rng.multinomial(1_000_000, p)
        b = rng.multinomial(1_000_000, p)
        result = order_invariance_test(CoincidenceCounts(*a), CoincidenceCounts(*b))
        assert result.consistent

    def test_constructed_difference_fails(self):
        a = CoincidenceCounts(5000, 0, 0, 5000)
        b = CoincidenceCounts(2500, 2500, 2500, 2500)
        result = order_invariance_test(a, b)
        assert not result.consistent
        assert result.p_value < 0.01

    def test_sample_size_precondition(self):
        small = CoincidenceCounts(10, 10, 10, 10)
        with pytest.raises(ValueError):
            order_invariance_test(small, small)

    def test_concentrated_identical_histograms(self):
        a = CoincidenceCounts(10_000, 0, 0, 0)
        result = order_invariance_test(a, a)
        assert result.consistent

    @pytest.mark.parametrize(
        "first, second",
        [
            ((6_000, 0, 0, 4_000), (5_800, 0, 0, 4_200)),  # dof 1
            ((5_000, 0, 3_000, 2_000), (5_100, 0, 2_900, 2_000)),  # dof 2
            ((4_510, 490, 530, 4_470), (4_480, 520, 505, 4_495)),  # dof 3
        ],
    )
    def test_matches_scipy_chi2_contingency_bit_for_bit(self, first, second):
        result = order_invariance_test(CoincidenceCounts(*first), CoincidenceCounts(*second))
        table = np.array([first, second])
        chi2, p_value, dof, _ = chi2_contingency(
            table[:, table.sum(axis=0) > 0], correction=False
        )
        assert dof == table.shape[1] - 1 - list(first).count(0)
        assert (result.chi_square, result.p_value, result.degrees_of_freedom) == (
            chi2, p_value, dof,
        )

    # Any 2x4 table the test accepts. A cell is often zero, so whole columns
    # drop out (dof 0 to 3), and cells up to 10**12 make products of row and
    # column sums that int64 arithmetic would overflow.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0), st.integers(0, 10**12)), min_size=8, max_size=8))
    def test_matches_scipy_chi2_contingency_on_any_table(self, cells):
        table = np.array(cells, dtype=np.int64).reshape(2, 4)
        assume((table.sum(axis=1) >= MIN_ORDER_TEST_TRIALS).all())
        result = order_invariance_test(
            CoincidenceCounts(*cells[:4]), CoincidenceCounts(*cells[4:])
        )
        kept = table[:, table.sum(axis=0) > 0]
        if np.array_equal(kept[0], kept[1]):
            want = (0.0, 1.0, kept.shape[1] - 1)  # identical samples: no test is run
        else:
            chi2, p_value, dof, _ = chi2_contingency(kept, correction=False)
            want = (chi2, p_value, dof)
        assert (result.chi_square, result.p_value, result.degrees_of_freedom) == want
        assert result.consistent == (result.p_value > 0.01)


def test_binomial_stderr():
    assert binomial_stderr(0.5, 100) == pytest.approx(0.05)
    assert binomial_stderr(1.0, 100) == 0.0
    with pytest.raises(ValueError):
        binomial_stderr(0.5, 0)
