import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from eprsim import kernels
from eprsim.engine import trial_draws
from eprsim.models import (
    DefiniteCircular,
    Lhv,
    LhvModel,
    NdvNonlocal,
    Ordering,
    QMFormal,
    definite_circular_as_lhv,
    deterministic_sign_model,
    lhv_correlation,
    lhv_joint_probabilities,
    malus_response_model,
    validate_lhv_model,
)
from eprsim.polarization import Handedness
from eprsim.reference import LambdaSample, RAnalyzer, TrialDraws
from eprsim.twophoton import linear_entangled

CANONICAL = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)  # a, b, a', b'


def draws_for(seed: int, count: int) -> list[TrialDraws]:
    return [trial_draws(seed, i) for i in range(count)]


def sign_correlation(theta: float) -> float:
    """Independent closed form for the deterministic-sign model."""
    theta = abs(theta) % math.pi
    if theta <= math.pi / 2:
        return 1.0 - 4.0 * theta / math.pi
    return 4.0 * theta / math.pi - 3.0


class TestEmission:
    def test_qm_emits_the_entangled_state_every_trial(self):
        model = QMFormal()
        for d in draws_for(3, 10):
            assert model.emit(d).phase_insensitive_equals(linear_entangled(), 1e-12)

    def test_definite_circular_handedness_is_a_fair_coin(self):
        model = DefiniteCircular()
        # engine-scale check via the chain kernel: arm-A detection marks RR
        det_a, _ = kernels.qwp_block(11, 0, 1_000_000, model, Ordering.ARM1_FIRST)
        frac_rr = det_a.unpack().mean()
        assert abs(frac_rr - 0.5) <= 0.002  # ~4 sigma at 1e6
        # and the object layer agrees with the emission draw rule
        for d in draws_for(11, 200):
            expected = Handedness.R if d.emission < 0.5 else Handedness.L
            assert model.emit(d) is expected

    def test_lhv_lambda_histogram_is_uniform(self):
        u = kernels.uniform_block(12, 0, 1_000_000, kernels.SLOT_EMISSION)
        lam = deterministic_sign_model().sample(u)
        counts, _ = np.histogram(lam, bins=20, range=(0.0, math.pi))
        chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
        p = scipy_stats.chi2.sf(chi2, df=19)
        assert p > 0.01


class TestTwoChannelResponses:
    def test_qm_equal_settings_always_same_channel(self):
        model = QMFormal()
        for d in draws_for(4, 300):
            out_a, out_b = model.respond_two_channel(model.emit(d), 0.9, 0.9, Ordering.ARM1_FIRST, d)
            assert out_a == out_b

    def test_qm_empirical_matches_closed_form(self):
        theta = math.pi / 8
        pa = np.array([0.0])
        pb = np.array([theta])
        cw = np.array([1.0])
        n = 1_000_000
        _, oa, ob = kernels.two_channel_block(5, 0, n, QMFormal(), pa, pb, cw, Ordering.ARM1_FIRST)
        p_pp = np.count_nonzero(oa.unpack() & ob.unpack()) / n
        want = 0.5 * math.cos(theta) ** 2
        sigma = math.sqrt(want * (1.0 - want) / n)
        assert abs(p_pp - want) <= 4 * sigma

    def test_definite_circular_correlation_vanishes(self):
        n = 1_000_000
        pa, pb, cw = np.array([0.2]), np.array([1.0]), np.array([1.0])
        _, oa, ob = kernels.two_channel_block(
            6, 0, n, DefiniteCircular(), pa, pb, cw, Ordering.ARM1_FIRST
        )
        e = float(np.mean(np.where(oa.unpack() == ob.unpack(), 1.0, -1.0)))
        assert abs(e) <= 4.0 / math.sqrt(n)
        # matches its factorized recasting exactly at the oracle level
        oracle = lhv_joint_probabilities(definite_circular_as_lhv(), 0.2, 1.0)
        assert oracle.as_tuple() == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)

    def test_ndv_and_qm_share_two_channel_statistics(self):
        # identical Malus correlations; they only split on the chain protocol
        n = 200_000
        theta = 0.6
        pa, pb, cw = np.array([0.0]), np.array([theta]), np.array([1.0])
        order = Ordering.ARM1_FIRST
        _, oa_qm, ob_qm = kernels.two_channel_block(7, 0, n, QMFormal(), pa, pb, cw, order)
        _, oa_nd, ob_nd = kernels.two_channel_block(7, 0, n, NdvNonlocal(), pa, pb, cw, order)
        e_qm = float(np.mean(np.where(oa_qm.unpack() == ob_qm.unpack(), 1.0, -1.0)))
        e_nd = float(np.mean(np.where(oa_nd.unpack() == ob_nd.unpack(), 1.0, -1.0)))
        assert abs(e_qm - e_nd) <= 8.0 / math.sqrt(n)

    def test_model_emission_mismatch_raises(self):
        d = trial_draws(1, 0)
        with pytest.raises(TypeError):
            QMFormal().respond_two_channel(
                LambdaSample(0.1, "x"), 0.0, 0.0, Ordering.ARM1_FIRST, d
            )
        with pytest.raises(TypeError):
            DefiniteCircular().respond_two_channel(
                linear_entangled(), 0.0, 0.0, Ordering.ARM1_FIRST, d
            )


class TestQwpChainResponses:
    @pytest.mark.parametrize("ordering", [Ordering.ARM1_FIRST, Ordering.ARM2_FIRST])
    def test_definite_circular_is_perfectly_conditional(self, ordering):
        model = DefiniteCircular()
        chain = RAnalyzer()
        for d in draws_for(8, 500):
            da, db = model.respond_qwp_chain(model.emit(d), chain, chain, ordering, d)
            assert da == db  # detected together or not at all

    def test_qm_detection_is_perfectly_conditional(self):
        model = QMFormal()
        chain = RAnalyzer()
        for d in draws_for(9, 500):
            da, db = model.respond_qwp_chain(model.emit(d), chain, chain, Ordering.ARM1_FIRST, d)
            assert da == db

    def test_ndv_conditional_detection_is_half(self):
        det_a, det_b = kernels.qwp_block(10, 0, 1_000_000, NdvNonlocal(), Ordering.ARM1_FIRST)
        det_a, det_b = det_a.unpack(), det_b.unpack()
        both = np.count_nonzero(det_a & det_b)
        n_a = np.count_nonzero(det_a)
        p = both / n_a
        assert abs(p - 0.5) <= 0.0015  # 3 sigma at ~5e5 conditioning trials

    def test_chain_validation(self):
        d = trial_draws(1, 0)
        model = QMFormal()
        with pytest.raises(TypeError):
            model.respond_qwp_chain(model.emit(d), "not a chain", RAnalyzer(), Ordering.ARM1_FIRST, d)


class TestLhvOracle:
    def test_sign_model_correlation_closed_form(self):
        model = deterministic_sign_model()
        for theta in (0.0, math.pi / 8, math.pi / 4, math.pi / 2, 2.0, 3.0):
            e = lhv_correlation(model, 0.3, 0.3 + theta)
            assert e == pytest.approx(sign_correlation(theta), abs=1e-9)

    def test_malus_model_correlation_closed_form(self):
        model = malus_response_model()
        for theta in (0.0, 0.2, math.pi / 8, 1.1, 2.7):
            e = lhv_correlation(model, 0.0, theta)
            assert e == pytest.approx(0.5 * math.cos(2 * theta), abs=1e-9)

    def test_sign_model_reaches_the_classical_bound(self):
        model = deterministic_sign_model()
        a, b, a2, b2 = CANONICAL
        s = (
            lhv_correlation(model, a, b)
            - lhv_correlation(model, a, b2)
            + lhv_correlation(model, a2, b)
            + lhv_correlation(model, a2, b2)
        )
        assert s == pytest.approx(2.0, abs=1e-9)

    def test_completeness(self):
        rng = np.random.default_rng(10)
        for model in (deterministic_sign_model(), malus_response_model()):
            for _ in range(10):
                a, b = rng.uniform(0.0, math.pi, size=2)
                jp = lhv_joint_probabilities(model, a, b)
                assert jp.total() == pytest.approx(1.0, abs=1e-6)
                assert min(jp.as_tuple()) >= -1e-12

    def test_no_signalling(self):
        # the arm-A marginal cannot depend on the remote setting
        for model in (deterministic_sign_model(), malus_response_model()):
            a = 0.77
            marginals = []
            for b in np.linspace(0.0, math.pi, 11):
                jp = lhv_joint_probabilities(model, a, b)
                marginals.append(jp.p_pp + jp.p_pm)
            assert max(marginals) - min(marginals) < 1e-6

    def test_midpoint_method_agrees_on_smooth_model(self):
        model = malus_response_model()
        a, b = 0.3, 1.1
        seg = lhv_joint_probabilities(model, a, b, method="segmented")
        mid = lhv_joint_probabilities(model, a, b, method="midpoint", n=4096)
        for x, y in zip(seg.as_tuple(), mid.as_tuple()):
            assert x == pytest.approx(y, abs=1e-6)

    def test_monte_carlo_matches_oracle(self):
        rng = np.random.default_rng(11)
        n = 200_000
        for offset, model in enumerate([deterministic_sign_model(), malus_response_model()]):
            a, b = rng.uniform(0.0, math.pi, size=2)
            pa, pb, cw = np.array([a]), np.array([b]), np.array([1.0])
            _, oa, ob = kernels.two_channel_block(
                12, offset * n, n, Lhv(model), pa, pb, cw, Ordering.ARM1_FIRST
            )
            oa, ob = oa.unpack(), ob.unpack()
            oracle = lhv_joint_probabilities(model, a, b)
            emp = np.array(
                [
                    np.count_nonzero(oa & ob),
                    np.count_nonzero(oa & ~ob),
                    np.count_nonzero(~oa & ob),
                    np.count_nonzero(~oa & ~ob),
                ]
            ) / n
            for got, want in zip(emp, oracle.as_tuple()):
                sigma = math.sqrt(max(want * (1.0 - want), 1e-12) / n)
                assert abs(got - want) <= 4 * sigma

    def test_validation_rejects_bad_densities(self):
        bad = LhvModel(
            name="bad",
            density=lambda lam: np.full_like(np.asarray(lam, float), 2.0 / math.pi),
            sample=lambda u: np.asarray(u, float) * math.pi,
            response_a=lambda s, lam: np.full_like(np.asarray(lam, float), 0.5),
            response_b=lambda s, lam: np.full_like(np.asarray(lam, float), 0.5),
        )
        with pytest.raises(ValueError):
            validate_lhv_model(bad)

    def test_validation_rejects_out_of_range_responses(self):
        bad = LhvModel(
            name="bad",
            density=lambda lam: np.full_like(np.asarray(lam, float), 1.0 / math.pi),
            sample=lambda u: np.asarray(u, float) * math.pi,
            response_a=lambda s, lam: np.full_like(np.asarray(lam, float), 1.5),
            response_b=lambda s, lam: np.full_like(np.asarray(lam, float), 0.5),
        )
        with pytest.raises(ValueError):
            validate_lhv_model(bad)

    def test_validation_rejects_deterministic_without_breakpoints(self):
        bad = dataclasses.replace(
            deterministic_sign_model(), name="no-breakpoints", response_breakpoints=None
        )
        with pytest.raises(ValueError, match="no-breakpoints: .* response_breakpoints"):
            validate_lhv_model(bad)

    def test_validation_rejects_deterministic_fractional_responses(self):
        bad = dataclasses.replace(
            malus_response_model(),
            name="fractional",
            response_breakpoints=lambda s: np.array([]),
            deterministic=True,
        )
        with pytest.raises(ValueError, match="fractional: deterministic response_a"):
            validate_lhv_model(bad)

    @pytest.mark.parametrize(
        "response",
        [
            # math.cos takes no array, and every path passes the setting as a scalar
            lambda s, lam: math.cos(s) ** 2 * np.ones_like(np.asarray(lam, float)),
            lambda s, lam: np.full_like(np.asarray(lam, float), 0.5 if np.ndim(s) == 0 else 0.25),
        ],
        ids=["scalar-only", "array-differs"],
    )
    def test_validation_accepts_responses_that_take_only_a_scalar_setting(self, response):
        model = LhvModel(
            name="scalar-setting",
            density=lambda lam: np.full_like(np.asarray(lam, float), 1.0 / math.pi),
            sample=lambda u: np.asarray(u, float) * math.pi,
            response_a=lambda s, lam: np.full_like(np.asarray(lam, float), 0.5),
            response_b=response,
        )
        validate_lhv_model(model)
        # an even response_a leaves the outcomes uncorrelated whatever response_b does
        assert lhv_correlation(model, 0.0, 0.3) == pytest.approx(0.0, abs=1e-9)


class TestLhvObjectLayer:
    def test_lhv_responses_respect_the_hidden_parameter(self):
        model = Lhv(deterministic_sign_model())
        d = trial_draws(14, 3)
        emission = model.emit(d)
        assert 0.0 <= emission.value < math.pi
        out_a, out_b = model.respond_two_channel(emission, 0.0, 0.0, Ordering.ARM1_FIRST, d)
        # deterministic responses: same setting, same lambda -> same channel
        assert out_a == out_b

    def test_lhv_chain_detection_is_independent_halves(self):
        model = Lhv(malus_response_model())
        hits_a = hits_b = 0
        n = 2000
        for d in draws_for(15, n):
            da, db = model.respond_qwp_chain(model.emit(d), RAnalyzer(), RAnalyzer(), Ordering.ARM1_FIRST, d)
            hits_a += da
            hits_b += db
        assert abs(hits_a / n - 0.5) < 0.05
        assert abs(hits_b / n - 0.5) < 0.05
