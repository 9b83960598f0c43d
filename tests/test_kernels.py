"""Counter-based draws against an independent reference, and kernel-vs-object-layer agreement.

The kernels must reproduce a pure-Python philox4x64-10 word for word, and
agree per-trial with the slow object-layer models when fed the same
counter-based draws.
"""

import math

import numpy as np
import pytest

from eprsim import kernels
from eprsim.engine import trial_draws, trial_stream
from eprsim.models import (
    DefiniteCircular,
    Lhv,
    NdvNonlocal,
    Ordering,
    QMFormal,
    RAnalyzer,
    deterministic_sign_model,
    malus_response_model,
)
from eprsim.twophoton import ChannelOutcome


@pytest.fixture(params=[kernels.backend()])
def backend(request):
    """The one kernel backend, named in the test ids."""
    return request.param


MASK64 = (1 << 64) - 1


def philox4x64_reference(key: tuple[int, int], counter: tuple[int, int, int, int]) -> list[int]:
    """Scalar philox4x64-10 (Salmon et al., SC'11), written independently of the kernel code."""
    m0, m1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
    w0, w1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
    c = list(counter)
    k = list(key)
    for _ in range(10):
        p0 = c[0] * m0
        p1 = c[2] * m1
        c = [
            ((p1 >> 64) ^ c[1] ^ k[0]) & MASK64,
            p1 & MASK64,
            ((p0 >> 64) ^ c[3] ^ k[1]) & MASK64,
            p0 & MASK64,
        ]
        k = [(k[0] + w0) & MASK64, (k[1] + w1) & MASK64]
    return c


def reference_uniform(seed: int, trial: int, slot: int) -> float:
    """Draw `slot` of `trial`: word slot % 4 at counter (trial, slot // 4, 0, 0)."""
    words = philox4x64_reference((seed, 0), (trial, slot // 4, 0, 0))
    return (words[slot % 4] >> 11) * 2.0**-53


# (seed, trial, group): both ends of the seed and trial ranges, and both
# slot groups; trial 0 wraps the whole 256-bit counter and trial 2**64 - 1
# of group 1 carries into the group word.
REFERENCE_POINTS = [
    (0, 0, 0),
    (0, 0, 1),
    (7, 5, 1),
    (2**64 - 1, 2**40 + 3, 0),
    (42, 2**64 - 1, 0),
    (42, 2**64 - 1, 1),
]


class TestCounterBasedUniforms:
    @pytest.mark.parametrize("seed,trial,group", REFERENCE_POINTS)
    def test_matches_scalar_reference(self, seed, trial, group):
        for slot in range(4 * group, 4 * group + 4):
            got = float(kernels.uniform_block(seed, trial, 1, slot)[0])
            assert got == reference_uniform(seed, trial, slot)

    @pytest.mark.parametrize("seed,trial,group", REFERENCE_POINTS)
    def test_trial_uniforms_match_reference(self, seed, trial, group):
        got = kernels.trial_uniforms(seed, trial, 4 * group, 4)
        assert list(got) == [reference_uniform(seed, trial, 4 * group + k) for k in range(4)]

    def test_block_rows_follow_the_trial_index(self):
        start, count = 2**64 - 6, 6
        for slot in (kernels.SLOT_ARM_B, kernels.SLOT_ORDERING):
            got = kernels.uniform_block(3, start, count, slot)
            assert list(got) == [reference_uniform(3, start + i, slot) for i in range(count)]

    @pytest.mark.parametrize("trial", [0, 2**64 - 1])
    def test_stream_crosses_the_group_boundary(self, trial):
        stream = trial_stream(11, trial)
        got = list(stream.uniforms(3)) + list(stream.uniforms(6))
        assert got == [reference_uniform(11, trial, j) for j in range(9)]

    def test_trial_draws_follow_the_slot_layout(self):
        d = trial_draws(5, 2**64 - 1)
        assert d.settings == reference_uniform(5, 2**64 - 1, kernels.SLOT_SETTINGS)
        assert d.emission == reference_uniform(5, 2**64 - 1, kernels.SLOT_EMISSION)
        assert d.arm_a == reference_uniform(5, 2**64 - 1, kernels.SLOT_ARM_A)
        assert d.arm_b == reference_uniform(5, 2**64 - 1, kernels.SLOT_ARM_B)
        assert d.ordering == reference_uniform(5, 2**64 - 1, kernels.SLOT_ORDERING)
        layout = (kernels.SLOT_SETTINGS, kernels.SLOT_EMISSION, kernels.SLOT_ARM_A,
                  kernels.SLOT_ARM_B, kernels.SLOT_ORDERING)
        assert layout == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize(
        "seed,start,count", [(-1, 0, 1), (2**64, 0, 1), (1, -1, 1), (1, 2**64 - 1, 2)]
    )
    def test_rejects_seeds_and_trials_outside_64_bits(self, seed, start, count):
        with pytest.raises(ValueError):
            kernels.uniform_block(seed, start, count, kernels.SLOT_ARM_A)

    def test_same_seed_same_index_replays(self, backend):
        a = kernels.uniform_block(9, 100, 64, kernels.SLOT_ARM_A)
        b = kernels.uniform_block(9, 100, 64, kernels.SLOT_ARM_A)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, backend):
        a = kernels.uniform_block(9, 0, 16, kernels.SLOT_ARM_A)
        b = kernels.uniform_block(10, 0, 16, kernels.SLOT_ARM_A)
        assert np.all(a != b)

    def test_range(self, backend):
        u = kernels.uniform_block(1, 0, 100_000, kernels.SLOT_EMISSION)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_stream_independence_smoke(self):
        # neighbouring per-trial streams are uncorrelated
        u0 = trial_stream(3, 0).uniforms(10_000)
        u1 = trial_stream(3, 1).uniforms(10_000)
        r = np.corrcoef(u0, u1)[0, 1]
        assert abs(r) < 0.05

    def test_stream_walks_the_slot_axis(self):
        stream = trial_stream(3, 7)
        first = stream.next_uniform()
        second = stream.next_uniform()
        assert first == reference_uniform(3, 7, 0)
        assert second == reference_uniform(3, 7, 1)


def _sign(outcome: ChannelOutcome) -> int:
    return 1 if outcome is ChannelOutcome.PLUS else -1


class TestKernelsMatchObjectLayer:
    """The fast kernels replay the per-trial model narratives exactly."""

    N = 2000
    SEED = 31

    def _object_two_channel(self, model, a, b, ordering):
        outs = np.empty((self.N, 2), dtype=np.int8)
        for i in range(self.N):
            d = trial_draws(self.SEED, i)
            oa, ob = model.respond_two_channel(model.emit(d), a, b, ordering, d)
            outs[i] = (_sign(oa), _sign(ob))
        return outs

    @pytest.mark.parametrize(
        "model,code",
        [
            (QMFormal(), kernels.MODEL_QM),
            (NdvNonlocal(), kernels.MODEL_NDV),
            (DefiniteCircular(), kernels.MODEL_DEFINITE_CIRCULAR),
            (Lhv(deterministic_sign_model()), kernels.MODEL_LHV_SIGN),
            (Lhv(malus_response_model()), kernels.MODEL_LHV_MALUS),
        ],
    )
    @pytest.mark.parametrize("ordering", [Ordering.ARM1_FIRST, Ordering.ARM2_FIRST, Ordering.RANDOM_PER_TRIAL])
    def test_two_channel(self, backend, model, code, ordering):
        a, b = 0.3, 1.0
        order_code = {
            Ordering.ARM1_FIRST: 0,
            Ordering.ARM2_FIRST: 1,
            Ordering.RANDOM_PER_TRIAL: 2,
        }[ordering]
        _, oa, ob = kernels.two_channel_block(
            self.SEED, 0, self.N, code, np.array([a]), np.array([b]), np.array([1.0]), order_code
        )
        expected = self._object_two_channel(model, a, b, ordering)
        assert np.array_equal(oa, expected[:, 0])
        assert np.array_equal(ob, expected[:, 1])

    @pytest.mark.parametrize(
        "model,qwp_code",
        [
            (QMFormal(), kernels.QWP_QM),
            (NdvNonlocal(), kernels.QWP_INDEPENDENT_HALVES),
            (DefiniteCircular(), kernels.QWP_DEFINITE_CIRCULAR),
            (Lhv(malus_response_model()), kernels.QWP_INDEPENDENT_HALVES),
        ],
    )
    def test_qwp_chain(self, backend, model, qwp_code):
        det_a, det_b = kernels.qwp_block(self.SEED, 0, self.N, qwp_code, 0)
        chain = RAnalyzer()
        for i in range(self.N):
            d = trial_draws(self.SEED, i)
            da, db = model.respond_qwp_chain(model.emit(d), chain, chain, Ordering.ARM1_FIRST, d)
            assert bool(det_a[i]) == da, i
            assert bool(det_b[i]) == db, i

    def test_custom_lhv_path_matches_builtin(self, backend):
        # the vectorized custom-callable path reproduces the dedicated kernel
        model = deterministic_sign_model()
        pa, pb, cw = np.array([0.3]), np.array([1.0]), np.array([1.0])
        got = kernels.two_channel_block_lhv(
            self.SEED, 0, self.N, model.sample, model.response_a, model.response_b, pa, pb, cw, 0
        )
        want = kernels.two_channel_block(
            self.SEED, 0, self.N, kernels.MODEL_LHV_SIGN, pa, pb, cw, 0
        )
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
