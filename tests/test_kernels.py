"""Trial-indexed draws against an independent reference, and kernel-vs-object-layer agreement.

The kernels must reproduce a pure-Python PCG64DXSM word for word, and agree
per-trial with the slow object-layer models when fed the same draws.
"""

import dataclasses
import json
import logging
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import kernels
from eprsim.engine import (
    BLOCK_SIZE,
    FixedSettings,
    RunConfig,
    run_experiment,
    trial_draws,
)
from eprsim.models import (
    DefiniteCircular,
    Lhv,
    NdvNonlocal,
    Ordering,
    QMFormal,
    deterministic_sign_model,
    malus_response_model,
)
from eprsim.reference import RAnalyzer
from eprsim.stats import ChainCounts, CoincidenceCounts, PackedFlags, pack_words
from eprsim.twophoton import ChannelOutcome


MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
# PCG64DXSM (O'Neill 2014; numpy's variant): a 128-bit LCG stepped with a
# 64-bit multiplier, whose DXSM output is taken on the state before each step.
# numpy's seeding steps the LCG with the full 128-bit PCG multiplier.
DXSM_MULTIPLIER = 0xDA942042E4DD58B5
SEED_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg_seed(seed: int, slot: int, plane: int) -> tuple[int, int]:
    """(state, inc) of the plane's stream before its first output, from numpy's
    documented `SeedSequence` words: initial state s and stream t, inc = 2t + 1,
    then one LCG step from state 0 and one more after adding s."""
    words = np.random.SeedSequence(seed, spawn_key=(slot, plane)).generate_state(4, np.uint64)
    s0, s1, t0, t1 = (int(w) for w in words)
    inc = ((t0 << 64 | t1) << 1 | 1) & MASK128
    state = (0 * SEED_MULTIPLIER + inc) & MASK128
    state = ((state + (s0 << 64 | s1)) * SEED_MULTIPLIER + inc) & MASK128
    return state, inc


def pcg_jump(state: int, inc: int, n: int) -> int:
    """The LCG state n steps on, by Brown's power method ("Random number
    generation with arbitrary strides", 1994): O(log n) squarings of the step."""
    mult, plus = 1, 0
    cur_mult, cur_plus = DXSM_MULTIPLIER, inc
    while n:
        if n & 1:
            mult = mult * cur_mult & MASK128
            plus = (plus * cur_mult + cur_plus) & MASK128
        cur_plus = (cur_mult + 1) * cur_plus & MASK128
        cur_mult = cur_mult * cur_mult & MASK128
        n >>= 1
    return (mult * state + plus) & MASK128


def dxsm(state: int) -> int:
    """The DXSM output of one LCG state."""
    hi, lo = state >> 64, (state & MASK64) | 1
    hi ^= hi >> 32
    hi = hi * DXSM_MULTIPLIER & MASK64
    hi ^= hi >> 48
    return hi * lo & MASK64


def pcg64dxsm_reference(seed: int, slot: int, plane: int, q: int) -> int:
    """Output q of the stream of ``SeedSequence(seed, spawn_key=(slot, plane))``,
    written independently of the kernel code."""
    state, inc = pcg_seed(seed, slot, plane)
    return dxsm(pcg_jump(state, inc, q))


def reference_coin(seed: int, trial: int, slot: int) -> int:
    """The coin bit c: bit trial % 64 of output trial // 64 of the coin plane."""
    return pcg64dxsm_reference(seed, slot, 1, trial // 64) >> (trial % 64) & 1


def reference_digit(seed: int, trial: int, slot: int) -> int:
    """The digit d: 16-bit lane trial % 4, counted from the low end, of
    output trial // 4 of the digit plane."""
    return pcg64dxsm_reference(seed, slot, 0, trial // 4) >> 16 * (trial % 4) & 0xFFFF


def reference_tail(seed: int, trial: int, slot: int) -> int:
    """The tail word t: output trial of the tail plane."""
    return pcg64dxsm_reference(seed, slot, 2, trial)


def reference_draw(seed: int, trial: int, slot: int) -> int:
    """The 53-bit draw k of `slot` of `trial`: the coin bit over the digit
    over the top 36 bits of the tail word."""
    return (reference_coin(seed, trial, slot) << 52 | reference_digit(seed, trial, slot) << 36
            | reference_tail(seed, trial, slot) >> 28)


def reference_uniform(seed: int, trial: int, slot: int) -> float:
    """Draw `slot` of `trial` as a uniform, k * 2**-53."""
    return reference_draw(seed, trial, slot) * 2.0**-53


def planes_of(ks, low=0):
    """The coins (True: c == 0), digits and tails of 53-bit draws k, the
    tails' low 28 bits, which no draw reads, set to `low`."""
    ks = np.asarray(ks, dtype=np.uint64)
    digits = (ks >> np.uint64(36) & np.uint64(0xFFFF)).astype(np.uint16)
    tails = (ks & np.uint64(2**36 - 1)) << np.uint64(28) | np.asarray(low, dtype=np.uint64)
    return ks >> np.uint64(52) == 0, digits, tails


def served(coins, digits, tails):
    """The planes of one block, served from arrays: the boolean `coins`
    packed, and `tails` at block offsets."""
    return kernels._Planes(pack_words(coins), digits, lambda at: tails[at])


def unpacked(words, count):
    """The packed flags of `count` trials that a kernel helper returns, one
    boolean per trial."""
    return PackedFlags(words, count).unpack()


def slot_coins(seed, start, count, slot):
    """`kernels._slot_coins`, one boolean per trial."""
    return unpacked(kernels._slot_coins(seed, start, count, slot), count)


def as_arrays(result):
    """A kernel's result with its packed flags unpacked, one boolean per trial."""
    return [x.unpack() if isinstance(x, PackedFlags) else x for x in result]


# (seed, trial): both ends of the seed and trial ranges, and short jumps.
REFERENCE_POINTS = [
    (0, 0),
    (0, 3),
    (7, 5),
    (2**64 - 1, 2**40 + 2),
    (42, 2**64 - 1),
]
# (seed, trial) on the coin plane: the first and last bits of coin words,
# the first bit of the last coin word, and the last trial of all.
COIN_POINTS = [
    (5, 64),
    (5, 127),
    (5, 255),
    (5, 256),
    (2**64 - 1, 2**64 - 64),
    (13, 2**64 - 1),
]


class TestCounterBasedUniforms:
    @pytest.mark.parametrize("seed,trial", REFERENCE_POINTS + COIN_POINTS)
    def test_matches_scalar_reference(self, seed, trial):
        for slot in range(kernels.DRAWS_PER_TRIAL):
            got = float(kernels.uniform_block(seed, trial, 1, slot)[0])
            assert got == reference_uniform(seed, trial, slot)

    @pytest.mark.parametrize("seed,trial", REFERENCE_POINTS + COIN_POINTS)
    def test_trial_uniforms_match_reference(self, seed, trial):
        d = trial_draws(seed, trial)
        got = [d.settings, d.emission, d.arm_a, d.arm_b, d.ordering]
        assert got == [reference_uniform(seed, trial, slot) for slot in range(5)]

    @pytest.mark.parametrize(
        "start,count",
        [(0, 9), (1, 2), (3, 6), (6, 1), (2**64 - 6, 6), (63, 2), (100, 5), (250, 70),
         (2**64 - 70, 70)],
    )
    def test_block_rows_follow_the_trial_index(self, start, count):
        for slot in (kernels.SLOT_ARM_B, kernels.SLOT_ORDERING):
            got = kernels.uniform_block(3, start, count, slot)
            assert list(got) == [reference_uniform(3, start + i, slot) for i in range(count)]
            words = kernels._slot_coins(3, start, count, slot)
            assert words.dtype == np.uint64 and words.shape == (-(-count // 64),)
            assert count % 64 == 0 or int(words[-1]) >> count % 64 == 0  # padding clear
            coins = unpacked(words, count)
            assert list(coins) == [reference_draw(3, start + i, slot) < 2**52 for i in range(count)]
            digits = kernels._slot_digits(3, start, count, slot)
            assert digits.dtype == np.uint16
            assert list(digits) == [reference_digit(3, start + i, slot) for i in range(count)]

    @pytest.mark.parametrize("trial", [0, 2**64 - 1])
    def test_stream_walks_past_the_named_slots(self, trial):
        got = [float(kernels.uniform_block(11, trial, 1, j)[0]) for j in range(9)]
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
    @pytest.mark.parametrize(
        "reader", ["uniform_block", "_slot_digits", "_slot_coins", "_slot_tails"]
    )
    def test_rejects_seeds_and_trials_outside_64_bits(self, seed, start, count, reader):
        with pytest.raises(ValueError):
            getattr(kernels, reader)(seed, start, count, kernels.SLOT_ARM_A)

    def test_same_seed_same_index_replays(self):
        a = kernels.uniform_block(9, 100, 64, kernels.SLOT_ARM_A)
        b = kernels.uniform_block(9, 100, 64, kernels.SLOT_ARM_A)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = kernels.uniform_block(9, 0, 16, kernels.SLOT_ARM_A)
        b = kernels.uniform_block(10, 0, 16, kernels.SLOT_ARM_A)
        assert np.all(a != b)

    def test_range(self):
        u = kernels.uniform_block(1, 0, 100_000, kernels.SLOT_EMISSION)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_stream_independence_smoke(self):
        # neighbouring slots of the same trials are uncorrelated
        u0 = kernels.uniform_block(3, 0, 10_000, kernels.SLOT_ARM_A)
        u1 = kernels.uniform_block(3, 0, 10_000, kernels.SLOT_ARM_B)
        r = np.corrcoef(u0, u1)[0, 1]
        assert abs(r) < 0.05


class TestPlaneStreams:
    """Each plane is its own PCG64DXSM stream, seeded by spawn key, that the
    kernels jump into instead of stepping."""

    @pytest.mark.parametrize(
        "seed,slot,plane", [(0, 0, 0), (5, 3, 1), (2**64 - 1, 4, 0), (7, 1, 2)]
    )
    def test_plane_state_is_numpys_seeding(self, seed, slot, plane):
        ss = np.random.SeedSequence(seed, spawn_key=(slot, plane))
        state = np.random.PCG64DXSM(ss).state
        assert kernels._plane_state(seed, slot, plane) == state  # the dict the setter takes
        state = state["state"]
        assert pcg_seed(seed, slot, plane) == (state["state"], state["inc"])

    @pytest.mark.parametrize("first", [0, 1, 63, 64, 1000, 4095])
    def test_a_jump_reads_what_stepping_reads(self, first):
        ss = np.random.SeedSequence(9, spawn_key=(kernels.SLOT_ARM_B, 0))
        straight = np.random.PCG64DXSM(ss).random_raw(first + 5)
        assert np.array_equal(kernels._plane_words(9, first, 5, kernels.SLOT_ARM_B, 0),
                              straight[first:])
        state, inc = pcg_seed(9, kernels.SLOT_ARM_B, 0)
        for _ in range(first):
            state = (state * DXSM_MULTIPLIER + inc) & MASK128
        assert dxsm(state) == int(straight[first])

    def test_no_two_planes_share_a_stream(self):
        # Tuple entropy would name one stream twice: SeedSequence((5, 3, 0))
        # and SeedSequence((5 + 3 * 2**32, 0, 0)) hash the same words.
        assert (kernels._plane_state(5, 3, 0)["state"]
                != kernels._plane_state(5 + 3 * 2**32, 0, 0)["state"])
        # seeds at the edges of the 32-bit words SeedSequence splits an int into
        seeds = [0, 1, 2**32, 2**63, 2**64 - 1, 5, 5 + 3 * 2**32]
        triples = [(seed, slot, plane) for seed in seeds
                   for slot in range(kernels.DRAWS_PER_TRIAL) for plane in (0, 1, 2)]
        states = [kernels._plane_state(*triple)["state"] for triple in triples]
        # distinct increments too: no plane is another's stream at an offset
        assert (len({(s["state"], s["inc"]) for s in states})
                == len({s["inc"] for s in states}) == len(triples))

    def test_the_state_cache_is_bounded(self):
        maxsize = kernels._plane_state.cache_info().maxsize
        assert maxsize is not None
        for seed in range(maxsize + 10):
            kernels._slot_coins(seed, 0, 1, kernels.SLOT_ARM_A)
        assert kernels._plane_state.cache_info().currsize == maxsize


def test_readme_names_the_current_stream():
    # the one place outside the code that names the stream in use
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = re.findall(r"currently\s+`([a-z0-9-]+/v\d+)`", readme)
    assert named == [kernels.RNG_STREAM]


MODEL_IDS = list(kernels.MODEL_CODES)
MODELS = list(kernels.MODEL_CODES.values())


def _flag(outcome: ChannelOutcome) -> bool:
    return outcome is ChannelOutcome.PLUS


class TestKernelsMatchObjectLayer:
    """The fast kernels replay the per-trial model narratives exactly."""

    N = 2000
    SEED = 31

    def _object_two_channel(self, model, a, b, ordering):
        outs = np.empty((self.N, 2), dtype=bool)
        for i in range(self.N):
            d = trial_draws(self.SEED, i)
            oa, ob = model.respond_two_channel(model.emit(d), a, b, ordering, d)
            outs[i] = (_flag(oa), _flag(ob))
        return outs

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("ordering", list(Ordering))
    # 1e20 rad: past about 1.7e18, a quarter turn added to the angle is lost,
    # and a - b loses a small angle a
    @pytest.mark.parametrize("a,b", [(0.3, 1.0), (0.0, 1e20), (0.3, 1e20)],
                             ids=["small", "huge", "apart"])
    def test_two_channel(self, model, ordering, a, b):
        _, oa, ob = kernels.two_channel_block(
            self.SEED, 0, self.N, model, np.array([a]), np.array([b]), np.array([1.0]), ordering
        )
        expected = self._object_two_channel(model, a, b, ordering)
        assert np.array_equal(oa.unpack(), expected[:, 0])
        assert np.array_equal(ob.unpack(), expected[:, 1])

    @pytest.mark.parametrize(
        "model",
        [QMFormal(), NdvNonlocal(), DefiniteCircular(), Lhv(malus_response_model())],
        ids=["qm", "ndv", "definite-circular", "lhv-malus"],
    )
    def test_qwp_chain(self, model):
        det_a, det_b = kernels.qwp_block(self.SEED, 0, self.N, model, Ordering.ARM1_FIRST)
        det_a, det_b = det_a.unpack(), det_b.unpack()
        chain = RAnalyzer()
        for i in range(self.N):
            d = trial_draws(self.SEED, i)
            da, db = model.respond_qwp_chain(model.emit(d), chain, chain, Ordering.ARM1_FIRST, d)
            assert bool(det_a[i]) == da, i
            assert bool(det_b[i]) == db, i

    def test_custom_lhv_path_matches_builtin(self):
        # a model handed to the factorized kernel decides as its built-in entry does
        model = deterministic_sign_model()
        pa, pb, cw = np.array([0.3]), np.array([1.0]), np.array([1.0])
        got = kernels.two_channel_block_lhv(self.SEED, 0, self.N, model, pa, pb, cw)
        want = kernels.two_channel_block(
            self.SEED, 0, self.N, kernels.MODEL_CODES["lhv-sign"], pa, pb, cw, Ordering.ARM1_FIRST
        )
        for x, y in zip(as_arrays(got), as_arrays(want)):
            assert np.array_equal(x, y)


@pytest.mark.parametrize(
    "model", [object(), deterministic_sign_model()], ids=["object", "bare-lhv"]
)
def test_kernels_reject_a_model_they_do_not_know(model):
    pa, pb, cw = np.array([0.3]), np.array([1.0]), np.array([1.0])
    with pytest.raises(TypeError):
        kernels.two_channel_block(1, 0, 10, model, pa, pb, cw, Ordering.ARM1_FIRST)
    with pytest.raises(TypeError):
        kernels.qwp_block(1, 0, 10, model, Ordering.ARM1_FIRST)


def _assert_packed(flags, count):
    """`flags` are PackedFlags of `count` trials whose padding bits are clear."""
    assert isinstance(flags, PackedFlags) and flags.count == count
    assert flags.words.dtype == np.uint64 and flags.words.shape == (-(-count // 64),)
    assert count % 64 == 0 or int(flags.words[-1]) >> count % 64 == 0


@pytest.mark.parametrize(
    "kernel,name,ordering",
    [(kernel, name, order) for kernel in ("two_channel_block", "qwp_block")
     for name in kernels.MODEL_CODES for order in Ordering]
    + [("malus_block", None, None)],
)
def test_kernels_return_boolean_flags(kernel, name, ordering):
    # the counts popcount the packed words as they are, so every kernel
    # answers in PackedFlags of the block's count, padding bits clear
    pa, pb, cw = np.array([0.0, 0.7]), np.array([0.4, 0.2]), np.array([0.5, 1.0])
    count = 1001
    if kernel == "two_channel_block":
        model = kernels.MODEL_CODES[name]
        _, *outcomes = kernels.two_channel_block(5, 3, count, model, pa, pb, cw, ordering)
    elif kernel == "qwp_block":
        outcomes = kernels.qwp_block(5, 3, count, kernels.MODEL_CODES[name], ordering)
    else:
        outcomes = [kernels.malus_block(5, 3, count, 0.3)]
    for flags in outcomes:
        _assert_packed(flags, count)
        assert flags.unpack().dtype == bool and flags.unpack().shape == (count,)


@st.composite
def block_ranges(draw):
    """(start, count) of a block: lengths on either side of a word and a
    whole engine block, starting on or off a word near 0, anywhere, or
    against the end of the seed's 2**64 trials."""
    count = draw(st.sampled_from([1, 63, 65, 1001, BLOCK_SIZE]))
    start = draw(st.one_of(
        st.integers(0, 4096),
        st.integers(0, 2**64 - count),
        st.integers(0, 130).map(lambda gap: 2**64 - count - gap),
    ))
    return start, count


@settings(max_examples=20, deadline=None)
@given(block=block_ranges())
def test_packed_counts_equal_the_counts_of_the_unpacked_flags(block):
    start, count = block
    one = (np.array([0.3]), np.array([1.0]), np.array([1.0]))
    three = (np.array([0.0, 0.7, 1.3]), np.array([0.4, 0.2, 1.3]), np.array([0.3, 0.55, 1.0]))
    for order in Ordering:
        flags = kernels.arm2_first_flags(9, start, count, order)
        _assert_packed(flags, count)
        for name, model in kernels.MODEL_CODES.items():
            for pa, pb, cw in (one, three):
                pair_idx, oa, ob = kernels.two_channel_block(9, start, count, model, pa, pb, cw, order)
                _assert_packed(oa, count)
                _assert_packed(ob, count)
                a, b = oa.unpack(), ob.unpack()
                for j in range(cw.size):
                    mask = pair_idx == j
                    got = CoincidenceCounts.from_outcomes(oa, ob, PackedFlags.pack(mask))
                    want = [np.count_nonzero(mask & x & y) for x, y in
                            ((a, b), (a, ~b), (~a, b), (~a, ~b))]
                    assert got.as_array().tolist() == want, (name, order, j)
            det_a, det_b = kernels.qwp_block(9, start, count, model, order)
            _assert_packed(det_a, count)
            _assert_packed(det_b, count)
            a, b = det_a.unpack(), det_b.unpack()
            assert ChainCounts.from_flags(det_a, det_b) == ChainCounts(
                np.count_nonzero(a), np.count_nonzero(b), np.count_nonzero(a & b), count
            ), (name, order)
    passed = kernels.malus_block(9, start, count, 0.3)
    _assert_packed(passed, count)
    assert passed.popcount() == np.count_nonzero(passed.unpack())
    # a block decides its trials as the word-aligned block that covers it does
    lo = start - start % 64
    run = (kernels.MODEL_QM, *one, Ordering.RANDOM_PER_TRIAL)
    _, *flags = kernels.two_channel_block(9, start, count, *run)
    _, *covering = kernels.two_channel_block(9, lo, start + count - lo, *run)
    for got, cover in zip(flags, covering):
        assert np.array_equal(got.unpack(), cover.unpack()[start - lo :])


def test_benchmark_kernel_probes_name_kernel_models():
    # each per-model kernel probe the benchmark declares is a MODEL_CODES
    # key, so renaming a key cannot silently drop a probe metric
    benchmark = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    probe = re.compile(r"kernels\.(two_channel_block|qwp_block)\.(.+)\.mtrials_per_s")
    names = [m[2] for m in map(probe.fullmatch, (x["name"] for x in benchmark["per_layer"])) if m]
    assert names
    for name in names:
        assert name in kernels.MODEL_CODES
        assert kernels.qwp_code_for(name) is kernels.MODEL_CODES[name]


# Integer cuts on and around the planes' seams: never, the coin's edge, always.
SEAM_CUTS = [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53]


class TestWordDomain:
    """Coins decided on the planes equal the float compares they replace."""

    @pytest.mark.parametrize(
        "seed,start,count",
        [(5, 0, 3000), (9, 2**64 - 300, 300), (2**64 - 1, 2**64 - 1, 1)],
    )
    @pytest.mark.parametrize("slot", [kernels.SLOT_SETTINGS, kernels.SLOT_ORDERING])
    def test_floats_are_the_slot_words_bit_for_bit(self, seed, start, count, slot):
        block = (seed, start, count, slot)
        coins = slot_coins(*block)
        digits = kernels._slot_digits(*block)
        tails = kernels._slot_tails(*block)
        floats = kernels.uniform_block(*block)
        assert digits.dtype == np.uint16 and tails.dtype == np.uint64
        assert digits.shape == tails.shape == coins.shape == floats.shape == (count,)
        k = (np.where(coins, 0, 2**52).astype(np.uint64) | digits.astype(np.uint64) << np.uint64(36)
             | tails >> np.uint64(28))
        assert np.array_equal(k * 2.0**-53, floats)
        assert np.array_equal(coins, floats < 0.5)
        last = start + count - 1
        assert int(tails[-1]) == reference_tail(seed, last, slot)
        offsets = np.array([0, count - 1])
        assert np.array_equal(kernels._slot_tails(*block, offsets), tails[offsets])

    @staticmethod
    def _edge_draws(cut: int) -> np.ndarray:
        """Draws at, just below and just above the cut, plus both extremes."""
        ks = {k for k in (cut - 1, cut, cut + 1) if 0 <= k < 2**53} | {0, 2**53 - 1}
        return np.array(sorted(ks), dtype=np.uint64)

    @pytest.mark.parametrize("low", [0, 2**28 - 1])
    @pytest.mark.parametrize(
        "p",
        [0.0, 1e-30, float(kernels._malus_prob_array(np.array([math.pi / 2]))[0]), 0.5, 1.0,
         math.cos(math.pi / 8) ** 2, math.cos(math.pi / 4) ** 2,
         *np.random.default_rng(4).random(8).tolist()],
    )
    def test_threshold_compare_matches_float_compare(self, p, low):
        cut = kernels._cut(p)
        ks = self._edge_draws(int(cut))
        coins, digits, tails = planes_of(ks, low)
        u = ks * 2.0**-53
        assert np.array_equal(unpacked(kernels._below(served(coins, digits, tails), cut), ks.size),
                              u < p)
        if p == 0.5:
            assert np.array_equal(coins, u < 0.5)

    @pytest.mark.parametrize("cut", SEAM_CUTS)
    def test_seam_cuts_match_the_built_draw(self, cut):
        ks = np.concatenate([self._edge_draws(c) for c in SEAM_CUTS])
        coins, digits, tails = planes_of(ks, np.arange(ks.size) % 2**28)
        assert np.array_equal(kernels._draws(pack_words(coins), digits, tails.copy()), ks)
        assert np.array_equal(unpacked(kernels._below(served(coins, digits, tails), cut), ks.size),
                              ks < cut)

    @pytest.mark.parametrize("weights", [[0.2, 0.5, 0.3], [0.25, 0.0, 0.75], [0.5, 0.5],
                                         np.random.default_rng(8).random(40).tolist()])
    def test_pair_selection_matches_float_searchsorted(self, weights):
        cumw = np.cumsum(np.array(weights) / np.sum(weights))
        cumw[-1] = 1.0
        cuts = [int(c) for c in kernels._cut(cumw)]
        edges = np.concatenate([self._edge_draws(c) for c in cuts])
        block = (3, 0, 5000, kernels.SLOT_SETTINGS)
        read = (slot_coins, kernels._slot_digits, kernels._slot_tails)
        planes = [np.concatenate([edge, reader(*block)])
                  for edge, reader in zip(planes_of(edges, 0x800), read)]
        u = kernels._draws(pack_words(planes[0]), planes[1], planes[2].copy()) * 2.0**-53
        want = np.clip(np.searchsorted(cumw, u, side="right"), 0, cumw.size - 1)
        assert np.array_equal(kernels._select_pairs(served(*planes), cumw), want)


class TestTiesOnTheRealStream:
    """Cuts one off each trial's own draw k, read from the random stream,
    make that trial tie: its coin and digit are the cut's top 17 bits, so
    its tail decides. Every trial of the block then decides as ``k < K`` on
    the pure-Python reference draws, at both ends of the trial range and
    on both sides of 2**52."""

    COUNT = 24
    SLOT = kernels.SLOT_ARM_B

    @pytest.fixture(
        scope="class",
        params=[(0, 0), (7, 1001), (42, 2**40 + 3), (2**64 - 1, 2**64 - 24)],
        ids=["first", "unaligned", "far", "last"],
    )
    def block(self, request):
        seed, start = request.param
        ks = np.array([reference_draw(seed, start + i, self.SLOT) for i in range(self.COUNT)],
                      dtype=np.uint64)
        assert 0 < np.count_nonzero(ks < 2**52) < self.COUNT  # both coins
        return seed, start, ks

    def _planes(self, seed, start, read):
        planes = kernels._slot_planes(seed, start, self.COUNT, self.SLOT)

        def tails(at):
            read.extend(int(i) for i in at)
            return planes.tails(at)

        return planes._replace(tails=tails)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_scalar_cuts(self, block, offset):
        seed, start, ks = block
        for i, k in enumerate(ks.tolist()):
            cut = k + offset
            read = []
            got = unpacked(kernels._below(self._planes(seed, start, read), cut), self.COUNT)
            assert np.array_equal(got, ks < np.uint64(cut)), (i, cut)
            assert i in read or cut % 2**36 == 0 or cut >> 36 != k >> 36, (i, cut)
            assert all(int(ks[j]) >> 36 == cut >> 36 for j in read), (i, cut, read)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_per_trial_cuts(self, block, offset):
        # each trial its own settings pair, whose cut is its own draw plus offset
        seed, start, ks = block
        read = []
        cuts = ks + np.uint64(offset) if offset >= 0 else ks - np.uint64(-offset)
        planes = self._planes(seed, start, read)
        below = kernels._comparer(planes, np.arange(self.COUNT), self.COUNT)
        assert np.array_equal(unpacked(below(cuts), self.COUNT), ks < cuts)
        ties = cuts >> np.uint64(36) == ks >> np.uint64(36)
        assert sorted(read) == np.flatnonzero(ties).tolist()

    @pytest.mark.parametrize("offset", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_float_responses(self, block, offset):
        seed, start, ks = block
        p = (ks.astype(float) + offset) * 2.0**-53
        got = kernels._float_arm((seed, start, self.COUNT), self.SLOT, lambda s, lam: lam, 0.0, p)
        assert np.array_equal(unpacked(got, self.COUNT), ks * 2.0**-53 < p)


class TestDeterministicModelOnWords:
    """A deterministic factorized model decided on emission words gives the
    float path's outcomes, and takes the float path when its cuts fail the check."""

    @staticmethod
    def _on_words(model, pa, pb):
        return all(
            kernels._word_steps(model, arm, tuple(settings)) is not None
            for arm, settings in (("response_a", pa), ("response_b", pb))
        )

    @staticmethod
    def _assert_paths_agree(model, pairs, weights, seed, trials, block=2**16):
        pa = np.array([p[0] for p in pairs])
        pb = np.array([p[1] for p in pairs])
        cumw = np.cumsum(weights)
        cumw[-1] = 1.0
        on_floats = dataclasses.replace(model, deterministic=False)
        for start in range(0, trials, block):
            got = kernels.two_channel_block_lhv(seed, start, block, model, pa, pb, cumw)
            want = kernels.two_channel_block_lhv(seed, start, block, on_floats, pa, pb, cumw)
            for x, y in zip(as_arrays(got), as_arrays(want)):
                assert np.array_equal(x, y), start

    @pytest.mark.parametrize(
        "pairs,weights",
        [
            (((0.0, math.pi / 8),), [1.0]),
            (((math.pi / 4, 3 * math.pi / 8),), [1.0]),  # a breakpoint at lambda = 0
            (((-0.7, -2.9),), [1.0]),
            (((4.0, 7.5),), [1.0]),
            (((0.0, math.pi / 4), (-1.1, 3.5), (math.pi / 2, 2 * math.pi)), [0.2, 0.5, 0.3]),
        ],
    )
    def test_sign_model_words_match_floats(self, pairs, weights):
        model = deterministic_sign_model()
        assert self._on_words(model, [p[0] for p in pairs], [p[1] for p in pairs])
        self._assert_paths_agree(model, pairs, weights, seed=23, trials=2**20)

    @staticmethod
    def _shifted_sign_model():
        """The sign model with breakpoints 0.1 rad off, which fail the check."""
        sign = deterministic_sign_model()
        return dataclasses.replace(
            sign,
            name="shifted-breakpoints",
            response_breakpoints=lambda s: (sign.response_breakpoints(s) + 0.1) % math.pi,
        )

    @pytest.mark.parametrize(
        "pairs,weights",
        [(((0.3, 1.0),), [1.0]), (((0.0, 0.4), (0.7, 0.2), (1.3, 1.3)), [0.3, 0.25, 0.45])],
    )
    def test_wrong_breakpoints_take_the_float_path(self, pairs, weights):
        model = self._shifted_sign_model()
        assert not self._on_words(model, [p[0] for p in pairs], [p[1] for p in pairs])
        self._assert_paths_agree(model, pairs, weights, seed=29, trials=2**16)

    @pytest.mark.parametrize(
        "pairs,weights",
        [(((0.3, 1.0),), [1.0]), (((0.0, 0.4), (0.7, 0.2)), [0.5, 0.5])],
    )
    def test_an_arm_that_never_flips_has_no_cuts(self, pairs, weights):
        # zero cut columns: the decision at k = 0 holds on every trial
        model = dataclasses.replace(
            deterministic_sign_model(),
            name="constant",
            response_a=lambda s, lam: np.ones(np.broadcast(s, lam).shape),
            response_b=lambda s, lam: np.zeros(np.broadcast(s, lam).shape),
            response_breakpoints=lambda s: np.array([]),
        )
        assert kernels._word_steps(model, "response_a", (pairs[0][0],))[1].shape == (1, 0)
        self._assert_paths_agree(model, pairs, weights, seed=31, trials=2**16)

    def test_the_float_path_is_logged_once_per_failing_setting(self, caplog):
        model = self._shifted_sign_model()
        pa, pb = np.array([0.3, 0.7]), np.array([1.0, 0.2])
        with caplog.at_level(logging.INFO, logger="eprsim"):
            assert kernels.lhv_word_steps(model, pa, pb) is None
            assert kernels.lhv_word_steps(model, pa, pb) is None  # cached: no second record
        got = sorted((r.name, r.levelno, r.getMessage()) for r in caplog.records)
        want = sorted(
            ("eprsim.kernels", logging.INFO,
             f"shifted-breakpoints: {arm} fails the cut check at setting {setting!r}; "
             "the run takes the float path")
            for arm, settings in (("response_a", pa), ("response_b", pb))
            for setting in settings.tolist()
        )
        assert got == want

    def test_a_multi_worker_run_logs_each_failing_setting_once(self, caplog):
        # the engine finds the cuts before its workers start, so no two of
        # them race to find (and log) the same ones
        model = self._shifted_sign_model()
        config = RunConfig(
            model=Lhv(model), trials=4 * BLOCK_SIZE, settings=FixedSettings(0.3, 1.0), seed=3
        )
        with caplog.at_level(logging.INFO, logger="eprsim"):
            run_experiment(config, workers=2)
        assert sorted(r.getMessage().split(" fails")[0] for r in caplog.records) == [
            "shifted-breakpoints: response_a",
            "shifted-breakpoints: response_b",
        ]

    def test_the_package_logger_is_silent_by_default(self, capsys):
        from eprsim.cli import main

        assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("eprsim").handlers)
        assert main(["chsh-scan", "--model", "lhv-sign", "--trials", "1000", "--format", "tsv"]) == 0
        assert capsys.readouterr().err == ""


class TestOrderingDecision:
    """One helper decides which arm is measured first, for kernels and records."""

    def test_random_order_reads_the_ordering_slot(self):
        flags = kernels.arm2_first_flags(21, 2**64 - 4000, 4000, Ordering.RANDOM_PER_TRIAL)
        u = kernels.uniform_block(21, 2**64 - 4000, 4000, kernels.SLOT_ORDERING)
        assert np.array_equal(flags.unpack(), u >= 0.5)

    def test_fixed_orders_are_constant(self):
        assert not kernels.arm2_first_flags(1, 0, 5, Ordering.ARM1_FIRST).unpack().any()
        assert kernels.arm2_first_flags(1, 0, 5, Ordering.ARM2_FIRST).unpack().all()
        with pytest.raises(TypeError):
            kernels.arm2_first_flags(1, 0, 5, 7)

    @pytest.mark.parametrize("model", [QMFormal(), NdvNonlocal()], ids=["qm", "ndv"])
    def test_random_order_trials_replay_their_fixed_order(self, model):
        pa, pb, cw = np.array([0.3, 1.2]), np.array([1.0, 0.1]), np.array([0.5, 1.0])
        args = (17, 1000, 3000, model, pa, pb, cw)
        flags = kernels.arm2_first_flags(17, 1000, 3000, Ordering.RANDOM_PER_TRIAL).unpack()
        _, oa, ob = as_arrays(kernels.two_channel_block(*args, Ordering.RANDOM_PER_TRIAL))
        _, oa1, ob1 = as_arrays(kernels.two_channel_block(*args, Ordering.ARM1_FIRST))
        _, oa2, ob2 = as_arrays(kernels.two_channel_block(*args, Ordering.ARM2_FIRST))
        assert np.array_equal(oa, np.where(flags, oa2, oa1))
        assert np.array_equal(ob, np.where(flags, ob2, ob1))
        det_a, _ = as_arrays(kernels.qwp_block(17, 1000, 3000, QMFormal(), Ordering.RANDOM_PER_TRIAL))
        det_a1, _ = as_arrays(kernels.qwp_block(17, 1000, 3000, QMFormal(), Ordering.ARM1_FIRST))
        det_a2, _ = as_arrays(kernels.qwp_block(17, 1000, 3000, QMFormal(), Ordering.ARM2_FIRST))
        assert np.array_equal(det_a, np.where(flags, det_a2, det_a1))


class TestRandomizedSettingsMatchObjectLayer:
    """Per-trial settings chosen in the word domain replay the object layer,
    which chooses the pair from the float settings draw."""

    N = 1000
    SEED = 47
    PAIRS = ((0.0, 0.4), (0.7, 0.2), (1.3, 1.3))
    CUMW = np.array([0.3, 0.55, 1.0])

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("ordering", [Ordering.ARM1_FIRST, Ordering.RANDOM_PER_TRIAL])
    def test_two_channel(self, model, ordering):
        pa = np.array([p[0] for p in self.PAIRS])
        pb = np.array([p[1] for p in self.PAIRS])
        pair_idx, oa, ob = as_arrays(kernels.two_channel_block(
            self.SEED, 0, self.N, model, pa, pb, self.CUMW, ordering
        ))
        for i in range(self.N):
            d = trial_draws(self.SEED, i)
            j = int(np.searchsorted(self.CUMW, d.settings, side="right"))
            assert pair_idx[i] == j, i
            a, b = self.PAIRS[j]
            want = model.respond_two_channel(model.emit(d), a, b, ordering, d)
            assert (oa[i], ob[i]) == tuple(_flag(o) for o in want), i


class TestSecondPhotonRule:
    """The second photon leaves by the channel named like the first one's
    exit with probability cos²(a - b), whatever the first one answered, and
    one compare of the second arm's draws decides it."""

    # the four CHSH pairs, one more, and two angles orders apart
    PAIRS = [(0.0, math.pi / 8), (0.0, 3 * math.pi / 8), (math.pi / 4, math.pi / 8),
             (math.pi / 4, 3 * math.pi / 8), (0.3, 1.0), (0.3, 1e20)]

    @pytest.mark.parametrize("name", ["qm", "ndv"])
    @pytest.mark.parametrize("order", list(Ordering))
    def test_one_compare_per_order(self, monkeypatch, name, order):
        compared = []
        below = kernels._below

        def recording(planes, cut):
            compared.append(planes.digits.copy())
            return below(planes, cut)

        monkeypatch.setattr(kernels, "_below", recording)
        block = (7, 5, 4096)
        kernels.two_channel_block(*block, kernels.MODEL_CODES[name], np.array([0.3]),
                                  np.array([1.0]), np.array([1.0]), order)
        a, b = kernels.SLOT_ARM_A, kernels.SLOT_ARM_B
        digits = {slot: kernels._slot_digits(*block, slot) for slot in (a, b)}
        slots = sorted(slot for d in compared for slot in digits if np.array_equal(d, digits[slot]))
        want = {Ordering.ARM1_FIRST: [b], Ordering.ARM2_FIRST: [a]}.get(order, [a, b])
        assert len(compared) == len(want)
        assert slots == want

    @pytest.mark.parametrize("name", ["qm", "ndv"])
    @pytest.mark.parametrize("order", list(Ordering))
    def test_same_channel_frequency_is_malus(self, name, order):
        n = 10**6
        for i, (a, b) in enumerate(self.PAIRS):
            block = (11, i * n, n)
            _, oa, ob = as_arrays(kernels.two_channel_block(
                *block, kernels.MODEL_CODES[name], np.array([a]), np.array([b]), np.array([1.0]),
                order))
            first = np.where(kernels.arm2_first_flags(*block, order).unpack(), ob, oa)
            p = (math.cos(a) * math.cos(b) + math.sin(a) * math.sin(b)) ** 2
            for answer in (True, False):
                trials = first == answer
                same = np.count_nonzero((oa == ob) & trials)
                sigma = math.sqrt(p * (1 - p) / np.count_nonzero(trials))
                assert abs(same / np.count_nonzero(trials) - p) <= 5 * sigma, (a, b, answer)


class TestKernelsOnEdgeWords:
    """Every plane-domain kernel, fed draws that sit on and next to each of
    its cuts and of the planes' seams, decides as the float compares it
    replaces, with one settings pair (each cut met on the coin and digit)
    and with several (each trial's cut met on its top 17 bits). A draw one
    off a cut shares the cut's top 17 bits unless a seam lies between, so
    the table makes every kernel decide ties on their tails."""

    N = 4000
    PA = np.array([0.0, 0.7, 1.3, math.pi / 2])
    PB = np.array([0.4, 0.2, 1.3, 0.0])
    CUMW = np.array([0.3, 0.5, 0.8, 1.0])
    THETAS = [0.0, 0.3, math.pi / 4, math.pi / 2]
    SETTINGS = ["all", 0, 1, 2, 3]

    @pytest.fixture
    def draws(self, monkeypatch):
        """An (N, 8) table of 53-bit draws for slots 0-7, served as all
        three planes in place of the random stream."""
        cuts = list(SEAM_CUTS)
        cuts += [int(c) for c in kernels._cut(kernels._malus_prob_array(self.PA, self.PB))]
        cuts += [int(c) for c in kernels._cut(self.CUMW)]
        cuts += [int(kernels._cut(min(math.cos(t) ** 2, 1.0))) for t in self.THETAS]
        sign = deterministic_sign_model()
        for arm, settings in (("response_a", self.PA), ("response_b", self.PB)):
            cuts += [int(c) for c in kernels._word_steps(sign, arm, tuple(settings))[1].flat]
        ks = sorted({k for c in cuts for k in (c - 1, c, c + 1) if 0 <= k < 2**53})
        rng = np.random.default_rng(12)
        table = np.array(ks, dtype=np.uint64)[rng.integers(0, len(ks), (self.N, 8))]
        table[0] = 0
        table[1] = 2**53 - 1
        coins, digits, tails = planes_of(table, rng.integers(0, 2**28, table.shape))

        def slot_coins(seed, start, count, slot):
            return pack_words(coins[start : start + count, slot])

        def slot_digits(seed, start, count, slot):
            return digits[start : start + count, slot].copy()

        def slot_tails(seed, start, count, slot, at=None):
            rows = slice(start, start + count) if at is None else start + at
            self.tail_reads += 0 if at is None else len(at)
            return tails[rows, slot].copy()

        self.tail_reads = 0
        monkeypatch.setattr(kernels, "_slot_coins", slot_coins)
        monkeypatch.setattr(kernels, "_slot_digits", slot_digits)
        monkeypatch.setattr(kernels, "_slot_tails", slot_tails)
        return table

    def _settings(self, which):
        """(pair_a, pair_b, cumw) of all four pairs, or of the one pair `which`."""
        if which == "all":
            return self.PA, self.PB, self.CUMW
        return self.PA[which : which + 1], self.PB[which : which + 1], np.array([1.0])

    def _float_reduced(self, u_first, u_second, pair_idx, s_first, s_second):
        first = u_first < 0.5
        p_same = kernels._malus_prob_array(s_first, s_second)[pair_idx]
        return first, first == (u_second < p_same)

    @pytest.mark.parametrize("name", ["qm", "ndv", "definite-circular", "lhv-sign", "lhv-malus"])
    @pytest.mark.parametrize("order", list(Ordering))
    @pytest.mark.parametrize("settings", SETTINGS)
    def test_two_channel(self, draws, name, order, settings):
        u = draws * 2.0**-53
        pa, pb, cumw = self._settings(settings)
        pair_idx = np.clip(np.searchsorted(cumw, u[:, 0], side="right"), 0, cumw.size - 1)
        arm2_first = u[:, 4] >= 0.5
        model = kernels.MODEL_CODES[name]
        got = as_arrays(kernels.two_channel_block(1, 0, self.N, model, pa, pb, cumw, order))
        assert np.array_equal(got[0], pair_idx)
        if name == "lhv-sign":
            lam = u[:, 1] * math.pi
            oa = np.cos(2 * (pa[pair_idx] - lam)) > 0
            ob = np.cos(2 * (pb[pair_idx] - lam)) > 0
        elif name == "lhv-malus":
            lhv = model.model
            lam = lhv.sample(u[:, 1])
            setting = (lambda s: s[0]) if cumw.size == 1 else (lambda s: s[pair_idx])
            oa = u[:, 2] < lhv.response_a(setting(pa), lam)
            ob = u[:, 3] < lhv.response_b(setting(pb), lam)
        elif name == "definite-circular":
            oa, ob = u[:, 2] < 0.5, u[:, 3] < 0.5
        else:
            oa1, ob1 = self._float_reduced(u[:, 2], u[:, 3], pair_idx, pa, pb)
            ob2, oa2 = self._float_reduced(u[:, 3], u[:, 2], pair_idx, pb, pa)
            flags = {Ordering.ARM1_FIRST: False, Ordering.ARM2_FIRST: True}.get(
                order, arm2_first
            )
            oa, ob = np.where(flags, oa2, oa1), np.where(flags, ob2, ob1)
        assert np.array_equal(got[1], oa)
        assert np.array_equal(got[2], ob)
        if any(cut % 2**36 for cut in self._compared_cuts(name, pa, pb)):
            assert self.tail_reads > 0

    @staticmethod
    def _compared_cuts(name, pa, pb):
        """The integer cuts the arms of a one-pair-or-more run compare with."""
        if name in ("qm", "ndv"):
            tables = [kernels._malus_cuts(tuple(pa), tuple(pb))]
        elif name == "lhv-sign":
            sign = deterministic_sign_model()
            tables = [kernels._word_steps(sign, arm, tuple(settings))[1]
                      for arm, settings in (("response_a", pa), ("response_b", pb))]
        else:
            return []
        return [int(cut) for table in tables for cut in np.ravel(table)]

    @pytest.mark.parametrize("offset", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_a_float_response_one_off_each_draw(self, draws, offset):
        # p * 2**53 at, between and next to the arm's own draws: every trial
        # not on a seam ties, and its tail decides
        k = draws[:, kernels.SLOT_ARM_A].astype(float)
        p = (k + offset) * 2.0**-53
        got = kernels._float_arm((1, 0, self.N), kernels.SLOT_ARM_A, lambda s, lam: lam, 0.0, p)
        assert np.array_equal(unpacked(got, self.N), k * 2.0**-53 < p)
        assert self.tail_reads > self.N // 2

    def test_a_scalar_float_response_holds_for_every_trial(self, draws):
        # a response may answer one number for all trials, as validate_lhv_model allows
        got = kernels._float_arm(
            (1, 0, self.N), kernels.SLOT_ARM_A, lambda s, lam: 0.3, 0.0, np.zeros(self.N)
        )
        assert np.array_equal(unpacked(got, self.N), draws[:, kernels.SLOT_ARM_A] * 2.0**-53 < 0.3)

    @pytest.mark.parametrize("order", list(Ordering))
    def test_chains(self, draws, order):
        u = draws * 2.0**-53
        first = np.where(u[:, 4] >= 0.5, u[:, 3], u[:, 2])
        first = {Ordering.ARM1_FIRST: u[:, 2], Ordering.ARM2_FIRST: u[:, 3]}.get(order, first)
        cases = {
            "qm": (first < 0.5, first < 0.5),
            "ndv": (u[:, 2] < 0.5, u[:, 3] < 0.5),
            "definite-circular": (u[:, 1] < 0.5, u[:, 1] < 0.5),
        }
        for name, (det_a, det_b) in cases.items():
            got_a, got_b = as_arrays(kernels.qwp_block(1, 0, self.N, kernels.MODEL_CODES[name], order))
            assert np.array_equal(got_a, det_a)
            assert np.array_equal(got_b, det_b)

    @pytest.mark.parametrize("theta", THETAS)
    def test_malus(self, draws, theta):
        p = math.cos(theta) ** 2
        p = 0.0 if p < 1e-24 else min(p, 1.0)
        got = kernels.malus_block(1, 0, self.N, theta).unpack()
        assert np.array_equal(got, draws[:, 2] * 2.0**-53 < p)
        if p not in (0.0, 0.5, 1.0):
            assert self.tail_reads > 0

    def test_the_table_reaches_every_seam(self, draws):
        present = set(draws.flat)
        assert {k for c in SEAM_CUTS for k in (c - 1, c) if 0 <= k < 2**53} <= present


S, E, A, B, O = (kernels.SLOT_SETTINGS, kernels.SLOT_EMISSION, kernels.SLOT_ARM_A,
                 kernels.SLOT_ARM_B, kernels.SLOT_ORDERING)


class TestWordBudget:
    """Each kernel reads every plane it decides on once per block, and no
    other: a digit costs a quarter of a generator output per trial and a
    coin 1/64 of one, so a fair coin that read its digit would undo the
    stream's saving without changing any outcome. Every coin-only decision
    reads no digit. A compare reads a tail only at a trial that ties, whose
    coin and digit are the top 17 bits of a cut it meets; only the float
    path's emission draw, which builds k, reads its tail plane whole."""

    SEED = 7
    SINGLE = (np.array([0.3]), np.array([1.0]), np.array([1.0]))
    THREE = (np.array([0.0, 0.7, 1.3]), np.array([0.4, 0.2, 1.3]), np.array([0.3, 0.55, 1.0]))
    # name -> (coin slots, digit slots); the arm measured first reads no digit
    TWO_CHANNEL = {
        ("qm", Ordering.ARM1_FIRST): ([A, B], [B]),
        ("qm", Ordering.ARM2_FIRST): ([A, B], [A]),
        ("qm", Ordering.RANDOM_PER_TRIAL): ([A, B, O], [A, B]),
        ("ndv", Ordering.ARM1_FIRST): ([A, B], [B]),
        ("ndv", Ordering.ARM2_FIRST): ([A, B], [A]),
        ("ndv", Ordering.RANDOM_PER_TRIAL): ([A, B, O], [A, B]),
        **{("definite-circular", order): ([A, B], []) for order in Ordering},
        **{("lhv-sign", order): ([E], [E]) for order in Ordering},
        **{("lhv-malus", order): ([E, A, B], [E, A, B]) for order in Ordering},
    }
    CHAINS = {
        (name, order): slots
        for order, qm in [(Ordering.ARM1_FIRST, [A]), (Ordering.ARM2_FIRST, [B]),
                          (Ordering.RANDOM_PER_TRIAL, [A, B, O])]
        for name, slots in [("qm", qm), ("definite-circular", [E]), ("ndv", [A, B]),
                            ("lhv-sign", [A, B]), ("lhv-malus", [A, B])]
    }

    @pytest.fixture
    def reads(self, monkeypatch):
        """The slots passed to `_slot_coins` and `_slot_digits`, one entry per
        call, and the tails read: (slot, trial) for each tail read alone,
        (slot, None) for a whole block."""
        reads = {"coins": [], "digits": [], "tails": []}
        for plane in ("coins", "digits"):
            reader = getattr(kernels, f"_slot_{plane}")

            def recording(seed, start, count, slot, reader=reader, log=reads[plane]):
                log.append(slot)
                return reader(seed, start, count, slot)

            monkeypatch.setattr(kernels, f"_slot_{plane}", recording)
        tails = kernels._slot_tails

        def recording_tails(seed, start, count, slot, at=None):
            if at is None:
                reads["tails"].append((slot, None))
            else:
                reads["tails"] += [(slot, start + int(i)) for i in at]
            return tails(seed, start, count, slot, at)

        monkeypatch.setattr(kernels, "_slot_tails", recording_tails)
        return reads

    @staticmethod
    def _sorted(reads):
        return sorted(reads["coins"]), sorted(reads["digits"])

    def _cut_tops(self, name, pa, pb, cumw, slot, trial):
        """The top 17 bits, ``floor(K / 2**36)``, of every cut a kernel may
        compare trial `trial` of `slot` with, K a real for a float response."""
        if slot == S:
            cuts = kernels._cut(cumw[:-1]).tolist()
        elif name in ("qm", "ndv"):
            cuts = [int(c) for c in kernels._malus_cuts(tuple(pa), tuple(pb))]
        elif name == "lhv-sign":
            sign = deterministic_sign_model()
            cuts = [int(c) for arm, settings in (("response_a", pa), ("response_b", pb))
                    for c in kernels._word_steps(sign, arm, tuple(settings))[1].flat]
        else:
            lhv = kernels.MODEL_CODES[name].model
            lam = lhv.sample(kernels.uniform_block(self.SEED, trial, 1, E))
            response, settings = (lhv.response_a, pa) if slot == A else (lhv.response_b, pb)
            cuts = [float(response(s, lam)[0]) * 2.0**53 for s in settings]
        return {math.floor(cut * 2.0**-36) for cut in cuts}

    def _assert_tails_at_ties(self, reads, name, pa, pb, cumw, whole=()):
        assert [slot for slot, trial in reads["tails"] if trial is None] == list(whole)
        for slot, trial in reads["tails"]:
            if trial is not None:
                top = kernels._draw(self.SEED, trial, slot) >> 36
                assert top in self._cut_tops(name, pa, pb, cumw, slot, trial), (slot, trial)

    @pytest.mark.parametrize("name,order", list(TWO_CHANNEL))
    @pytest.mark.parametrize("pairs", ["single", "three"])
    def test_two_channel(self, reads, name, order, pairs):
        pa, pb, cumw = self.SINGLE if pairs == "single" else self.THREE
        model = kernels.MODEL_CODES[name]
        kernels.two_channel_block(self.SEED, 5, BLOCK_SIZE, model, pa, pb, cumw, order)
        coins, digits = (list(slots) for slots in self.TWO_CHANNEL[name, order])
        if pairs == "three":
            coins.append(S)
            digits.append(S)
        assert self._sorted(reads) == (sorted(coins), sorted(digits))
        self._assert_tails_at_ties(reads, name, pa, pb, cumw, [E] if name == "lhv-malus" else [])

    @pytest.mark.parametrize("name,order", list(CHAINS))
    def test_chains(self, reads, name, order):
        kernels.qwp_block(self.SEED, 5, BLOCK_SIZE, kernels.MODEL_CODES[name], order)
        assert self._sorted(reads) == (sorted(self.CHAINS[name, order]), [])
        assert reads["tails"] == []

    def test_malus(self, reads):
        theta = 0.3
        kernels.malus_block(self.SEED, 5, BLOCK_SIZE, theta)
        assert self._sorted(reads) == ([A], [A])
        top = int(kernels._cut(math.cos(theta) ** 2)) >> 36
        assert all(kernels._draw(self.SEED, trial, slot) >> 36 == top
                   for slot, trial in reads["tails"])

    @pytest.mark.parametrize("order", list(Ordering))
    def test_ordering_flags(self, reads, order):
        kernels.arm2_first_flags(self.SEED, 5, BLOCK_SIZE, order)
        want = [O] if order is Ordering.RANDOM_PER_TRIAL else []
        assert reads == {"coins": want, "digits": [], "tails": []}


class TestPerThreadGenerator:
    """Each thread reuses one PCG64DXSM and sets its whole state on every
    read, so no read sees another seed's or another plane's stream, or
    another read's position, and no thread sees another's."""

    # (reader, seed, start, count, slot): both planes, two seeds, several
    # slots, unaligned starts and the last 70 trials of a seed
    READS = [
        (reader, seed, start, count, slot)
        for start, count in [(0, 9), (63, 2), (100, 5), (250, 70), (2**64 - 70, 70)]
        for seed in (3, 2**64 - 1)
        for slot in (kernels.SLOT_EMISSION, kernels.SLOT_ARM_B, kernels.SLOT_ORDERING)
        for reader in ("_slot_digits", "_slot_coins")
    ]

    @staticmethod
    def _read(read):
        reader, *args = read
        return getattr(kernels, reader)(*args)

    def _in_fresh_thread(self, read):
        got = []
        thread = threading.Thread(target=lambda: got.append(self._read(read)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return got[0]

    @pytest.fixture(scope="class")
    def fresh(self):
        """Each read made first in a thread of its own."""
        return [self._in_fresh_thread(read) for read in self.READS]

    def _check(self, reads):
        for read, want in reads:
            got = self._read(read)
            assert got.dtype == want.dtype and np.array_equal(got, want), read

    def test_interleaved_reads_on_one_thread(self, fresh):
        reads = list(zip(self.READS, fresh))
        self._check(reads)
        self._check(reads[::-1])

    def test_interleaved_reads_on_two_threads_at_once(self, fresh):
        reads = list(zip(self.READS, fresh))
        barrier = threading.Barrier(2)

        def check(order):
            barrier.wait(timeout=60)
            for _ in range(5):
                self._check(order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for done in [pool.submit(check, reads), pool.submit(check, reads[::-1])]:
                    done.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)

    def test_a_run_builds_one_generator_per_worker(self, monkeypatch):
        built = []
        pcg = np.random.PCG64DXSM

        def counting(*args, **kwargs):
            built.append(threading.get_ident())
            return pcg(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64DXSM", counting)
        cfg = RunConfig(model=QMFormal(), trials=8 * BLOCK_SIZE, seed=3,
                        ordering=Ordering.RANDOM_PER_TRIAL)
        run_experiment(cfg, workers=2)  # 8 blocks: all in this process
        assert len(built) <= 1, built  # this thread's, if it had none yet
        built.clear()
        run_experiment(cfg, workers=2)
        assert built == []
        trial_draws(3, 0)  # may build this thread's generator
        built.clear()
        for i in range(20):
            trial_draws(3, i)
        assert built == []
