"""Hot per-trial kernels: a jumpable random stream plus vectorized trial loops.

Every random number in the simulator comes from PCG64DXSM (O'Neill's PCG,
2014; numpy's ``np.random.PCG64DXSM``, in C). Slot j of trial i reads three
planes, each its own stream:

    coin plane   c(i, j): bit ``i % 64`` of output ``i // 64`` of the stream
                 of ``SeedSequence(seed, spawn_key=(j, 1))``
    digit plane  d(i, j): 16-bit lane ``i % 4`` (little-endian) of output
                 ``i // 4`` of the stream of ``SeedSequence(seed, spawn_key=(j, 0))``
    tail plane   t(i, j): output i of the stream of
                 ``SeedSequence(seed, spawn_key=(j, 2))``

and the draw is the 53-bit integer ``k = (c << 52) | (d << 36) | (t >> 28)``,
read as the uniform ``u = k * 2**-53``. PCG's state is a 128-bit LCG, which
jumps to any output in O(log n) steps (`_plane_words`), so trial i's draws
are a pure function of (seed, i, slot): any subset of trials can be computed
in any order or on any worker with bit-identical results. Independence of
the planes rests on `SeedSequence` spawn keys, numpy's documented way to
derive parallel streams. The entropy is the seed alone, with (slot, plane)
as the spawn key, and not the tuple ``(seed, slot, plane)``: `SeedSequence`
splits each int of a tuple into 32-bit words and pads short entropy with
zeros, so ``(5, 3, 0)`` and ``(5 + 3 * 2**32, 0, 0)`` would name one stream,
while a spawn key is appended after the padding. ``u < 1/2`` holds exactly
when ``c == 0``, so a fair coin reads the coin plane alone, at 1/64 of an
output per trial (`_slot_coins`); a compare reads the digit plane too, at
1/4 of an output per trial (`_slot_digits`), and the tail plane only at the
trials that tie (`_slot_tails`). Slots per trial:

    0  settings-pair selection (randomized-settings runs only)
    1  emission (hidden parameter / handedness; entangled models skip it)
    2  arm-A coin
    3  arm-B coin
    4  measurement-order selection (random-order runs only)

``RNG_STREAM`` names this stream and the kernels' decisions on it: it
changes whenever any draw, or any kernel's decision on a draw, would. v7
keeps v6's draws and changes the second-photon rule (`_second_photon`);
packing the flags changed neither.

Outcome coins are compared with strict less-than, so a probability snapped to
exactly 0 never fires and a probability of exactly 1 always does. Coins
against a fixed probability never build the float: for any p in [0, 1]

    u < p   <=>   k < p * 2**53   <=>   k < ceil(p * 2**53) = K

and ``p * 2**53`` is exact in binary floating point (a power-of-two scale),
as is its ceiling. Nor do they build k: c and d are its top 17 bits, so
``k < K`` holds when ``c << 16 | d`` is below ``K >> 36`` and fails when it
is above, whatever the tail. Only a trial whose coin and digit equal the
cut's top 17 bits ties, about one in 2**17 per compare, and reads its tail
with a jump of its own to decide ``t >> 28 < K mod 2**36`` (`_below`).
Settings pairs are chosen against the integer cuts ``ceil(cumw * 2**53)``
the same way, and a cut or a float response that differs per trial is met
on each trial's top 17 bits as well (`_below_each`). These compares decide
exactly as the float compares do, draw for draw. A deterministic
hidden-variable model (responses exactly 0 or 1) is decided on the planes
too: each arm is a step function of the emission integer k that flips at
integer cuts found from the model's own float decisions (`_setting_cuts`).
k itself, and the float u, are built only where a model maps u to a hidden
value: hidden-variable models that need a float response per trial read
their emission slot through `uniform_block`, the one reader of a whole tail
plane.

Kernels take the engine's own types: the hypothesis model itself and the
`Ordering` member. Which kernel answers which model is decided once, here, by
the model's type; a model no kernel knows raises TypeError, as does an
ordering that is not an `Ordering` member. Every kernel answers each trial
with one bit of a `stats.PackedFlags` (set: the parallel channel, detected,
or passed): trial ``start + i`` of a block is bit ``i % 64`` of word
``i // 64``, and the bits past the block's count are zero. The flags stay
packed from the planes to the counts. A coin plane's words are a block's
fair coins once inverted and shifted to its start (`_slot_coins`); a
compare packs its digit test once and meets the coins with one word-wide
``&=`` or ``|=`` (`_below`); the second photon, the measurement order and
a deterministic model's flips are word-wide XNOR, select and XOR; and the
engine counts the words by popcount. Only the float path (`_below_each`)
and a per-trial settings-pair mask decide one boolean per trial, which they
pack once, and only a per-trial record unpacks the words.

The run-value rules are stated here once for the engine and the CLI: they
raise `ConfigError` naming the field, and the seed rule guards every block.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import sys
import threading
from typing import Callable, NamedTuple

import numpy as np

from . import models
from .models import DefiniteCircular, Lhv, NdvNonlocal, Ordering, QMFormal
from .stats import PackedFlags, pack_words

RNG_STREAM = "pcg64dxsm/v7"
SEED_LIMIT = 1 << 64  # seeds and trial indices live in [0, 2**64)

SLOT_SETTINGS = 0
SLOT_EMISSION = 1
SLOT_ARM_A = 2
SLOT_ARM_B = 3
SLOT_ORDERING = 4
DRAWS_PER_TRIAL = 5

# Kernel name -> model; perfbench probes each kernel through MODEL_CODES
# and MODEL_QM.
MODEL_CODES = {
    "qm": QMFormal(),
    "ndv": NdvNonlocal(),
    "definite-circular": DefiniteCircular(),
    "lhv-sign": Lhv(models.deterministic_sign_model()),
    "lhv-malus": Lhv(models.malus_response_model()),
}
MODEL_QM = MODEL_CODES["qm"]

# perfbench reads these aliases of the `Ordering` members.
ORDER_ARM1_FIRST = Ordering.ARM1_FIRST
ORDER_ARM2_FIRST = Ordering.ARM2_FIRST

_ZERO_PROB = 1e-24

_log = logging.getLogger(__name__)


def backend() -> str:
    """The kernel backend; there is only the numpy one."""
    return "numpy"


class ConfigError(ValueError):
    """A run value broke its rule; the message starts with the field's name."""


def _bound(n: int) -> str:
    """`n` as text; near 2**64 it is counted down from 2**64, as in "2**64 - 1"."""
    gap = SEED_LIMIT - n
    if gap > SEED_LIMIT // 2:
        return str(n)
    return f"2**64 - {gap}" if gap else "2**64"


def check_int(key: str, value, lo: int, hi: int) -> int:
    """The one integer rule: `value` when it is an int, not a bool, in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ConfigError(f"{key}: must be in [{_bound(lo)}, {_bound(hi)}], got {value!r}")
    return value


def check_real(key: str, value, minimum: float | None = None) -> float:
    """`value` as a finite float, at least `minimum` when given; bools and
    non-numbers break the rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{key}: must be at least {minimum}, got {value!r}")
    return number


def check_seed(seed) -> int:
    """The seed rule: an int in [0, 2**64)."""
    return check_int("seed", seed, 0, SEED_LIMIT - 1)


def _trial_range(seed: int, start: int, count: int) -> tuple[int, int]:
    """(start, count) as ints once the seed and trials [start, start+count)
    are in range: the check a block makes once, at its kernel's entry."""
    check_seed(seed)
    start, count = int(start), int(count)
    if not (0 <= start and start + count <= SEED_LIMIT):
        raise ValueError(f"trials [{start}, {start + count}) leave [0, 2**64)")
    return start, count


_MASK128 = (1 << 128) - 1
# PCG's 128-bit LCG multiplier, which numpy's PCG64DXSM seeding steps with
_PCG_SEED_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# Outputs of each plane (digit, coin, tail) that the 2**64 trials read
_PLANE_OUTPUTS = (SEED_LIMIT // 4, SEED_LIMIT // 64, SEED_LIMIT)
_thread = threading.local()


@functools.lru_cache(maxsize=256, typed=True)
def _plane_state(seed: int, slot: int, plane: int) -> dict:
    """The state of ``PCG64DXSM(SeedSequence(seed, spawn_key=(slot,
    plane)))`` before its first output, as the dict its ``state`` setter
    takes, by numpy's own seeding: four words of the `SeedSequence` give the
    initial state s and stream t, the increment is ``2t + 1``, and the LCG
    steps twice, from 0 and again after adding s. Cached, with a fixed size,
    because the `SeedSequence` hash is the costly step, and computed rather
    than read off a new generator, so each thread builds one generator only.
    The seed rule is checked here, once per cached state. Callers must not
    change the dict."""
    check_seed(seed)
    words = np.random.SeedSequence(seed, spawn_key=(slot, plane)).generate_state(4, np.uint64)
    s0, s1, t0, t1 = (int(x) for x in words)
    inc = ((t0 << 64 | t1) << 1 | 1) & _MASK128
    return {
        "bit_generator": "PCG64DXSM",
        "state": {"state": ((inc + (s0 << 64 | s1)) * _PCG_SEED_MULTIPLIER + inc) & _MASK128,
                  "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _generator() -> np.random.PCG64DXSM:
    """This thread's one PCG64DXSM, built on first use."""
    gen = getattr(_thread, "pcg", None)
    if gen is None:
        gen = _thread.pcg = np.random.PCG64DXSM(0)
    return gen


def _plane_words(seed: int, first: int, n: int, slot: int, plane: int) -> np.ndarray:
    """Outputs [first, first+n) of one slot's plane. This thread's one
    PCG64DXSM is set to the plane's initial state, jumped `first` outputs
    ahead and read: a jump costs a few microseconds whatever its length.
    Outputs past those the seed's 2**64 trials read raise ValueError."""
    if not 0 <= first <= _PLANE_OUTPUTS[plane] - n:
        raise ValueError(f"outputs [{first}, {first + n}) of plane {plane} leave the 2**64 trials")
    gen = _generator()
    gen.state = _plane_state(seed, slot, plane)
    gen.advance(first)
    return gen.random_raw(n)


def _words(count: int) -> int:
    """The words that hold `count` packed flags."""
    return -(-count // 64)


def _slot_coins(seed: int, start: int, count: int, slot: int) -> np.ndarray:
    """Fair coins of one slot for trials [start, start+count), ``u < 1/2``,
    packed (`PackedFlags`): bit i is set where the coin-plane bit c of trial
    ``start + i`` is 0. Trial j reads bit ``j % 64`` of coin word ``j // 64``,
    so a block reads one word per 64 trials, inverted; one that starts
    inside a word shifts each word down and funnels in the next one's low bits."""
    first, offset = divmod(start, 64)
    words = _plane_words(seed, first, _words(start + count) - first, slot, 1)
    np.invert(words, out=words)
    if offset:
        carry = words[1:] << np.uint64(64 - offset)
        words = words[: _words(count)] >> np.uint64(offset)
        words[: carry.size] |= carry
    if count % 64:
        words[-1] &= np.uint64((1 << count % 64) - 1)
    return words


@functools.lru_cache(maxsize=16)
def _ones(count: int) -> np.ndarray:
    """Packed flags of `count` trials, every one set; read-only, built once
    per block length."""
    words = np.full(_words(count), (1 << 64) - 1, dtype=np.uint64)
    if count % 64:
        words[-1] = (1 << count % 64) - 1
    words.setflags(write=False)
    return words


def _not(words: np.ndarray, count: int) -> np.ndarray:
    """Packed flags of `count` trials inverted in place, padding kept zero."""
    return np.bitwise_xor(words, _ones(count), out=words)


def _bit(words: np.ndarray, i: int) -> bool:
    """The packed flag at block offset i."""
    return bool(int(words[i >> 6]) >> (i & 63) & 1)


def _offsets(flags: np.ndarray) -> list[int]:
    """The offsets where a boolean array is True, when they are few (a tie
    is about one trial in 2**16): each `argmax` stops at the next one, so
    the search reads the array once, and builds no index array."""
    found = []
    at = 0
    while at < flags.size:
        at += int(flags[at:].argmax())
        if not flags[at]:
            break
        found.append(at)
        at += 1
    return found


def _slot_digits(seed: int, start: int, count: int, slot: int) -> np.ndarray:
    """16-bit digits d of one slot for trials [start, start+count). Trial i
    reads lane ``i % 4`` of digit word ``i // 4``, counted from the low end,
    so a block reads one word per 4 trials."""
    first, offset = divmod(start, 4)
    words = _plane_words(seed, first, -(-(start + count) // 4) - first, slot, 0)
    return np.asarray(words, dtype="<u8").view("<u2")[offset : offset + count]


def _slot_tails(seed: int, start: int, count: int, slot: int, at=None) -> np.ndarray:
    """Tail words t of one slot for trials [start, start+count), trial i
    reading output i of the tail plane; or, given block offsets `at`, of
    trials ``start + at`` alone, each read with a jump of its own."""
    if at is None:
        return _plane_words(seed, start, count, slot, 2)
    return np.array([_plane_words(seed, start + int(i), 1, slot, 2)[0] for i in at],
                    dtype=np.uint64)


def _draw(seed: int, trial: int, slot: int) -> int:
    """The 53-bit draw k of one trial and slot, read from its three planes."""
    coin = int(_plane_words(seed, trial // 64, 1, slot, 1)[0]) >> trial % 64 & 1
    digit = int(_plane_words(seed, trial // 4, 1, slot, 0)[0]) >> 16 * (trial % 4) & 0xFFFF
    tail = int(_plane_words(seed, trial, 1, slot, 2)[0])
    return coin << 52 | digit << 36 | tail >> 28


class _Planes(NamedTuple):
    """One slot's planes over a block: `coins` (packed, set where c == 0),
    the `digits` d, and `tails`, which reads the tail words t at block offsets."""

    coins: np.ndarray
    digits: np.ndarray
    tails: Callable[[np.ndarray], np.ndarray]


def _slot_planes(seed: int, start: int, count: int, slot: int, coins=None) -> _Planes:
    """The planes one slot's compares read for trials [start, start+count);
    `coins` when the caller holds them already. No tail is read here."""
    if coins is None:
        coins = _slot_coins(seed, start, count, slot)
    return _Planes(
        coins,
        _slot_digits(seed, start, count, slot),
        lambda at: _slot_tails(seed, start, count, slot, at),
    )


_UNIT = float(1 << 53)  # u = k / _UNIT
_LOW = 36  # bits of k below its coin and digit
_TAIL_SHIFT = np.uint64(64 - _LOW)  # t >> 28 gives those bits
_HIGH_HALF = 1 if sys.byteorder == "little" else 0  # the uint32 of a uint64 holding bits 32-63


def _cut(p):
    """Integer threshold K = ceil(p * 2**53): ``u < p`` exactly when ``k < K``."""
    return np.ceil(np.multiply(p, _UNIT)).astype(np.uint64)


def _draws(coins: np.ndarray, digits: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The 53-bit draws ``k = (c << 52) | (d << 36) | (t >> 28)`` of one slot
    from its planes, built in the buffer of `tails`, which the caller gives
    up. Coin and digit are set through the high 32-bit half of each word,
    so no second 8-byte-per-trial array is made."""
    tails >>= _TAIL_SHIFT
    tops = _tops(coins, digits)
    tops <<= _LOW - 32
    high = tails.view(np.uint32)[_HIGH_HALF::2]
    high |= tops
    return tails


def _below(planes: _Planes, cut) -> np.ndarray:
    """``k < cut`` per trial for an integer cut in [0, 2**53], packed, and
    decided on each trial's coin and digit, the top 17 bits of k: the digit
    test is packed once and meets the coins word-wide. A trial whose coin
    and digit equal the cut's top 17 bits ties, and its tail decides."""
    cut = int(cut)
    coins, digits = planes.coins, planes.digits
    if cut <= 0:
        return np.zeros(coins.shape, dtype=np.uint64)
    if cut >= 1 << 53:
        return _ones(digits.size).copy()
    top, low = divmod(cut, 1 << _LOW)
    digit = top & 0xFFFF
    cut_coin_is_0 = top < 1 << 16
    # A tie is about one trial in 2**16: none in about a third of the
    # blocks. Its coin equals the cut's, so meeting the coins below leaves
    # its tail's answer as it is. The ties are found before the compare is
    # built, so one boolean per trial is alive at a time.
    ties = [i for i in _offsets(digits == digit) if _bit(coins, i) == cut_coin_is_0] if low else []
    below = digits < digit
    if ties:
        at = np.array(ties)
        below[at] = planes.tails(at) >> _TAIL_SHIFT < np.uint64(low)
    below = pack_words(below)
    if cut_coin_is_0:
        below &= coins
    else:
        below |= coins
    return below


def _tops(coins: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Each trial's top 17 bits of k, ``c << 16 | d``, as uint32, from the
    packed coins (set where c == 0) and the digits."""
    tops = np.left_shift(~PackedFlags(coins, digits.size).unpack(), 16, dtype=np.uint32)
    tops |= digits
    return tops


def _below_each(tops: np.ndarray, tails, x: np.ndarray) -> np.ndarray:
    """``k < x * 2**36`` per trial, packed, for a float array x that the call
    overwrites, from the trials' `tops` (`_tops`) and their `tails` reader.
    With ``r = x - top``, a trial is below when r >= 1 and not when r <= 0,
    whatever its tail; otherwise it ties and is below when ``t >> 28 < r *
    2**36``. Every step is exact: where 0 < r < 1, x and top are below 2**17,
    so r is a multiple of the ulp of x, and a NaN is never below."""
    x -= tops
    below = x >= 1.0
    ties = x > 0.0
    ties ^= below
    at = np.flatnonzero(ties)
    if at.size:
        below[at] = tails(at) >> _TAIL_SHIFT < x[at] * float(1 << _LOW)
    return pack_words(below)


def _comparer(planes: _Planes, pair_idx: np.ndarray, pairs: int):
    """``below(cuts)``: ``k < cuts[pair]`` per trial, packed, for one integer cut per
    settings pair. A run with one pair compares each cut with `_below`;
    otherwise the cut differs per trial, and each trial's top 17 bits are
    built once to meet it (`_below_each`)."""
    if pairs == 1:
        return lambda cuts: _below(planes, cuts[0])
    tops = _tops(planes.coins, planes.digits)
    return lambda cuts: _below_each(tops, planes.tails, np.take(cuts * 2.0**-_LOW, pair_idx))


def uniform_block(seed: int, start: int, count: int, slot: int) -> np.ndarray:
    """Uniform [0, 1) draws ``k * 2**-53`` for trials [start, start+count) at
    one slot: the one reader that builds every trial's k, so it reads the
    slot's tail plane whole."""
    start, count = _trial_range(seed, start, count)
    block = (seed, start, count, slot)
    k = _draws(_slot_coins(*block), _slot_digits(*block), _slot_tails(*block))
    return k.view(np.int64) * (1.0 / _UNIT)  # k < 2**53: exact, and faster than from uint64


def check_ordering(ordering: Ordering) -> None:
    """The ordering rule: an `Ordering` member."""
    if not isinstance(ordering, Ordering):
        raise TypeError(f"not an Ordering: {ordering!r}")


def arm2_first_flags(seed: int, start: int, count: int, ordering: Ordering) -> PackedFlags:
    """Per-trial flag for trials [start, start+count), set when arm 2 is
    measured first. Random order reads the ordering slot's coins, ``u >= 0.5``."""
    check_ordering(ordering)
    start, count = _trial_range(seed, start, count)
    return PackedFlags(_arm2_first(seed, start, count, ordering), count)


def _arm2_first(seed: int, start: int, count: int, ordering: Ordering) -> np.ndarray:
    """The words of `arm2_first_flags`, for a range already checked."""
    if ordering is Ordering.ARM1_FIRST:
        return np.zeros(_words(count), dtype=np.uint64)
    if ordering is Ordering.ARM2_FIRST:
        return _ones(count).copy()
    return _not(_slot_coins(seed, start, count, SLOT_ORDERING), count)


def _malus_prob_array(first: np.ndarray, second=0.0) -> np.ndarray:
    """``cos²(first - second)`` per settings pair, ``second`` 0 by default,
    with values below 1e-24 snapped to 0. The cosine is ``cos first * cos
    second + sin first * sin second``, symmetric bit for bit, so a small
    angle is not lost beside one of 1e20 rad, as it is in ``first - second``."""
    p = (np.cos(first) * np.cos(second) + np.sin(first) * np.sin(second)) ** 2
    p[p < _ZERO_PROB] = 0.0
    np.clip(p, 0.0, 1.0, out=p)
    return p


def _select_pairs(planes: _Planes, cumw: np.ndarray) -> np.ndarray:
    """Per-trial settings-pair index from the settings slot's planes.

    The index is the number of interior integer cuts ``ceil(cumw[:-1] *
    2**53)`` at or below k, counted as the cuts less those above k: the same
    choice as ``searchsorted(cumw, u, side="right")`` clipped to the last
    pair, made exactly. One compare per cut beats numpy's per-key binary
    search up to dozens of pairs.
    """
    cuts = _cut(cumw[:-1])
    count = planes.digits.size
    pair_idx = np.full(count, cuts.size, dtype=np.int32)
    for cut in cuts:
        pair_idx -= PackedFlags(_below(planes, cut), count).unpack()
    return pair_idx


def _pair_index(seed: int, start: int, count: int, cumw: np.ndarray) -> np.ndarray:
    """`_select_pairs` on the settings slot. A single pair reads nothing and
    allocates nothing: its index is a read-only zero-stride view of one 0."""
    if cumw.size == 1:
        return _one_pair_index(count)
    return _select_pairs(_slot_planes(seed, start, count, SLOT_SETTINGS), cumw)


@functools.lru_cache(maxsize=16)
def _one_pair_index(count: int) -> np.ndarray:
    """The one-pair index of a block of `count` trials, built once per block
    length: a run has at most two, the full block and the last one."""
    return np.broadcast_to(np.int32(0), (count,))


def _pick(flags: np.ndarray, if_true: np.ndarray, if_false: np.ndarray) -> np.ndarray:
    """``np.where(flags, if_true, if_false)`` bit by bit for packed flags,
    built in the buffer of `if_true`, which the caller gives up."""
    if_true ^= if_false
    if_true &= flags
    if_true ^= if_false
    return if_true


def _per_trial(values: np.ndarray, pair_idx: np.ndarray):
    """Per-pair values spread over trials; a scalar when there is one pair."""
    return values[0] if values.size == 1 else values[pair_idx]


@functools.lru_cache(maxsize=256)
def _malus_cuts(pair_a: tuple[float, ...], pair_b: tuple[float, ...]) -> np.ndarray:
    """Per settings pair, the integer cut of ``cos²(a - b)`` (`_second_photon`),
    whichever arm is measured first. Cached, so a run tabulates it once and
    not once per block."""
    cuts = _cut(_malus_prob_array(np.array(pair_a), np.array(pair_b)))
    cuts.setflags(write=False)
    return cuts


def _second_photon(first: np.ndarray, same: np.ndarray, count: int) -> np.ndarray:
    """The second analyzer's packed answers (set: parallel), given the first
    one's, which answered 1/2. The second photon is linear along the first
    one's exit channel, so by the Malus rule it leaves by the channel of the
    same name with probability cos²(a - b), which `same` compares with
    (`_malus_cuts`): the answer is `same` XNOR `first`, built in the buffer
    of `same`."""
    same ^= first
    return _not(same, count)


def two_channel_block(
    seed: int,
    start: int,
    count: int,
    model: models.HypothesisModel,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    cumw: np.ndarray,
    ordering: Ordering,
) -> tuple[np.ndarray, PackedFlags, PackedFlags]:
    """Per-trial settings-pair index and packed two-channel flags of each
    arm (set: the parallel channel, clear: the perpendicular one).

    The arm measured first answers 1/2 and reads its coins alone. A fixed
    order turns the first arm's coins into its answers before it reads the
    second arm's digits. With one settings pair the index is a read-only
    view that holds no per-trial bytes (`_pair_index`), so the block
    allocates only the planes it reads, one boolean per trial while it packs
    a compare, and the words it returns: about 3.6 bytes per trial at its peak.
    """
    check_ordering(ordering)
    if isinstance(model, Lhv):
        return two_channel_block_lhv(seed, start, count, model.model, pair_a, pair_b, cumw)
    if not isinstance(model, (QMFormal, NdvNonlocal, DefiniteCircular)):
        raise TypeError(f"no trial kernel for model {model!r}")
    start, count = _trial_range(seed, start, count)
    pair_idx = _pair_index(seed, start, count, cumw)
    block = (seed, start, count)
    oa = _slot_coins(*block, SLOT_ARM_A)
    ob = _slot_coins(*block, SLOT_ARM_B)
    if isinstance(model, DefiniteCircular):
        # A circular photon takes either exit of a linear analyzer with
        # probability 1/2, whatever the orientation.
        return pair_idx, PackedFlags(oa, count), PackedFlags(ob, count)

    cuts = _malus_cuts(tuple(pair_a.tolist()), tuple(pair_b.tolist()))

    def same(coins, slot):
        return _comparer(_slot_planes(*block, slot, coins), pair_idx, cumw.size)(cuts)

    if ordering is Ordering.ARM1_FIRST:
        ob = _second_photon(oa, same(ob, SLOT_ARM_B), count)
    elif ordering is Ordering.ARM2_FIRST:
        oa = _second_photon(ob, same(oa, SLOT_ARM_A), count)
    else:
        ob1 = _second_photon(oa, same(ob, SLOT_ARM_B), count)
        oa2 = _second_photon(ob, same(oa, SLOT_ARM_A), count)
        arm2_first = _arm2_first(*block, ordering)
        oa = _pick(arm2_first, oa2, oa)
        ob = _pick(arm2_first, ob, ob1)
    return pair_idx, PackedFlags(oa, count), PackedFlags(ob, count)


def qwp_block(
    seed: int, start: int, count: int, model: models.HypothesisModel, ordering: Ordering
) -> tuple[PackedFlags, PackedFlags]:
    """Packed per-trial detection flags behind the plate-plus-polarizer
    chains. Every chain passes with probability 1/2 or with certainty, so
    the kernel reads coins alone."""
    check_ordering(ordering)
    start, count = _trial_range(seed, start, count)
    block = (seed, start, count)
    if isinstance(model, DefiniteCircular):
        # Right-handed pairs clear both right-helicity analyzers with
        # certainty; left-handed pairs are blocked on both arms.
        det_a = _slot_coins(*block, SLOT_EMISSION)
        det_b = det_a
    elif isinstance(model, QMFormal):
        # The first chain transmits with probability 1/2; reduction leaves
        # the partner in the state its own chain passes with probability
        # exactly 1 (or blocks exactly, on absorption), so the coin of the
        # arm measured first decides both.
        if ordering is Ordering.ARM1_FIRST:
            det_a = _slot_coins(*block, SLOT_ARM_A)
        elif ordering is Ordering.ARM2_FIRST:
            det_a = _slot_coins(*block, SLOT_ARM_B)
        else:
            det_a = _pick(
                _arm2_first(*block, ordering),
                _slot_coins(*block, SLOT_ARM_B),
                _slot_coins(*block, SLOT_ARM_A),
            )
        det_b = det_a
    elif isinstance(model, (NdvNonlocal, Lhv)):
        # Collapse narrative / hidden linear polarization: each arm's
        # plate-plus-polarizer passes with probability 1/2 regardless of
        # what the other arm saw.
        det_a = _slot_coins(*block, SLOT_ARM_A)
        det_b = _slot_coins(*block, SLOT_ARM_B)
    else:
        raise TypeError(f"no chain kernel for model {model!r}")
    return PackedFlags(det_a, count), PackedFlags(det_b, count)


def malus_block(seed: int, start: int, count: int, theta: float) -> PackedFlags:
    """Packed single-photon polarizer transmission flags at relative angle
    theta (set: pass)."""
    start, count = _trial_range(seed, start, count)
    cut = _cut(_malus_prob_array(np.array([float(theta)])))[0]
    return PackedFlags(_below(_slot_planes(seed, start, count, SLOT_ARM_A), cut), count)


def qwp_code_for(name: str) -> models.HypothesisModel:
    """The model `MODEL_CODES` names; perfbench reads it."""
    return MODEL_CODES[name]


_TOP = (1 << 53) - 1  # the largest emission integer k
_WINDOW = 1 << 10  # integers checked on each side of a breakpoint
_GRID = np.append(np.arange(0, 1 << 53, 1 << 41), _TOP)  # integers checked between breakpoints


def _setting_cuts(model: models.LhvModel, response, setting: float):
    """One arm of a deterministic model at one setting, as a step function
    of the emission integer k: (decision at k = 0, sorted cuts), where the
    decision flips at each cut. None when the float decisions fail the check.

    The decision is the float path's own, ``u_coin < response(setting,
    sample(k * 2**-53))``, which for a response of exactly 0 or 1 is
    ``response == 1`` whatever the coin. It is evaluated on every k within
    ``_WINDOW`` of each breakpoint's integer ``bp * 2**53 / pi`` and on
    `_GRID`. The check: every response is exactly 0 or 1; every flip lies
    between adjacent evaluated integers, so a window pins it down; and each
    window flips exactly once, or not at all when it is cut off by k = 0 or
    k = 2**53 - 1. Each cut is then the first k after a flip of the float
    decision, by construction.
    """
    bps = np.asarray(model.response_breakpoints(setting), dtype=float)
    if not np.all(np.isfinite(bps)):
        return None
    centers = np.clip(np.rint(bps * (_UNIT / math.pi)), 0, _TOP).astype(np.int64)
    lo = np.maximum(centers - _WINDOW, 0)
    hi = np.minimum(centers + _WINDOW, _TOP)
    ks = np.sort(np.concatenate([_GRID, *map(np.arange, lo, hi + 1)]))  # repeats decide alike
    lam = np.asarray(model.sample(ks * (1.0 / _UNIT)), dtype=float)
    probs = np.asarray(response(setting, lam), dtype=float)
    if not np.all((probs == 0.0) | (probs == 1.0)):
        return None
    parallel = probs == 1.0
    flips = np.flatnonzero(parallel[1:] != parallel[:-1]) + 1
    if np.any(ks[flips] - ks[flips - 1] != 1):
        return None  # a flip between integers that no window covers
    cuts = ks[flips]
    found = np.count_nonzero((cuts > lo[:, None]) & (cuts <= hi[:, None]), axis=1)
    at_edge = (lo == 0) | (hi == _TOP)
    if np.any((found != 1) & ~(at_edge & (found == 0))):
        return None
    return bool(parallel[0]), cuts.astype(np.uint64)


@functools.lru_cache(maxsize=256)
def _word_steps(model: models.LhvModel, arm: str, settings: tuple[float, ...]):
    """`_setting_cuts` for one arm ("response_a" or "response_b") at each
    settings pair: (decision at k = 0 per pair, cuts per pair and column),
    rows padded with 2**53, which no k reaches; None if any setting fails.

    Cached, so a run finds its cuts once and not once per block, and logs
    each failing setting once, at INFO on the ``eprsim.kernels`` logger.
    """
    rows = [_setting_cuts(model, getattr(model, arm), s) for s in settings]
    failed = [setting for setting, row in zip(settings, rows) if row is None]
    for setting in failed:
        _log.info("%s: %s fails the cut check at setting %r; the run takes the float path",
                  model.name, arm, setting)
    if failed:
        return None
    cuts = np.full((len(rows), max(len(c) for _, c in rows)), 1 << 53, dtype=np.uint64)
    for padded, (_, row) in zip(cuts, rows):
        padded[: row.size] = row
    first = np.array([v for v, _ in rows])
    cuts.setflags(write=False)
    first.setflags(write=False)
    return first, cuts


def lhv_word_steps(model: models.LhvModel, pair_a: np.ndarray, pair_b: np.ndarray):
    """Both arms' `_word_steps` at a run's settings pairs, or None when the
    run takes the float path: the model is not deterministic, or a setting
    fails the cut check."""
    if not model.deterministic:
        return None
    steps_a = _word_steps(model, "response_a", tuple(pair_a.tolist()))
    steps_b = _word_steps(model, "response_b", tuple(pair_b.tolist()))
    if steps_a is None or steps_b is None:
        return None
    return steps_a, steps_b


def _step_decision(below, pair_idx: np.ndarray, first: np.ndarray, cuts: np.ndarray):
    """Packed per-trial decisions of one arm: its decision at k = 0 flipped
    once per cut of the trial's settings pair at or below k. `below`
    (`_comparer`) finds the cuts above k instead, so an odd count of columns
    flips the decision once more. The first column's compare is the
    accumulator, and every flip is word-wide."""
    count = pair_idx.size
    columns = cuts.T
    flipped = below(columns[0]) if len(columns) else np.zeros(_words(count), dtype=np.uint64)
    for column in columns[1:]:
        flipped ^= below(column)
    flip = first ^ (len(columns) % 2 == 1)
    if flip.size > 1:
        flipped ^= pack_words(flip[pair_idx])
    elif flip[0]:
        _not(flipped, count)
    return flipped


def two_channel_block_lhv(
    seed: int,
    start: int,
    count: int,
    model: models.LhvModel,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    cumw: np.ndarray,
) -> tuple[np.ndarray, PackedFlags, PackedFlags]:
    """Packed two-channel flags (set: parallel) for any factorized model,
    built-in or custom, with the per-trial settings-pair index.

    A deterministic model is decided on the emission slot's planes when its
    cuts pass the check of `_setting_cuts` at every setting of the run: each
    arm is `_step_decision` of the emission integer k, the float decision
    draw for draw, and no float is built. Otherwise the hidden values are
    sampled from `uniform_block` and each arm answers by `_float_arm`:
    responses get the setting as a scalar when there is one settings pair
    and as a per-trial array otherwise. Determinism holds for
    any vectorized callables because each draw is a function of its trial
    index. A factorized model's outcomes do not depend on the measurement
    order.
    """
    start, count = _trial_range(seed, start, count)
    pair_idx = _pair_index(seed, start, count, cumw)
    block = (seed, start, count)
    steps = lhv_word_steps(model, pair_a, pair_b)
    if steps is not None:
        below = _comparer(_slot_planes(*block, SLOT_EMISSION), pair_idx, cumw.size)
        oa = _step_decision(below, pair_idx, *steps[0])
        ob = _step_decision(below, pair_idx, *steps[1])
    else:
        lam = np.asarray(model.sample(uniform_block(*block, SLOT_EMISSION)), dtype=float)
        oa = _float_arm(block, SLOT_ARM_A, model.response_a, _per_trial(pair_a, pair_idx), lam)
        ob = _float_arm(block, SLOT_ARM_B, model.response_b, _per_trial(pair_b, pair_idx), lam)
    return pair_idx, PackedFlags(oa, count), PackedFlags(ob, count)


def _float_arm(block: tuple, slot: int, response, setting, lam: np.ndarray) -> np.ndarray:
    """One arm's packed flags on the float path, ``u < response(setting, lam)`` for
    the slot's uniforms u, decided as ``k < p * 2**53`` (`_below_each`): the
    same compare scaled by a power of two, so exact, and neither u nor k is
    built. The arm reads the slot's coins and digits, and a tail only where
    a trial ties. Its peak is while it scales the response: lam, the
    response and the scaled copy, about 24 bytes per trial. A response may
    answer with one number for every trial."""
    p = np.asarray(response(setting, lam), dtype=float)
    x = np.multiply(p, _UNIT * 2.0**-_LOW, out=np.empty(lam.shape))
    del p  # the compares hold x and the tops, not the response too
    tops = _tops(_slot_coins(*block, slot), _slot_digits(*block, slot))
    return _below_each(tops, lambda at: _slot_tails(*block, slot, at), x)
