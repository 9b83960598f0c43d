"""Deterministic, seedable Monte Carlo driver.

The central contract: the record of trial i is a pure function of
(seed, i, config), so runs are reproducible bit for bit regardless of block
size, execution order or worker count. Each draw is read at its trial's
position in a jumpable stream (see :mod:`eprsim.kernels`); workers only
ever partition the trial-index range, and each block is reduced to exact
integer counts on the worker that ran it.
Runs keep those counts, not per-trial arrays, so memory does not grow with
the trial count; per-trial records are recomputed on demand.

Geometry (arm length, inter-measurement delay) is bookkeeping: it sets the
space-like-separation flag on records and never influences outcomes.
"""

from __future__ import annotations

import functools
import operator
import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from . import kernels
from .models import (
    Arm,
    ChannelOutcome,
    HypothesisModel,
    Lhv,
    Ordering,
    validate_lhv_model,
)
from .stats import ChainCounts, CoincidenceCounts

if TYPE_CHECKING:
    from .reference import TrialDraws

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
BLOCK_SIZE = 1 << 16

# A run starts up to this many processes; more never helps a CPU-bound block loop.
MAX_WORKERS = 256


@dataclass(frozen=True)
class Geometry:
    """Distance between the measurement stations and their timing offset."""

    arm_separation_m: float = 0.0
    inter_measurement_delay_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("arm_separation_m", "inter_measurement_delay_s"):
            kernels.check_real(name, getattr(self, name), minimum=0.0)

    @property
    def spacelike(self) -> bool:
        """True when no light-speed signal can link the two measurements."""
        return self.arm_separation_m > SPEED_OF_LIGHT_M_PER_S * self.inter_measurement_delay_s


@dataclass(frozen=True)
class FixedSettings:
    """One analyzer orientation pair (radians, shared coordinates)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        kernels.check_real("a", self.a)
        kernels.check_real("b", self.b)


@dataclass(frozen=True)
class RandomizedSettings:
    """Per-trial choice from a finite weighted list of orientation pairs."""

    pairs: tuple[tuple[float, float], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        items = _items("pairs", self.pairs, "a sequence of (a, b) pairs")
        pairs = tuple(map(_settings_pair, items))
        if not pairs:
            raise kernels.ConfigError("pairs: need at least one settings pair")
        if self.weights is None:
            weights = tuple(1.0 / len(pairs) for _ in pairs)
        else:
            weights = tuple(
                kernels.check_real("weights", w, minimum=0.0)
                for w in _items("weights", self.weights, "a sequence of numbers")
            )
            if len(weights) != len(pairs):
                raise kernels.ConfigError(
                    f"weights: {len(weights)} weights for {len(pairs)} settings pairs; "
                    "they must match one to one"
                )
            if abs(sum(weights) - 1.0) > 1e-12:
                raise kernels.ConfigError(f"weights: sum to {sum(weights)!r}, not 1 within 1e-12")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", weights)


def _items(key: str, value, what: str) -> tuple:
    """The items of `value`; a string or a value that is not iterable breaks
    `key`'s rule, which says it must be `what`."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise kernels.ConfigError(f"{key}: must be {what}, got {value!r}")


def _settings_pair(pair) -> tuple[float, float]:
    """One settings pair as two finite floats."""
    items = _items("pairs", pair, "an (a, b) pair")
    if len(items) != 2:
        raise kernels.ConfigError(f"pairs: must be an (a, b) pair, got {pair!r}")
    return kernels.check_real("pairs", items[0]), kernels.check_real("pairs", items[1])


SettingsPolicy = FixedSettings | RandomizedSettings


def check_trials(trials) -> int:
    """The trials rule: an int in [1, 2**64], at most the trial indices of a seed."""
    return kernels.check_int("trials", trials, 1, kernels.SEED_LIMIT)


def _check_start(start_index, trials: int) -> int:
    """The start_index rule: the run's trials stay within the seed's 2**64 indices."""
    return kernels.check_int("start_index", start_index, 0, kernels.SEED_LIMIT - trials)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run, and therefore every record in it."""

    model: HypothesisModel
    trials: int
    settings: SettingsPolicy = FixedSettings(0.0, 0.0)
    ordering: Ordering = Ordering.ARM1_FIRST
    seed: int = 1
    geometry: Geometry = field(default_factory=Geometry)

    def __post_init__(self) -> None:
        if not isinstance(self.model, HypothesisModel):
            raise TypeError(f"not a hypothesis model: {self.model!r}")
        if not isinstance(self.settings, SettingsPolicy):
            raise TypeError(f"not a settings policy: {self.settings!r}")
        kernels.check_ordering(self.ordering)
        check_trials(self.trials)
        kernels.check_seed(self.seed)


@dataclass(frozen=True)
class TwoChannelProtocol:
    """Two-channel analyzers on both arms, oriented per the settings policy."""


@dataclass(frozen=True)
class QwpChainProtocol:
    """Right-helicity analyzer chains (plate + polarizer) on both arms; each
    trial yields one detection flag per arm. The plates' fast axes are not
    parameters: detection does not depend on them for any model, since the
    chains always certify right helicity."""


Protocol = TwoChannelProtocol | QwpChainProtocol


@dataclass(frozen=True)
class TwoChannelRecord:
    trial_index: int
    a: float
    b: float
    first_arm: Arm
    outcome_a: ChannelOutcome
    outcome_b: ChannelOutcome
    spacelike: bool


@dataclass(frozen=True)
class ChainRecord:
    trial_index: int
    first_arm: Arm
    detected_a: bool
    detected_b: bool
    spacelike: bool


def resolve_workers(workers: int | None = None) -> int:
    """The workers rule: a given count is an int in [1, MAX_WORKERS]; None
    means the CPUs this process may run on, at most 4."""
    if workers is not None:
        return kernels.check_int("workers", workers, 1, MAX_WORKERS)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # fewer than the host's in a pinned container
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus)


def _add(total: tuple | None, part: tuple) -> tuple:
    """Component-wise sum of two count tuples; a None total is the empty sum."""
    return part if total is None else tuple(map(operator.add, total, part))


# Forking, exiting and reaping a worker process costs about 3 ms on a
# 2-vCPU VM: a dozen blocks of a kernel decided on the random planes, under
# one block of the factorized float path (about 4 ms). So a run starts one
# more process only for each 32 plane blocks, or each 2 float-path blocks.
_BLOCKS_PER_PROCESS = 32
_FLOAT_BLOCKS_PER_PROCESS = 2


def _run_blocks(
    count, start: int, trials: int, workers: int, per_process: int = _BLOCKS_PER_PROCESS
) -> tuple:
    """Component-wise sum of ``count(lo, hi)`` over the blocks of the range.

    The blocks are dealt round-robin to up to `workers` processes, at most
    one per `per_process` blocks: this one and children forked from it,
    each of which sends its own sum back (`_forked`). Processes and not
    threads, because most kernels' blocks are some twenty numpy calls of a
    few microseconds each, and threads trade the GIL at every call. Integer
    addition is exact, so the sum does not depend on the worker count.
    Where the platform has no ``os.fork``, every block runs here.
    """
    stop = start + trials
    blocks = range(start, stop, BLOCK_SIZE)
    shares = max(1, min(workers, len(blocks) // per_process))
    if not hasattr(os, "fork"):
        shares = 1

    def own_sum(share: int) -> tuple | None:
        parts = (count(lo, min(lo + BLOCK_SIZE, stop)) for lo in blocks[share::shares])
        return functools.reduce(_add, parts, None)

    if shares == 1:
        return own_sum(0)
    children = []
    try:
        for share in range(1, shares):
            children.append(_forked(functools.partial(own_sum, share)))
        total = own_sum(0)
        for pid, result in children:
            try:
                ok, part = pickle.load(result)
            except EOFError:
                raise RuntimeError(f"worker process {pid} ended without a result") from None
            if not ok:
                raise part
            total = _add(total, part)
        return total
    except BaseException:
        import signal  # only a run that fails needs it

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, result in children:
            result.close()
            os.waitpid(pid, 0)


def _forked(work):
    """(pid, pipe) of a forked child that runs `work()` and writes to the
    pipe, pickled, (True, what it returned) or (False, the exception it
    raised). The child never returns into the caller: it ends in
    ``os._exit``, which runs no cleanup of the parent's state."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:
        os.close(read)
        try:
            message = pickle.dumps((True, work()))
        except BaseException as exc:
            try:
                message = pickle.dumps((False, exc))
            except Exception:  # an exception that does not pickle
                message = pickle.dumps((False, RuntimeError(repr(exc))))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(message)
        status = 0
    finally:
        os._exit(status)


def _replay(config: RunConfig, start_index: int, kernel):
    """Per block of the run: first trial index, arm-2-first flags and the
    kernel output, recomputed from the counter-based stream. The flags come
    from the helper the kernels decide the order with."""
    stop = start_index + config.trials
    for lo in range(start_index, stop, BLOCK_SIZE):
        hi = min(lo + BLOCK_SIZE, stop)
        flags = kernels.arm2_first_flags(config.seed, lo, hi - lo, config.ordering)
        yield lo, flags, kernel(lo, hi)


@dataclass(frozen=True, eq=False)
class TwoChannelRun:
    """Exact joint-outcome counts of a two-channel run, one per settings pair."""

    config: RunConfig
    start_index: int
    pair_table: tuple[tuple[float, float], ...]
    pair_counts: tuple[CoincidenceCounts, ...]

    @property
    def spacelike(self) -> bool:
        return self.config.geometry.spacelike

    def counts_for_pair(self, pair: int) -> CoincidenceCounts:
        if not 0 <= pair < len(self.pair_table):
            raise IndexError(f"pair {pair} not in 0..{len(self.pair_table) - 1}")
        return self.pair_counts[pair]

    def counts(self) -> list[CoincidenceCounts]:
        return [self.counts_for_pair(j) for j in range(len(self.pair_table))]

    def records(self) -> Iterator[TwoChannelRecord]:
        """Per-trial records, replayed block by block."""
        _, kernel, _ = _two_channel_kernel(self.config)
        blocks = _replay(self.config, self.start_index, kernel)
        for lo, arm2_first, (pair_index, out_a, out_b) in blocks:
            for i, flag in enumerate(arm2_first):
                a, b = self.pair_table[pair_index[i]]
                yield TwoChannelRecord(
                    trial_index=lo + i,
                    a=a,
                    b=b,
                    first_arm=Arm.TWO if flag else Arm.ONE,
                    outcome_a=ChannelOutcome.PLUS if out_a[i] else ChannelOutcome.MINUS,
                    outcome_b=ChannelOutcome.PLUS if out_b[i] else ChannelOutcome.MINUS,
                    spacelike=self.spacelike,
                )


@dataclass(frozen=True, eq=False)
class QwpChainRun:
    """Exact detection counts of a chain-protocol run."""

    config: RunConfig
    start_index: int
    detections: ChainCounts

    @property
    def spacelike(self) -> bool:
        return self.config.geometry.spacelike

    def chain_counts(self) -> ChainCounts:
        return self.detections

    def records(self) -> Iterator[ChainRecord]:
        """Per-trial records, replayed block by block."""
        blocks = _replay(self.config, self.start_index, _qwp_kernel(self.config))
        for lo, arm2_first, (det_a, det_b) in blocks:
            for i, flag in enumerate(arm2_first):
                yield ChainRecord(
                    trial_index=lo + i,
                    first_arm=Arm.TWO if flag else Arm.ONE,
                    detected_a=bool(det_a[i]),
                    detected_b=bool(det_b[i]),
                    spacelike=self.spacelike,
                )


def _settings_tables(policy: SettingsPolicy) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(policy, FixedSettings):
        pairs = ((policy.a, policy.b),)
        weights = np.array([1.0])
    else:
        pairs = policy.pairs
        weights = np.array(policy.weights)
    pair_a = np.array([p[0] for p in pairs], dtype=np.float64)
    pair_b = np.array([p[1] for p in pairs], dtype=np.float64)
    cumw = np.cumsum(weights)
    cumw[-1] = 1.0  # guard float drift; weights already sum to 1 within 1e-12
    return pairs, pair_a, pair_b, cumw


def _two_channel_kernel(config: RunConfig):
    """The settings pairs of a two-channel run, its per-block kernel call,
    (lo, hi) -> (pair index, outcome A, outcome B) per trial, and whether
    its blocks take the factorized float path."""
    pairs, pair_a, pair_b, cumw = _settings_tables(config.settings)
    if isinstance(config.model, Lhv):
        # Find a deterministic model's cuts once, here, and not once in each
        # worker. Calling the factorized kernel directly keeps a traced run
        # to one kernel span per block.
        steps = kernels.lhv_word_steps(config.model.model, pair_a, pair_b)
        return pairs, lambda lo, hi: kernels.two_channel_block_lhv(
            config.seed, lo, hi - lo, config.model.model, pair_a, pair_b, cumw
        ), steps is None
    return pairs, lambda lo, hi: kernels.two_channel_block(
        config.seed, lo, hi - lo, config.model, pair_a, pair_b, cumw, config.ordering
    ), False


def _qwp_kernel(config: RunConfig):
    """The per-block kernel call of a chain run: (lo, hi) -> (detected A, detected B)."""
    return lambda lo, hi: kernels.qwp_block(
        config.seed, lo, hi - lo, config.model, config.ordering
    )


def run_experiment(
    config: RunConfig,
    protocol: Protocol = TwoChannelProtocol(),
    *,
    start_index: int = 0,
    workers: int | None = None,
) -> TwoChannelRun | QwpChainRun:
    """Run `config.trials` trials of the given protocol.

    ``start_index`` offsets the trial-index range so that disjoint blocks of
    one experiment draw from disjoint stream positions (hence independent
    samples). Worker count never changes results. A factorized model is
    validated (`validate_lhv_model`) before any block runs, as are
    ``start_index`` and ``workers``.
    """
    start_index = _check_start(start_index, config.trials)
    workers = resolve_workers(workers)
    if isinstance(config.model, Lhv):
        validate_lhv_model(config.model.model)
    if isinstance(protocol, TwoChannelProtocol):
        return _run_two_channel(config, start_index, workers)
    if isinstance(protocol, QwpChainProtocol):
        return _run_qwp_chain(config, start_index, workers)
    raise TypeError(f"not a protocol: {protocol!r}")


def _run_two_channel(config: RunConfig, start_index: int, workers: int) -> TwoChannelRun:
    pairs, kernel, float_path = _two_channel_kernel(config)

    def count(lo: int, hi: int) -> tuple[CoincidenceCounts, ...]:
        pair_index, out_a, out_b = kernel(lo, hi)
        if len(pairs) == 1:
            return (CoincidenceCounts.from_outcomes(out_a, out_b),)
        return tuple(
            CoincidenceCounts.from_outcomes(out_a, out_b, pair_index == j)
            for j in range(len(pairs))
        )

    return TwoChannelRun(
        config=config,
        start_index=start_index,
        pair_table=pairs,
        pair_counts=_run_blocks(
            count, start_index, config.trials, workers,
            _FLOAT_BLOCKS_PER_PROCESS if float_path else _BLOCKS_PER_PROCESS,
        ),
    )


def _run_qwp_chain(config: RunConfig, start_index: int, workers: int) -> QwpChainRun:
    kernel = _qwp_kernel(config)
    (detections,) = _run_blocks(
        lambda lo, hi: (ChainCounts.from_flags(*kernel(lo, hi)),),
        start_index, config.trials, workers,
    )
    return QwpChainRun(config=config, start_index=start_index, detections=detections)


@dataclass(frozen=True, eq=False)
class MalusRun:
    """Single-photon polarizer transmissions at one relative angle."""

    seed: int
    theta: float
    start_index: int
    n_pass: int
    n_total: int


def run_malus(
    seed: int,
    theta: float,
    trials: int,
    *,
    start_index: int = 0,
    workers: int | None = None,
) -> MalusRun:
    """Send `trials` photons polarized at 0 through a polarizer at `theta`.
    Every argument is checked before any block runs."""
    kernels.check_seed(seed)
    kernels.check_real("theta", theta)
    check_trials(trials)
    start_index = _check_start(start_index, trials)
    workers = resolve_workers(workers)
    (n_pass,) = _run_blocks(
        lambda lo, hi: (int(np.count_nonzero(kernels.malus_block(seed, lo, hi - lo, theta))),),
        start_index, trials, workers,
    )
    return MalusRun(seed=seed, theta=theta, start_index=start_index, n_pass=n_pass, n_total=trials)


def trial_draws(seed: int, trial_index: int) -> TrialDraws:
    """The five named draws of one trial, in the documented slot order.

    Draw j is ``k * 2**-53`` with ``k = (c << 52) | (d << 36) | (t >> 28)``
    (see :mod:`eprsim.kernels`): for ``i = trial_index``, c is bit ``i % 64``
    of output ``i // 64`` of slot j's coin plane, the PCG64DXSM stream of
    ``SeedSequence(seed, spawn_key=(j, 1))``; d is 16-bit lane ``i % 4`` of
    output ``i // 4`` of its digit plane, spawn key ``(j, 0)``; and t is
    output i of its tail plane, spawn key ``(j, 2)``. Each plane is read
    through the kernels' own per-thread generator, jumped to the output it
    needs. The draws are the object layer's input, so this loads it
    (:mod:`eprsim.reference`).
    """
    from .reference import TrialDraws

    kernels.check_seed(seed)
    kernels.check_int("trial_index", trial_index, 0, kernels.SEED_LIMIT - 1)
    u = [kernels._draw(seed, trial_index, slot) * 2.0**-53
         for slot in range(kernels.DRAWS_PER_TRIAL)]
    return TrialDraws(
        settings=u[kernels.SLOT_SETTINGS],
        ordering=u[kernels.SLOT_ORDERING],
        emission=u[kernels.SLOT_EMISSION],
        arm_a=u[kernels.SLOT_ARM_A],
        arm_b=u[kernels.SLOT_ARM_B],
    )
