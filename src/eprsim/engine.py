"""Deterministic, seedable Monte Carlo driver.

The central contract: the record of trial i is a pure function of
(seed, i, config), so runs are reproducible bit for bit regardless of block
size, execution order or worker count. Each draw is read at its trial's
position in a jumpable stream (see :mod:`eprsim.kernels`); workers only
ever partition the trial-index range, and each block is reduced to exact
integer counts on the worker that ran it.
Workers are processes: the calling process and children forked from it,
once for all the runs of a `Schedule` (a scenario opens one around its
runs; a run called alone opens its own), each of which sends its share's
counts back through a pipe.
Runs keep those counts, not per-trial arrays, so memory does not grow with
the trial count; per-trial records are recomputed on demand.

Geometry (arm length, inter-measurement delay) is bookkeeping: it sets the
space-like-separation flag on records and never influences outcomes.
"""

from __future__ import annotations

import functools
import logging
import operator
import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, BinaryIO, Iterator

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
from .stats import ChainCounts, CoincidenceCounts, PackedFlags

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
# one block of the factorized float path (about 4 ms). So a run deals its
# blocks to one more process only for each 32 plane blocks, or each 2
# float-path blocks.
_BLOCKS_PER_PROCESS = 32
_FLOAT_BLOCKS_PER_PROCESS = 2


class WorkerError(RuntimeError):
    """A worker process failed the schedule: it ended without sending its
    sum (killed, say, by a signal or the system's out-of-memory killer), or
    it ran other trials than the caller."""


class Schedule:
    """The worker processes that a sequence of runs shares, so that they are
    forked once and not once per run.

    Use it as ``with Schedule() as schedule:`` around runs that each take
    ``schedule=schedule``. The first run that deals its blocks to more than
    one process forks the children it needs; a later run that needs more
    forks only the extra ones. A child is a copy of the calling process and
    carries on through the body of the ``with`` block: at each run it
    computes its own round-robin share of the blocks and sends the sum up
    its pipe, and it leaves by ``os._exit`` where the block ends. So the
    body must make the same runs in the same order in every process, and
    write nothing; a run's result is complete in the calling process only.
    When the block ends the caller reaps every child, and kills them first
    if it ends in an error, Ctrl-C included (a child ignores SIGINT).
    """

    def __init__(self) -> None:
        self._children: list[tuple[int, BinaryIO]] = []  # (pid, pipe), in the caller
        self._pipe: BinaryIO | None = None  # in a child, its pipe to the caller
        self._share = 0  # which share of each run this process takes
        self._open = False

    def __enter__(self) -> Schedule:
        self._open = True
        return self

    def __exit__(self, kind, error, traceback) -> None:
        self._open = False
        if self._pipe is not None:
            os._exit(0 if kind is None else 1)
        children, self._children = self._children, []
        if kind is not None and children:
            import signal

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)

    def _fork_to(self, shares: int) -> None:
        """Fork children until this process and its children make `shares`
        processes. The caller first builds its random generator, so every
        child inherits it and ``numpy.random`` loaded."""
        if self._pipe is not None or len(self._children) + 1 >= shares:
            return
        if not self._open:
            raise RuntimeError("a schedule forks only inside its with block")
        kernels._generator()
        while self._pipe is None and len(self._children) + 1 < shares:
            self._fork()

    def _fork(self) -> None:
        """Fork one child with a pipe to it. SIGINT is blocked until the
        caller has recorded the child, and the child ignores it."""
        import signal  # only a schedule that forks needs it

        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid:
                self._children.append((pid, os.fdopen(read, "rb")))
                os.close(write)
                return
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                logging.disable()  # a child reports through its pipe alone
                os.close(read)
                for _, pipe in self._children:
                    pipe.close()
                self._share, self._children = len(self._children) + 1, []
                self._pipe = os.fdopen(write, "wb")
            except BaseException:
                os._exit(1)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def _send(self, run: tuple, work):
        """In a child: send ``(run, True, work())`` up the pipe, pickled, and
        return ``work()``; or send ``(run, False, the exception it raised)``
        and exit. A child never raises into the caller's code."""
        try:
            try:
                message = (run, True, work())
            except BaseException as exc:
                message = (run, False, exc)
            try:
                data = pickle.dumps(message)
            except Exception:  # an exception that does not pickle
                data = pickle.dumps((run, False, RuntimeError(repr(message[2]))))
            self._pipe.write(data)
            self._pipe.flush()
        except BaseException:
            os._exit(1)
        if not message[1]:
            os._exit(1)
        return message[2]

    def _gather(self, run: tuple, total: tuple) -> tuple:
        """`total` plus the sum each child sent for `run`."""
        for pid, pipe in self._children:
            try:
                sent, ok, part = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise WorkerError(f"worker process {pid} ended without a result") from None
            if not ok:
                raise part
            if sent != run:
                raise WorkerError(
                    f"worker process {pid} ran trials {sent} where the caller ran {run}: "
                    "a schedule's body must make the same runs in every process"
                )
            if part is not None:
                total = _add(total, part)
        return total


def _run_blocks(
    count,
    start: int,
    trials: int,
    workers: int,
    per_process: int = _BLOCKS_PER_PROCESS,
    schedule: Schedule | None = None,
    zero: tuple | None = None,
) -> tuple | None:
    """Component-wise sum of ``count(lo, hi)`` over the blocks of the range.

    The blocks are dealt round-robin to up to `workers` processes, at most
    one per `per_process` blocks: this one and the children of `schedule`
    (of a schedule of its own when None), each of which sends its own sum
    back. Processes and not threads, because most kernels' blocks are some
    twenty numpy calls of a few microseconds each, and threads trade the
    GIL at every call. Integer addition is exact, so the sum does not depend
    on the worker count. Where the platform has no ``os.fork``, every block
    runs here. In a child the result is the sum of its own share, and
    `zero`, the sum of no blocks, when the run leaves it none.
    """
    if schedule is None:
        with Schedule() as schedule:
            return _run_blocks(count, start, trials, workers, per_process, schedule, zero)
    stop = start + trials
    blocks = range(start, stop, BLOCK_SIZE)
    shares = max(1, min(workers, len(blocks) // per_process)) if hasattr(os, "fork") else 1
    schedule._fork_to(shares)
    share = schedule._share

    def own_sum() -> tuple | None:
        if share >= shares:
            return zero
        parts = (count(lo, min(lo + BLOCK_SIZE, stop)) for lo in blocks[share::shares])
        return functools.reduce(_add, parts, None)

    run = (start, trials)
    if schedule._pipe is not None:
        return schedule._send(run, own_sum)
    return schedule._gather(run, own_sum())


def _replay(config: RunConfig, start_index: int, kernel):
    """Per block of the run: first trial index, arm-2-first flags (unpacked,
    one boolean per trial) and the kernel output, recomputed from the
    counter-based stream. The flags come from the helper the kernels decide
    the order with."""
    stop = start_index + config.trials
    for lo in range(start_index, stop, BLOCK_SIZE):
        hi = min(lo + BLOCK_SIZE, stop)
        flags = kernels.arm2_first_flags(config.seed, lo, hi - lo, config.ordering)
        yield lo, flags.unpack(), kernel(lo, hi)


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
            out_a, out_b = out_a.unpack(), out_b.unpack()
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
            det_a, det_b = det_a.unpack(), det_b.unpack()
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
    schedule: Schedule | None = None,
) -> TwoChannelRun | QwpChainRun:
    """Run `config.trials` trials of the given protocol.

    ``start_index`` offsets the trial-index range so that disjoint blocks of
    one experiment draw from disjoint stream positions (hence independent
    samples). Worker count never changes results. A factorized model is
    validated (`validate_lhv_model`) before any block runs, as are
    ``start_index`` and ``workers``. The worker processes come from
    `schedule` (see `Schedule`), or from one the run opens for itself.
    """
    start_index = _check_start(start_index, config.trials)
    workers = resolve_workers(workers)
    if isinstance(config.model, Lhv):
        validate_lhv_model(config.model.model)
    if isinstance(protocol, TwoChannelProtocol):
        return _run_two_channel(config, start_index, workers, schedule)
    if isinstance(protocol, QwpChainProtocol):
        return _run_qwp_chain(config, start_index, workers, schedule)
    raise TypeError(f"not a protocol: {protocol!r}")


def _run_two_channel(
    config: RunConfig, start_index: int, workers: int, schedule: Schedule | None
) -> TwoChannelRun:
    pairs, kernel, float_path = _two_channel_kernel(config)

    def count(lo: int, hi: int) -> tuple[CoincidenceCounts, ...]:
        pair_index, out_a, out_b = kernel(lo, hi)
        if len(pairs) == 1:
            return (CoincidenceCounts.from_outcomes(out_a, out_b),)
        return tuple(
            CoincidenceCounts.from_outcomes(out_a, out_b, PackedFlags.pack(pair_index == j))
            for j in range(len(pairs))
        )

    return TwoChannelRun(
        config=config,
        start_index=start_index,
        pair_table=pairs,
        pair_counts=_run_blocks(
            count, start_index, config.trials, workers,
            _FLOAT_BLOCKS_PER_PROCESS if float_path else _BLOCKS_PER_PROCESS, schedule,
            (CoincidenceCounts(0, 0, 0, 0),) * len(pairs),
        ),
    )


def _run_qwp_chain(
    config: RunConfig, start_index: int, workers: int, schedule: Schedule | None
) -> QwpChainRun:
    kernel = _qwp_kernel(config)
    (detections,) = _run_blocks(
        lambda lo, hi: (ChainCounts.from_flags(*kernel(lo, hi)),),
        start_index, config.trials, workers, _BLOCKS_PER_PROCESS, schedule,
        (ChainCounts(0, 0, 0, 0),),
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
    schedule: Schedule | None = None,
) -> MalusRun:
    """Send `trials` photons polarized at 0 through a polarizer at `theta`.
    Every argument is checked before any block runs. The worker processes
    come from `schedule`, as in `run_experiment`."""
    kernels.check_seed(seed)
    kernels.check_real("theta", theta)
    check_trials(trials)
    start_index = _check_start(start_index, trials)
    workers = resolve_workers(workers)
    (n_pass,) = _run_blocks(
        lambda lo, hi: (kernels.malus_block(seed, lo, hi - lo, theta).popcount(),),
        start_index, trials, workers, _BLOCKS_PER_PROCESS, schedule, (0,),
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
