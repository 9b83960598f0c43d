"""Deterministic, seedable Monte Carlo driver.

The central contract: the record of trial i is a pure function of
(seed, i, config), so runs are reproducible bit for bit regardless of block
size, execution order or worker count. Each draw is read at its trial's
position in a jumpable stream (see :mod:`eprsim.kernels`); workers only
ever partition the trial-index range, and each block is reduced to exact
integer counts on the worker that ran it.
Workers are processes: the calling process and children forked from it,
once for all the runs of a `Schedule` (a scenario opens one around its
runs, so `chsh-scan` forks once and not once per settings pair; a run
called alone opens its own), each of which sends its share's counts back
through a pipe; an error in a child is raised in the caller. Not threads:
a block decided on the random planes is some twenty numpy calls of a few
microseconds each, and threads trade the GIL at every call
(`BENCH_18.json`, `worker_probe`). The blocks are dealt round-robin off a
`range`, so no block list is built, and each process sums its own blocks
as it goes. Runs keep those counts, not per-trial arrays, so peak memory is
set by the blocks in flight and does not grow with the trial count;
per-trial records are recomputed on demand.

Geometry (arm length, inter-measurement delay) is bookkeeping: it sets the
space-like-separation flag on records and never influences outcomes.
"""

from __future__ import annotations

import functools
import operator
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO, Iterator

import numpy as np

import eprsim.kernels as kernels

from . import _Frozen
from .models import (
    Arm,
    ChannelOutcome,
    HypothesisModel,
    Lhv,
    Ordering,
    validate_lhv_model_once,
)
from .stats import ChainCounts, CoincidenceCounts

if TYPE_CHECKING:
    from .reference import ChainRecord, TrialDraws, TwoChannelRecord

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
# Trials per block. A run on the factorized float path takes blocks a
# quarter this size: at about 24 bytes of floats per trial, a 2**18-trial
# block of it would not fit a 2 MB L2 cache (`BENCH_27.json`, `float_block`).
BLOCK_SIZE = 1 << 18

# A run starts up to this many processes; more never helps a CPU-bound block loop.
MAX_WORKERS = 256


class Geometry(_Frozen):
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


class FixedSettings(_Frozen):
    """One analyzer orientation pair (radians, shared coordinates)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        kernels.check_real("a", self.a)
        kernels.check_real("b", self.b)


def check_trials(trials) -> int:
    """The trials rule: an int in [1, 2**64], at most the trial indices of a seed."""
    return kernels.check_int("trials", trials, 1, kernels.SEED_LIMIT)


def _check_start(start_index, trials: int) -> int:
    """The start_index rule: the run's trials stay within the seed's 2**64 indices."""
    return kernels.check_int("start_index", start_index, 0, kernels.SEED_LIMIT - trials)


class RunConfig(_Frozen):
    """Everything that determines a run, and therefore every record in it."""

    model: HypothesisModel
    trials: int
    settings: FixedSettings = FixedSettings(0.0, 0.0)
    ordering: Ordering = Ordering.ARM1_FIRST
    seed: int = 1
    geometry: Geometry = Geometry()

    def __post_init__(self) -> None:
        if not isinstance(self.model, HypothesisModel):
            raise TypeError(f"not a hypothesis model: {self.model!r}")
        if not isinstance(self.settings, FixedSettings):
            raise TypeError(f"not a FixedSettings: {self.settings!r}")
        kernels.check_ordering(self.ordering)
        if not isinstance(self.geometry, Geometry):
            raise TypeError(f"not a Geometry: {self.geometry!r}")
        check_trials(self.trials)
        kernels.check_seed(self.seed)


class TwoChannelProtocol(_Frozen):
    """Two-channel analyzers on both arms, oriented per the run's settings."""


class QwpChainProtocol(_Frozen):
    """Right-helicity analyzer chains (plate + polarizer) on both arms; each
    trial yields one detection flag per arm. The plates' fast axes are not
    parameters: detection does not depend on them for any model, since the
    chains always certify right helicity."""


Protocol = TwoChannelProtocol | QwpChainProtocol


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


# Forking, exiting and reaping a worker process costs the caller about 3 ms
# on a 2-vCPU VM, and its later writes to pages it shared with the child
# about 4 ms more by its exit (`BENCH_27.json`, `fork_probe`); one thread
# runs about 2**21 trials of `qm`, or 2**16 of the factorized float path, in
# 3 ms. So a run deals its blocks to one more process only for each 2**21
# trials, or each 2**17 trials of the float path, counted in whole units of
# 2**16 trials: at two workers or more, a `qm` run of more than 63 * 2**16
# trials takes a second process, and a 1e6-trial run, as each of
# `model-matrix`'s is, stays in one.
_TRIALS_PER_PROCESS = 1 << 21
_FLOAT_TRIALS_PER_PROCESS = 1 << 17
_FORK_UNIT = 1 << 16


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
    if it ends in an error, Ctrl-C included (a child ignores SIGINT). A
    schedule forks none where the platform has no ``os.fork``, or if it is
    made while another thread runs: a child could inherit a lock it held.
    """

    def __init__(self) -> None:
        self._children: list[tuple[int, BinaryIO]] = []  # (pid, pipe), in the caller
        self._pipe: BinaryIO | None = None  # in a child, its pipe to the caller
        self._share = 0  # which share of each run this process takes
        self._open = False
        self._forks = hasattr(os, "fork") and threading.active_count() == 1

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
                if "logging" in sys.modules:  # a child reports through its pipe alone
                    sys.modules["logging"].disable()
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

    def _gather(self, run: tuple, total):
        """`total` plus the sum each child sent for `run`, added with `+`
        into a new value, so a zero the caller passed is never changed."""
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
            total = total + part
        return total


def _run_blocks(
    count,
    zero,
    start: int,
    trials: int,
    workers: int,
    block: int | None = None,
    per_process: int = _TRIALS_PER_PROCESS,
    schedule: Schedule | None = None,
):
    """The sum with `+`, from the run's `zero`, of ``count(lo, hi)`` over
    the range's blocks of `block` trials (`BLOCK_SIZE` when None): one
    count per block, of the type of `zero`, the count of no trials.

    The blocks are dealt round-robin to up to `workers` processes, at most
    one per `per_process` trials (the run's trials rounded up to whole
    `_FORK_UNIT`s): this one and the children of `schedule` (of a schedule
    of its own when None), each of which sends its own sum back. Integer
    addition is exact, so the sum does not depend on the worker count. Where
    the schedule forks none, every block runs here. In a child the result is
    the sum of its own share, and `zero` when the run leaves it none.
    """
    if schedule is None:
        with Schedule() as schedule:
            return _run_blocks(count, zero, start, trials, workers, block, per_process, schedule)
    block = block or BLOCK_SIZE
    stop = start + trials
    blocks = range(start, stop, block)
    units = -(-trials // _FORK_UNIT)
    shares = max(1, min(workers, units * _FORK_UNIT // per_process)) if schedule._forks else 1
    schedule._fork_to(shares)
    share = schedule._share

    def own_sum():
        if share >= shares:
            return zero
        parts = (count(lo, min(lo + block, stop)) for lo in blocks[share::shares])
        return functools.reduce(operator.add, parts, zero)

    run = (start, trials)
    if schedule._pipe is not None:
        return schedule._send(run, own_sum)
    return schedule._gather(run, own_sum())


def _replay(config: RunConfig, start_index: int, kernel, block: int):
    """Per block of `block` trials of the run: first trial index,
    arm-2-first flags (a list of one bool per trial) and the kernel
    output, recomputed from the counter-based stream. The flags come from
    the helper the kernels decide the order with."""
    stop = start_index + config.trials
    for lo in range(start_index, stop, block):
        hi = min(lo + block, stop)
        flags = kernels.arm2_first_flags(config.seed, lo, hi - lo, config.ordering)
        yield lo, flags.unpack().tolist(), kernel(lo, hi)


# A record's enum members, indexed by a replayed flag (False, True).
_FIRST_ARMS = (Arm.ONE, Arm.TWO)
_OUTCOMES = (ChannelOutcome.MINUS, ChannelOutcome.PLUS)


@dataclass(frozen=True, eq=False)
class TwoChannelRun:
    """Exact joint-outcome counts of a two-channel run at its one settings
    pair, ``config.settings``."""

    config: RunConfig
    start_index: int
    counts: CoincidenceCounts

    @property
    def spacelike(self) -> bool:
        return self.config.geometry.spacelike

    def counts_for_pair(self, pair: int) -> CoincidenceCounts:
        """`counts` for pair 0, the run's one pair; any other pair raises IndexError."""
        if pair != 0:
            raise IndexError(f"pair {pair} not in 0..0")
        return self.counts

    def records(self) -> Iterator[TwoChannelRecord]:
        """Per-trial records, replayed block by block."""
        from .reference import TwoChannelRecord

        kernel, block, _ = _two_channel_kernel(self.config)
        a, b, spacelike = self.config.settings.a, self.config.settings.b, self.spacelike
        blocks = _replay(self.config, self.start_index, kernel, block)
        for lo, arm2_first, (_, out_a, out_b) in blocks:
            trials = zip(arm2_first, out_a.unpack().tolist(), out_b.unpack().tolist())
            for i, (flag, plus_a, plus_b) in enumerate(trials, lo):
                yield TwoChannelRecord(
                    trial_index=i,
                    a=a,
                    b=b,
                    first_arm=_FIRST_ARMS[flag],
                    outcome_a=_OUTCOMES[plus_a],
                    outcome_b=_OUTCOMES[plus_b],
                    spacelike=spacelike,
                )


@dataclass(frozen=True, eq=False)
class QwpChainRun:
    """Exact detection counts of a chain-protocol run."""

    config: RunConfig
    start_index: int
    counts: ChainCounts

    @property
    def spacelike(self) -> bool:
        return self.config.geometry.spacelike

    def records(self) -> Iterator[ChainRecord]:
        """Per-trial records, replayed block by block."""
        from .reference import ChainRecord

        spacelike = self.spacelike
        blocks = _replay(self.config, self.start_index, _qwp_kernel(self.config), BLOCK_SIZE)
        for lo, arm2_first, (det_a, det_b) in blocks:
            trials = zip(arm2_first, det_a.unpack().tolist(), det_b.unpack().tolist())
            for i, (flag, detected_a, detected_b) in enumerate(trials, lo):
                yield ChainRecord(
                    trial_index=i,
                    first_arm=_FIRST_ARMS[flag],
                    detected_a=detected_a,
                    detected_b=detected_b,
                    spacelike=spacelike,
                )


def _two_channel_kernel(config: RunConfig):
    """The per-block kernel call of a two-channel run, (lo, hi) -> (pair
    index, outcome A, outcome B) per trial, its block size and the trials
    that make one worker process's share: a quarter `BLOCK_SIZE` and
    `_FLOAT_TRIALS_PER_PROCESS` on the factorized float path, and
    `BLOCK_SIZE` and `_TRIALS_PER_PROCESS` otherwise."""
    a, b = config.settings.a, config.settings.b
    pair_a, pair_b = np.array([a], dtype=np.float64), np.array([b], dtype=np.float64)
    cumw = np.array([1.0])
    float_path = False
    if isinstance(config.model, Lhv):
        # Find a deterministic model's cuts once, here, and not once in each
        # worker. Calling the factorized kernel directly keeps a traced run
        # to one kernel span per block.
        float_path = kernels.lhv_word_steps(config.model.model, a, b) is None
        kernel = lambda lo, hi: kernels.two_channel_block_lhv(
            config.seed, lo, hi - lo, config.model.model, pair_a, pair_b, cumw
        )
    else:
        kernel = lambda lo, hi: kernels.two_channel_block(
            config.seed, lo, hi - lo, config.model, pair_a, pair_b, cumw, config.ordering
        )
    if float_path:
        return kernel, BLOCK_SIZE >> 2, _FLOAT_TRIALS_PER_PROCESS
    return kernel, BLOCK_SIZE, _TRIALS_PER_PROCESS


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
    validated (`validate_lhv_model`, once per process for a model that
    hashes) before any block runs, as are ``start_index`` and ``workers``.
    The worker processes come from `schedule` (see `Schedule`), or from one
    the run opens for itself.
    """
    start_index = _check_start(start_index, config.trials)
    workers = resolve_workers(workers)
    if isinstance(config.model, Lhv):
        validate_lhv_model_once(config.model.model)
    if isinstance(protocol, TwoChannelProtocol):
        kernel, block, per_process = _two_channel_kernel(config)

        def count(lo: int, hi: int) -> CoincidenceCounts:
            _, out_a, out_b = kernel(lo, hi)
            return CoincidenceCounts.from_outcomes(out_a, out_b)

        zero, result = CoincidenceCounts(0, 0, 0, 0), TwoChannelRun
    elif isinstance(protocol, QwpChainProtocol):
        kernel, block, per_process = _qwp_kernel(config), BLOCK_SIZE, _TRIALS_PER_PROCESS
        count = lambda lo, hi: ChainCounts.from_flags(*kernel(lo, hi))
        zero, result = ChainCounts(0, 0, 0, 0), QwpChainRun
    else:
        raise TypeError(f"not a protocol: {protocol!r}")
    counts = _run_blocks(
        count, zero, start_index, config.trials, workers, block, per_process, schedule
    )
    return result(config, start_index, counts)


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
    n_pass = _run_blocks(
        lambda lo, hi: kernels.malus_block(seed, lo, hi - lo, theta).popcount(),
        0, start_index, trials, workers, BLOCK_SIZE, _TRIALS_PER_PROCESS, schedule,
    )
    return MalusRun(seed=seed, theta=theta, start_index=start_index, n_pass=n_pass, n_total=trials)


def trial_draws(seed: int, trial_index: int) -> TrialDraws:
    """The five named draws of one trial, in the documented slot order.

    Draw j is ``k * 2**-53`` with ``k = (c << 52) | (d << 36) | (t >> 28)``
    (see :mod:`eprsim.kernels`): for ``i = trial_index``, c is bit ``i % 64``
    of output ``i // 64`` of slot j's coin plane, the PCG64DXSM stream of
    ``SeedSequence(seed, spawn_key=(j, 1))``; d is 16-bit lane ``i % 4`` of
    output ``i // 4`` of its digit plane, spawn key ``(j, 0)``; and t is
    output i of its tail plane, spawn key ``(j, 2)``. Each draw is a
    one-trial `kernels.uniform_block`, the kernels' own reader of the three
    planes. The draws are the object layer's input, so this loads it
    (:mod:`eprsim.reference`).
    """
    from .reference import TrialDraws

    kernels.check_seed(seed)
    kernels.check_int("trial_index", trial_index, 0, kernels.SEED_LIMIT - 1)
    # float(): numpy 2 shows a bare np.float64 as np.float64(...)
    u = [float(kernels.uniform_block(seed, trial_index, 1, slot)[0])
         for slot in range(kernels.DRAWS_PER_TRIAL)]
    return TrialDraws(
        settings=u[kernels.SLOT_SETTINGS],
        ordering=u[kernels.SLOT_ORDERING],
        emission=u[kernels.SLOT_EMISSION],
        arm_a=u[kernels.SLOT_ARM_A],
        arm_b=u[kernels.SLOT_ARM_B],
    )
