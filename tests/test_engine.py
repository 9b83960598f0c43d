import dataclasses
import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import engine, kernels
from eprsim.engine import (
    BLOCK_SIZE,
    MAX_WORKERS,
    SPEED_OF_LIGHT_M_PER_S,
    FixedSettings,
    Geometry,
    QwpChainProtocol,
    RunConfig,
    TwoChannelProtocol,
    resolve_workers,
    run_experiment,
    run_malus,
)
from eprsim.kernels import ConfigError
from eprsim.models import Lhv, LhvModel, Ordering, QMFormal, malus_response_model
from eprsim.scenarios import build_model, chsh_scan, malus_check, model_matrix, order_test
from eprsim.stats import ChainCounts, CoincidenceCounts
from eprsim.twophoton import Arm, ChannelOutcome


def qm_config(**overrides):
    base = dict(
        model=QMFormal(),
        trials=10_000,
        settings=FixedSettings(0.0, math.pi / 8),
        seed=5,
    )
    base.update(overrides)
    return RunConfig(**base)


def _counts(*values):
    """A stub block count that `_run_blocks` sums with `+`."""
    return np.array(values, dtype=np.int64)


def outcomes(run):
    """Per-trial (outcome A, outcome B), replayed through `records()`."""
    return [(r.outcome_a, r.outcome_b) for r in run.records()]


class TestDeterminism:
    def test_identical_runs_replay_bit_for_bit(self):
        r1 = run_experiment(qm_config(), TwoChannelProtocol())
        r2 = run_experiment(qm_config(), TwoChannelProtocol())
        assert list(r1.records()) == list(r2.records())

    def test_worker_count_never_changes_results(self):
        trials = BLOCK_SIZE * 3 + 777  # force several ragged blocks
        cfg = qm_config(trials=trials)
        r1 = run_experiment(cfg, TwoChannelProtocol(), workers=1)
        r4 = run_experiment(cfg, TwoChannelProtocol(), workers=4)
        # workers only split the range into blocks and sum their counts
        assert r1.counts == r4.counts
        assert (
            run_experiment(cfg, QwpChainProtocol(), workers=1).counts
            == run_experiment(cfg, QwpChainProtocol(), workers=4).counts
        )
        assert run_malus(5, 0.7, trials, workers=1).n_pass == run_malus(
            5, 0.7, trials, workers=4
        ).n_pass

    def test_block_loop_takes_each_block_once(self):
        # more processes than cores: a block dealt to two shares or to none
        # changes the exact sums
        trials, start = 3000 * BLOCK_SIZE + 11, 7
        blocks = 3001
        got = engine._run_blocks(lambda lo, hi: _counts(hi - lo, 1, lo), _counts(0, 0, 0),
                                 start, trials, 16)
        assert got.tolist() == [
            trials, blocks, blocks * start + BLOCK_SIZE * blocks * (blocks - 1) // 2
        ]

    def test_forked_workers_sum_to_the_same_counts(self):
        cfg = qm_config(trials=3 * engine._TRIALS_PER_PROCESS + 5)
        one = run_experiment(cfg, workers=1).counts
        assert run_experiment(cfg, workers=2).counts == one
        assert run_experiment(cfg, workers=3).counts == one

    def test_start_index_shifts_the_stream(self):
        cfg = qm_config()
        r0 = run_experiment(cfg, TwoChannelProtocol(), start_index=0)
        r1 = run_experiment(cfg, TwoChannelProtocol(), start_index=cfg.trials)
        assert outcomes(r0) != outcomes(r1)

    def test_records_are_pure_functions_of_seed_and_index(self):
        cfg = qm_config(trials=50)
        records = list(run_experiment(cfg, TwoChannelProtocol()).records())
        again = list(run_experiment(cfg, TwoChannelProtocol()).records())
        assert records == again
        assert [r.trial_index for r in records] == list(range(50))


class TestWorkerProcesses:
    """`_run_blocks` forks one child per share of at least
    `_TRIALS_PER_PROCESS` trials, takes back each child's sum or error, and
    reaps every child it forked."""

    SHARE = engine._TRIALS_PER_PROCESS

    @pytest.fixture
    def forks(self, monkeypatch):
        pids = []
        fork = engine.os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(engine.os, "fork", counted)
        yield pids
        for pid in pids:  # every child was reaped
            with pytest.raises(ChildProcessError):
                engine.os.waitpid(pid, engine.os.WNOHANG)

    @staticmethod
    def _sums(trials, workers):
        return tuple(engine._run_blocks(
            lambda lo, hi: _counts(hi - lo, 1), _counts(0, 0), 0, trials, workers
        ).tolist())

    def test_a_share_is_at_least_the_block_threshold(self, forks):
        # a run's trials count in whole fork units, so a second process
        # comes past two shares less one unit
        short = 2 * self.SHARE - engine._FORK_UNIT
        for trials, forked in ((short, 0), (short + 1, 1), (6 * self.SHARE, 2)):
            workers = 4 if trials <= short + 1 else 2
            assert self._sums(trials, workers) == (trials, -(-trials // BLOCK_SIZE))
            assert len(forks) == forked, trials

    @pytest.mark.parametrize("trials,forked", [
        (4_000_000, 0), (61 * 2**16, 0), (63 * 2**16, 0), (63 * 2**16 + 1, 1),
    ])
    def test_a_run_forks_at_the_trials_it_did_in_2_16_trial_blocks(self, forks, trials, forked):
        # the threshold is 2**21 trials, rounded up to whole 2**16-trial
        # units: one share while ceil(trials / 2**16) // 32 is 1
        cfg = qm_config(trials=trials)
        counts = run_experiment(cfg, workers=2).counts
        assert len(forks) == forked
        assert run_experiment(cfg, workers=1).counts == counts

    def test_a_failed_fork_closes_its_pipe(self, monkeypatch):
        pipes = []
        pipe = engine.os.pipe
        monkeypatch.setattr(engine.os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
        monkeypatch.setattr(engine.os, "fork", mock.Mock(side_effect=OSError("no fork")))
        with pytest.raises(OSError, match="no fork"):
            self._sums(2 * self.SHARE, 2)
        assert len(pipes) == 1
        for fd in pipes[0]:
            with pytest.raises(OSError):
                engine.os.fstat(fd)

    @pytest.mark.parametrize("model,forked", [("qm", 0), ("lhv-sign", 0), ("lhv-malus", 1)])
    def test_a_float_path_run_forks_at_fewer_blocks(self, forks, model, forked):
        trials = 2 * engine._FLOAT_TRIALS_PER_PROCESS
        cfg = qm_config(model=build_model(model), trials=trials)
        counts = run_experiment(cfg, workers=2).counts
        assert len(forks) == forked
        assert run_experiment(cfg, workers=1).counts == counts

    def test_without_fork_every_block_runs_here(self, monkeypatch):
        monkeypatch.delattr(engine.os, "fork")
        assert self._sums(4 * self.SHARE, 4) == (4 * self.SHARE, 4 * self.SHARE // BLOCK_SIZE)

    def test_a_process_with_a_second_thread_forks_none(self, forks):
        # a child could inherit a lock that the other thread holds
        cfg = qm_config(trials=2 * self.SHARE)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            counts = run_experiment(cfg, workers=2).counts
        finally:
            release.set()
            thread.join()
        assert forks == []
        assert run_experiment(cfg, workers=1).counts == counts
        assert run_experiment(cfg, workers=2).counts == counts
        assert len(forks) == 1  # once the thread has ended

    @staticmethod
    def _failing_in_the_child(error):
        def count(lo, hi):
            if lo == BLOCK_SIZE:  # the first block of the second share
                error()
            return hi - lo

        return count

    def test_a_childs_error_reaches_the_caller(self, forks):
        def error():
            raise ValueError("bad block")

        with pytest.raises(ValueError, match="^bad block$"):
            engine._run_blocks(self._failing_in_the_child(error), 0, 0, 2 * self.SHARE, 2)
        assert len(forks) == 1

    def test_an_error_that_does_not_pickle_is_named(self, forks):
        class Local(Exception):
            pass

        def error():
            raise Local("bad block")

        with pytest.raises(RuntimeError, match="Local.*bad block"):
            engine._run_blocks(self._failing_in_the_child(error), 0, 0, 2 * self.SHARE, 2)

    def test_a_child_that_dies_is_an_error(self, forks):
        count = self._failing_in_the_child(lambda: engine.os._exit(3))
        with pytest.raises(engine.WorkerError, match="ended without a result"):
            engine._run_blocks(count, 0, 0, 2 * self.SHARE, 2)

    def test_the_callers_error_stops_the_children(self, forks):
        def count(lo, hi):
            if lo == 0:
                raise KeyboardInterrupt
            return hi - lo

        with pytest.raises(KeyboardInterrupt):
            engine._run_blocks(count, 0, 0, 2 * self.SHARE, 2)
        assert len(forks) == 1


class TestSchedule:
    """A scenario's runs share one `Schedule`: its children are forked once
    and carry on through every run, each sending its share's sum."""

    SHARE = TestWorkerProcesses.SHARE
    forks = TestWorkerProcesses.forks

    @staticmethod
    def _stable(doc):
        """The document without the fields that may differ between runs."""
        volatile = ("wall_time_s", "workers")
        return {**doc, "engine": {k: v for k, v in doc["engine"].items() if k not in volatile}}

    @pytest.mark.parametrize("scenario,params", [
        (chsh_scan, {}),
        (malus_check, {"angles_deg": [0.0, 30.0, 60.0]}),
        (order_test, {}),
    ], ids=["chsh-scan", "malus-check", "order-test"])
    def test_a_scenario_forks_once(self, forks, scenario, params):
        # runs of two shares take two processes at 2 and at 4 workers
        docs = {}
        for workers, forked in ((1, 0), (2, 1), (4, 2)):
            docs[workers] = self._stable(
                scenario(trials=2 * self.SHARE, workers=workers, seed=3, **params)
            )
            assert len(forks) == forked, workers
        assert docs[1] == docs[2] == docs[4]

    def test_the_model_matrix_forks_none(self, forks):
        model_matrix(trials=10**6, workers=2)
        assert forks == []

    def test_a_childs_error_mid_schedule_reaches_the_caller(self, forks, monkeypatch):
        caller = os.getpid()
        block = kernels.two_channel_block

        def failing(seed, start, *args):
            if os.getpid() != caller and start >= 2 * self.SHARE:  # a child, in the second run
                raise ValueError("bad block")
            return block(seed, start, *args)

        monkeypatch.setattr(kernels, "two_channel_block", failing)
        with pytest.raises(ValueError, match="^bad block$"):
            chsh_scan(trials=2 * self.SHARE, workers=2)
        assert len(forks) == 1

    def test_children_are_forked_as_runs_need_them(self, forks):
        # two shares take 2 processes, one takes 1 (the child sits it out),
        # four take 4 (two more children), one fork unit takes 1 and three
        # shares take 3
        sizes = [2 * self.SHARE, self.SHARE, 4 * self.SHARE, engine._FORK_UNIT, 3 * self.SHARE]
        sums, forked = [], []
        with engine.Schedule() as schedule:
            for n in sizes:
                sums.append(engine._run_blocks(lambda lo, hi: _counts(hi - lo, 1), _counts(0, 0),
                                               0, n, 4, schedule=schedule).tolist())
                forked.append(len(forks))
        assert sums == [[n, -(-n // BLOCK_SIZE)] for n in sizes]
        assert forked == [1, 1, 3, 3, 3]

    def test_a_child_without_a_share_builds_every_kind_of_run(self, forks):
        # after a run of two shares, the small runs leave the child no blocks
        small = qm_config(trials=1000)
        alone = (
            run_experiment(small, workers=1).counts,
            run_experiment(small, QwpChainProtocol(), workers=1).counts,
            run_malus(5, 0.7, 1000, workers=1).n_pass,
        )
        with engine.Schedule() as schedule:
            run_experiment(qm_config(trials=2 * self.SHARE), workers=2, schedule=schedule)
            shared = (
                run_experiment(small, workers=2, schedule=schedule).counts,
                run_experiment(small, QwpChainProtocol(), workers=2,
                               schedule=schedule).counts,
                run_malus(5, 0.7, 1000, workers=2, schedule=schedule).n_pass,
            )
        assert shared == alone
        assert len(forks) == 1

    def test_a_schedule_forks_only_inside_its_with_block(self, forks):
        with pytest.raises(RuntimeError, match="inside its with block"):
            run_experiment(qm_config(trials=2 * self.SHARE), workers=2, schedule=engine.Schedule())
        assert forks == []

    def test_a_body_that_runs_otherwise_in_a_child_is_an_error(self, forks):
        caller = os.getpid()
        count = lambda lo, hi: hi - lo
        with pytest.raises(engine.WorkerError, match="same runs in every process"):
            with engine.Schedule() as schedule:
                engine._run_blocks(count, 0, 0, 2 * self.SHARE, 2, schedule=schedule)
                start = 0 if os.getpid() == caller else 1
                engine._run_blocks(count, 0, start, 2 * self.SHARE, 2, schedule=schedule)


class TestMergeContract:
    def test_counts_merge_over_any_partition(self):
        # the run over [0, N) equals the sum of runs over a partition of it
        run = run_experiment(qm_config(trials=30_000), TwoChannelProtocol())
        whole = run.counts_for_pair(0)
        for cuts in ([10_000, 20_000], [1, 29_999], [7_000]):
            edges = [0, *cuts, 30_000]
            parts = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                part = run_experiment(qm_config(trials=hi - lo), start_index=lo)
                parts.append(part.counts_for_pair(0))
            merged = parts[0]
            for p in parts[1:]:
                merged = merged + p
            assert merged == whole

    def test_counts_sum_to_trials(self):
        run = run_experiment(qm_config(), TwoChannelProtocol())
        assert run.counts_for_pair(0).total == 10_000


class TestCountsMatchRecords:
    """Counts reduced on the workers equal a tally of the replayed records."""

    # aligned analyzers, the pair the other classes use, and a pair on a
    # breakpoint of the sign model at lambda = 0
    SETTINGS = {
        "aligned": FixedSettings(0.0, 0.0),
        "apart": FixedSettings(0.0, math.pi / 8),
        "breakpoint": FixedSettings(math.pi / 4, 3 * math.pi / 8),
    }

    @pytest.mark.parametrize(
        "model_name", ["qm", "ndv-nonlocal", "definite-circular", "lhv-sign", "lhv-malus"]
    )
    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("pair", sorted(SETTINGS))
    def test_two_channel(self, monkeypatch, model_name, ordering, pair):
        monkeypatch.setattr(engine, "BLOCK_SIZE", 700)  # several ragged blocks
        cfg = RunConfig(
            model=build_model(model_name), trials=2000, settings=self.SETTINGS[pair],
            ordering=ordering, seed=19,
        )
        run = run_experiment(cfg, TwoChannelProtocol(), start_index=123, workers=2)
        tally = [0, 0, 0, 0]
        for r in run.records():
            assert (r.a, r.b) == (cfg.settings.a, cfg.settings.b)
            cell = 2 * (r.outcome_a is ChannelOutcome.MINUS) + (r.outcome_b is ChannelOutcome.MINUS)
            tally[cell] += 1
        assert run.counts == CoincidenceCounts(*tally)

    @pytest.mark.parametrize("model_name", ["qm", "ndv-nonlocal", "definite-circular"])
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_chain(self, monkeypatch, model_name, ordering):
        monkeypatch.setattr(engine, "BLOCK_SIZE", 700)
        cfg = RunConfig(model=build_model(model_name), trials=2000, ordering=ordering, seed=19)
        run = run_experiment(cfg, QwpChainProtocol(), workers=2)
        records = list(run.records())
        assert run.counts == ChainCounts(
            sum(r.detected_a for r in records),
            sum(r.detected_b for r in records),
            sum(r.detected_a and r.detected_b for r in records),
            len(records),
        )

    def test_records_book_the_kernels_ordering(self):
        cfg = qm_config(trials=3000, ordering=Ordering.RANDOM_PER_TRIAL)
        run = run_experiment(cfg, TwoChannelProtocol(), start_index=11)
        flags = kernels.arm2_first_flags(cfg.seed, 11, 3000, Ordering.RANDOM_PER_TRIAL)
        assert [r.first_arm is Arm.TWO for r in run.records()] == flags.unpack().tolist()


class TestBlockSizeInvariance:
    """Counts and records do not depend on the block size. A run at the
    default block sizes equals one with `BLOCK_SIZE` patched to 2**16 and
    one with it patched to 700; a float-path run takes a quarter of each.
    Runs take blocks of 2**18 trials, and float-path runs blocks of 2**16."""

    TRIALS = 2**18 + 2**14 + 77  # no block size divides it: every run ends ragged
    RECORD_TRIALS = 3001
    # each patched BLOCK_SIZE and the trials counted at it; 700-trial blocks
    # count a shorter run, which is still many ragged blocks
    PATCHES = ((2**16, TRIALS), (700, 20_011))
    START = 4101  # not a multiple of 64: blocks start inside a coin word
    MODELS = ("qm", "ndv-nonlocal", "definite-circular", "lhv-sign", "lhv-malus")

    @staticmethod
    def _two_channel(model_name, ordering, pair):
        def run(trials, workers):
            cfg = RunConfig(
                model=build_model(model_name), trials=trials,
                settings=TestCountsMatchRecords.SETTINGS[pair],
                ordering=ordering, seed=37,
            )
            run = run_experiment(cfg, start_index=TestBlockSizeInvariance.START, workers=workers)
            return run.counts, run.records

        return run

    @staticmethod
    def _chain(model_name):
        def run(trials, workers):
            cfg = RunConfig(model=build_model(model_name), trials=trials, seed=37)
            run = run_experiment(
                cfg, QwpChainProtocol(), start_index=TestBlockSizeInvariance.START,
                workers=workers,
            )
            return run.counts, run.records

        return run

    @staticmethod
    def _malus(trials, workers):
        run = run_malus(37, 0.7, trials, start_index=TestBlockSizeInvariance.START,
                        workers=workers)
        return run.n_pass, lambda: []

    def _assert_invariant(self, monkeypatch, run, block):
        def results(trials):
            counts, _ = run(trials, 2)
            _, records = run(self.RECORD_TRIALS, 2)
            return counts, list(records())

        counts = []
        for name in ("two_channel_block", "two_channel_block_lhv", "qwp_block", "malus_block"):
            def counted(seed, start, count, *args, real=getattr(kernels, name)):
                counts.append(count)
                return real(seed, start, count, *args)

            monkeypatch.setattr(kernels, name, counted)
        run(self.TRIALS, 1)
        assert max(counts) == block
        assert sum(counts) == self.TRIALS

        default = {trials: results(trials) for _, trials in self.PATCHES}
        for size, trials in self.PATCHES:
            monkeypatch.setattr(engine, "BLOCK_SIZE", size)
            assert results(trials) == default[trials], size

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("pair", ["apart", "breakpoint"])
    def test_two_channel(self, monkeypatch, model_name, ordering, pair):
        block = 2**16 if model_name == "lhv-malus" else 2**18
        self._assert_invariant(monkeypatch, self._two_channel(model_name, ordering, pair), block)

    @pytest.mark.parametrize("model_name", MODELS)
    def test_chain(self, monkeypatch, model_name):
        self._assert_invariant(monkeypatch, self._chain(model_name), 2**18)

    def test_malus(self, monkeypatch):
        self._assert_invariant(monkeypatch, self._malus, 2**18)


class TestFactorizedModelPath:
    """The engine's factorized-model path, pinned at three settings pairs
    for the built-in models and replayed against the object layer for a
    model that is not built in."""

    PAIRS = ((0.0, math.pi / 8), (math.pi / 4, math.pi / 8), (0.0, 3 * math.pi / 8))
    PINNED = {
        "lhv-sign": [
            CoincidenceCounts(1878, 624, 633, 1865),
            CoincidenceCounts(1842, 622, 669, 1867),
            CoincidenceCounts(625, 1877, 1902, 596),
        ],
        "lhv-malus": [
            CoincidenceCounts(1701, 762, 812, 1725),
            CoincidenceCounts(1669, 768, 844, 1719),
            CoincidenceCounts(783, 1680, 1736, 801),
        ],
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_builtin_counts_are_pinned(self, name, pair):
        cfg = RunConfig(
            model=build_model(name), trials=5000, settings=FixedSettings(*self.PAIRS[pair]),
            ordering=Ordering.RANDOM_PER_TRIAL, seed=20201231,
        )
        assert run_experiment(cfg).counts == self.PINNED[name][pair]

    def test_custom_model_replays_the_object_layer(self):
        self._replays_the_object_layer(
            lambda setting, lam: np.cos(setting - np.asarray(lam, dtype=float)) ** 2
        )

    def test_custom_model_with_a_scalar_only_response_replays_the_object_layer(self):
        # cos^2(setting - lambda) through math.cos, which takes only a scalar
        # setting, as every path passes it
        self._replays_the_object_layer(
            lambda setting, lam: (
                math.cos(setting) * np.cos(lam) + math.sin(setting) * np.sin(lam)
            ) ** 2
        )

    @staticmethod
    def _replays_the_object_layer(malus):
        model = Lhv(LhvModel(
            name="custom-malus",
            density=lambda lam: np.full_like(np.asarray(lam, dtype=float), 1.0 / math.pi),
            sample=lambda u: np.asarray(u, dtype=float) * math.pi,
            response_a=malus,
            response_b=malus,
        ))
        cfg = RunConfig(
            model=model, trials=5000, settings=FixedSettings(math.pi / 4, math.pi / 8),
            ordering=Ordering.RANDOM_PER_TRIAL, seed=20201231,
        )
        records = list(run_experiment(cfg).records())
        assert len(records) == cfg.trials
        for r in records:
            d = engine.trial_draws(cfg.seed, r.trial_index)
            assert (r.a, r.b) == (cfg.settings.a, cfg.settings.b), r.trial_index
            want = model.respond_two_channel(model.emit(d), r.a, r.b, cfg.ordering, d)
            assert (r.outcome_a, r.outcome_b) == want, r.trial_index


class TestGeometry:
    def test_spacelike_flag(self):
        assert Geometry(12.0, 10e-9).spacelike  # c * 10 ns ~ 3 m
        assert not Geometry(1.0, 10e-9).spacelike
        assert not Geometry(0.0, 0.0).spacelike

    def test_speed_of_light_is_exact(self):
        assert SPEED_OF_LIGHT_M_PER_S == 299_792_458.0

    def test_geometry_never_influences_outcomes(self):
        near = qm_config(geometry=Geometry(1.0, 10e-9))
        far = qm_config(geometry=Geometry(12.0, 10e-9))
        r_near = run_experiment(near, TwoChannelProtocol())
        r_far = run_experiment(far, TwoChannelProtocol())
        assert outcomes(r_near) == outcomes(r_far)
        assert not r_near.spacelike and r_far.spacelike

    @pytest.mark.parametrize(
        "field,value",
        [("arm_separation_m", -1.0), ("inter_measurement_delay_s", -1.0),
         ("arm_separation_m", "1"), ("arm_separation_m", True),
         ("inter_measurement_delay_s", math.nan)],
    )
    def test_geometry_validation(self, field, value):
        # a string used to raise a bare TypeError that named no field
        with pytest.raises(ValueError, match=f"^{field}:"):
            Geometry(**{field: value})


class TestSettingsPolicies:
    @pytest.mark.parametrize(
        "make,field",
        [(lambda: FixedSettings(True, 0.0), "a"), (lambda: FixedSettings("x", 0.0), "a"),
         (lambda: FixedSettings(0.0, math.inf), "b"),
         (lambda: FixedSettings(math.nan, 0.0), "a"), (lambda: FixedSettings(None, 0.0), "a"),
         (lambda: FixedSettings(0.0, -math.inf), "b"),
         (lambda: FixedSettings(0.0, "0.1"), "b"), (lambda: FixedSettings(0.0, False), "b"),
         (lambda: FixedSettings(0.0, 1j), "b"), (lambda: FixedSettings(0.0, 10**400), "b")],
    )
    def test_settings_are_finite_numbers(self, make, field):
        # a bool setting used to run as 0 or 1, and a string to fail in float()
        with pytest.raises(ConfigError, match=f"^{field}:"):
            make()

    @pytest.mark.parametrize("pair", [-1, 2])
    def test_counts_for_a_pair_the_run_lacks_raise(self, pair):
        run = run_experiment(qm_config(trials=100))
        with pytest.raises(IndexError):
            run.counts_for_pair(pair)


class TestOrderingInvariance:
    @pytest.mark.parametrize("model_name", ["lhv-sign", "lhv-malus", "definite-circular"])
    def test_local_models_ignore_ordering_exactly(self, model_name):
        # local responses read nothing about the other arm, so flipping the
        # booked order replays the very same outcomes
        base = qm_config(model=build_model(model_name), trials=20_000)
        r1 = run_experiment(base, TwoChannelProtocol())
        cfg2 = RunConfig(
            model=base.model, trials=base.trials, settings=base.settings,
            ordering=Ordering.ARM2_FIRST, seed=base.seed,
        )
        r2 = run_experiment(cfg2, TwoChannelProtocol())
        assert outcomes(r1) == outcomes(r2)

    def test_qm_ordering_changes_trials_not_statistics(self):
        cfg1 = qm_config(trials=100_000)
        cfg2 = qm_config(trials=100_000, ordering=Ordering.ARM2_FIRST)
        r1 = run_experiment(cfg1, TwoChannelProtocol())
        r2 = run_experiment(cfg2, TwoChannelProtocol())
        assert outcomes(r1) != outcomes(r2)
        c1 = r1.counts_for_pair(0)
        c2 = r2.counts_for_pair(0)
        e1 = (c1.n_pp + c1.n_mm - c1.n_pm - c1.n_mp) / c1.total
        e2 = (c2.n_pp + c2.n_mm - c2.n_pm - c2.n_mp) / c2.total
        assert abs(e1 - e2) < 0.02

    def test_a_huge_angle_keeps_its_perpendicular_answer(self):
        # library radians past about 1.7e18 have an ulp above pi/2, so the
        # perpendicular answer must not be found by adding pi/2 to them
        settings = FixedSettings(0.0, math.radians(1e20))
        n_pm = []
        for ordering in (Ordering.ARM1_FIRST, Ordering.ARM2_FIRST):
            cfg = qm_config(trials=100_000, settings=settings, ordering=ordering, seed=1)
            n_pm.append(run_experiment(cfg).counts_for_pair(0).n_pm)
        n = 100_000
        sigma = math.sqrt(sum(c * (1 - c / n) for c in n_pm))
        assert abs(n_pm[0] - n_pm[1]) <= 5 * sigma, n_pm


class TestChainProtocol:
    def test_qwp_run_counts(self):
        cfg = qm_config(trials=50_000)
        run = run_experiment(cfg, QwpChainProtocol())
        counts = run.counts
        assert counts.n_total == cfg.trials
        assert counts.n_det_both == counts.n_det_a  # reduction makes B certain given A

    def test_chain_records(self):
        cfg = qm_config(trials=20)
        run = run_experiment(cfg, QwpChainProtocol())
        records = list(run.records())
        assert len(records) == 20
        assert all(r.first_arm is Arm.ONE for r in records)

    def test_custom_lhv_and_chain(self):
        custom = Lhv(malus_response_model())
        cfg = qm_config(model=custom, trials=5_000)
        run = run_experiment(cfg, QwpChainProtocol())
        assert run.counts.n_total == 5_000


@pytest.fixture
def kernel_calls(monkeypatch):
    """The name of each kernel called, in order; the kernels still run."""
    calls = []
    for name in ("two_channel_block", "two_channel_block_lhv", "qwp_block", "malus_block"):
        def recorded(*args, real=getattr(kernels, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(kernels, name, recorded)
    return calls


def _int_or_other(lo: int, hi: int, *outside: int):
    """Ints in [lo, hi], the given ints just outside a rule's bounds, and
    values of other types."""
    return st.one_of(
        st.integers(lo, hi), st.sampled_from(outside), st.booleans(),
        st.floats(), st.text(max_size=3), st.none(),
    )


def _int_in(value, lo: int, hi: int) -> bool:
    return type(value) is int and lo <= value <= hi


def _first_broken(fields) -> str | None:
    """The first field, of (field, value is good) pairs in checking order, whose value is bad."""
    return next((field for field, good in fields if not good), None)


def _runs_or_names(field: str | None, call) -> None:
    """`call()` runs when `field` is None, and otherwise raises a ConfigError
    naming it. The block loop is wrapped so that any error from it or its
    worker threads fails the test: a ConfigError must come before any block."""
    run_blocks = engine._run_blocks

    def guarded(*args):
        try:
            return run_blocks(*args)
        except Exception as exc:
            raise AssertionError(f"the block loop raised {exc!r}") from exc

    with mock.patch.object(engine, "_run_blocks", guarded):
        if field is None:
            call()
        else:
            with pytest.raises(ConfigError, match=f"^{field}:"):
                call()


# Property runs stay within one block, so at most one worker thread starts
# whatever `workers` is.
PROPERTY_TRIALS = 64


class TestValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(model=QMFormal(), trials=0)

    @pytest.mark.parametrize(
        "trials,error",
        [(1000.5, ConfigError), (True, ConfigError), (0, ValueError), (2**64 + 1, ConfigError)],
    )
    def test_trials_checked_at_construction(self, trials, error, kernel_calls):
        # a float or a bool never reaches the block loop, and the error names the field
        with pytest.raises(error, match="^trials:"):
            RunConfig(model=QMFormal(), trials=trials)
        with pytest.raises(ConfigError, match="^trials:"):
            run_malus(1, 0.3, trials)
        assert kernel_calls == []

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3"])
    def test_seed_outside_64_bits_rejected(self, seed, kernel_calls):
        # a float seed used to run as its integer part, and a bool as 0 or 1
        with pytest.raises(ConfigError, match="^seed:"):
            RunConfig(model=QMFormal(), trials=1, seed=seed)
        with pytest.raises(ConfigError, match="^seed:"):
            run_malus(seed, 0.5, 1)
        assert kernel_calls == []

    @pytest.mark.parametrize(
        "field,value",
        [("start_index", -1), ("start_index", 2**64 - 5),
         ("theta", "x"), ("theta", math.nan), ("theta", math.inf)],
    )
    def test_run_arguments_checked_before_any_block(self, field, value, kernel_calls):
        # 2**64 - 5 leaves room for 5 of the 10 trials; both used to fail
        # only inside the block loop, and a string theta with a bare TypeError
        if field == "start_index":
            with pytest.raises(ConfigError, match="^start_index:"):
                run_experiment(qm_config(trials=10), start_index=value)
        with pytest.raises(ConfigError, match=f"^{field}:"):
            run_malus(1, **{"theta": 0.3, "trials": 10, field: value})
        assert kernel_calls == []

    def test_largest_seed_accepted(self):
        run = run_experiment(qm_config(seed=2**64 - 1, trials=100))
        assert run.counts.total == 100
        assert run_malus(2**64 - 1, 0.5, 100).n_total == 100

    @pytest.mark.parametrize(
        "field,value",
        [("model", object()), ("settings", (0.0, 0.0)), ("ordering", "random"),
         ("geometry", "far")],
    )
    def test_config_types_checked_at_construction(self, field, value):
        with pytest.raises(TypeError):
            qm_config(**{field: value})

    def test_lhv_model_type_checked_at_construction(self):
        # a string used to fail only inside run_experiment, on `.density`
        with pytest.raises(TypeError, match="not a hidden-variable model"):
            Lhv("x")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(TypeError):
            run_experiment(qm_config(), protocol="two-channel")

    def test_malus_run(self):
        run = run_malus(3, math.radians(30.0), 50_000)
        p = run.n_pass / run.n_total
        want = math.cos(math.radians(30.0)) ** 2
        assert abs(p - want) <= 4 * math.sqrt(want * (1 - want) / 50_000)

    def test_resolve_workers(self, kernel_calls):
        assert resolve_workers(2) == 2
        for workers in (1.5, True, 0, MAX_WORKERS + 1):
            with pytest.raises(ConfigError, match="^workers:"):
                resolve_workers(workers)
            with pytest.raises(ConfigError, match="^workers:"):
                run_experiment(qm_config(trials=10), workers=workers)
            with pytest.raises(ConfigError, match="^workers:"):
                run_malus(1, 0.3, 10, workers=workers)
        assert kernel_calls == []

    def test_resolve_workers_caps_the_thread_count(self):
        # resolution only: nothing here starts a thread
        assert resolve_workers(MAX_WORKERS) == MAX_WORKERS
        with pytest.raises(ConfigError, match=rf"^workers: must be in \[1, {MAX_WORKERS}\]"):
            resolve_workers(MAX_WORKERS + 1)

    def test_default_workers_count_the_usable_cpus(self, monkeypatch):
        # resolution only: nothing here starts a thread
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert resolve_workers() == 3  # a pinned process, on a larger host
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(32)))
        assert resolve_workers() == 4

    def test_default_workers_fall_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
        assert resolve_workers() == 3
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        assert resolve_workers() == 1
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 16)
        assert resolve_workers() == 4

    def test_custom_model_is_validated_before_any_block(self, monkeypatch):
        # a response must map into [0, 1], and the check runs before the first block
        def above_one(setting, lam):
            return 1.5 * np.ones_like(np.asarray(lam, dtype=float))

        model = LhvModel(
            name="above-one",
            density=lambda lam: np.full_like(np.asarray(lam, dtype=float), 1.0 / math.pi),
            sample=lambda u: np.asarray(u, dtype=float) * math.pi,
            response_a=above_one,
            response_b=above_one,
        )
        config = RunConfig(model=Lhv(model), trials=100, seed=3, settings=FixedSettings(0.0, 0.1))

        def no_blocks(*args):
            raise AssertionError("a block ran before the model was validated")

        monkeypatch.setattr(engine, "_run_blocks", no_blocks)
        with pytest.raises(ValueError, match="above-one: response_a"):
            run_experiment(config)

    @staticmethod
    def _counted_validations(monkeypatch):
        """The models `validate_lhv_model` checks, in order; it still runs."""
        from eprsim import models

        checked = []
        validate = models.validate_lhv_model

        def counted(model, *args):
            checked.append(model)
            return validate(model, *args)

        monkeypatch.setattr(models, "validate_lhv_model", counted)
        return checked

    @staticmethod
    def _malus_model(density):
        return LhvModel(
            name="once", density=density, sample=lambda u: np.asarray(u) * math.pi,
            response_a=lambda s, lam: np.cos(s - np.asarray(lam)) ** 2,
            response_b=lambda s, lam: np.cos(s - np.asarray(lam)) ** 2,
        )

    def test_a_factorized_model_is_validated_once_per_process(self, monkeypatch):
        checked = self._counted_validations(monkeypatch)
        model = self._malus_model(lambda lam: np.full_like(np.asarray(lam), 1.0 / math.pi))
        twin = dataclasses.replace(model)  # equal, not the same object
        for m in (model, twin, model):
            run_experiment(qm_config(model=Lhv(m), trials=100), workers=1)
        run_experiment(qm_config(model=Lhv(model), trials=100), QwpChainProtocol(), workers=1)
        assert checked == [model]

    def test_an_invalid_model_raises_on_every_run(self, monkeypatch):
        checked = self._counted_validations(monkeypatch)
        model = self._malus_model(lambda lam: np.full_like(np.asarray(lam), 2.0 / math.pi))
        for _ in range(3):
            with pytest.raises(ValueError, match="once: density integrates to"):
                run_experiment(qm_config(model=Lhv(model), trials=100), workers=1)
        assert checked == [model] * 3

    def test_a_model_that_does_not_hash_is_validated_every_run(self, monkeypatch):
        class Uniform:
            """A density that compares by value, and so does not hash."""

            def __call__(self, lam):
                return np.full_like(np.asarray(lam), 1.0 / math.pi)

            def __eq__(self, other):
                return isinstance(other, Uniform)

        checked = self._counted_validations(monkeypatch)
        model = self._malus_model(Uniform())
        with pytest.raises(TypeError):
            hash(model)
        runs = [run_experiment(qm_config(model=Lhv(model), trials=100), workers=1)
                for _ in range(3)]
        assert checked == [model] * 3
        assert runs[0].counts == runs[2].counts

    @settings(max_examples=200, deadline=None)
    @given(
        trials=_int_or_other(1, PROPERTY_TRIALS, 0, 2**64 + 1),
        seed=_int_or_other(0, 2**64 - 1, -1, 2**64),
        data=st.data(),
    )
    def test_experiment_values_run_or_name_their_field(self, trials, seed, data):
        broken = _first_broken(
            [("trials", _int_in(trials, 1, 2**64)), ("seed", _int_in(seed, 0, 2**64 - 1))]
        )
        _runs_or_names(broken, lambda: RunConfig(model=QMFormal(), trials=trials, seed=seed))
        if broken:
            return
        config = RunConfig(model=QMFormal(), trials=trials, seed=seed)
        stop = 2**64 - trials
        start_index = data.draw(_int_or_other(0, stop, -1, stop + 1), "start_index")
        workers = data.draw(_int_or_other(1, MAX_WORKERS, 0, MAX_WORKERS + 1), "workers")
        broken = _first_broken([
            ("start_index", _int_in(start_index, 0, stop)),
            ("workers", workers is None or _int_in(workers, 1, MAX_WORKERS)),
        ])
        _runs_or_names(
            broken, lambda: run_experiment(config, start_index=start_index, workers=workers)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=_int_or_other(0, 2**64 - 1, -1, 2**64),
        theta=st.one_of(
            st.floats(), st.integers(-10, 10), st.booleans(), st.text(max_size=3), st.none()
        ),
        trials=_int_or_other(1, PROPERTY_TRIALS, 0, 2**64 + 1),
    )
    def test_malus_values_run_or_name_their_field(self, seed, theta, trials):
        good_theta = isinstance(theta, (int, float)) and not isinstance(theta, bool)
        broken = _first_broken([
            ("seed", _int_in(seed, 0, 2**64 - 1)),
            ("theta", good_theta and math.isfinite(theta)),
            ("trials", _int_in(trials, 1, 2**64)),
        ])
        _runs_or_names(broken, lambda: run_malus(seed, theta, trials))


class TestBoundedMemory:
    """Runs keep exact counts, not per-trial arrays, so the allocation peak
    is set by one block and does not grow with the trial count."""

    RUNS = {
        "two-channel": lambda n: run_experiment(qm_config(trials=n), workers=1),
        "chain": lambda n: run_experiment(qm_config(trials=n), QwpChainProtocol(), workers=1),
        "malus": lambda n: run_malus(5, 0.7, n, workers=1),
    }

    @staticmethod
    def _peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # One-pair, fixed-order runs of the kinds the CLI makes, one entry per
    # kernel path that decides on the planes.
    ONE_PAIR_RUNS = {
        **{
            name: lambda n, name=name: run_experiment(
                qm_config(model=build_model(name), trials=n), workers=1
            )
            for name in ("qm", "ndv-nonlocal", "definite-circular", "lhv-sign")
        },
        "chain": RUNS["chain"],
        "malus": RUNS["malus"],
    }

    @pytest.mark.parametrize("name", sorted(ONE_PAIR_RUNS))
    def test_a_block_peaks_below_4_bytes_per_trial(self, name):
        # a block holds the coins and digits it reads, one boolean per trial
        # while it packs a compare, and the packed flags it decides, and no
        # per-trial settings-pair index, mask or tail: 3.7 bytes per trial
        # at most
        run = self.ONE_PAIR_RUNS[name]
        run(BLOCK_SIZE)  # tables and caches a run builds once
        peak = self._peak_bytes(lambda: run(4 * BLOCK_SIZE))
        assert peak < 4 * BLOCK_SIZE, peak

    def test_a_float_path_block_peaks_below_30_bytes_per_trial(self):
        # lhv-malus reads floats: at its peak an arm holds the hidden values,
        # its response and the scaled response, about 26 bytes per trial of
        # the float path's own block, a quarter of BLOCK_SIZE
        block = BLOCK_SIZE >> 2
        run = lambda n: run_experiment(
            qm_config(model=build_model("lhv-malus"), trials=n), workers=1
        )
        run(block)
        peak = self._peak_bytes(lambda: run(4 * block))
        assert peak < 30 * block, peak

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_peak_allocation_is_flat_in_trials(self, name):
        # each of these runs takes blocks of BLOCK_SIZE
        run = self.RUNS[name]
        small = self._peak_bytes(lambda: run(2 * BLOCK_SIZE))
        large = self._peak_bytes(lambda: run(64 * BLOCK_SIZE))
        assert large <= 1.25 * small, (small, large)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_loop_lists_no_blocks(self, workers):
        # a stub count leaves only the block loop's own allocations, at a
        # trial count with tens of thousands of blocks
        trials, start = 2**16 * BLOCK_SIZE + 777, 5
        blocks = -(-trials // BLOCK_SIZE)
        got = []
        peak = self._peak_bytes(
            lambda: got.append(
                engine._run_blocks(lambda lo, hi: _counts(hi - lo, 1, lo), _counts(0, 0, 0),
                                   start, trials, workers).tolist()
            )
        )
        first_sum = blocks * start + BLOCK_SIZE * blocks * (blocks - 1) // 2
        assert got == [[trials, blocks, first_sum]]
        assert peak < 2**20, peak


class TestValueClasses:
    """The run-side value classes keep a frozen dataclass's behaviour: made
    by position or keyword, immutable, equal only within their own class,
    hashed and shown by their fields, and pickled whole."""

    @staticmethod
    def _values():
        from eprsim.models import DefiniteCircular, NdvNonlocal, deterministic_sign_model
        from eprsim.stats import OrderInvarianceResult, PairEstimate, chsh_report

        counts = CoincidenceCounts(5, 1, 2, 4)
        angles = ((0, 1), (0, 3), (2, 1), (2, 3))
        pairs = [PairEstimate.from_counts(a, b, counts) for a, b in angles]
        return [
            Geometry(3.0, 1e-9), FixedSettings(0.1, 0.2), qm_config(), TwoChannelProtocol(), QwpChainProtocol(), counts, ChainCounts(3, 3, 2, 5),
            pairs[0], chsh_report(*pairs), OrderInvarianceResult(1.5, 0.2, 3, True), QMFormal(),
            NdvNonlocal(), DefiniteCircular(), Lhv(deterministic_sign_model()),
        ]

    def test_copies_are_equal_and_hash_alike_and_fields_are_frozen(self):
        import copy
        import dataclasses
        import pickle

        for value in self._values():
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.extra = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                del value._fields

    def test_equality_is_by_class_and_fields(self):
        from eprsim.models import NdvNonlocal

        assert QMFormal() != NdvNonlocal()
        assert CoincidenceCounts(1, 2, 3, 4) != ChainCounts(1, 2, 3, 4)
        assert CoincidenceCounts(1, 2, 3, 4) != (1, 2, 3, 4)
        assert CoincidenceCounts(1, 2, 3, 4) != CoincidenceCounts(1, 2, 3, 5)
        shown = "CoincidenceCounts(n_pp=1, n_pm=2, n_mp=3, n_mm=4)"
        assert repr(CoincidenceCounts(1, 2, 3, 4)) == shown
        assert repr(QMFormal()) == "QMFormal()"

    def test_arguments_bind_as_a_signature_would(self):
        config = RunConfig(QMFormal(), trials=5)
        assert (config.seed, config.geometry) == (1, Geometry())
        assert config.settings == FixedSettings(0, 0)
        assert FixedSettings(b=2.0, a=1.0) == FixedSettings(1.0, 2.0)
        for args, kwargs in [((1.0,), {}), ((1.0, 2.0, 3.0), {}), ((1.0,), {"a": 2.0}),
                             ((1.0, 2.0), {"c": 3.0})]:
            with pytest.raises(TypeError):
                FixedSettings(*args, **kwargs)
