"""What the benchmark in ``perfbench/`` uses of the package, pinned here.

``perfbench/tracing.py`` wraps the package's entry points by name and probes
each kernel with fixed call shapes, and ``perfbench/driver.py`` reads the
engine's block size, worker count and kernel backend. The benchmark's own
tests are not part of this suite, so a refactor that renames one of these
names or changes one of these shapes fails here instead of in the benchmark.
"""

import dataclasses
import functools
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from eprsim import cli, engine, kernels, scenarios, stats
from eprsim.models import Lhv

ROOT = Path(__file__).resolve().parents[1]
SETTINGS = (np.array([0.0]), np.array([math.pi / 8]), np.array([1.0]))  # the probes' arrays


@functools.cache
def _tracing():
    """``perfbench/tracing.py``, loaded once from its file."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_patches_or_calls_exists():
    assert callable(cli.main)
    assert scenarios.SCENARIOS and all(map(callable, scenarios.SCENARIOS.values()))
    # the tracer wraps the engine calls and the order test where scenarios looks them up
    assert scenarios.run_experiment is engine.run_experiment
    assert scenarios.run_malus is engine.run_malus
    assert scenarios.order_invariance_test is stats.order_invariance_test
    for name in ("two_channel_block", "qwp_block", "malus_block", "two_channel_block_lhv",
                 "uniform_block", "qwp_code_for", "backend"):
        assert callable(getattr(kernels, name)), name
    assert isinstance(inspect.getattr_static(stats.CoincidenceCounts, "from_outcomes"), classmethod)
    assert isinstance(inspect.getattr_static(stats.ChainCounts, "from_flags"), classmethod)
    assert inspect.isfunction(inspect.getattr_static(engine.TwoChannelRun, "counts_for_pair"))
    assert isinstance(engine.BLOCK_SIZE, int) and engine.BLOCK_SIZE > 0
    assert isinstance(engine.resolve_workers(), int) and engine.resolve_workers() >= 1
    assert kernels.backend() == "numpy"
    assert kernels.MODEL_QM is kernels.MODEL_CODES["qm"]
    assert kernels.SLOT_ARM_A in range(kernels.DRAWS_PER_TRIAL)


def test_the_tracer_wraps_names_that_exist():
    tracing = _tracing()
    for name in tracing.KERNELS:
        assert callable(getattr(kernels, name)), name
    for name in tracing.ENGINE_CALLS:
        assert callable(getattr(scenarios, name)), name


@pytest.mark.parametrize("name", list(kernels.MODEL_CODES))
def test_two_channel_block_answers_the_probe_call_shape(name):
    count = 4096
    result = kernels.two_channel_block(3, 0, count, kernels.MODEL_CODES[name], *SETTINGS,
                                       kernels.ORDER_ARM1_FIRST)
    assert isinstance(result, tuple) and len(result) == 3
    assert stats.CoincidenceCounts.from_outcomes(*result[1:]).total == count


def test_the_probes_other_call_shapes_answer():
    count = 4096
    for order in (kernels.ORDER_ARM1_FIRST, kernels.ORDER_ARM2_FIRST):
        _, out_a, out_b = kernels.two_channel_block(3, 0, count, kernels.MODEL_QM, *SETTINGS, order)
        assert stats.CoincidenceCounts.from_outcomes(out_a, out_b).total == count
    for name in ("qm", "definite-circular", "ndv"):
        det_a, det_b = kernels.qwp_block(3, 0, count, kernels.qwp_code_for(name),
                                         kernels.ORDER_ARM1_FIRST)
        assert stats.ChainCounts.from_flags(det_a, det_b).n_total == count
    assert 0 <= kernels.malus_block(3, 0, count, 0.5).popcount() <= count
    assert kernels.uniform_block(3, 0, count, kernels.SLOT_ARM_A).shape == (count,)


def test_the_engine_calls_the_factorized_kernel_by_name(monkeypatch):
    # a traced run counts one kernel span per block of an Lhv model
    calls = []
    real = kernels.two_channel_block_lhv

    def recorded(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(kernels, "two_channel_block_lhv", recorded)
    config = engine.RunConfig(model=Lhv(kernels.MODEL_CODES["lhv-sign"].model), trials=1000)
    engine.run_experiment(config, workers=1)
    assert calls == [1000]


def test_every_run_result_is_a_dataclass():
    config = engine.RunConfig(model=kernels.MODEL_QM, trials=100)
    results = [
        engine.run_experiment(config, workers=1),
        engine.run_experiment(config, engine.QwpChainProtocol(), workers=1),
        engine.run_malus(1, 0.3, 100, workers=1),
    ]
    for result in results:
        assert [f.name for f in dataclasses.fields(result)], type(result).__name__
    assert results[0].counts_for_pair(0).total == 100


def test_a_traced_cli_run_reports_every_layer(capsys):
    tracing = _tracing()
    tracer = tracing.Tracer()
    originals = (cli.main, scenarios.run_experiment, kernels.two_channel_block)
    with tracing.instrument(tracer, cli, scenarios, engine, kernels, stats):
        assert cli.main(["chsh-scan", "--trials", "10000", "--workers", "1",
                         "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)
    assert (cli.main, scenarios.run_experiment, kernels.two_channel_block) == originals
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["engine.run_experiment.calls"][0] == 4
    assert metrics["kernels.two_channel_block.calls"][0] == 4
    # one count per block: the scenario reads each run's count, not the pair accessor
    assert metrics["stats.count_calls"][0] == metrics["kernels.two_channel_block.calls"][0]
    # blocks of at least 10**4 trials, as the order test on the probes' tables takes
    probes = tracing.probes(kernels, stats, block=2**14, seed=3, repeats=1)
    assert all(value > 0 and math.isfinite(value) for value, _ in probes.values())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in benchmark["per_layer"]
                if m["name"].startswith(("kernels.", "stats."))}
    assert declared <= set(probes) | set(metrics)
