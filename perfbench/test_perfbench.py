"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

The smoke tests run every workload end to end at the smallest trial count
the CLI accepts, so they take about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Invocation, check_document, stable_text

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMOKE_SEED = 11
HELD_OUT_SEED = 2**64 - 12_345  # not used while the benchmark was written


def _span(sid, start, end, parent=None, thread=1):
    return tracing.Span(sid, "x", start, end, parent, thread)


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tracing.union_length([(1.0, 4.0), (2.0, 3.0)]) == pytest.approx(3.0)


def test_self_time_subtracts_union_of_overlapping_worker_children():
    parent = _span(1, 0.0, 10.0)
    # Two worker threads busy at once over [2, 6] and [4, 8]: the union is 6 s,
    # the sum 8 s. A child running past the parent's end is clipped.
    children = [
        _span(2, 2.0, 6.0, parent=1, thread=2),
        _span(3, 4.0, 8.0, parent=1, thread=3),
        _span(4, 9.5, 11.0, parent=1, thread=2),
    ]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 6.0 - 0.5)


def test_layer_metrics_attribute_worker_spans_to_the_open_engine_call():
    tracer = tracing.Tracer()
    kernel = tracer.wrap(lambda seed, start, count: count, "kernels.two_channel_block",
                         attrs=lambda args, result: {"trials": args[2]})

    def engine_call():
        import threading

        threads = [threading.Thread(target=kernel, args=(1, i, 100)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    engine = tracer.wrap(engine_call, "engine.run_experiment", adopt=True,
                         attrs=lambda args, result: {"outcome_bytes": 0})
    tracer.wrap(engine, "cli.main")()
    by_name = {s.name: s for s in tracer.spans}
    kernels = [s for s in tracer.spans if s.name == "kernels.two_channel_block"]
    assert len(kernels) == 2
    assert all(k.parent == by_name["engine.run_experiment"].id for k in kernels)
    assert by_name["engine.run_experiment"].parent == by_name["cli.main"].id
    m = tracing.layer_metrics(tracer.spans, workers=2)
    assert m["engine.blocks"][0] == 2
    assert m["kernels.two_channel_block.calls"][0] == 2
    assert m["engine.self_s"][0] >= 0.0


_IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       numpy._core
import time:      1000 |       1100 |     numpy
import time:        50 |         50 |           numpy.ma
import time:       200 |        250 |         scipy._lib
import time:       300 |        550 |       scipy
import time:        40 |         40 |       scipy.stats._stats_py
import time:        10 |        600 |     eprsim.stats
import time:        20 |       1720 |   eprsim
import time:         5 |       1725 | eprsim.cli
"""


def test_parse_importtime_attributes_nested_modules():
    found = tracing.parse_importtime(_IMPORTTIME)
    assert found["import.eprsim_s"] == pytest.approx(1725e-6)
    assert found["import.numpy_s"] == pytest.approx(1100e-6)
    # scipy plus the scipy.stats module listed beside it, not numpy.ma twice.
    assert found["import.scipy_stats_s"] == pytest.approx(590e-6)


def _chsh_doc(model, s, trials=1000):
    return {
        "scenario": "chsh-scan",
        "config": {"model": model, "trials": trials},
        "rows": [],
        "summary": {"S": s, "S_stderr": 0.01},
        "engine": {"trials_total": 4 * trials, "wall_time_s": 0.5, "workers": 2},
    }


def test_gate_holds_s_and_trials():
    inv = Invocation("chsh-scan", ("--model", "qm"), 1000, 4)
    assert check_document(_chsh_doc("qm", 2.83), inv) == []
    assert check_document(_chsh_doc("qm", 2.5), inv)
    assert check_document(_chsh_doc("lhv-sign", 2.03), inv) == []
    assert check_document(_chsh_doc("lhv-sign", 2.2), inv)
    assert check_document(_chsh_doc("qm", 2.83, trials=999), inv)


def test_gate_holds_conditional_detection_exactly_for_certain_models():
    inv = Invocation("qwp-test", ("--model", "qm"), 1000, 1)

    def doc(model, p):
        return {
            "scenario": "qwp-test",
            "config": {"model": model},
            "rows": [],
            "summary": {"p_b_given_a": p, "p_b_given_a_stderr": 0.01},
            "engine": {"trials_total": 1000},
        }

    assert check_document(doc("qm", 1.0), inv) == []
    assert check_document(doc("qm", 0.999), inv)
    assert check_document(doc("ndv-nonlocal", 0.52), inv) == []
    assert check_document(doc("ndv-nonlocal", 0.6), inv)


def test_stable_text_ignores_wall_time_and_workers_only():
    a = _chsh_doc("qm", 2.83)
    b = json.loads(json.dumps(a))
    b["engine"].update(wall_time_s=9.0, workers=1)
    assert stable_text(a) == stable_text(b)
    b["summary"]["S"] = 2.84
    assert stable_text(a) != stable_text(b)


def test_peak_rss_is_per_child_not_the_running_maximum():
    env = run.child_env()
    big = run.run_child(["-c", "b = bytearray(300_000_000); b[::4096] = b'x' * len(b[::4096])"], env)
    small = run.run_child(["-c", "pass"], env)
    assert big.exit_code == small.exit_code == 0
    assert big.peak_rss_mb > 300
    assert small.peak_rss_mb < 100


def _bench(*args: str, cwd: Path = HERE.parent) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


@pytest.mark.parametrize("seed", [SMOKE_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_workload_passes_the_gate(workload, seed):
    code, result, stderr = _bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0", "--smoke"
    )
    assert code == 0, stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[workload].invocations)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0 and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_emits_every_layer_metric(workload):
    code, result, stderr = _bench(
        "--workload", workload, "--seed", str(SMOKE_SEED), "--seconds", "1", "--trace", "1",
        "--smoke",
    )
    assert code == 0, stderr
    # Warm-up, untraced, traced at the default workers and traced at one.
    assert result["attempted"] == 4 * len(WORKLOADS[workload].invocations)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert (HERE / "out" / f"spans-{workload}-seed{SMOKE_SEED}.json").is_file()


def test_benchmark_json_workloads_are_defined_here():
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, _ = _bench(
        "--workload", "matrix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert code != 0
    assert result is None
