#!/usr/bin/env python3
"""End-to-end benchmark of the ``epr`` CLI.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload's ``epr`` invocations in child
processes, one at a time, for about ``--seconds`` seconds, and reports the
end-to-end metrics: each is the median over repetitions of the workload,
except ``setup_s``, the median over all the child processes.

With ``--trace 1`` it reports per-layer metrics instead: import times from
``python -X importtime``, single-thread kernel probes at the engine's block
size, and spans from one pass of the workload run in this process with every
layer's entry points wrapped (see ``tracing.py``). The traced run does a
fixed amount of work and ignores ``--seconds``; its spans are written to
``perfbench/out/``.

Every output passes the gate in ``workloads.py`` and must match the first
output of the same invocation byte for byte (in the traced run, also across
one worker and the default). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every invocation passed, 1 when one failed, and 2 when the checkout holds no
``src/eprsim`` to measure.

Children run the package from this checkout's ``src`` with EPR_MAX_WORKERS
and EPR_KERNEL_BACKEND removed, so the default backend and worker count are
what is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import WORKLOADS, Invocation, Workload, check_document, stable_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DRIVER = HERE / "driver.py"
OUT = HERE / "out"
EPR_ENV = ("EPR_MAX_WORKERS", "EPR_KERNEL_BACKEND")
CLEARED_ENV = (*EPR_ENV, "PYTHONPATH")
CHILD_TIMEOUT_S = 150.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class Child:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    return env


def _drain(proc: subprocess.Popen, files, deadline: float) -> list[bytes]:
    """Read `files` to end of file, killing `proc` if it runs past `deadline`."""
    chunks = {f: [] for f in files}
    with selectors.DefaultSelector() as sel:
        for f in files:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - _now()
            if remaining <= 0 and proc.returncode is None:
                proc.kill()
                proc.returncode = -9  # reaped below by os.wait4
            for key, _ in sel.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return [b"".join(chunks[f]) for f in files]


def run_child(args: list[str], env: dict[str, str]) -> Child:
    """Run ``python <args>`` to completion and measure it.

    Wall time runs from just before launch to the reaping of the child. CPU
    time and peak RSS come from ``os.wait4`` for this one child; the
    process-wide RUSAGE_CHILDREN would report the largest child so far.
    """
    stamp_read, stamp_write = os.pipe()
    launched = _now()
    try:
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env={**env, "PERFBENCH_STAMP_FD": str(stamp_write)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(stamp_write,),
        )
    finally:
        os.close(stamp_write)
    with open(stamp_read, "rb") as stamp:
        out, err, imported = _drain(
            proc, [proc.stdout, proc.stderr, stamp], launched + CHILD_TIMEOUT_S
        )
    _, status, usage = os.wait4(proc.pid, 0)
    ended = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        exit_code=proc.returncode,
        stdout=out.decode(),
        stderr=err.decode(),
        wall_s=ended - launched,
        setup_s=float(imported) - launched if imported else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
    )


def machine_info(env: dict[str, str], seed: int) -> dict:
    child = run_child([str(DRIVER), "--machine"], env)
    if child.exit_code != 0:
        raise RuntimeError(f"machine probe failed ({child.exit_code}): {child.stderr.strip()}")
    return {**json.loads(child.stdout), "seed": seed}


class Gate:
    """Checks each output and remembers the first one of every invocation."""

    def __init__(self) -> None:
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, inv: Invocation, exit_code: int, stdout: str, context: str) -> None:
        self.attempted += 1
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        doc = None
        if not problems:
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError as exc:
                problems.append(f"output is not JSON: {exc}")
        if doc is not None:
            problems.extend(check_document(doc, inv))
            text = stable_text(doc)
            if self.first.setdefault(inv.label(), text) != text:
                problems.append("output differs from the first run of this invocation")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED [{context}] {inv.label()}: {p}", file=sys.stderr)


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f} min={min(values):.4f} max={max(values):.4f}"


def timed_run(workload: Workload, seed: int, seconds: float, env: dict[str, str]) -> dict:
    """Repeat the workload's invocations until `seconds` are used up."""
    gate = Gate()
    walls, computes, cpus, setups, rss = [], [], [], [], []
    started = _now()
    while True:
        iteration_started = _now()
        wall = compute = cpu = peak = 0.0
        complete = 0
        for inv in workload.invocations:
            child = run_child([str(DRIVER), *inv.argv(seed)], env)
            gate.check(inv, child.exit_code, child.stdout, "child")
            if child.setup_s is None:  # failed before its imports finished
                print(child.stderr, file=sys.stderr)
                continue
            wall += child.wall_s
            compute += child.wall_s - child.setup_s
            cpu += child.cpu_s
            peak = max(peak, child.peak_rss_mb)
            setups.append(child.setup_s)
            complete += 1
        if complete == len(workload.invocations):
            walls.append(wall)
            computes.append(compute)
            cpus.append(cpu)
            rss.append(peak)
        # Stop when another iteration as long as this one would overrun.
        if _now() - started + (_now() - iteration_started) > seconds:
            break
    trials = workload.trials_total
    series = {
        "wall_s": (walls, "s"),
        "setup_s": (setups, "s"),
        "mtrials_per_s": ([trials / c / 1e6 for c in computes], "Mtrials/s"),
        "mtrials_per_cpu_s": ([trials / c / 1e6 for c in cpus], "Mtrials/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"workload {workload.name}: {len(walls)} iterations, {trials} trials each")
    metrics = {}
    for name, (values, unit) in series.items():
        if not values:  # every iteration had a child that never got going
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<18} {value:>12.4f} {unit:<10} {_spread(values)}")
    print(f"  {'error_rate':<18} {gate.failed / gate.attempted:>12.4f} "
          f"{'ratio':<10} {gate.failed} of {gate.attempted} invocations failed")
    return {"gate": gate, "metrics": metrics}


def _import_package():
    """Import the checkout's eprsim into this process for the traced run."""
    for name in EPR_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import eprsim.cli as cli
    from eprsim import engine, kernels, scenarios, stats

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, expected a file under {SRC}")
    return cli, scenarios, engine, kernels, stats


def _run_in_process(cli, workload: Workload, seed: int, gate: Gate, context: str,
                    extra: tuple[str, ...] = ()) -> float:
    """Run every invocation through ``cli.main``; returns the seconds spent."""
    spent = 0.0
    for inv in workload.invocations:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inv.argv(seed) + list(extra))
        spent += time.perf_counter() - start
        gate.check(inv, code, buf.getvalue(), context)
    return spent


def traced_run(workload: Workload, seed: int, env: dict[str, str], workers: int) -> dict:
    """Per-layer metrics of one pass of the workload, and its span dump."""
    metrics = {}
    imports = []
    for _ in range(3):
        child = run_child(["-X", "importtime", "-c", "import eprsim.cli"], env)
        if child.exit_code != 0:
            raise RuntimeError(f"import probe failed: {child.stderr.strip()[-500:]}")
        imports.append(tracing.parse_importtime(child.stderr))
    for name in imports[0]:
        metrics[name] = (statistics.median(m[name] for m in imports), "s")

    modules = _import_package()
    cli, scenarios, engine, kernels, stats = modules
    metrics.update(tracing.probes(kernels, stats, engine.BLOCK_SIZE, seed))

    gate = Gate()
    # The first pass in a process is slower (first-touch page faults on the
    # outcome arrays), so one pass is run and discarded before the timed ones.
    _run_in_process(cli, workload, seed, gate, "warm-up")
    untraced_s = _run_in_process(cli, workload, seed, gate, "untraced")
    passes = {}
    with tracing.instrument(tracing.Tracer(), *modules) as tracer:
        traced_s = _run_in_process(cli, workload, seed, gate, f"traced, {workers} workers")
    passes[f"workers={workers}"] = tracer.spans
    with tracing.instrument(tracing.Tracer(), *modules) as tracer:
        single_s = _run_in_process(cli, workload, seed, gate, "traced, 1 worker",
                                   ("--workers", "1"))
    passes["workers=1"] = tracer.spans

    metrics.update(tracing.layer_metrics(passes[f"workers={workers}"], workers))
    metrics["engine.scaling_efficiency"] = (single_s / (workers * traced_s), "ratio")
    metrics["tracing.overhead_s"] = (traced_s - untraced_s, "s")

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{workload.name}-seed{seed}.json"
    tracing.dump_spans(dump, passes)
    print(f"workload {workload.name}, traced: compute {untraced_s:.4f} s untraced, "
          f"{traced_s:.4f} s traced ({workers} workers), {single_s:.4f} s traced (1 worker)")
    for line in tracing.kernel_report(passes[f"workers={workers}"]):
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:>14.6g} {unit:<10} moves: {tracing.target_of(name)}")
    print(f"  spans written to {dump.relative_to(ROOT)}")
    return {
        "gate": gate,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each invocation at the smallest trial count the CLI accepts")
    args = parser.parse_args(argv)
    if not (SRC / "eprsim" / "cli.py").is_file():
        print(f"perfbench: no package to measure at {SRC / 'eprsim'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    seed = args.seed % 2**64
    env = child_env()
    machine = machine_info(env, seed)
    print("machine: " + json.dumps(machine, sort_keys=True))
    if args.trace:
        result = traced_run(workload, seed, env, machine["workers"])
    else:
        result = timed_run(workload, seed, args.seconds, env)
    gate = result["gate"]
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": result["metrics"],
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
