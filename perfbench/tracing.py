"""Spans around the package's public entry points, and the per-layer metrics.

The package has no tracing of its own. `instrument` swaps each layer's entry
points for wrappers that record a span (name, start, end, parent, thread)
and restores the originals on exit. The layers are the modules on the CLI
path: cli -> scenarios -> engine -> kernels, with stats for counting and
the order test. Kernel calls run on the engine's worker threads; their spans
take the engine call that is open at the time as parent.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import re
import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

KERNELS = ("two_channel_block", "qwp_block", "malus_block", "two_channel_block_lhv")
ENGINE_CALLS = ("run_experiment", "run_malus")
COUNT_SPANS = (
    "stats.CoincidenceCounts.from_outcomes",
    "stats.TwoChannelRun.counts_for_pair",
    "stats.ChainCounts.from_flags",
)

# Which end-to-end metric, on which workload, each group of layer metrics
# should move. Matched by longest prefix.
TARGETS = {
    "import.": "setup_s and wall_s on sweep, ~30% of wall_s on matrix; not mtrials_per_s",
    "kernels.": "mtrials_per_s and mtrials_per_cpu_s on matrix; nothing on sweep",
    "engine.": "mtrials_per_s on matrix, peak_rss_mb on chsh-large",
    "stats.": "peak_rss_mb and mtrials_per_s on chsh-large, wall_s on sweep",
    "scenarios.": "none: sub-millisecond, recorded so that no gain is claimed for it",
    "cli.": "none: sub-millisecond, recorded so that no gain is claimed for it",
    "tracing.": "none: the cost of these wrappers, traced minus untraced compute",
}


def target_of(metric: str) -> str:
    """What `metric` should move, from the longest matching prefix."""
    prefix = max((p for p in TARGETS if metric.startswith(p)), key=len, default=None)
    return TARGETS.get(prefix, "")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; the caller writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Span that spans opened on a thread with no open span of its own
        # (the engine's pool workers) take as parent.
        self._adopter: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, *, adopt: bool = False, attrs=None, measure_alloc: bool = False):
        """`fn` recording a span per call.

        ``adopt`` makes the span the parent of worker-thread spans while it is
        open. ``attrs(args, result)`` adds fields to the span.
        ``measure_alloc`` records the tracemalloc peak of the call when it
        runs on the main thread and no outer call already traces.
        """

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._adopter
            sid = next(self._ids)
            stack.append(sid)
            adopted = self._adopter
            if adopt:
                self._adopter = sid
            alloc = (
                measure_alloc
                and threading.current_thread() is threading.main_thread()
                and not tracemalloc.is_tracing()
            )
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                extra = {}
                if alloc:
                    extra["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if adopt:
                    self._adopter = adopted
                stack.pop()
            if attrs is not None:
                extra.update(attrs(args, result))
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_native_id(), extra)
            )
            return result

        return wrapper


def _array_bytes(result) -> int:
    return sum(
        getattr(result, f.name).nbytes
        for f in fields(result)
        if isinstance(getattr(result, f.name), np.ndarray)
    )


@contextmanager
def instrument(tracer: Tracer, cli, scenarios, engine, kernels, stats):
    """Route every layer entry point through `tracer` for the duration."""
    undo = []

    def patch(owner, attr: str, name: str, **kw) -> None:
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            wrapped = classmethod(tracer.wrap(static.__func__, name, **kw))
        else:
            wrapped = tracer.wrap(static, name, **kw)
        setattr(owner, attr, wrapped)
        undo.append(lambda: setattr(owner, attr, static))

    originals = dict(scenarios.SCENARIOS)
    undo.append(lambda: scenarios.SCENARIOS.update(originals))
    for key, fn in originals.items():
        scenarios.SCENARIOS[key] = tracer.wrap(fn, f"scenarios.{key}")
    patch(cli, "main", "cli.main")
    for call in ENGINE_CALLS:
        patch(
            scenarios, call, f"engine.{call}", adopt=True,
            attrs=lambda args, result: {"outcome_bytes": _array_bytes(result)},
        )
    for kernel in KERNELS:
        patch(kernels, kernel, f"kernels.{kernel}", attrs=lambda args, result: {"trials": args[2]})
    patch(stats.CoincidenceCounts, "from_outcomes", COUNT_SPANS[0], measure_alloc=True)
    patch(engine.TwoChannelRun, "counts_for_pair", COUNT_SPANS[1], measure_alloc=True)
    patch(stats.ChainCounts, "from_flags", COUNT_SPANS[2], measure_alloc=True)
    patch(scenarios, "order_invariance_test", "stats.order_invariance_test")
    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """`span`'s duration minus the part of it that its children cover.

    Children on different threads may overlap each other; the union is
    subtracted, not the sum, so self time never goes negative.
    """
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


def layer_metrics(spans: list[Span], workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_id = {s.id: s for s in spans}

    def named(*names):
        return [s for s in spans if s.name in names]

    def total_self(group):
        return sum(self_time(s, children.get(s.id, [])) for s in group)

    engine = named(*(f"engine.{c}" for c in ENGINE_CALLS))
    kernel = [s for s in spans if s.name.startswith("kernels.")]
    counting = [
        s for s in named(*COUNT_SPANS)
        if s.parent is None or by_id[s.parent].name not in COUNT_SPANS
    ]
    kernel_busy = sum(s.duration for s in kernel)
    kernel_trials = sum(s.attrs["trials"] for s in kernel)
    engine_time = sum(s.duration for s in engine)
    m = {
        "cli.self_s": (total_self(named("cli.main")), "s"),
        "scenarios.self_s": (
            total_self([s for s in spans if s.name.startswith("scenarios.")]), "s"
        ),
        "engine.run_experiment.calls": (len(named("engine.run_experiment")), "count"),
        "engine.blocks": (len(kernel), "count"),
        "engine.busy_s": (engine_time, "s"),
        "engine.self_s": (total_self(engine), "s"),
        "engine.parallel_efficiency": (kernel_busy / (workers * engine_time), "ratio"),
        "engine.outcome_bytes": (sum(s.attrs["outcome_bytes"] for s in engine), "B"),
        "kernels.busy_s": (kernel_busy, "s"),
        "kernels.mtrials_per_s": (kernel_trials / kernel_busy / 1e6, "Mtrials/s"),
    }
    for name in ("two_channel_block", "qwp_block"):
        m[f"kernels.{name}.calls"] = (len(named(f"kernels.{name}")), "count")
    m["stats.count_calls"] = (len(counting), "count")
    m["stats.count_s"] = (sum(s.duration for s in counting), "s")
    m["stats.count_peak_alloc_mb"] = (
        max((s.attrs.get("peak_alloc_bytes", 0) for s in counting), default=0) / 1e6, "MB"
    )
    return m


def kernel_report(spans: list[Span]) -> list[str]:
    """One line per kernel: calls, busy seconds and per-thread Mtrials/s."""
    lines = []
    for name in KERNELS:
        calls = [s for s in spans if s.name == f"kernels.{name}"]
        if calls:
            busy = sum(s.duration for s in calls)
            trials = sum(s.attrs["trials"] for s in calls)
            lines.append(
                f"kernels.{name}: {len(calls)} calls, {busy:.4f} s busy, "
                f"{trials / busy / 1e6:.3f} Mtrials/s per thread"
            )
        else:
            lines.append(f"kernels.{name}: 0 calls")
    return lines


def dump_spans(path, passes: dict[str, list[Span]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({label: [asdict(s) for s in spans] for label, spans in passes.items()}, fh)


_IMPORTTIME = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def _package(module: str) -> str:
    return module.split(".", 1)[0]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime -c "import eprsim.cli"``.

    eprsim: the whole import. scipy.stats: every scipy module not imported
    by another scipy module (``from scipy import stats`` goes through
    scipy's lazy loader, which importtime does not log, so the scipy.stats
    package has no line of its own). numpy: every numpy module imported by
    neither numpy nor scipy.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is not None:
            depth = (len(match.group(2)) - 1) // 2
            entries.append((depth, match.group(3), int(match.group(1)) / 1e6))
    found = {"import.eprsim_s": 0.0, "import.numpy_s": 0.0, "import.scipy_stats_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    # importtime lists a module after everything it imported; walking the
    # lines backwards visits each module before its imports.
    for depth, module, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        outer = {_package(name) for _, name in ancestors}
        package = _package(module)
        if package == "eprsim" and depth == 0:
            found["import.eprsim_s"] += cumulative
        elif package == "scipy" and "scipy" not in outer:
            found["import.scipy_stats_s"] += cumulative
        elif package == "numpy" and not outer & {"numpy", "scipy"}:
            found["import.numpy_s"] += cumulative
        ancestors.append((depth, module))
    return found


def _median_time(call, repeats: int) -> float:
    call(0)  # first call pays one-off costs
    times = []
    for r in range(1, repeats + 1):
        start = time.perf_counter()
        call(r)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _median_rate(call, work: int, repeats: int) -> float:
    return work / _median_time(call, repeats) / 1e6


def probes(kernels, stats, block: int, seed: int, repeats: int = 7) -> dict[str, tuple[float, str]]:
    """Single-thread rates of each kernel on one engine-sized block, plus
    the order test on two count tables drawn from the kernel."""
    pair_a, pair_b, cumw = np.array([0.0]), np.array([math.pi / 8]), np.array([1.0])
    m = {
        "kernels.uniform_block.mdraws_per_s": (
            _median_rate(
                lambda r: kernels.uniform_block(seed, r * block, block, kernels.SLOT_ARM_A),
                block, repeats,
            ),
            "Mdraws/s",
        )
    }
    for model, code in kernels.MODEL_CODES.items():
        m[f"kernels.two_channel_block.{model}.mtrials_per_s"] = (
            _median_rate(
                lambda r: kernels.two_channel_block(
                    seed, r * block, block, code, pair_a, pair_b, cumw, kernels.ORDER_ARM1_FIRST
                ),
                block, repeats,
            ),
            "Mtrials/s",
        )
    for model in ("qm", "definite-circular", "ndv"):
        code = kernels.qwp_code_for(model)
        m[f"kernels.qwp_block.{model}.mtrials_per_s"] = (
            _median_rate(
                lambda r: kernels.qwp_block(seed, r * block, block, code, kernels.ORDER_ARM1_FIRST),
                block, repeats,
            ),
            "Mtrials/s",
        )
    m["kernels.malus_block.mtrials_per_s"] = (
        _median_rate(lambda r: kernels.malus_block(seed, r * block, block, 0.5), block, repeats),
        "Mtrials/s",
    )
    tables = []
    for order in (kernels.ORDER_ARM1_FIRST, kernels.ORDER_ARM2_FIRST):
        _, out_a, out_b = kernels.two_channel_block(
            seed, 0, block, kernels.MODEL_QM, pair_a, pair_b, cumw, order
        )
        tables.append(stats.CoincidenceCounts.from_outcomes(out_a, out_b))
    m["stats.order_test_s"] = (
        _median_time(lambda r: stats.order_invariance_test(*tables), 5 * repeats), "s"
    )
    return m
