"""The benchmark's workloads and the correctness gate applied to every output.

A workload is a fixed list of ``epr`` invocations, run one after another the
way a user would type them. Each invocation names the trials it asks the
engine for, so the gate can hold the document's ``engine.trials_total`` to
it, and the physics the document must show whatever the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

# Physics tolerance in standard errors. Every check is two-sided at this
# level, so a correct program fails one with probability below 1e-6 per seed.
K_SIGMA = 5.0
TSIRELSON = 2.0 * math.sqrt(2.0)
CLASSICAL = 2.0
# Two-sided tail probability of K_SIGMA on a normal: the p-value below which
# the order test counts as a failure (see `check_document`).
ORDER_TEST_MIN_P = math.erfc(K_SIGMA / math.sqrt(2.0))

ENTANGLED_MODELS = ("qm", "ndv-nonlocal")
CERTAIN_CHAIN_MODELS = ("qm", "definite-circular")

# Fewest trials any invocation may run: the order test's own minimum.
SMOKE_TRIALS = 10_000


@dataclass(frozen=True)
class Invocation:
    """One ``epr`` command line, without ``--seed`` and ``--format``."""

    scenario: str
    options: tuple[str, ...]
    trials: int
    # Engine calls of `trials` each that the scenario makes, so the document
    # must report ``trials * blocks`` in ``engine.trials_total``.
    blocks: int

    @property
    def trials_total(self) -> int:
        return self.trials * self.blocks

    def argv(self, seed: int) -> list[str]:
        return [
            self.scenario, *self.options,
            "--trials", str(self.trials), "--seed", str(seed), "--format", "json",
        ]

    def label(self) -> str:
        return " ".join([self.scenario, *self.options])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]

    @property
    def trials_total(self) -> int:
        return sum(inv.trials_total for inv in self.invocations)

    def smoke(self) -> "Workload":
        """The same invocations at the smallest trial count the CLI accepts."""
        return replace(
            self, invocations=tuple(replace(inv, trials=SMOKE_TRIALS) for inv in self.invocations)
        )


_SWEEP_TRIALS = 100_000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "matrix",
            "2e7 trials in 20 engine calls over four models: bound by the RNG and the "
            "response kernels, so kernel, RNG and pool changes show here",
            (Invocation("model-matrix", (), 1_000_000, 20),),
        ),
        Workload(
            "chsh-large",
            "4e7 trials in 4 huge engine calls: per-trial outcome arrays and counting "
            "copies set peak RSS, so memory and counting changes show here",
            (Invocation("chsh-scan", ("--model", "qm"), 10_000_000, 4),),
        ),
        Workload(
            "sweep",
            "six short runs covering every scenario and chain kernel: interpreter and "
            "import start-up dominate, so set-up changes show here",
            (
                Invocation("malus-check", (), _SWEEP_TRIALS, 7),
                Invocation("qwp-test", ("--model", "qm", "--ordering", "random"), _SWEEP_TRIALS, 1),
                Invocation("qwp-test", ("--model", "ndv-nonlocal"), _SWEEP_TRIALS, 1),
                Invocation("qwp-test", ("--model", "definite-circular"), _SWEEP_TRIALS, 1),
                Invocation("order-test", ("--model", "qm"), _SWEEP_TRIALS, 2),
                Invocation("chsh-scan", ("--model", "lhv-malus"), _SWEEP_TRIALS, 4),
            ),
        ),
    )
}


def _check_s(model: str, s: float, stderr: float) -> str | None:
    if model in ENTANGLED_MODELS:
        if not abs(s - TSIRELSON) <= K_SIGMA * stderr:
            return f"{model}: S={s!r} is not within {K_SIGMA} sigma ({stderr!r}) of 2*sqrt(2)"
    elif not abs(s) <= CLASSICAL + K_SIGMA * stderr:
        return f"{model}: |S|={abs(s)!r} exceeds 2 by more than {K_SIGMA} sigma ({stderr!r})"
    return None


def _check_p_b_given_a(model: str, p: float, stderr: float) -> str | None:
    if model in CERTAIN_CHAIN_MODELS:
        if p != 1.0:
            return f"{model}: p_b_given_a={p!r}, expected exactly 1.0"
    elif not abs(p - 0.5) <= K_SIGMA * stderr:
        return f"{model}: p_b_given_a={p!r} is not within {K_SIGMA} sigma ({stderr!r}) of 0.5"
    return None


def _physics(doc: dict) -> list[str | None]:
    scenario = doc["scenario"]
    summary = doc["summary"]
    config = doc["config"]
    if scenario == "model-matrix":
        found = []
        for row in doc["rows"]:
            found.append(_check_s(row["model"], row["S"], row["S_stderr"]))
            found.append(
                _check_p_b_given_a(row["model"], row["p_b_given_a"], row["p_b_given_a_stderr"])
            )
        return found
    if scenario == "chsh-scan":
        return [_check_s(config["model"], summary["S"], summary["S_stderr"])]
    if scenario == "qwp-test":
        return [
            _check_p_b_given_a(
                config["model"], summary["p_b_given_a"], summary["p_b_given_a_stderr"]
            )
        ]
    if scenario == "malus-check":
        dev = summary["max_deviation_sigma"]
        return [None if dev < K_SIGMA else f"malus: max_deviation_sigma={dev!r}"]
    if scenario == "order-test":
        if config["model"] != "qm":
            return []
        # The program's own verdict tests at alpha=0.01 and so is false for
        # one seed in a hundred; the gate holds the p-value to K_SIGMA instead.
        p = summary["p_value"]
        return [None if p >= ORDER_TEST_MIN_P else f"order-test qm: p_value={p!r}"]
    return [f"no physics check for scenario {scenario!r}"]


def check_document(doc: dict, inv: Invocation) -> list[str]:
    """Every way `doc` fails the gate for `inv`; empty when it passes."""
    if doc.get("scenario") != inv.scenario:
        return [f"scenario {doc.get('scenario')!r}, expected {inv.scenario!r}"]
    problems = []
    got = doc["engine"]["trials_total"]
    if got != inv.trials_total:
        problems.append(f"engine.trials_total={got}, expected {inv.trials_total}")
    problems.extend(p for p in _physics(doc) if p is not None)
    return problems


def stable_text(doc: dict) -> str:
    """The part of a result document that must not change between runs.

    That is everything but the engine's wall time and worker count: the TSV
    rendering's config, rows and summary, plus the engine's trials and
    backend. Worker count is left out because results must not depend on it.
    """
    engine = {k: v for k, v in doc["engine"].items() if k not in ("wall_time_s", "workers")}
    return json.dumps({**doc, "engine": engine}, sort_keys=True)
