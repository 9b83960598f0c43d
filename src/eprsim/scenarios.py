"""Named experiment scenarios producing structured result documents.

Each scenario returns a plain dict with a ``config`` echo (re-running the
echoed config reproduces every count exactly), per-setting ``rows``, a
``summary`` and ``engine`` metadata. Each parameter is checked by one rule
per name, the same in every scenario, and the echo is the checked values.
`trials`, `seed` and `workers` go through the engine's own rules, so a bad
value raises the engine's `ConfigError`, re-exported here, naming the key.
Rendering to table/TSV/JSON lives in :mod:`eprsim.cli`.

Angles cross the boundary in degrees and are converted to radians exactly
once, reduced modulo 180 degrees (`_radians`); all emitted angles are echoed
in both units, the degrees as given and the radians as run.
"""

from __future__ import annotations

import functools
import math
import platform
import time
from typing import NamedTuple

import numpy as np

import eprsim.kernels as kernels

from ._version import __version__
from .engine import (
    FixedSettings,
    QwpChainProtocol,
    RunConfig,
    TwoChannelProtocol,
    _run_plan,
    check_trials,
    resolve_workers,
    run_experiment,
    run_malus,
)
from .kernels import ConfigError, check_real
from .models import (
    DefiniteCircular,
    HypothesisModel,
    Lhv,
    NdvNonlocal,
    Ordering,
    QMFormal,
    deterministic_sign_model,
    malus_response_model,
    snap_probability,
)
from .stats import (
    MIN_ORDER_TEST_TRIALS,
    ChainCounts,
    PairEstimate,
    binomial_stderr,
    chsh_report,
    conditional_detection,
    order_invariance_test,
)


_MODELS = {
    "qm": QMFormal,
    "lhv-sign": lambda: Lhv(deterministic_sign_model()),
    "lhv-malus": lambda: Lhv(malus_response_model()),
    "definite-circular": DefiniteCircular,
    "ndv-nonlocal": NdvNonlocal,
}
MODEL_NAMES = tuple(_MODELS)

ORDERING_NAMES = {ordering.value: ordering for ordering in Ordering}

DEFAULT_TRIALS = 1_000_000
DEFAULT_SEED = 1
DEFAULT_CHSH_ANGLES_DEG = (0.0, 22.5, 45.0, 67.5)
DEFAULT_MALUS_ANGLES_DEG = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
DEFAULT_ORDER_THETA_DEG = 30.0

MATRIX_MODELS = ("qm", "ndv-nonlocal", "definite-circular", "lhv-sign")

APPARATUS_NOTE = (
    "Ideal-apparatus simulation: lossless analyzers and perfect detectors. "
    "Laboratory cascade-photon experiments report |S| around 2.697 +/- 0.015, "
    "short of the ideal 2*sqrt(2) = 2.8284 simulated here, because real "
    "polarizers and detectors are imperfect; no attempt is made to reproduce "
    "apparatus-limited values."
)


def _check_name(key: str, value, names) -> str:
    if not isinstance(value, str) or value not in names:
        raise ConfigError(f"{key}: unknown {key} {value!r} (choose from {', '.join(names)})")
    return value


def build_model(name: str) -> HypothesisModel:
    return _MODELS[_check_name("model", name, MODEL_NAMES)]()


def _check_angles(key: str, value) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: must be a list of numbers, got {value!r}")
    if len(value) < 1:
        raise ConfigError(f"{key}: need at least one angle")
    return [check_real(key, x) for x in value]


# The check of each scenario parameter, by name: (key, value) -> the value a
# scenario runs with and echoes, or a ConfigError naming the key.
_CHECKS = {
    "model": lambda key, value: _check_name(key, value, MODEL_NAMES),
    "angles_deg": _check_angles,
    "theta_deg": check_real,
    "trials": lambda key, value: check_trials(value),
    "seed": lambda key, value: kernels.check_seed(value),
    "ordering": lambda key, value: _check_name(key, value, ORDERING_NAMES),
    "k_sigma": lambda key, value: check_real(key, value, minimum=0.0),
    "workers": lambda key, value: resolve_workers(value),
}


def _checked(params: dict) -> dict:
    """A scenario's parameters, called as ``_checked(locals())`` before its
    body binds any other name, so they come in signature order, each checked
    by its entry in `_CHECKS`."""
    return {key: _CHECKS[key](key, value) for key, value in params.items()}


class _Ranges(NamedTuple):
    results: list
    trials_total: int
    started: float


def _run_ranges(runs: list, trials: int) -> _Ranges:
    """Run each of `runs` at its ``start_index``: consecutive disjoint ranges
    of `trials` from index 0 of the seed, which draw independent streams, so
    the results carry no covariance. The ranges must fit in the seed's 2**64
    trial indices; that is checked before any run starts. The runs make one
    engine plan, so the worker processes are forked once per scenario."""
    trials_total = len(runs) * trials
    if trials_total > kernels.SEED_LIMIT:
        raise ConfigError(
            f"trials: {len(runs)} runs of {trials} trials leave the 2**64 trial indices of a seed"
        )
    started = time.perf_counter()
    results = _run_plan([(run, j * trials) for j, run in enumerate(runs)])
    return _Ranges(results, trials_total, started)


def _document(scenario: str, params: dict, rows: list, summary: dict, ranges: _Ranges) -> dict:
    """The result document. Its config echo is the checked parameters but
    `workers`, which never changes a count."""
    return {
        "scenario": scenario,
        "config": {
            "scenario": scenario,
            **{key: value for key, value in params.items() if key != "workers"},
        },
        "rows": rows,
        "summary": summary,
        "engine": {
            "version": __version__,
            "rng_stream": kernels.RNG_STREAM,
            "backend": kernels.backend(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "workers": params["workers"],
            "trials_total": ranges.trials_total,
            "wall_time_s": round(time.perf_counter() - ranges.started, 6),
        },
    }


def _radians(degrees: float) -> float:
    """An analyzer angle in radians. An analyzer at 180 degrees more is the
    same analyzer, so the angle is first reduced modulo 180 by `math.fmod`,
    which is exact: unreduced, an angle past about 1e20 degrees is so large
    that the quarter turn the kernels add to it is lost to rounding. An
    angle inside (-180, 180) is unchanged."""
    return math.radians(math.fmod(degrees, 180.0))


def _angle_row(prefix: str, degrees: float) -> dict:
    return {f"{prefix}_deg": degrees, f"{prefix}_rad": _radians(degrees)}


def _count_row(estimate: PairEstimate) -> dict:
    counts = estimate.counts
    return {
        "N_pp": counts.n_pp,
        "N_pm": counts.n_pm,
        "N_mp": counts.n_mp,
        "N_mm": counts.n_mm,
        "E": estimate.e,
        "E_stderr": estimate.e_stderr,
    }


def _chsh_pairs(angles_deg) -> list[tuple[float, float]]:
    """(a, b), (a, b'), (a', b), (a', b'): the order `chsh_report` takes."""
    a, b, a2, b2 = angles_deg
    return [(a, b), (a, b2), (a2, b), (a2, b2)]


def _run(params: dict, protocol, hypothesis, order, settings=FixedSettings(0.0, 0.0)):
    """One engine run of the scenario's trials and seed; it waits for its ``start_index``."""
    config = RunConfig(
        model=hypothesis, trials=params["trials"], settings=settings, ordering=order,
        seed=params["seed"],
    )
    return functools.partial(run_experiment, config, protocol, workers=params["workers"])


def _pair_run(params: dict, hypothesis: HypothesisModel, order, a_deg: float, b_deg: float):
    """A two-channel run at one analyzer pair, given in degrees."""
    settings = FixedSettings(_radians(a_deg), _radians(b_deg))
    return _run(params, TwoChannelProtocol(), hypothesis, order, settings)


def _estimate(run) -> PairEstimate:
    return PairEstimate.from_counts(run.config.settings.a, run.config.settings.b, run.counts)


def _conditional_detection(counts: ChainCounts) -> tuple[float, float]:
    try:
        return conditional_detection(counts)
    except ValueError as exc:
        raise ConfigError(f"trials: too few to condition on: {exc}") from None


def chsh_scan(
    model: str = "qm",
    angles_deg=DEFAULT_CHSH_ANGLES_DEG,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    ordering: str = "arm1-first",
    k_sigma: float = 3.0,
    workers: int | None = None,
) -> dict:
    """Four-pair correlation scan at the quadruple (a, b, a', b')."""
    params = _checked(locals())
    if len(params["angles_deg"]) != 4:
        raise ConfigError(f"angles_deg: expected 4 angles, got {len(params['angles_deg'])}")
    hypothesis = build_model(params["model"])
    order = ORDERING_NAMES[params["ordering"]]
    pairs = _chsh_pairs(params["angles_deg"])
    ranges = _run_ranges(
        [_pair_run(params, hypothesis, order, a, b) for a, b in pairs], params["trials"]
    )
    estimates = [_estimate(run) for run in ranges.results]
    rows = [
        {**_angle_row("a", a), **_angle_row("b", b), **_count_row(estimate)}
        for (a, b), estimate in zip(pairs, estimates)
    ]
    report = chsh_report(*estimates, k_sigma=params["k_sigma"])
    summary = {
        "S": report.s,
        "S_stderr": report.s_stderr,
        "k_sigma": params["k_sigma"],
        "violates_classical": report.violates_classical,
        "within_tsirelson": report.within_tsirelson,
    }
    return _document("chsh-scan", params, rows, summary, ranges)


def malus_check(
    angles_deg=DEFAULT_MALUS_ANGLES_DEG,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> dict:
    """Single-photon transmission curve against the cos^2 law."""
    params = _checked(locals())
    trials = params["trials"]
    runs = [
        functools.partial(
            run_malus, params["seed"], _radians(theta_deg), trials, workers=params["workers"]
        )
        for theta_deg in params["angles_deg"]
    ]
    ranges = _run_ranges(runs, trials)
    rows = []
    max_dev_sigma = 0.0
    for theta_deg, run in zip(params["angles_deg"], ranges.results):
        p_emp = run.n_pass / run.n_total
        p_model = snap_probability(math.cos(run.theta) ** 2)
        stderr = binomial_stderr(p_model, trials)
        if stderr > 0.0:
            max_dev_sigma = max(max_dev_sigma, abs(p_emp - p_model) / stderr)
        rows.append(
            {
                **_angle_row("theta", theta_deg),
                "n_pass": run.n_pass,
                "n_total": run.n_total,
                "p_emp": p_emp,
                "p_model": p_model,
                "p_stderr": stderr,
            }
        )
    summary = {"max_deviation_sigma": max_dev_sigma}
    return _document("malus-check", params, rows, summary, ranges)


def qwp_test(
    model: str = "qm",
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    ordering: str = "arm1-first",
    workers: int | None = None,
) -> dict:
    """Helicity-certifying chains on both arms; reports P(B detected | A detected).

    The discriminating observable: definite-helicity pairs and formal
    reduction both predict exactly 1, the no-definite-value collapse
    narrative predicts 1/2.
    """
    params = _checked(locals())
    hypothesis = build_model(params["model"])
    run = _run(params, QwpChainProtocol(), hypothesis, ORDERING_NAMES[params["ordering"]])
    ranges = _run_ranges([run], params["trials"])
    counts = ranges.results[0].counts
    p_cond, p_stderr = _conditional_detection(counts)
    rows = [
        {
            "model": params["model"],
            "n_det_a": counts.n_det_a,
            "n_det_b": counts.n_det_b,
            "n_det_both": counts.n_det_both,
            "n_total": counts.n_total,
            "p_b_given_a": p_cond,
            "p_b_given_a_stderr": p_stderr,
        }
    ]
    summary = {
        "p_b_given_a": p_cond,
        "p_b_given_a_stderr": p_stderr,
        "p_det_a": counts.n_det_a / counts.n_total,
    }
    return _document("qwp-test", params, rows, summary, ranges)


def order_test(
    model: str = "qm",
    theta_deg: float = DEFAULT_ORDER_THETA_DEG,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> dict:
    """Measure arm 1 first vs arm 2 first and compare the joint distributions.

    The two runs use disjoint trial-index blocks of the same seed, so they are
    statistically independent samples.
    """
    params = _checked(locals())
    if params["trials"] < MIN_ORDER_TEST_TRIALS:
        raise ConfigError(
            f"trials: the order test needs at least {MIN_ORDER_TEST_TRIALS} trials per ordering"
        )
    hypothesis = build_model(params["model"])
    theta_deg = params["theta_deg"]
    orders = (Ordering.ARM1_FIRST, Ordering.ARM2_FIRST)
    ranges = _run_ranges(
        [_pair_run(params, hypothesis, order, 0.0, theta_deg) for order in orders],
        params["trials"],
    )
    estimates = [_estimate(run) for run in ranges.results]
    rows = [
        {"ordering": order.value, **_angle_row("theta", theta_deg), **_count_row(estimate)}
        for order, estimate in zip(orders, estimates)
    ]
    result = order_invariance_test(*(estimate.counts for estimate in estimates))
    summary = {
        "chi_square": result.chi_square,
        "p_value": result.p_value,
        "degrees_of_freedom": result.degrees_of_freedom,
        "order_invariant": result.consistent,
    }
    return _document("order-test", params, rows, summary, ranges)


def model_matrix(
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    k_sigma: float = 3.0,
    workers: int | None = None,
) -> dict:
    """The discrimination table: every model through both experiments.

    Each cell reports the CHSH combination at the canonical quadruple and the
    chain-protocol conditional detection probability. Together they separate
    all four hypotheses.
    """
    params = _checked(locals())
    angles = DEFAULT_CHSH_ANGLES_DEG
    pairs = _chsh_pairs(angles)
    order = Ordering.ARM1_FIRST
    runs = []
    for name in MATRIX_MODELS:
        # Per model: the four CHSH pairs, then the chain run.
        hypothesis = build_model(name)
        runs += [_pair_run(params, hypothesis, order, a, b) for a, b in pairs]
        runs.append(_run(params, QwpChainProtocol(), hypothesis, order))
    ranges = _run_ranges(runs, params["trials"])
    results = iter(ranges.results)
    rows = []
    for name in MATRIX_MODELS:
        estimates = [_estimate(next(results)) for _ in pairs]
        report = chsh_report(*estimates, k_sigma=params["k_sigma"])
        p_cond, p_stderr = _conditional_detection(next(results).counts)
        rows.append(
            {
                "model": name,
                "S": report.s,
                "S_stderr": report.s_stderr,
                "violates_classical": report.violates_classical,
                "within_tsirelson": report.within_tsirelson,
                "p_b_given_a": p_cond,
                "p_b_given_a_stderr": p_stderr,
            }
        )
    summary = {
        "chsh_angles_deg": list(angles),
        "ideal_quantum_S": 2.0 * math.sqrt(2.0),
        "note": APPARATUS_NOTE,
    }
    return _document("model-matrix", params, rows, summary, ranges)


SCENARIOS = {
    "chsh-scan": chsh_scan,
    "malus-check": malus_check,
    "qwp-test": qwp_test,
    "order-test": order_test,
    "model-matrix": model_matrix,
}
