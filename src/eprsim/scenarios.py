"""Named experiment scenarios producing structured result documents.

Each scenario returns a plain dict with a ``config`` echo (re-running the
echoed config reproduces every count exactly), per-setting ``rows``, a
``summary`` and ``engine`` metadata. Rendering to table/TSV/JSON lives in
:mod:`eprsim.cli`.

Angles cross the boundary in degrees and are converted to radians exactly
once; all emitted angles are echoed in both units.
"""

from __future__ import annotations

import math
import numbers
import time

from . import kernels
from ._version import __version__
from .engine import (
    FixedSettings,
    QwpChainProtocol,
    RunConfig,
    TwoChannelProtocol,
    resolve_workers,
    run_experiment,
    run_malus,
)
from .models import (
    DefiniteCircular,
    HypothesisModel,
    Lhv,
    NdvNonlocal,
    Ordering,
    QMFormal,
    deterministic_sign_model,
    malus_response_model,
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


class ConfigError(ValueError):
    """A scenario was configured with an invalid or unknown field."""


MODEL_NAMES = ("qm", "lhv-sign", "lhv-malus", "definite-circular", "ndv-nonlocal")

ORDERING_NAMES = {
    "arm1-first": Ordering.ARM1_FIRST,
    "arm2-first": Ordering.ARM2_FIRST,
    "random": Ordering.RANDOM_PER_TRIAL,
}

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


def build_model(name: str) -> HypothesisModel:
    if name == "qm":
        return QMFormal()
    if name == "lhv-sign":
        return Lhv(deterministic_sign_model())
    if name == "lhv-malus":
        return Lhv(malus_response_model())
    if name == "definite-circular":
        return DefiniteCircular()
    if name == "ndv-nonlocal":
        return NdvNonlocal()
    raise ConfigError(f"model: unknown model {name!r} (choose from {', '.join(MODEL_NAMES)})")


def _resolve_ordering(name: str) -> Ordering:
    try:
        return ORDERING_NAMES[name]
    except (KeyError, TypeError):
        raise ConfigError(
            f"ordering: unknown ordering {name!r} (choose from {', '.join(ORDERING_NAMES)})"
        ) from None


def _check_positive_int(key: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{key}: must be a positive integer, got {value!r}")
    return value


def _check_trials(trials: int, runs: int) -> int:
    """`trials` per run, for a scenario of `runs` runs on consecutive trial
    ranges of one seed: together they must fit in its 2**64 trial indices."""
    trials = _check_positive_int("trials", trials)
    if runs * trials > kernels.SEED_LIMIT:
        raise ConfigError(
            f"trials: {runs} runs of {trials} trials leave the 2**64 trial indices of a seed"
        )
    return trials


def _check_workers(workers: int | None) -> int:
    """Explicit `workers`, else the environment's cap (a bad cap is a
    config error too), else the CPU-based default."""
    if workers is not None:
        return _check_positive_int("workers", workers)
    try:
        return resolve_workers()
    except ValueError as exc:
        raise ConfigError(f"workers: {exc}") from None


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed: must be an integer, got {seed!r}")
    if not 0 <= seed < kernels.SEED_LIMIT:
        raise ConfigError(f"seed: must be in [0, 2**64), got {seed!r}")
    return seed


def _check_real(key: str, value, minimum: float | None = None) -> float:
    """`value` as a finite float; bools and non-numbers are config errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{key}: must be at least {minimum}, got {value!r}")
    return number


def _check_angles(angles_deg, expected: int | None) -> tuple[float, ...]:
    if not isinstance(angles_deg, (list, tuple)):
        raise ConfigError(f"angles_deg: must be a list of numbers, got {angles_deg!r}")
    if expected is not None and len(angles_deg) != expected:
        raise ConfigError(f"angles_deg: expected {expected} angles, got {len(angles_deg)}")
    if len(angles_deg) < 1:
        raise ConfigError("angles_deg: need at least one angle")
    return tuple(_check_real("angles_deg", x) for x in angles_deg)


def _engine_meta(trials_total: int, wall_time_s: float, workers: int) -> dict:
    return {
        "version": __version__,
        "rng_stream": kernels.RNG_STREAM,
        "workers": workers,
        "trials_total": trials_total,
        "wall_time_s": round(wall_time_s, 6),
    }


def _angle_row(prefix: str, degrees: float) -> dict:
    return {f"{prefix}_deg": degrees, f"{prefix}_rad": math.radians(degrees)}


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


def _pair_estimates(
    hypothesis: HypothesisModel, settings, trials: int, seed: int, workers, offset: int = 0
) -> list[PairEstimate]:
    """One two-channel run of `trials` per (a_deg, b_deg, ordering) in
    `settings`, on consecutive disjoint trial ranges from `offset`.

    Disjoint ranges of one seed draw independent streams, so the estimates
    carry no covariance.
    """
    estimates = []
    for j, (a_deg, b_deg, order) in enumerate(settings):
        a, b = math.radians(a_deg), math.radians(b_deg)
        config = RunConfig(
            model=hypothesis, trials=trials, settings=FixedSettings(a, b),
            ordering=order, seed=seed,
        )
        run = run_experiment(
            config, TwoChannelProtocol(), start_index=offset + j * trials, workers=workers
        )
        estimates.append(PairEstimate.from_counts(a, b, run.counts_for_pair(0)))
    return estimates


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
    hypothesis = build_model(model)
    angles = _check_angles(angles_deg, 4)
    trials = _check_trials(trials, 4)
    seed = _check_seed(seed)
    order = _resolve_ordering(ordering)
    k_sigma = _check_real("k_sigma", k_sigma, minimum=0.0)
    workers = _check_workers(workers)
    pairs = _chsh_pairs(angles)
    started = time.perf_counter()
    estimates = _pair_estimates(
        hypothesis, [(a, b, order) for a, b in pairs], trials, seed, workers
    )
    rows = [
        {**_angle_row("a", a), **_angle_row("b", b), **_count_row(estimate)}
        for (a, b), estimate in zip(pairs, estimates)
    ]
    report = chsh_report(*estimates, k_sigma=k_sigma)
    wall = time.perf_counter() - started
    return {
        "scenario": "chsh-scan",
        "config": {
            "scenario": "chsh-scan",
            "model": model,
            "angles_deg": list(angles),
            "trials": trials,
            "seed": seed,
            "ordering": ordering,
            "k_sigma": k_sigma,
        },
        "rows": rows,
        "summary": {
            "S": report.s,
            "S_stderr": report.s_stderr,
            "k_sigma": k_sigma,
            "violates_classical": report.violates_classical,
            "within_tsirelson": report.within_tsirelson,
        },
        "engine": _engine_meta(4 * trials, wall, workers),
    }


def malus_check(
    angles_deg=DEFAULT_MALUS_ANGLES_DEG,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> dict:
    """Single-photon transmission curve against the cos^2 law."""
    angles = _check_angles(angles_deg, None)
    trials = _check_trials(trials, len(angles))
    seed = _check_seed(seed)
    workers = _check_workers(workers)
    started = time.perf_counter()
    rows = []
    max_dev_sigma = 0.0
    for j, theta_deg in enumerate(angles):
        theta = math.radians(theta_deg)
        run = run_malus(seed, theta, trials, start_index=j * trials, workers=workers)
        p_emp = run.n_pass / run.n_total
        p_model = math.cos(theta) ** 2
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
    wall = time.perf_counter() - started
    return {
        "scenario": "malus-check",
        "config": {
            "scenario": "malus-check",
            "angles_deg": list(angles),
            "trials": trials,
            "seed": seed,
        },
        "rows": rows,
        "summary": {"max_deviation_sigma": max_dev_sigma},
        "engine": _engine_meta(len(angles) * trials, wall, workers),
    }


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
    hypothesis = build_model(model)
    trials = _check_trials(trials, 1)
    seed = _check_seed(seed)
    order = _resolve_ordering(ordering)
    workers = _check_workers(workers)
    started = time.perf_counter()
    config = RunConfig(model=hypothesis, trials=trials, ordering=order, seed=seed)
    run = run_experiment(config, QwpChainProtocol(), workers=workers)
    counts = run.chain_counts()
    p_cond, p_stderr = _conditional_detection(counts)
    wall = time.perf_counter() - started
    return {
        "scenario": "qwp-test",
        "config": {
            "scenario": "qwp-test",
            "model": model,
            "trials": trials,
            "seed": seed,
            "ordering": ordering,
        },
        "rows": [
            {
                "model": model,
                "n_det_a": counts.n_det_a,
                "n_det_b": counts.n_det_b,
                "n_det_both": counts.n_det_both,
                "n_total": counts.n_total,
                "p_b_given_a": p_cond,
                "p_b_given_a_stderr": p_stderr,
            }
        ],
        "summary": {
            "p_b_given_a": p_cond,
            "p_b_given_a_stderr": p_stderr,
            "p_det_a": counts.n_det_a / counts.n_total,
        },
        "engine": _engine_meta(trials, wall, workers),
    }


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
    hypothesis = build_model(model)
    trials = _check_trials(trials, 2)
    if trials < MIN_ORDER_TEST_TRIALS:
        raise ConfigError(
            f"trials: the order test needs at least {MIN_ORDER_TEST_TRIALS} trials per ordering"
        )
    seed = _check_seed(seed)
    theta_deg = _check_real("theta_deg", theta_deg)
    workers = _check_workers(workers)
    orders = (Ordering.ARM1_FIRST, Ordering.ARM2_FIRST)
    started = time.perf_counter()
    estimates = _pair_estimates(
        hypothesis, [(0.0, theta_deg, order) for order in orders], trials, seed, workers
    )
    rows = [
        {"ordering": order.value, **_angle_row("theta", theta_deg), **_count_row(estimate)}
        for order, estimate in zip(orders, estimates)
    ]
    result = order_invariance_test(*(estimate.counts for estimate in estimates))
    wall = time.perf_counter() - started
    return {
        "scenario": "order-test",
        "config": {
            "scenario": "order-test",
            "model": model,
            "theta_deg": theta_deg,
            "trials": trials,
            "seed": seed,
        },
        "rows": rows,
        "summary": {
            "chi_square": result.chi_square,
            "p_value": result.p_value,
            "degrees_of_freedom": result.degrees_of_freedom,
            "order_invariant": result.consistent,
        },
        "engine": _engine_meta(2 * trials, wall, workers),
    }


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
    # Per model: the four CHSH pairs, then the chain run.
    trials = _check_trials(trials, 5 * len(MATRIX_MODELS))
    seed = _check_seed(seed)
    k_sigma = _check_real("k_sigma", k_sigma, minimum=0.0)
    workers = _check_workers(workers)
    started = time.perf_counter()
    rows = []
    offset = 0
    angles = DEFAULT_CHSH_ANGLES_DEG
    settings = [(a, b, Ordering.ARM1_FIRST) for a, b in _chsh_pairs(angles)]
    for name in MATRIX_MODELS:
        hypothesis = build_model(name)
        estimates = _pair_estimates(hypothesis, settings, trials, seed, workers, offset)
        offset += len(settings) * trials
        report = chsh_report(*estimates, k_sigma=k_sigma)
        chain_config = RunConfig(model=hypothesis, trials=trials, seed=seed)
        chain_run = run_experiment(
            chain_config, QwpChainProtocol(), start_index=offset, workers=workers
        )
        offset += trials
        p_cond, p_stderr = _conditional_detection(chain_run.chain_counts())
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
    wall = time.perf_counter() - started
    return {
        "scenario": "model-matrix",
        "config": {
            "scenario": "model-matrix",
            "trials": trials,
            "seed": seed,
            "k_sigma": k_sigma,
        },
        "rows": rows,
        "summary": {
            "chsh_angles_deg": list(angles),
            "ideal_quantum_S": 2.0 * math.sqrt(2.0),
            "note": APPARATUS_NOTE,
        },
        "engine": _engine_meta(offset, wall, workers),
    }


SCENARIOS = {
    "chsh-scan": chsh_scan,
    "malus-check": malus_check,
    "qwp-test": qwp_test,
    "order-test": order_test,
    "model-matrix": model_matrix,
}
