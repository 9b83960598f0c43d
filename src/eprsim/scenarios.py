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
    except KeyError:
        raise ConfigError(
            f"ordering: unknown ordering {name!r} (choose from {', '.join(ORDERING_NAMES)})"
        ) from None


def _check_trials(trials: int) -> int:
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ConfigError(f"trials: must be a positive integer, got {trials!r}")
    return trials


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed: must be an integer, got {seed!r}")
    if not 0 <= seed < kernels.SEED_LIMIT:
        raise ConfigError(f"seed: must be in [0, 2**64), got {seed!r}")
    return seed


def _check_angles(angles_deg, expected: int | None) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in angles_deg)
    except (TypeError, ValueError):
        raise ConfigError(f"angles_deg: must be a list of numbers, got {angles_deg!r}") from None
    if expected is not None and len(values) != expected:
        raise ConfigError(f"angles_deg: expected {expected} angles, got {len(values)}")
    if len(values) < 1:
        raise ConfigError("angles_deg: need at least one angle")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("angles_deg: angles must be finite")
    return values


def _engine_meta(trials_total: int, wall_time_s: float, workers: int | None) -> dict:
    return {
        "version": __version__,
        "rng_stream": kernels.RNG_STREAM,
        "workers": resolve_workers(workers),
        "trials_total": trials_total,
        "wall_time_s": round(wall_time_s, 6),
    }


def _angle_row(prefix: str, degrees: float) -> dict:
    return {f"{prefix}_deg": degrees, f"{prefix}_rad": math.radians(degrees)}


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
    a_deg, b_deg, a2_deg, b2_deg = _check_angles(angles_deg, 4)
    trials = _check_trials(trials)
    seed = _check_seed(seed)
    order = _resolve_ordering(ordering)
    pair_angles_deg = [(a_deg, b_deg), (a_deg, b2_deg), (a2_deg, b_deg), (a2_deg, b2_deg)]
    started = time.perf_counter()
    estimates = []
    rows = []
    for j, (pa_deg, pb_deg) in enumerate(pair_angles_deg):
        pa, pb = math.radians(pa_deg), math.radians(pb_deg)
        config = RunConfig(
            model=hypothesis, trials=trials, settings=FixedSettings(pa, pb),
            ordering=order, seed=seed,
        )
        # Disjoint trial-index blocks per pair: independent streams, so the
        # four correlation estimates carry no covariance.
        run = run_experiment(config, TwoChannelProtocol(), start_index=j * trials, workers=workers)
        counts = run.counts_for_pair(0)
        estimate = PairEstimate.from_counts(pa, pb, counts)
        estimates.append(estimate)
        rows.append(
            {
                **_angle_row("a", pa_deg),
                **_angle_row("b", pb_deg),
                "N_pp": counts.n_pp,
                "N_pm": counts.n_pm,
                "N_mp": counts.n_mp,
                "N_mm": counts.n_mm,
                "E": estimate.e,
                "E_stderr": estimate.e_stderr,
            }
        )
    report = chsh_report(*estimates, k_sigma=k_sigma)
    wall = time.perf_counter() - started
    return {
        "scenario": "chsh-scan",
        "config": {
            "scenario": "chsh-scan",
            "model": model,
            "angles_deg": [a_deg, b_deg, a2_deg, b2_deg],
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
    trials = _check_trials(trials)
    seed = _check_seed(seed)
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
    trials = _check_trials(trials)
    seed = _check_seed(seed)
    order = _resolve_ordering(ordering)
    started = time.perf_counter()
    config = RunConfig(model=hypothesis, trials=trials, ordering=order, seed=seed)
    run = run_experiment(config, QwpChainProtocol(), workers=workers)
    counts = run.chain_counts()
    p_cond, p_stderr = conditional_detection(counts)
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
    trials = _check_trials(trials)
    if trials < MIN_ORDER_TEST_TRIALS:
        raise ConfigError(
            f"trials: the order test needs at least {MIN_ORDER_TEST_TRIALS} trials per ordering"
        )
    seed = _check_seed(seed)
    try:
        theta = math.radians(float(theta_deg))
    except (TypeError, ValueError):
        raise ConfigError(f"theta_deg: must be a number, got {theta_deg!r}") from None
    started = time.perf_counter()
    settings = FixedSettings(0.0, theta)
    rows = []
    counts_by_order = []
    for j, order in enumerate((Ordering.ARM1_FIRST, Ordering.ARM2_FIRST)):
        config = RunConfig(
            model=hypothesis, trials=trials, settings=settings, ordering=order, seed=seed
        )
        run = run_experiment(config, TwoChannelProtocol(), start_index=j * trials, workers=workers)
        counts = run.counts_for_pair(0)
        counts_by_order.append(counts)
        estimate = PairEstimate.from_counts(0.0, theta, counts)
        rows.append(
            {
                "ordering": order.value,
                **_angle_row("theta", float(theta_deg)),
                "N_pp": counts.n_pp,
                "N_pm": counts.n_pm,
                "N_mp": counts.n_mp,
                "N_mm": counts.n_mm,
                "E": estimate.e,
                "E_stderr": estimate.e_stderr,
            }
        )
    result = order_invariance_test(*counts_by_order)
    wall = time.perf_counter() - started
    return {
        "scenario": "order-test",
        "config": {
            "scenario": "order-test",
            "model": model,
            "theta_deg": float(theta_deg),
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
    trials = _check_trials(trials)
    seed = _check_seed(seed)
    started = time.perf_counter()
    rows = []
    offset = 0
    angles = DEFAULT_CHSH_ANGLES_DEG
    for name in MATRIX_MODELS:
        hypothesis = build_model(name)
        estimates = []
        a_deg, b_deg, a2_deg, b2_deg = angles
        for pa_deg, pb_deg in (
            (a_deg, b_deg), (a_deg, b2_deg), (a2_deg, b_deg), (a2_deg, b2_deg)
        ):
            pa, pb = math.radians(pa_deg), math.radians(pb_deg)
            config = RunConfig(
                model=hypothesis, trials=trials, settings=FixedSettings(pa, pb), seed=seed
            )
            run = run_experiment(
                config, TwoChannelProtocol(), start_index=offset, workers=workers
            )
            offset += trials
            estimates.append(PairEstimate.from_counts(pa, pb, run.counts_for_pair(0)))
        report = chsh_report(*estimates, k_sigma=k_sigma)
        chain_config = RunConfig(model=hypothesis, trials=trials, seed=seed)
        chain_run = run_experiment(
            chain_config, QwpChainProtocol(), start_index=offset, workers=workers
        )
        offset += trials
        p_cond, p_stderr = conditional_detection(chain_run.chain_counts())
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
