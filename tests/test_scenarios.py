import math

import pytest

from eprsim import engine, scenarios
from eprsim.engine import MAX_WORKERS, FixedSettings, RunConfig, TwoChannelProtocol, run_experiment
from eprsim.models import (
    deterministic_sign_model,
    lhv_correlation,
    malus_response_model,
)
from eprsim.scenarios import SCENARIOS, ConfigError, build_model, chsh_scan, model_matrix, qwp_test
from eprsim.stats import estimate_correlation
from eprsim.twophoton import joint_probabilities, linear_entangled


class TestEstimatorConsistency:
    """The empirical correlation closes in on its oracle as trials grow: at
    each size it lies within 4 of its own standard errors of the oracle, and
    that error shrinks as 1/sqrt(n), so the 1e6-trial estimate must meet a
    band a tenth as wide as the 1e4-trial one. No comparison of two single
    deviations decides the test."""

    SIZES = (10_000, 100_000, 1_000_000)

    def _check_convergence(self, model_name, oracle_e, a, b, seed):
        model = build_model(model_name)
        stderrs = []
        offset = 0
        for n in self.SIZES:
            cfg = RunConfig(model=model, trials=n, settings=FixedSettings(a, b), seed=seed)
            run = run_experiment(cfg, TwoChannelProtocol(), start_index=offset)
            offset += n
            e, stderr = estimate_correlation(run.counts_for_pair(0))
            assert abs(e - oracle_e) <= 4 * math.sqrt((1 - oracle_e**2)) / math.sqrt(n)
            assert abs(e - oracle_e) <= 4 * stderr
            stderrs.append(stderr)
        shrink = math.sqrt(self.SIZES[-1] / self.SIZES[0])
        assert stderrs[0] / stderrs[-1] == pytest.approx(shrink, rel=0.05)

    def test_qm_converges_to_the_closed_form(self):
        a, b = 0.0, math.pi / 8
        oracle_e = joint_probabilities(linear_entangled(), a, b).correlation()
        assert oracle_e == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        self._check_convergence("qm", oracle_e, a, b, seed=44)

    def test_sign_model_converges_to_its_quadrature(self):
        a, b = 0.2, 1.3
        oracle_e = lhv_correlation(deterministic_sign_model(), a, b)
        self._check_convergence("lhv-sign", oracle_e, a, b, seed=42)

    def test_malus_model_converges_to_its_quadrature(self):
        a, b = 0.9, 0.1
        oracle_e = lhv_correlation(malus_response_model(), a, b)
        self._check_convergence("lhv-malus", oracle_e, a, b, seed=45)


class TestScenarioPredictions:
    def test_definite_circular_chsh_vanishes(self):
        doc = chsh_scan(model="definite-circular", trials=200_000, seed=21)
        assert abs(doc["summary"]["S"]) <= 3 * doc["summary"]["S_stderr"] + 0.001
        assert not doc["summary"]["violates_classical"]

    def test_malus_response_model_caps_at_sqrt2(self):
        doc = chsh_scan(model="lhv-malus", trials=200_000, seed=22)
        assert doc["summary"]["S"] == pytest.approx(math.sqrt(2.0), abs=0.02)

    def test_no_model_breaks_the_quantum_ceiling(self):
        doc = model_matrix(trials=100_000, seed=23)
        assert all(row["within_tsirelson"] for row in doc["rows"])

    def test_qwp_marginal_detection_is_half_for_every_model(self):
        for name in ("qm", "ndv-nonlocal", "definite-circular", "lhv-sign"):
            doc = qwp_test(model=name, trials=100_000, seed=24)
            assert doc["summary"]["p_det_a"] == pytest.approx(0.5, abs=0.01), name

    def test_matrix_reports_the_discrimination(self):
        doc = model_matrix(trials=100_000, seed=25)
        by_model = {row["model"]: row for row in doc["rows"]}
        assert by_model["qm"]["p_b_given_a"] == 1.0
        assert by_model["definite-circular"]["p_b_given_a"] == 1.0
        assert by_model["ndv-nonlocal"]["p_b_given_a"] == pytest.approx(0.5, abs=0.01)
        assert by_model["qm"]["violates_classical"]
        assert not by_model["lhv-sign"]["violates_classical"]

    def test_ordering_is_echoed_never_averaged(self):
        doc = qwp_test(model="ndv-nonlocal", trials=100_000, seed=26, ordering="arm2-first")
        assert doc["config"]["ordering"] == "arm2-first"


class TestSeedBoundary:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_a_config_error(self, name, seed):
        with pytest.raises(ConfigError) as info:
            SCENARIOS[name](trials=10_000, seed=seed)
        message = str(info.value)
        assert message.startswith("seed:")
        assert "\n" not in message


class TestOneCheckPerParameter:
    def test_workers_above_the_cap_name_workers(self):
        # resolution only: nothing here starts a thread
        check = scenarios._CHECKS["workers"]
        assert check("workers", MAX_WORKERS) == MAX_WORKERS
        with pytest.raises(ConfigError, match=rf"^workers: must be in \[1, {MAX_WORKERS}\]"):
            check("workers", MAX_WORKERS + 1)

    @pytest.mark.parametrize(
        "key,value",
        [("trials", 0), ("trials", 2**64 + 1), ("trials", 1.5), ("trials", True),
         ("seed", -1), ("seed", 2**64), ("seed", 1.5), ("seed", "3"),
         ("workers", 0), ("workers", MAX_WORKERS + 1), ("workers", 2.0), ("workers", False)],
    )
    def test_engine_values_are_checked_by_the_engines_rule(self, key, value):
        # the scenario check and the engine raise the same message, so the
        # rule is not restated here
        engine_calls = {
            "trials": lambda: RunConfig(model=build_model("qm"), trials=value),
            "seed": lambda: RunConfig(model=build_model("qm"), trials=1, seed=value),
            "workers": lambda: run_experiment(
                RunConfig(model=build_model("qm"), trials=1), workers=value
            ),
        }
        with pytest.raises(ConfigError) as from_engine:
            engine_calls[key]()
        with pytest.raises(ConfigError) as from_scenarios:
            scenarios._CHECKS[key](key, value)
        assert str(from_scenarios.value) == str(from_engine.value)
        assert str(from_engine.value).startswith(f"{key}: ")

    def test_runs_take_consecutive_ranges_from_zero(self):
        starts = []

        def make(j):
            def run(start_index):
                starts.append(start_index)
                return j

            return run

        ranges = scenarios._run_ranges([make(j) for j in range(3)], 7)
        assert starts == [0, 7, 14]
        assert ranges.results == [0, 1, 2]
        assert ranges.trials_total == 21

    def test_index_space_is_checked_before_any_run(self):
        def run(start_index):
            raise AssertionError("ran")

        with pytest.raises(ConfigError, match="^trials: 3 runs of"):
            scenarios._run_ranges([run] * 3, 2**64 // 3 + 1)
        assert scenarios._run_ranges([lambda start_index: start_index], 2**64).trials_total == 2**64
