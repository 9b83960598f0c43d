import contextlib
import io
import json
import math
import os
import platform
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eprsim
from eprsim.cli import FORMATS, SCENARIO_PARAMS, main, render_json, render_table, render_tsv
from eprsim.kernels import RNG_STREAM, backend
from eprsim.scenarios import MODEL_NAMES, ORDERING_NAMES, SCENARIOS, chsh_scan
from eprsim.stats import MIN_ORDER_TEST_TRIALS

TRIALS = "20000"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_chsh_scan_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--model", "qm", "--trials", TRIALS, "--seed", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "chsh-scan"
        assert len(doc["rows"]) == 4
        assert doc["summary"]["S"] == pytest.approx(2 * math.sqrt(2), abs=0.1)

    def test_malus_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "malus-check", "--angles", "0", "45", "90", "--trials", TRIALS,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["theta_deg"] for row in doc["rows"]] == [0.0, 45.0, 90.0]
        assert doc["rows"][0]["p_emp"] == 1.0
        assert doc["rows"][2]["p_emp"] == 0.0

    def test_qwp_test(self, capsys):
        code, out, _ = run_cli(
            capsys, "qwp-test", "--model", "definite-circular", "--trials", TRIALS,
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["summary"]["p_b_given_a"] == 1.0

    def test_order_test(self, capsys):
        code, out, _ = run_cli(
            capsys, "order-test", "--model", "qm", "--theta", "30", "--trials", TRIALS,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["order_invariant"] is True

    def test_model_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys, "model-matrix", "--trials", TRIALS, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [row["model"] for row in doc["rows"]] == [
            "qm", "ndv-nonlocal", "definite-circular", "lhv-sign",
        ]
        assert "2.697" in doc["summary"]["note"]

    def test_engine_block_names_the_rng_stream(self, capsys):
        code, out, _ = run_cli(capsys, "qwp-test", "--trials", "100", "--format", "json")
        assert code == 0
        assert json.loads(out)["engine"]["rng_stream"] == RNG_STREAM
        code, out, _ = run_cli(capsys, "qwp-test", "--trials", "100")
        assert f"rng {RNG_STREAM}" in out

    def test_engine_block_names_its_toolchain(self, capsys):
        code, out, _ = run_cli(capsys, "qwp-test", "--trials", "100", "--format", "json")
        assert code == 0
        engine = json.loads(out)["engine"]
        # the versions as strings, as the modules themselves report them
        assert {key: engine[key] for key in ("backend", "numpy", "python")} == {
            "backend": backend(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        }

    def test_angles_echoed_in_both_units(self, capsys):
        _, out, _ = run_cli(
            capsys, "chsh-scan", "--trials", TRIALS, "--format", "json",
        )
        row = json.loads(out)["rows"][0]
        assert row["b_rad"] == pytest.approx(math.radians(row["b_deg"]))


class TestErrors:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "chsh-scan", "--frobnicate")
        assert code == 1
        assert "config error" in err

    def test_bad_model_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "chsh-scan", "--model", "pilot-wave")
        assert code == 1
        assert "--model" in err or "model" in err

    def test_zero_trials_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "chsh-scan", "--trials", "0")
        assert code == 1
        assert "trials" in err

    def test_unknown_config_field_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"detector_efficiency": 0.8}))
        code, _, err = run_cli(capsys, "chsh-scan", "--config", str(cfg))
        assert code == 1
        assert "detector_efficiency" in err

    def test_scenario_mismatch_in_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "qwp-test"}))
        code, _, err = run_cli(capsys, "chsh-scan", "--config", str(cfg))
        assert code == 1
        assert "scenario" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_1(self, capsys, seed):
        code, out, err = run_cli(capsys, "qwp-test", "--trials", "100", "--seed", seed)
        assert code == 1
        assert out == ""
        assert err.startswith("epr: config error: seed:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "qwp-test", "--trials", "100", "--seed", str(2**64 - 1), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 2**64 - 1

    def test_order_test_minimum_trials_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "order-test", "--trials", "9999")
        assert code == 1
        assert err.startswith("epr: config error: trials:")
        assert f"{MIN_ORDER_TEST_TRIALS}" in err

    def test_missing_scenario_exits_1(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_invariant_violation_exits_2(self, capsys, monkeypatch):
        from eprsim import cli
        from eprsim.polarization import NormalizationError

        def broken(**kwargs):
            raise NormalizationError("state norm 0.9 is not 1")

        monkeypatch.setitem(cli.SCENARIOS, "qwp-test", broken)
        code, _, err = run_cli(capsys, "qwp-test", "--trials", TRIALS)
        assert code == 2
        assert "invariant" in err


    def test_other_value_error_is_an_internal_fault(self, capsys, monkeypatch):
        from eprsim import cli

        def broken(**kwargs):
            raise ValueError("pair counts do not sum to the trials")

        monkeypatch.setitem(cli.SCENARIOS, "chsh-scan", broken)
        code, out, err = run_cli(capsys, "chsh-scan", "--trials", TRIALS)
        assert code == 2
        assert out == ""
        assert err == "epr: internal invariant violation: pair counts do not sum to the trials\n"

    def test_a_worker_that_dies_exits_2_in_one_line(self, capsys, monkeypatch):
        # a forked worker killed before it sends its counts (by the
        # out-of-memory killer, say) ends the run in one line, not a traceback
        from eprsim import engine

        monkeypatch.setattr(engine.Schedule, "_send", lambda self, run, work: os._exit(1))
        trials = str(2 * engine._TRIALS_PER_PROCESS)  # two processes
        code, out, err = run_cli(capsys, "chsh-scan", "--trials", trials, "--workers", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("epr: worker process ") and len(err.splitlines()) == 1, err
        assert err.endswith(" ended without a result\n"), err


def assert_one_line_config_error(code, out, err, key):
    assert code == 1
    assert out == ""
    assert err.startswith(f"epr: config error: {key}:"), err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestBoundary:
    @pytest.mark.parametrize("scenario", ["chsh-scan", "model-matrix"])
    @pytest.mark.parametrize("value", ["nan", "-5", "inf"])
    def test_bad_k_sigma_flag_exits_1(self, capsys, scenario, value):
        code, out, err = run_cli(capsys, scenario, "--trials", "100", f"--k-sigma={value}")
        assert_one_line_config_error(code, out, err, "k_sigma")

    def test_zero_k_sigma_runs(self, capsys):
        code, out, _ = run_cli(capsys, "chsh-scan", "--trials", "100", "--k-sigma", "0")
        assert code == 0

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"workers": "2"}, "workers"),
            ({"workers": 0}, "workers"),
            ({"workers": True}, "workers"),
            ({"workers": 1.5}, "workers"),
            ({"k_sigma": "x"}, "k_sigma"),
            ({"k_sigma": True}, "k_sigma"),
            ({"k_sigma": 10**400}, "k_sigma"),
            ({"angles_deg": "0 22.5 45 67.5"}, "angles_deg"),
            ({"angles_deg": [0, 22.5, 45, "x"]}, "angles_deg"),
            ({"ordering": ["random"]}, "ordering"),
        ],
    )
    def test_wrong_config_value_exits_1(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 100, **config}))
        code, out, err = run_cli(capsys, "chsh-scan", "--config", str(cfg))
        assert_one_line_config_error(code, out, err, key)

    def test_zero_workers_flag_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "qwp-test", "--trials", "100", "--workers", "0")
        assert_one_line_config_error(code, out, err, "workers")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_theta_names_theta_deg(self, capsys, value):
        code, out, err = run_cli(capsys, "order-test", f"--theta={value}")
        assert_one_line_config_error(code, out, err, "theta_deg")

    @pytest.mark.parametrize("text, value", [
        ("-1e3", -1000.0), ("-1E+3", -1000.0), ("-.5e1", -5.0), ("-2.5e-1", -0.25),
    ])
    def test_a_negative_number_in_exponent_form_is_a_value(self, capsys, text, value):
        code, out, err = run_cli(
            capsys, "chsh-scan", "--angles", "0", "22.5", text, "0",
            "--trials", "100", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["angles_deg"] == [0.0, 22.5, value, 0.0]
        code, out, err = run_cli(
            capsys, "order-test", "--theta", text, "--trials", TRIALS, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["theta_deg"] == value

    @pytest.mark.parametrize("text", ["-inf", "-Infinity", "-nan"])
    def test_a_negative_non_finite_value_names_its_key(self, capsys, text):
        code, out, err = run_cli(capsys, "order-test", "--theta", text)
        assert_one_line_config_error(code, out, err, "theta_deg")
        assert "must be finite" in err
        code, out, err = run_cli(capsys, "chsh-scan", "--angles", "0", text, "45", "67.5")
        assert_one_line_config_error(code, out, err, "angles_deg")
        assert "must be finite" in err

    def test_a_word_after_a_dash_is_still_a_flag(self, capsys):
        code, out, err = run_cli(capsys, "order-test", "--theta", "-x1")
        assert_one_line_config_error(code, out, err, "argument --theta")

    def test_huge_angles_act_modulo_180_degrees(self, capsys):
        # unreduced, 1e20 degrees is so large in radians that the kernels'
        # quarter turn is lost to rounding, and arm B answered parallel ~90%
        counts = {}
        for theta in (1e20, math.fmod(1e20, 180.0)):
            code, out, _ = run_cli(
                capsys, "order-test", "--model", "qm", "--theta", repr(theta),
                "--trials", "100000", "--format", "json",
            )
            assert code == 0
            document = json.loads(out)
            assert document["config"]["theta_deg"] == theta  # echoed as given
            counts[theta] = [{k: v for k, v in row.items() if k != "theta_deg"}
                             for row in document["rows"]]
            assert document["summary"]["order_invariant"] is True
        assert counts[1e20] == counts[math.fmod(1e20, 180.0)]
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--angles", "0", "1e20", "45", "67.5",
            "--trials", "20000", "--format", "json",
        )
        rows = json.loads(out)["rows"]
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--angles", "0", "100", "45", "67.5",
            "--trials", "20000", "--format", "json",
        )
        strip = lambda rows: [{k: v for k, v in r.items() if k != "b_deg"} for r in rows]
        assert strip(rows) == strip(json.loads(out)["rows"])

    def test_one_trial_per_pair_claims_no_violation(self, capsys):
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--trials", "1", "--model", "lhv-sign", "--format", "json"
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["S_stderr"] == 0.0
        assert summary["violates_classical"] is False

    @pytest.mark.parametrize(
        "scenario, runs", [("chsh-scan", 4), ("qwp-test", 1), ("order-test", 2),
                           ("malus-check", 7), ("model-matrix", 20)],
    )
    def test_trials_past_the_seeds_indices_name_trials(self, capsys, scenario, runs):
        # checked before anything runs
        trials = 2**64 // runs + 1
        code, out, err = run_cli(capsys, scenario, "--trials", str(trials))
        assert_one_line_config_error(code, out, err, "trials")

    def test_too_few_trials_to_condition_names_trials(self, capsys):
        # one trial leaves some model of the matrix without an arm-A detection
        code, out, err = run_cli(capsys, "model-matrix", "--trials", "1")
        assert_one_line_config_error(code, out, err, "trials")

    @pytest.fixture
    def no_run(self, monkeypatch):
        """Fail the test if the scenario runs: a bad output costs no compute."""
        from eprsim import cli

        def ran(**kwargs):
            raise AssertionError("the scenario ran before its output was opened")

        monkeypatch.setitem(cli.SCENARIOS, "qwp-test", ran)

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "trailing-slash"])
    def test_unwritable_out_path_exits_1_before_the_run(self, tmp_path, capsys, no_run, where):
        path = {
            "missing-dir": str(tmp_path / "missing" / "x.tsv"),
            "directory": str(tmp_path),
            "trailing-slash": str(tmp_path / "x") + os.sep,
        }[where]
        code, out, err = run_cli(capsys, "qwp-test", "--trials", "100", "--out", path)
        assert_one_line_config_error(code, out, err, "out")
        assert "cannot write" in err
        assert not os.path.exists(tmp_path / "x")

    def test_closed_stdout_exits_1_before_the_run(self):
        # fd 1 closed, as `epr ... >&-` leaves it: at this trial count only
        # a run that never started can end within the timeout
        import signal

        src = os.path.dirname(os.path.dirname(os.path.abspath(eprsim.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "eprsim.cli", "chsh-scan", "--trials", str(10**15)],
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=lambda: os.close(1),
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        assert child.returncode == 1
        assert err == "epr: config error: out: cannot write to standard output: it is closed\n"

    def test_failed_run_leaves_the_previous_output(self, tmp_path, capsys):
        # one trial is too few for the matrix: the run fails after it started
        path = tmp_path / "result.tsv"
        path.write_bytes(b"previous result\n")
        code, out, err = run_cli(capsys, "model-matrix", "--trials", "1", "--out", str(path))
        assert_one_line_config_error(code, out, err, "trials")
        assert path.read_bytes() == b"previous result\n"
        assert os.listdir(tmp_path) == ["result.tsv"]

    def test_output_replaces_the_previous_file_and_keeps_its_mode(self, tmp_path, capsys):
        path = tmp_path / "result.tsv"
        path.write_bytes(b"previous result\n")
        os.chmod(path, 0o640)
        code, _, _ = run_cli(capsys, "qwp-test", "--trials", "100", "--format", "tsv",
                             "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("# scenario: qwp-test")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert os.listdir(tmp_path) == ["result.tsv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_that_is_not_a_regular_file_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_cli(capsys, "qwp-test", "--trials", "100", "--format", "tsv",
                                 "--out", str(fifo))
            written = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert written.startswith(b"# scenario: qwp-test")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    # Never 1 or 2: an int path is a file descriptor to open().
    @pytest.mark.parametrize(
        "value", [12345, True, 1.5, ["x.tsv"]], ids=["int", "true", "float", "list"]
    )
    def test_out_that_is_not_a_path_exits_1(self, tmp_path, capsys, no_run, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 100, "out": value}))
        code, out, err = run_cli(capsys, "qwp-test", "--config", str(cfg))
        assert_one_line_config_error(code, out, err, "out")

    @pytest.mark.parametrize("value", [False, 0, "", {}, []], ids=repr)
    def test_falsy_format_in_config_exits_1(self, tmp_path, capsys, no_run, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 100, "format": value}))
        code, out, err = run_cli(capsys, "qwp-test", "--config", str(cfg))
        assert_one_line_config_error(code, out, err, "format")
        assert "unknown format" in err

    def test_null_format_in_config_means_table(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 100, "format": None}))
        code, out, _ = run_cli(capsys, "qwp-test", "--config", str(cfg))
        assert code == 0
        assert out.startswith("scenario: qwp-test")
        assert "format=table" in out

    def test_duplicate_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 100, "trials": 200}')
        code, out, err = run_cli(capsys, "qwp-test", "--config", str(cfg))
        assert_one_line_config_error(code, out, err, "trials")


class TestSignatureDerivedCli:
    def test_params_follow_the_scenario_signatures(self):
        assert SCENARIO_PARAMS["chsh-scan"] == (
            "model", "angles_deg", "trials", "seed", "ordering", "k_sigma", "workers",
        )
        assert set(SCENARIO_PARAMS) == set(SCENARIOS)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_flags_exist_exactly_for_the_parameters(self, capsys, scenario):
        with pytest.raises(SystemExit):
            main([scenario, "--help"])
        usage = capsys.readouterr().out
        params = SCENARIO_PARAMS[scenario]
        for flag, param in (("--model", "model"), ("--ordering", "ordering"),
                            ("--k-sigma", "k_sigma"), ("--theta", "theta_deg")):
            assert (flag in usage) == (param in params), flag


class TestReadmeFlags:
    """README's "Command line" section, up to the next top-level heading,
    names every flag of `epr` and of each scenario, and no other."""

    @staticmethod
    def _parser_flags() -> set[str]:
        import argparse

        from eprsim.cli import build_parser

        parser = build_parser()
        parsers = [parser]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
        return {
            flag for p in parsers for action in p._actions for flag in action.option_strings
            if flag.startswith("--")
        }

    @staticmethod
    def _readme_flags() -> set[str]:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("\n## Command line\n")
        end = readme.index("\n## ", start + 1)
        return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme[start:end]))

    def test_every_flag_is_in_the_readme(self):
        assert self._parser_flags() - self._readme_flags() == set()

    def test_every_flag_the_readme_names_exists(self):
        assert self._readme_flags() - self._parser_flags() == set()


class TestReadmeReference:
    """README's "Command line" section names every config key and exit code,
    and every BENCH file and `eprsim` module README points to exists."""

    ROOT = Path(__file__).resolve().parents[1]

    def _readme(self) -> str:
        return (self.ROOT / "README.md").read_text()

    def _command_line(self) -> str:
        readme = self._readme()
        start = readme.index("\n## Command line\n")
        return readme[start : readme.index("\n## ", start + 1)]

    def test_every_config_key_is_named(self):
        keys = {key for params in SCENARIO_PARAMS.values() for key in params}
        keys |= {"scenario", "format", "out"}
        assert keys - set(re.findall(r"`([a-z_]+)`", self._command_line())) == set()

    def test_every_exit_code_is_named(self):
        codes = re.findall(r"^- `(\d+)`:", self._command_line(), re.MULTILINE)
        assert sorted(codes, key=int) == ["0", "1", "2", "130"]

    def test_every_cited_bench_file_exists(self):
        cited = set(re.findall(r"\bBENCH_\d+\.json", self._readme()))
        assert cited
        assert {name for name in cited if not (self.ROOT / name).is_file()} == set()

    def test_every_module_pointed_to_imports(self):
        import importlib

        modules = set(re.findall(r"\beprsim\.([a-z_][a-z0-9_]*)", self._readme()))
        assert "kernels" in modules and "engine" in modules
        for module in sorted(modules):
            importlib.import_module(f"eprsim.{module}")


# Values of arbitrary JSON type, mostly wrong for the key they land on.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.one_of(st.floats(), st.text(max_size=3), st.integers(-10, 10)), max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
_ANY_INT = st.integers(-(2**70), 2**70)
# Values a config file can carry. Trials and workers stay small, so every
# example runs in milliseconds and starts at most a handful of threads.
_CONFIG_VALUES = {
    "model": st.one_of(st.sampled_from(MODEL_NAMES), _JUNK, _ANY_INT),
    "angles_deg": st.one_of(
        st.lists(st.one_of(st.floats(), st.integers(-400, 400), _JUNK), max_size=6),
        _JUNK,
        _ANY_INT,
    ),
    "theta_deg": st.one_of(st.floats(), _ANY_INT, _JUNK),
    "trials": st.one_of(st.integers(-3, 12_000), _JUNK),
    "seed": st.one_of(_ANY_INT, _JUNK),
    "ordering": st.one_of(st.sampled_from(sorted(ORDERING_NAMES)), _JUNK, _ANY_INT),
    "k_sigma": st.one_of(st.floats(), _ANY_INT, _JUNK),
    "workers": st.one_of(st.integers(-2, 4), _JUNK),
    "scenario": _JUNK,
    "format": st.one_of(st.sampled_from(FORMATS), _JUNK, _ANY_INT),
    # A string is made a file name inside the test's temporary directory.
    # No int that could be an open file descriptor: open() takes one as such.
    "out": st.one_of(
        st.text(max_size=8), _JUNK, st.integers(max_value=-1), st.integers(min_value=2**31)
    ),
}


def _scenario_and_config(scenario):
    values = {key: _CONFIG_VALUES[key] for key in (*SCENARIO_PARAMS[scenario], "format", "out")}
    values["scenario"] = st.one_of(st.just(scenario), _CONFIG_VALUES["scenario"])
    config = st.fixed_dictionaries({}, optional=values)
    return st.tuples(st.just(scenario), config)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCENARIOS)).flatmap(_scenario_and_config))
def test_any_config_file_runs_or_names_its_key(case):
    scenario, config = case
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(config.get("out"), str):
            # The prefix names no directory, so a "/" in the text cannot
            # lead out of tmp: such a path does not exist.
            config = {**config, "out": os.path.join(tmp, "out-" + config["out"])}
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([scenario, "--config", path])
    message = err.getvalue()
    assert code in (0, 1)
    assert "Traceback" not in message
    if code == 0:
        assert message == ""
    else:
        assert len(message.splitlines()) == 1
        prefix = "epr: config error: "
        assert message.startswith(prefix)
        assert message[len(prefix):].split(":", 1)[0] in _CONFIG_VALUES, message


# Any JSON value, to fill objects and arrays in config files.
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
# Config files as bytes: arbitrary bytes, and JSON objects (with the keys
# chsh-scan takes, or any text) between arbitrary leading and trailing bytes.
# No "out" key: a run that succeeds would write where it names.
_CONFIG_BYTES = st.one_of(
    st.binary(max_size=64),
    st.tuples(
        st.binary(max_size=3),
        st.dictionaries(
            st.one_of(st.sampled_from(SCENARIO_PARAMS["chsh-scan"]), st.text(max_size=4)),
            _JSON,
            max_size=3,
        ).map(lambda d: json.dumps({k: v for k, v in d.items() if k != "out"}).encode()),
        st.binary(max_size=3),
    ).map(b"".join),
)


def _run_config_bytes(data: bytes) -> tuple[int, str]:
    """Exit code and stderr of a small chsh-scan run on a config file holding `data`."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("cfg.json", "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["chsh-scan", "--config", "cfg.json", "--trials", "100",
                         "--workers", "1"])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_CONFIG_BYTES)
def test_any_config_bytes_run_or_end_in_one_line(data):
    code, message = _run_config_bytes(data)
    assert code in (0, 1)
    assert "Traceback" not in message
    if code == 0:
        assert message == ""
    else:
        assert len(message.splitlines()) == 1, message
        assert message.startswith("epr: config error:")


@pytest.mark.parametrize(
    "data,names",
    [
        (b"\xff\xfe{}", "cfg.json is not valid JSON: 'utf-8' codec"),
        (b"[" * 100_000 + b"]" * 100_000, "cfg.json nests too deeply"),
        (b'{"trials": ' + b"1" * 5000 + b"}", "cfg.json is not valid JSON: Exceeds the limit"),
        (b'{"a\\nb": 1}', "'a\\nb': unknown config field"),
        (b'{"a\\u2028": 1, "a\\u2028": 2}', "'a\\u2028': given twice"),
    ],
    ids=["utf-16-bom", "deep-nesting", "huge-integer", "newline-key", "separator-key"],
)
def test_config_files_that_break_the_reader_are_config_errors(data, names):
    code, message = _run_config_bytes(data)
    assert code == 1
    assert len(message.splitlines()) == 1, message
    assert message.startswith("epr: config error: ")
    assert names in message
    assert "Traceback" not in message


class TestConfigPrecedence:
    def test_flag_overrides_file_overrides_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 25_000, "seed": 77}))
        code, out, _ = run_cli(
            capsys, "chsh-scan", "--config", str(cfg), "--seed", "78", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["trials"] == 25_000  # from file
        assert doc["config"]["seed"] == 78  # flag wins
        assert doc["config"]["ordering"] == "arm1-first"  # default

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_round_trip_reproduces_counts(self, tmp_path, capsys, scenario):
        trials = str(MIN_ORDER_TEST_TRIALS) if scenario == "order-test" else TRIALS
        code, out, _ = run_cli(
            capsys, scenario, "--trials", trials, "--seed", "9", "--format", "json",
        )
        assert code == 0
        doc1 = json.loads(out)
        # the echo is the checked parameters, in signature order, but workers
        params = [p for p in SCENARIO_PARAMS[scenario] if p != "workers"]
        assert list(doc1["config"]) == ["scenario", *params, "format", "out"]
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(doc1["config"]))
        code, out, _ = run_cli(capsys, scenario, "--config", str(cfg))
        assert code == 0
        doc2 = json.loads(out)
        assert doc1["rows"] == doc2["rows"]
        assert doc1["summary"] == doc2["summary"]


class TestFormats:
    @pytest.fixture
    def document(self):
        return chsh_scan(model="qm", trials=20_000, seed=2)

    def test_tsv_and_json_carry_identical_numbers(self, document):
        document = dict(document)
        tsv = render_tsv(document)
        js = json.loads(render_json(document))
        lines = [l for l in tsv.splitlines() if not l.startswith("#")]
        header = lines[0].split("\t")
        for row_line, row in zip(lines[1:], js["rows"]):
            for column, cell in zip(header, row_line.split("\t")):
                want = row[column]
                got = json.loads(cell) if not isinstance(want, str) else cell
                assert got == want, column
        # summary lines carry the same values
        summary_lines = dict(
            l[2:].split(": ", 1) for l in tsv.splitlines() if l.startswith("# ") and ": " in l
        )
        assert float(summary_lines["S"]) == js["summary"]["S"]

    def test_tsv_is_deterministic(self, document):
        again = chsh_scan(model="qm", trials=20_000, seed=2)
        assert render_tsv(dict(document)) == render_tsv(dict(again))

    def test_tsv_config_echo_is_runnable(self, document):
        tsv = render_tsv(dict(document))
        config_line = next(l for l in tsv.splitlines() if l.startswith("# config: "))
        echoed = json.loads(config_line[len("# config: "):])
        assert echoed["trials"] == 20_000

    def test_table_renders(self, document):
        text = render_table(dict(document))
        assert "scenario: chsh-scan" in text
        assert "violates_classical" in text

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "result.tsv"
        code, out, _ = run_cli(
            capsys, "qwp-test", "--trials", TRIALS, "--format", "tsv", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("# scenario: qwp-test")


_SCIPY_PROBE = """
import json, os, sys
import eprsim.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules()}
seen["model-matrix"] = [eprsim.cli.main(["model-matrix", "--trials", "10000", "--out", os.devnull])]
seen["model-matrix"] += scipy_modules()
seen["order-test"] = [eprsim.cli.main(["order-test", "--trials", "10000", "--out", os.devnull])]
seen["order-test"] += scipy_modules()
print(json.dumps(seen))
"""


def test_only_the_order_test_loads_scipy():
    # A fresh interpreter: this one has scipy loaded by the tests already.
    src = os.path.dirname(os.path.dirname(os.path.abspath(eprsim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    seen = json.loads(child.stdout)
    assert seen["import"] == []
    assert seen["model-matrix"] == [0]
    code, *loaded = seen["order-test"]
    assert code == 0
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


_IMPORT_PROBE = """
import json, os, sys

def threads():
    task = "/proc/self/task"
    return len(os.listdir(task)) if os.path.isdir(task) else None

def package_modules():
    return sorted(m for m in sys.modules if m == "eprsim" or m.startswith("eprsim."))

def dataclasses():
    return sorted({
        f"{cls.__module__}.{cls.__qualname__}"
        for module in package_modules() for cls in vars(sys.modules[module]).values()
        if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")
    })

import gc
import eprsim
seen = {"numpy after import eprsim": "numpy" in sys.modules}
seen["frozen after import eprsim"] = gc.get_freeze_count()
import eprsim.cli
seen["frozen after import eprsim.cli"] = gc.get_freeze_count()
seen["blas threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
seen["numpy.polynomial"] = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
seen["threads after import"] = threads()
seen["package after import"] = package_modules()
seen["logging after import"] = "logging" in sys.modules
seen["order-test"] = eprsim.cli.main(["order-test", "--trials", "10000", "--out", os.devnull])
seen["scipy.special"] = "scipy.special" in sys.modules
seen["threads after order-test"] = threads()
seen["model-matrix"] = eprsim.cli.main(["model-matrix", "--trials", "1000", "--out", os.devnull])
seen["package after runs"] = package_modules()
seen["package binds logging"] = [
    m for m in package_modules() if hasattr(sys.modules[m], "logging")
]
seen["dataclasses after runs"] = dataclasses()
print(json.dumps(seen))
"""

# What `import eprsim.cli` loads of the package: the kernels' path, and not
# the object layer (eprsim.reference) or the Jones algebra under it.
_CLI_PACKAGE = [
    "eprsim", "eprsim._version", "eprsim.cli", "eprsim.engine", "eprsim.kernels",
    "eprsim.models", "eprsim.scenarios", "eprsim.stats",
]

_LIBRARY_PROBE = """
import gc, json
import eprsim.engine
print(json.dumps(gc.get_freeze_count()))
"""


def _import_probe(probe=_IMPORT_PROBE, **env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(eprsim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env={**base, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    return json.loads(child.stdout)


def test_the_cli_starts_no_blas_thread():
    # A fresh interpreter with OPENBLAS_NUM_THREADS unset, as a user's shell has it.
    seen = _import_probe()
    assert seen["numpy after import eprsim"] is False
    assert seen["blas threads"] == "1"
    assert seen["numpy.polynomial"] == []  # no LAPACK call at import
    assert seen["order-test"] == 0
    assert seen["scipy.special"] is True
    if seen["threads after import"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert seen["threads after import"] == 1
    assert seen["threads after order-test"] == 1


def test_the_cli_loads_no_object_layer_and_freezes_its_imports():
    seen = _import_probe()
    assert seen["package after import"] == _CLI_PACKAGE
    assert seen["order-test"] == seen["model-matrix"] == 0
    assert seen["package after runs"] == _CLI_PACKAGE
    # no `logging` (the order test's scipy.special loads it), and no
    # dataclass but the run results and the factorized model: the package's
    # other value classes are plain classes
    assert seen["logging after import"] is False
    assert seen["package binds logging"] == []
    assert seen["dataclasses after runs"] == [
        "eprsim.engine.MalusRun", "eprsim.engine.QwpChainRun", "eprsim.engine.TwoChannelRun",
        "eprsim.models.LhvModel",
    ]
    # the CLI moves what it loaded into the permanent generation; a library
    # import leaves the collector as it was
    assert seen["frozen after import eprsim"] == 0
    assert seen["frozen after import eprsim.cli"] > 0
    assert _import_probe(_LIBRARY_PROBE, OPENBLAS_NUM_THREADS="1") == 0


_LOGGING_PROBE = """
import dataclasses, json, math
import eprsim.kernels
import logging

records = []
handler = logging.Handler()
handler.emit = lambda record: records.append([record.name, record.levelname, record.getMessage()])
logging.getLogger("eprsim").addHandler(handler)
logging.getLogger("eprsim").setLevel(logging.INFO)
sign = eprsim.models.deterministic_sign_model()
shifted = dataclasses.replace(  # breakpoints that fail the cut check
    sign, name="shifted",
    response_breakpoints=lambda s: (sign.response_breakpoints(s) + 0.1) % math.pi,
)
eprsim.kernels.lhv_word_steps(shifted, 0.3, 1.0)
print(json.dumps(records))
"""


def test_a_program_that_loads_logging_after_the_package_gets_its_records():
    # The package never imports `logging`; it logs through the one the program loaded.
    assert _import_probe(_LOGGING_PROBE, OPENBLAS_NUM_THREADS="1") == [
        ["eprsim.kernels", "INFO",
         f"shifted: response_{arm} fails the cut check at setting {setting!r}; "
         "the run takes the float path"]
        for arm, setting in (("a", 0.3), ("b", 1.0))
    ]


def test_the_cli_keeps_a_user_set_blas_thread_count():
    seen = _import_probe(OPENBLAS_NUM_THREADS="2")
    assert seen["blas threads"] == "2"
    assert seen["order-test"] == 0


def test_ctrl_c_ends_a_run_with_one_line_and_exit_130():
    # Ctrl-C reaches the whole process group, as a terminal sends it: the
    # caller kills and reaps its worker processes, which ignore it, and
    # prints one line.
    import signal
    import time

    src = os.path.dirname(os.path.dirname(os.path.abspath(eprsim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "eprsim.cli", "chsh-scan", "--trials", "2000000000",
         "--workers", "2"],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        time.sleep(1.0)
        os.killpg(child.pid, signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    assert child.returncode == 130, err
    assert out == ""
    assert err == "epr: interrupted\n"
    with pytest.raises(ProcessLookupError):  # no worker process outlived it
        os.killpg(child.pid, 0)
