"""``REPRO_*`` environment knobs must fail with one-line messages."""

import pytest

from repro.envutil import (
    env_float,
    env_int,
    parse_choice,
    parse_float,
    parse_int,
)
from repro.harness.runner import env_instructions, env_jobs, env_trials


def test_unset_returns_default(monkeypatch):
    monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
    assert env_int("REPRO_TEST_KNOB", 7) == 7


def test_empty_returns_default(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "")
    assert env_int("REPRO_TEST_KNOB", 7) == 7


def test_valid_value_parses(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "42")
    assert env_int("REPRO_TEST_KNOB", 7) == 42


def test_bad_value_names_variable_and_value(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "four")
    with pytest.raises(SystemExit) as excinfo:
        env_int("REPRO_TEST_KNOB", 7)
    message = str(excinfo.value)
    assert "REPRO_TEST_KNOB" in message
    assert "four" in message
    assert "REPRO_TEST_KNOB=7" in message  # suggests a working example


@pytest.mark.parametrize("variable, parser", [
    ("REPRO_JOBS", env_jobs),
    ("REPRO_TRIALS", env_trials),
    ("REPRO_INSTRUCTIONS", env_instructions),
])
def test_runner_knobs_fail_with_one_liner(monkeypatch, variable, parser):
    monkeypatch.setenv(variable, "20x")
    with pytest.raises(SystemExit) as excinfo:
        parser()
    assert variable in str(excinfo.value)
    assert "20x" in str(excinfo.value)


class TestParseHelpers:
    """CLI flags share the env-var contract (used by `paraverser fleet`)."""

    def test_parse_int_accepts_value_and_default(self):
        assert parse_int("--servers", "12", 8) == 12
        assert parse_int("--servers", None, 8) == 8
        assert parse_int("--servers", "", 8) == 8

    def test_parse_int_names_the_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_int("--servers", "four", 8)
        message = str(excinfo.value)
        assert "--servers" in message and "four" in message
        assert "--servers=8" in message

    def test_parse_float_accepts_value_and_default(self):
        assert parse_float("--duration", "2.5", 2.0) == 2.5
        assert parse_float("--duration", None, 2.0) == 2.0

    def test_parse_float_names_the_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_float("--duration", "2s", 2.0)
        message = str(excinfo.value)
        assert "--duration" in message and "2s" in message

    def test_parse_choice_accepts_member_and_default(self):
        choices = ("threshold", "ed2p_budget", "scheduler")
        assert parse_choice("--policy", "scheduler", "threshold",
                            choices) == "scheduler"
        assert parse_choice("--policy", None, "threshold",
                            choices) == "threshold"
        assert parse_choice("--policy", "", "threshold",
                            choices) == "threshold"

    def test_parse_choice_lists_the_choices(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_choice("--policy", "pid", "threshold",
                         ("threshold", "scheduler"))
        message = str(excinfo.value)
        assert "--policy" in message and "pid" in message
        assert "threshold" in message and "scheduler" in message


class TestEnvFloat:
    """REPRO_CONTROL_* knobs (`paraverser control`) parse as floats."""

    def test_unset_and_valid(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTROL_EPOCH_S", raising=False)
        assert env_float("REPRO_CONTROL_EPOCH_S", 0.1) == 0.1
        monkeypatch.setenv("REPRO_CONTROL_EPOCH_S", "0.25")
        assert env_float("REPRO_CONTROL_EPOCH_S", 0.1) == 0.25

    def test_bad_value_is_a_one_liner(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTROL_BUDGET", "40%")
        with pytest.raises(SystemExit) as excinfo:
            env_float("REPRO_CONTROL_BUDGET", 0.4)
        message = str(excinfo.value)
        assert "REPRO_CONTROL_BUDGET" in message and "40%" in message
