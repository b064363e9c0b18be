"""Regression tests: invalid ``REPRO_*`` configuration fails loudly.

An unknown name or an out-of-range value must not surface as a
confusing failure deep inside the executor:
:meth:`ExecutionPolicy.from_env` (and direct construction) raise
:class:`~repro.errors.ConfigError` naming the offending environment
variable and listing the valid values.  ``ConfigError`` subclasses
``SimulationError`` so existing broad handlers keep working.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SimulationError
from repro.runtime.spec import ExecutionPolicy


class TestFromEnvValidation:
    def test_error_lists_valid_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "some")
        with pytest.raises(ConfigError, match="'max'"):
            ExecutionPolicy.from_env()

    def test_bad_trials_is_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "lots")
        with pytest.raises(ConfigError, match="REPRO_TRIALS"):
            ExecutionPolicy.from_env()

    def test_bad_parallel_is_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "some")
        with pytest.raises(ConfigError, match="REPRO_PARALLEL"):
            ExecutionPolicy.from_env()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_out_of_range_trials_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRIALS", value)
        with pytest.raises(ConfigError, match="REPRO_TRIALS"):
            ExecutionPolicy.from_env()

    def test_negative_parallel_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "-3")
        with pytest.raises(ConfigError, match="REPRO_PARALLEL"):
            ExecutionPolicy.from_env()

    def test_valid_env_round_trips(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "4")
        monkeypatch.setenv("REPRO_TRIALS", "4096")
        policy = ExecutionPolicy.from_env()
        assert policy.parallel == 4
        assert policy.trials == 4096

    def test_defaults_survive_unset_environment(self, monkeypatch):
        for var in ("REPRO_PARALLEL", "REPRO_TRIALS"):
            monkeypatch.delenv(var, raising=False)
        assert ExecutionPolicy.from_env() == ExecutionPolicy()


class TestDirectConstructionValidation:
    def test_negative_parallel_rejected(self):
        with pytest.raises(ConfigError, match="parallel"):
            ExecutionPolicy(parallel=-3)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            ExecutionPolicy(trials=0)

    def test_unknown_backend_rejected(self):
        # The one backend is not a field: no backend name is accepted.
        for name in ("cuda", "numpy"):
            with pytest.raises(TypeError, match="backend"):
                ExecutionPolicy(backend=name)

    def test_config_error_is_a_simulation_error(self):
        # Broad `except SimulationError` handlers written before
        # ConfigError existed must keep catching config mistakes.
        assert issubclass(ConfigError, SimulationError)
        with pytest.raises(SimulationError):
            ExecutionPolicy(trials=0)
