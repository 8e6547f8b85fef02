"""The backend name set: what ``--backend`` accepts."""

import pytest

from repro.backend import BACKENDS
from repro.engine import MultiSessionEngine
from repro.harness.runconfig import RunConfig, RunConfigError


class TestRegistry:
    def test_names(self):
        assert BACKENDS == ("numpy", "parallel")

    def test_unknown_name_lists_registered(self):
        # Both places a backend name enters — a run's config and the
        # engine itself — name the bad value and every registered one.
        with pytest.raises(RunConfigError) as config_err:
            RunConfig(mode="serve", backend="cuda").validate()
        with pytest.raises(ValueError) as engine_err:
            MultiSessionEngine([], backend="cuda")
        for err in (config_err, engine_err):
            message = err.value.args[0]
            assert "cuda" in message
            for name in BACKENDS:
                assert name in message
