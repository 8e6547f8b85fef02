"""The backend name set: what ``--backend`` accepts, its default, and
how ``cli bench`` records it."""

import pytest

from repro.backend import BACKENDS, DEFAULT_BACKEND
from repro.perf.bench import run_benchmarks


class TestRegistry:
    def test_names(self):
        assert BACKENDS == ("numpy", "parallel")

    def test_default_is_numpy(self):
        assert DEFAULT_BACKEND == "numpy"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError) as err:
            run_benchmarks(quick=True, kernels=[], backend="cuda")
        message = err.value.args[0]
        assert "cuda" in message
        for name in BACKENDS:
            assert name in message

    def test_describe_rows(self):
        # Every bench row and the artifact's extra block carry the
        # requested backend name (None is the default).
        for requested in (None, *BACKENDS):
            rows, extra = run_benchmarks(
                quick=True, kernels=["disocclusion.classify"], repeat=1,
                backend=requested)
            expected = requested or DEFAULT_BACKEND
            assert extra["backend"] == expected
            assert [row["backend"] for row in rows] == [expected]
