"""The counter registry: names, reset semantics, snapshots."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import counter, metrics_snapshot, reset_metrics


@pytest.fixture(autouse=True)
def _clean_registry():
    reset_metrics()
    yield
    reset_metrics()


class TestCounter:
    def test_increments(self):
        c = counter("test.counter.basic")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_same_name_same_instrument(self):
        assert counter("test.counter.shared") is counter("test.counter.shared")

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigError):
            counter("test.counter.neg").inc(-1)


class TestNaming:
    @pytest.mark.parametrize(
        "bad", ["", "nodots", "Upper.case", "trailing.", ".leading", "a b.c"]
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ConfigError):
            counter(bad)


class TestResetAndSnapshot:
    def test_reset_zeroes_in_place(self):
        # Module-level instrument references must stay valid across
        # reset — reset zeroes, it never replaces.
        c = counter("test.reset.inplace")
        c.inc(9)
        reset_metrics()
        assert c.value == 0
        c.inc()
        assert counter("test.reset.inplace").value == 1

    def test_snapshot_sections_sorted(self):
        counter("test.snap.b").inc()
        counter("test.snap.a").inc(2)
        snapshot = metrics_snapshot()
        # Counters are the only section: the trace document's metrics
        # and the benchmark read ``snapshot["counters"]``.
        assert list(snapshot) == ["counters"]
        names = [n for n in snapshot["counters"] if n.startswith("test.snap.")]
        assert names == ["test.snap.a", "test.snap.b"]
        assert snapshot["counters"]["test.snap.a"] == 2
