"""Tests for the pipeline bench snapshot: gate helpers and a tiny real run.

The full bench is CI territory; here a miniature
``collect_pipeline_snapshot`` run pins the snapshot's shape, and the gate
helpers (``incremental_speedup`` / ``csr_speedup``) are exercised against
synthetic snapshots so every branch the CI gate relies on is covered
without waiting on a benchmark.
"""

import pytest

from repro.obs.bench_pipeline import (collect_pipeline_snapshot, csr_speedup,
                                      dense_speedup, incremental_speedup)


@pytest.fixture(scope="module")
def snapshot():
    return collect_pipeline_snapshot(seed=5, sizes=(30,), events=3)


class TestMiniatureRun:
    def test_refresh_tiers_present(self, snapshot):
        assert [tier["peers"] for tier in snapshot["refresh"]] == [30]
        assert incremental_speedup(snapshot, 30) > 0

    def test_csr_section_present(self, snapshot):
        csr = snapshot["csr"]
        assert csr["flavor"] in ("scipy", "blocked-numpy")
        assert csr["auto_selects"] == "csr"
        assert csr["results_max_abs_diff"] < 1e-9
        assert csr_speedup(snapshot) > 0

    def test_dense_speedup_still_reported(self, snapshot):
        assert dense_speedup(snapshot) > 0

    def test_no_scaling_section(self, snapshot):
        assert "scaling" not in snapshot

    def test_stamp_covers_bench_knobs(self, snapshot):
        # The workload knobs are part of the stamped config: a different
        # size list must change the config hash.
        other = collect_pipeline_snapshot(seed=5, sizes=(31,), events=3)
        assert snapshot["seed"] == 5
        assert other["config_hash"] != snapshot["config_hash"]


class TestGateHelpers:
    def test_incremental_speedup_unknown_size_is_zero(self, snapshot):
        # A size the bench never ran can't pass a >= bound: the helper
        # reports 0.0 so the CI gate fails closed instead of crashing.
        assert incremental_speedup(snapshot, 999) == 0.0

    def test_csr_speedup_missing_section_is_zero(self):
        assert csr_speedup({}) == 0.0
        assert csr_speedup({"csr": []}) == 0.0
