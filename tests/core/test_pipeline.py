"""Tests for repro.core.pipeline: the incremental TrustPipeline."""

import pytest

import repro.core.pipeline as pipeline_module
from repro.core import (EvaluationStore, MultiDimensionalReputationSystem,
                        ReputationConfig, TrustPipeline, UserTrustStore)
from repro.core.integration import build_one_step_matrix
from repro.core.volume_trust import DownloadLedger
from repro.lint.contracts import set_contracts_enabled
from repro.obs import Recorder


def _pipeline(config=None):
    evaluations = EvaluationStore(config=config or ReputationConfig())
    ledger = DownloadLedger()
    user_trust = UserTrustStore()
    pipeline = TrustPipeline(evaluations, ledger, user_trust,
                             config or ReputationConfig())
    return pipeline, evaluations, ledger, user_trust


def _populate(evaluations, ledger, user_trust):
    for user, file_id, value in [("a", "f1", 0.9), ("b", "f1", 0.8),
                                 ("a", "f2", 0.2), ("c", "f2", 0.3),
                                 ("b", "f3", 0.7), ("c", "f3", 0.6)]:
        evaluations.record_vote(user, file_id, value)
    ledger.record_download("a", "b", "f1", 5e6)
    ledger.record_download("c", "b", "f3", 2e6)
    user_trust.rate("a", "c", 0.8)


class TestRefreshModes:
    def test_first_refresh_is_full(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        assert pipeline.last_stats.mode == "full"

    def test_second_refresh_with_delta_is_incremental(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("a", "f1", 0.5)
        pipeline.refresh()
        assert pipeline.last_stats.mode == "incremental"

    def test_noop_refresh_keeps_matrix_identity(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        before_trust = pipeline.trust
        before_version = pipeline.version
        pipeline.refresh()
        assert pipeline.trust is before_trust
        assert pipeline.version == before_version

    def test_refresh_with_delta_publishes_new_identity(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        before = pipeline.trust
        evaluations.record_vote("b", "f2", 0.4)
        pipeline.refresh()
        assert pipeline.trust is not before

    def test_force_full_reports_full_mode(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        pipeline.refresh(force_full=True)
        assert pipeline.last_stats.mode == "full"

    def test_invalidate_forces_full_rebuild(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        pipeline.invalidate()
        assert pipeline.has_dirty
        pipeline.refresh()
        assert pipeline.last_stats.mode == "full"


class TestIncrementalEqualsFull:
    def test_single_event_patch_matches_oracle(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("c", "f1", 0.85)
        pipeline.refresh()
        oracle = build_one_step_matrix(evaluations, ledger, user_trust,
                                       pipeline.config)
        assert pipeline.trust == oracle

    def test_incremental_touches_fewer_rows_than_full(self):
        config = ReputationConfig()
        pipeline, evaluations, ledger, user_trust = _pipeline(config)
        _populate(evaluations, ledger, user_trust)
        for extra in range(6):
            evaluations.record_vote(f"x{extra}", f"g{extra}", 0.5)
        pipeline.refresh()
        total = pipeline.last_stats.total_rows
        user_trust.rate("b", "a", 0.9)
        pipeline.refresh()
        stats = pipeline.last_stats
        assert stats.rows_rebuilt < total
        assert 0.0 < stats.rebuild_ratio < 1.0


class TestStatsAndObservability:
    def test_stats_count_dirty_inputs(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("a", "f9", 0.5)
        ledger.record_download("b", "c", "f9", 1e6)
        user_trust.rate("c", "a", 0.4)
        pipeline.refresh()
        stats = pipeline.last_stats
        assert stats.dirty_files == 1
        assert stats.dirty_rows_user == 1
        assert stats.rows_rebuilt >= 1

    def test_refresh_emits_pipeline_events(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        pipeline.recorder = Recorder()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        evaluations.record_vote("a", "f1", 0.1)
        pipeline.refresh()
        modes = [event["mode"] for event
                 in pipeline.recorder.trace.of_kind("pipeline_refresh")]
        assert modes == ["full", "incremental"]

    def test_rebuild_ratio_zero_on_empty(self):
        pipeline, *_ = _pipeline()
        pipeline.refresh()
        assert pipeline.last_stats.rebuild_ratio == 0.0


@pytest.fixture(params=[False, True], ids=["contracts-off", "contracts-on"])
def contracts(request):
    set_contracts_enabled(request.param)
    yield request.param
    set_contracts_enabled(None)


class TestBackendResolution:
    """A backend is resolved only where a power is actually computed."""

    def _count_resolves(self, monkeypatch):
        calls = []
        original = pipeline_module.resolve_backend

        def counting(spec, matrix, *args, **kwargs):
            calls.append(spec)
            return original(spec, matrix, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "resolve_backend", counting)
        return calls

    @pytest.mark.parametrize("recorded", [False, True])
    def test_n1_refresh_never_resolves(self, monkeypatch, contracts,
                                       recorded):
        def forbidden(*args, **kwargs):
            raise AssertionError("resolve_backend called at n = 1")

        monkeypatch.setattr(pipeline_module, "resolve_backend", forbidden)
        pipeline, evaluations, ledger, user_trust = _pipeline()
        if recorded:
            pipeline.recorder = Recorder()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        assert pipeline.last_stats.backend == "identity"
        evaluations.record_vote("a", "f1", 0.4)
        pipeline.refresh()
        assert pipeline.last_stats.mode == "incremental"
        assert pipeline.last_stats.backend == "identity"
        assert pipeline.reputation == pipeline.trust
        assert pipeline.reputation_at(1) is pipeline.reputation

    def test_n2_refresh_resolves_once_per_refresh(self, monkeypatch,
                                                  contracts):
        calls = self._count_resolves(monkeypatch)
        pipeline, evaluations, ledger, user_trust = _pipeline(
            ReputationConfig(multitrust_steps=2))
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        assert len(calls) == 1
        assert pipeline.last_stats.backend == "sparse"
        for value in (0.1, 0.2):
            evaluations.record_vote("a", "f1", value)
            pipeline.refresh()
        assert pipeline.last_stats.mode == "incremental"
        assert len(calls) == 3
        pipeline.refresh()  # no dirt: a no-op resolves nothing
        assert len(calls) == 3

    def test_reputation_at_resolves_only_for_powers(self, monkeypatch):
        calls = self._count_resolves(monkeypatch)
        pipeline, evaluations, ledger, user_trust = _pipeline(
            ReputationConfig(multitrust_steps=2))
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        del calls[:]
        assert pipeline.reputation_at(1) is pipeline.trust
        assert calls == []
        pipeline.reputation_at(3)
        pipeline.reputation_at(3)  # cached
        assert len(calls) == 1


class TestStepOverrides:
    def test_reputation_at_cached_until_refresh(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        first = pipeline.reputation_at(3)
        assert pipeline.reputation_at(3) is first
        evaluations.record_vote("a", "f1", 0.3)
        pipeline.refresh()
        assert pipeline.reputation_at(3) is not first

    def test_reputation_at_default_steps_is_published_matrix(self):
        pipeline, evaluations, ledger, user_trust = _pipeline()
        _populate(evaluations, ledger, user_trust)
        pipeline.refresh()
        steps = pipeline.config.multitrust_steps
        assert pipeline.reputation_at(steps) is pipeline.reputation


class TestFacadeIntegration:
    def test_facade_uses_incremental_path_between_recomputes(self):
        system = MultiDimensionalReputationSystem(auto_refresh=False)
        system.record_vote("a", "f1", 0.9)
        system.record_vote("b", "f1", 0.8)
        system.recompute()
        system.refresh_view()
        system.record_vote("b", "f2", 0.4)
        system.recompute()
        system.refresh_view()
        assert system.pipeline.last_stats.mode == "incremental"

    def test_facade_recorder_propagates_to_pipeline(self):
        system = MultiDimensionalReputationSystem()
        recorder = Recorder()
        system.recorder = recorder
        assert system.pipeline.recorder is recorder

    def test_tier_view_cached_per_pipeline_version(self):
        system = MultiDimensionalReputationSystem()
        system.record_vote("a", "f1", 0.9)
        system.record_vote("b", "f1", 0.8)
        view = system.tier_view()
        assert system.tier_view() is view
        system.record_vote("b", "f2", 0.4)
        assert system.tier_view() is not view

    def test_dense_backend_config_accepted_end_to_end(self):
        config = ReputationConfig(matmul_backend="dense",
                                  multitrust_steps=2)
        system = MultiDimensionalReputationSystem(config)
        system.record_vote("a", "f1", 0.9)
        system.record_vote("b", "f1", 0.8)
        matrix = system.reputation_matrix()
        assert matrix.get("a", "b") >= 0.0
        assert system.pipeline.last_stats.backend == "dense"
