"""Tests of the benchmark harness itself (not of the program it measures).

    python3 -m pytest e2ebench -q
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import harness
from harness import (WORKLOADS, Workload, layer_metrics, layer_table,
                     percentile, run_round, timed_run, traced_run)
from repro.baselines.multidimensional import MultiDimensionalMechanism
from repro.core.durability.wal import WalWriter
from repro.core.pipeline import TrustPipeline
from repro.simulator.simulation import ScenarioSpec
from tracing import Tracer, layer_wrappers

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Small shapes that still reach every code path the real workloads do.
TINY_WAL = Workload(
    name="tiny-wal", scenario=ScenarioSpec(
        honest=8, free_riders=2, polluters=2, colluders=2),
    num_files=40, request_rate=0.05, multitrust_steps=1,
    service_differentiation=True, round_hours=10, churn=True, wal=True)
TINY_DENSE = dataclasses.replace(TINY_WAL, name="tiny-dense",
                                 multitrust_steps=3, churn=False, wal=False,
                                 service_differentiation=False)


@pytest.fixture
def work_dir(tmp_path):
    return tmp_path


@pytest.mark.parametrize("workload", [TINY_WAL, TINY_DENSE],
                         ids=lambda w: w.name)
def test_same_seed_same_digest_and_checks_pass(workload, work_dir):
    first = run_round(workload, 5, work_dir)
    second = run_round(workload, 5, work_dir)
    assert first.digest == second.digest
    assert all(first.checks.values()) and all(second.checks.values())
    assert run_round(workload, 6, work_dir).digest != first.digest
    assert list(work_dir.iterdir()) == []


def test_recorded_digest_mismatch_counts_as_failure(work_dir):
    result = run_round(TINY_DENSE, 5, work_dir, recorded_digest="0" * 16)
    assert result.checks["digest"] is False


def test_a_changed_digest_of_the_same_instance_fails(work_dir):
    result = run_round(TINY_DENSE, 5, work_dir)
    checks = harness._Checks()
    checks.add(5, result)
    checks.add(5, dataclasses.replace(result, digest="0" * 16))
    checks.add(6, dataclasses.replace(result, digest="0" * 16))
    assert checks.failures == ["seed 5: deterministic"]


def test_percentile_refuses_thin_tails():
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(1000)), 100)


def test_names_are_well_formed():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) \
        == sorted(WORKLOADS)


def test_metrics_match_benchmark_json(work_dir):
    outcome = timed_run(TINY_WAL, 5, 0.01, work_dir)
    assert outcome.failed == 0
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: unit for name, (_, unit) in outcome.metrics.items()}
    traced = traced_run(TINY_WAL, 5, 0.01, work_dir,
                        work_dir / "out" / "trace.json")
    assert traced.failed == 0
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (_, unit) in traced.metrics.items()}
    document = json.loads((work_dir / "out" / "trace.json").read_text())
    assert document["spans"] and document["table"]


def test_wrappers_leave_the_simulation_unchanged(work_dir):
    originals = (MultiDimensionalMechanism.__dict__["reputation"],
                 TrustPipeline.__dict__["refresh"],
                 WalWriter.__dict__["append"])
    plain = run_round(TINY_WAL, 7, work_dir)
    tracer = Tracer()
    with layer_wrappers(tracer):
        traced = run_round(TINY_WAL, 7, work_dir, tracer=tracer)
    assert traced.digest == plain.digest
    assert all(traced.checks.values())
    assert (MultiDimensionalMechanism.__dict__["reputation"],
            TrustPipeline.__dict__["refresh"],
            WalWriter.__dict__["append"]) == originals

    table = layer_table(tracer.tables["run"])
    assert sum(row["share"] for row in table) == pytest.approx(1.0)
    root = sum(end - start for name, start, end, parent in tracer.spans
               if parent == -1 and name == "sim.run")
    assert sum(row["self_s"] for row in table) == pytest.approx(root)
    metrics = layer_metrics(tracer, [traced])
    assert metrics["rep_query.calls"][0] > 0
    assert metrics["wal.append.calls"][0] > 0
    assert metrics["recover.replayed"][0] > 0
    assert metrics["engine.events.request"][0] == len(plain.request_s)


def test_workloads_have_enough_ticks_per_run():
    for workload in list(WORKLOADS.values()) + [TINY_WAL]:
        rounds = harness._min_rounds(workload)
        assert rounds * workload.round_hours >= harness.MIN_TICKS


def test_instance_seeds_are_distinct_and_start_at_the_run_seed():
    seeds = [harness.instance_seed(7, index) for index in range(50)]
    assert seeds[0] == 7 and len(set(seeds)) == 50
