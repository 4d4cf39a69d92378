"""End-to-end simulation benchmark: workloads, timed rounds and checks.

A *round* builds one seeded workload from scratch, runs
``FileSharingSimulation.run()`` over a fixed simulated duration, and then
checks the outcome:

* the simulated summary digest equals the one recorded for that workload
  and seed in ``digests.json`` (when one is recorded);
* the ``TM``/``RM`` checksums after the run equal those after
  ``pipeline.invalidate()`` and a full rebuild;
* the state recovered from disk has the live checksums.

A *run* seeded with ``s`` plays one round of each of the instances ``s``,
``s + 1000``, ``s + 2000``, ... in turn until its time budget is spent
(never before the percentiles have the samples they need) and reports
pooled figures, so a faster program measures more rounds rather than a
shorter, noisier window.  All timings come from wrappers around
public calls: the callbacks handed to ``EventEngine.schedule_at``, the
engine's ``run``, and ``recover``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.multidimensional import MultiDimensionalMechanism
from repro.core.config import ReputationConfig
from repro.core.durability import DurabilityManager, recover
from repro.simulator.churn import ChurnModel
from repro.simulator.engine import EventEngine
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.simulation import (FileSharingSimulation, ScenarioSpec,
                                        SimulationConfig)

from tracing import ENGINE, LAYERS, MODULES, Tracer, layer_wrappers

HOUR = 3600.0
BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10
#: Maintenance ticks a run must contain (``tick_p50_ms`` needs 20 samples).
MIN_TICKS = 20
#: Timed recoveries per round.
RECOVER_REPEATS = 3
#: Set-up-only builds per round, besides the round's own build.  Set-up
#: takes 12-20 ms on the small workloads, so one sample is mostly noise.
SETUP_REPEATS = 3
#: Instance ``j`` of a run with seed ``s`` simulates seed ``s + j * STRIDE``.
INSTANCE_STRIDE = 1000
#: Simulated hours of the untimed warm-up round that opens a run.
WARM_UP_HOURS = 2


@dataclass(frozen=True)
class Workload:
    """One seeded, fixed-work simulation shape (see DESIGN.md for why)."""

    name: str
    scenario: ScenarioSpec
    num_files: int
    request_rate: float
    multitrust_steps: int
    service_differentiation: bool
    #: Simulated hours per round; maintenance runs hourly.
    round_hours: int
    churn: bool = False
    #: Journal to a WAL (fsync at ticks) and cut a snapshot at every tick.
    wal: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="crowd-580",
        scenario=ScenarioSpec(honest=400, free_riders=100, polluters=60,
                              colluders=20),
        num_files=2000, request_rate=0.02, multitrust_steps=1,
        service_differentiation=True, round_hours=12),
    Workload(
        name="dense-trust",
        scenario=ScenarioSpec(honest=200, free_riders=40, polluters=40,
                              colluders=20),
        num_files=400, request_rate=0.2, multitrust_steps=3,
        service_differentiation=False, round_hours=6),
    Workload(
        name="churn-wal",
        scenario=ScenarioSpec(honest=48, free_riders=8, polluters=8),
        num_files=300, request_rate=0.2, multitrust_steps=1,
        service_differentiation=True, round_hours=6, churn=True, wal=True),
)}

#: ``EventEngine`` callback name -> event kind.  A callback the table does
#: not know is counted as "other", and a round without request arrivals or
#: ticks fails loudly in :func:`percentile`.
EVENT_KINDS = {"_on_request_arrival": "request", "_on_maintenance": "tick",
               "_complete": "transfer", "_judge": "judge", "_join": "join",
               "_leave": "leave"}


def instance_seed(seed: int, index: int) -> int:
    """Simulation seed of round ``index`` of a run seeded with ``seed``.

    Every round of a run is another instance: averaging many keeps one
    seed's structure (how dense its trust graph grows, how large its
    recovery tail is) from setting the run's figures.
    """
    return seed + INSTANCE_STRIDE * index


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (ValueError) when fewer than :data:`MIN_TAIL` samples lie
    beyond it: a tail figure resting on a handful of samples is noise.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must lie in (0, 100), got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    if len(ordered) - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} "
            f"beyond it; at least {MIN_TAIL} are needed")
    return ordered[rank - 1]


def summary_digest(metrics: SimulationMetrics) -> str:
    """Digest of the simulated outcome (floats hashed exactly via repr)."""
    summary = {
        "classes": {
            label: {"real": stats.real_downloads,
                    "fake": stats.fake_downloads,
                    "fake_fraction": stats.fake_fraction,
                    "fakes_blocked": stats.fakes_blocked,
                    "mean_wait": stats.mean_wait,
                    "mean_bandwidth": stats.mean_bandwidth}
            for label, stats in sorted(metrics.per_class.items())},
        "fake_fraction": metrics.overall_fake_fraction,
        "total_requests": metrics.total_requests,
        "blind_judgements": metrics.blind_judgements,
        "outstanding_fakes": metrics.outstanding_fake_copies,
    }
    encoded = json.dumps(summary, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def load_digests() -> Dict[str, Dict[str, str]]:
    if not DIGESTS_PATH.is_file():
        return {}
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build(workload: Workload, seed: int, wal_dir: Path
          ) -> Tuple[FileSharingSimulation, Optional[DurabilityManager]]:
    """The workload's simulation (and durability manager) for ``seed``."""
    duration = workload.round_hours * HOUR
    config = SimulationConfig(
        scenario=workload.scenario, duration_seconds=duration,
        num_files=workload.num_files, request_rate=workload.request_rate,
        seed=seed, use_file_filtering=True,
        use_service_differentiation=workload.service_differentiation,
        maintenance_interval_seconds=HOUR,
        churn=ChurnModel(seed=seed + 3) if workload.churn else None)
    mechanism = MultiDimensionalMechanism(ReputationConfig(
        multitrust_steps=workload.multitrust_steps,
        retention_saturation_seconds=duration / 3, shard_workers=1))
    durability = (DurabilityManager(mechanism.system, wal_dir, fsync="batch",
                                    snapshot_every=1)
                  if workload.wal else None)
    simulation = FileSharingSimulation(config, mechanism,
                                       durability=durability)
    return simulation, durability


class _SetupDone(Exception):
    """Raised at the first engine event of a set-up-only build."""


class EngineProbe:
    """Wraps one engine's ``schedule_at`` callbacks and its ``run``.

    Untraced, it times request arrivals and maintenance ticks; traced, it
    opens an engine span around every event.  It also notes the host and
    CPU clocks at the first engine event, where set-up ends.
    """

    def __init__(self, engine: EventEngine, tracer: Optional[Tracer] = None,
                 setup_only: bool = False) -> None:
        self.request_s: List[float] = []
        self.tick_s: List[float] = []
        self.events: Dict[str, int] = {}
        self.first_event_wall = 0.0
        self.first_event_cpu = 0.0
        self._tracer = tracer
        schedule_at = engine.schedule_at
        run = engine.run

        def probed_schedule_at(time: float, callback: Callable[..., None]):
            return schedule_at(time, self._wrap(callback))

        def probed_run(*args: Any, **kwargs: Any) -> int:
            self.first_event_wall = perf_counter()
            self.first_event_cpu = process_time()
            if setup_only:
                raise _SetupDone()
            return run(*args, **kwargs)

        engine.schedule_at = probed_schedule_at  # type: ignore[method-assign]
        engine.run = probed_run  # type: ignore[method-assign]

    def _wrap(self, callback: Callable[[EventEngine], None]
              ) -> Callable[[EventEngine], None]:
        kind = EVENT_KINDS.get(getattr(callback, "__name__", ""), "other")
        tracer = self._tracer
        if tracer is not None:
            def traced(engine: EventEngine) -> None:
                self.events[kind] = self.events.get(kind, 0) + 1
                tracer.call("event." + kind, ENGINE, False, callback,
                            (engine,), {})
            return traced
        if kind == "request":
            samples = self.request_s
        elif kind == "tick":
            samples = self.tick_s
        else:
            return callback

        def timed(engine: EventEngine) -> None:
            start = perf_counter()
            callback(engine)
            samples.append(perf_counter() - start)
        return timed


@dataclass
class RoundResult:
    setup_s: float
    run_cpu_s: float
    request_s: List[float]
    tick_s: List[float]
    events: Dict[str, int]
    #: One sample per timed recovery.
    recover_s: List[float]
    replayed: int
    wal_bytes: int
    digest: str
    #: check name -> passed
    checks: Dict[str, bool] = field(default_factory=dict)


def _timed_recovery(system: Any, durability: Optional[DurabilityManager],
                    directory: Path, tracer: Optional[Tracer]
                    ) -> Tuple[List[float], Dict[str, str], int]:
    """Times of ``recover(dir)`` + first ``refresh_view()``, repeated.

    A WAL workload seals its journal without a final snapshot, so recovery
    replays the WAL tail.  The others persist the live state once, outside
    the timing, and recovery restores that snapshot and rebuilds.
    """
    if tracer is not None:
        tracer.active = False
    if durability is None:
        durability = DurabilityManager(system, directory)
        durability.close(final_snapshot=True)
    else:
        durability.close()
    samples = []
    checksums: Dict[str, str] = {}
    replayed = 0
    for _ in range(RECOVER_REPEATS):
        if tracer is not None:
            tracer.active = True
            tracer.section("recovery")
        start = perf_counter()
        if tracer is None:
            result = recover(durability.directory)
            result.system.refresh_view()
        else:
            result = tracer.call("recover", "recover", False, _traced_recover,
                                 (tracer, durability.directory), {})
        samples.append(perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        replayed = result.replayed_records
        checksums = result.system.pipeline.checksums()
        result.system.close()
    return samples, checksums, replayed


def _traced_recover(tracer: Tracer, directory: Path) -> Any:
    result = recover(directory)
    tracer.call("recover.refresh", "recover.refresh", False,
                result.system.refresh_view, (), {})
    return result


def run_round(workload: Workload, seed: int, work_dir: Path,
              tracer: Optional[Tracer] = None,
              recorded_digest: Optional[str] = None) -> RoundResult:
    """Build, run and check one round; ``tracer`` needs the layer wrappers."""
    gc.collect()
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_dir))
    try:
        start = perf_counter()
        simulation, durability = build(workload, seed, scratch / "state")
        probe = EngineProbe(simulation.engine, tracer)
        if tracer is None:
            metrics = simulation.run()
        else:
            tracer.active = True
            tracer.section("run")
            metrics = tracer.call("sim.run", ENGINE, False, simulation.run,
                                  (), {})
        run_cpu = process_time() - probe.first_event_cpu
        setup = probe.first_event_wall - start

        system = simulation.mechanism.system
        live = system.pipeline.checksums()
        recover_s, recovered, replayed = _timed_recovery(
            system, durability, scratch / "state", tracer)
        wal_bytes = ((scratch / "state" / "journal.wal").stat().st_size
                     if workload.wal else 0)
        system.pipeline.invalidate()
        system.pipeline.refresh()
        rebuilt = system.pipeline.checksums()

        digest = summary_digest(metrics)
        checks = {"rebuild": rebuilt == live, "recovery": recovered == live}
        if recorded_digest is not None:
            checks["digest"] = digest == recorded_digest
        return RoundResult(
            setup_s=setup, run_cpu_s=run_cpu, request_s=probe.request_s,
            tick_s=probe.tick_s, events=probe.events, recover_s=recover_s,
            replayed=replayed, wal_bytes=wal_bytes, digest=digest,
            checks=checks)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(workload: Workload, seed: int, work_dir: Path) -> float:
    """Set-up time of one build, stopped at its first engine event."""
    gc.collect()
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_dir))
    try:
        start = perf_counter()
        simulation, durability = build(workload, seed, scratch / "state")
        probe = EngineProbe(simulation.engine, setup_only=True)
        try:
            simulation.run()
        except _SetupDone:
            pass
        if durability is not None:
            durability.close()
        return probe.first_event_wall - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def warm_up(workload: Workload, seed: int, work_dir: Path) -> None:
    """One short, untimed round: lazy imports and first-use caches load
    here rather than in the first timed round."""
    run_round(dataclasses.replace(workload, round_hours=WARM_UP_HOURS),
              seed, work_dir)


def _min_rounds(workload: Workload) -> int:
    return math.ceil(MIN_TICKS / workload.round_hours)


class _Budget:
    """Stops starting steps once another would overrun by over half of one.

    Keeps a run's wall time near ``seconds`` whatever the step length, so
    a faster program measures more steps in the same time.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = perf_counter()
        self.steps = 0

    def restart(self) -> None:
        """Count steps from now on; the time already spent stays spent."""
        now = perf_counter()
        self.seconds -= now - self.start
        self.start = now

    def done(self) -> None:
        self.steps += 1

    def another(self) -> bool:
        elapsed = perf_counter() - self.start
        mean = elapsed / self.steps if self.steps else 0.0
        return elapsed + mean / 2 < self.seconds


@dataclass
class Outcome:
    """What a run prints: the contract's JSON line plus side results."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    failures: List[str]

    def as_json(self) -> Dict[str, Any]:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


class _Checks:
    """Counts checks across rounds.

    An instance's first round anchors its digest; every later round of the
    same instance must reproduce it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self._anchors: Dict[int, str] = {}

    def add(self, seed: int, result: RoundResult, label: str = "") -> None:
        checks = dict(result.checks)
        anchor = self._anchors.get(seed)
        if anchor is None:
            self._anchors[seed] = result.digest
        else:
            checks["deterministic"] = result.digest == anchor
        for name, passed in sorted(checks.items()):
            self.attempted += 1
            if not passed:
                self.failures.append(f"seed {seed}{label}: {name}")


def timed_run(workload: Workload, seed: int, seconds: float,
              work_dir: Path) -> Outcome:
    """Rounds until ``seconds`` have passed; end-to-end metrics."""
    recorded = load_digests().get(workload.name, {})
    checks = _Checks()
    rounds: List[RoundResult] = []
    # Each round adds set-up-only builds, so set-up samples spread over
    # the run as the other samples do.
    setups: List[float] = []
    budget = _Budget(seconds)
    warm_up(workload, seed, work_dir)
    budget.restart()
    while len(rounds) < _min_rounds(workload) or budget.another():
        instance = instance_seed(seed, len(rounds))
        result = run_round(workload, instance, work_dir,
                           recorded_digest=recorded.get(str(instance)))
        checks.add(instance, result)
        rounds.append(result)
        setups.append(result.setup_s)
        setups += [measure_setup(workload, instance, work_dir)
                   for _ in range(SETUP_REPEATS)]
        budget.done()

    requests = [s for r in rounds for s in r.request_s]
    ticks = [s for r in rounds for s in r.tick_s]
    metrics = {
        "requests_per_s": (len(requests) / sum(r.run_cpu_s for r in rounds),
                           "1/s"),
        "request_p50_ms": (percentile(requests, 50) * 1e3, "ms"),
        "request_p90_ms": (percentile(requests, 90) * 1e3, "ms"),
        "tick_p50_ms": (percentile(ticks, 50) * 1e3, "ms"),
        "recover_s": (statistics.median(
            s for r in rounds for s in r.recover_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Outcome(checks.attempted, len(checks.failures), metrics,
                   checks.failures)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Traced run                                                             #
# ---------------------------------------------------------------------- #

EVENT_METRICS = ("request", "transfer", "judge", "tick", "join", "leave")


def traced_run(workload: Workload, seed: int, seconds: float,
               work_dir: Path, trace_path: Path) -> Outcome:
    """Alternating untraced/traced rounds; per-layer metrics.

    Per-layer figures are means per traced round (per recovery for the
    ``recover.*`` ones).  ``trace.overhead`` is the traced rounds' CPU time
    in ``simulation.run()`` over the untraced rounds'.
    """
    recorded = load_digests().get(workload.name, {}).get(str(seed))
    checks = _Checks()
    tracer = Tracer()
    plain: List[RoundResult] = []
    traced: List[RoundResult] = []
    budget = _Budget(seconds)
    warm_up(workload, seed, work_dir)
    budget.restart()
    while not traced or budget.another():
        result = run_round(workload, seed, work_dir, recorded_digest=recorded)
        checks.add(seed, result)
        plain.append(result)
        with layer_wrappers(tracer):
            result = run_round(workload, seed, work_dir, tracer=tracer,
                               recorded_digest=recorded)
        checks.add(seed, result, " (traced)")
        traced.append(result)
        budget.done()

    table = layer_table(tracer.tables["run"])
    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead"] = (
        sum(r.run_cpu_s for r in traced) / sum(r.run_cpu_s for r in plain),
        "x")
    verdict = dominant_layers(table)
    tracer.write(trace_path, {
        "workload": workload.name, "seed": seed,
        "traced_rounds": len(traced), "table": table, "verdict": verdict,
        "metrics": {name: value for name, (value, _) in metrics.items()}})
    return Outcome(checks.attempted, len(checks.failures), metrics,
                   checks.failures)


def layer_table(run: Dict[str, List[float]]) -> List[Dict[str, Any]]:
    """Rows of (layer, calls, self_s, share); shares sum to the run's time.

    The self times of all layers partition the traced ``simulation.run()``
    spans, so their sum *is* the traced run's time; ``engine`` is the
    remainder no wrapped call covers.
    """
    total = sum(run.get(layer, [0, 0.0, 0.0])[2] for layer in LAYERS)
    rows = []
    for layer in LAYERS:
        calls, _, self_s = run.get(layer, [0, 0.0, 0.0])
        rows.append({"layer": layer, "module": MODULES[layer],
                     "calls": calls, "self_s": self_s,
                     "share": self_s / total if total else 0.0})
    return rows


def dominant_layers(table: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Largest module share overall and outside service differentiation."""
    modules: Dict[str, float] = {}
    for row in table:
        modules[row["module"]] = modules.get(row["module"], 0.0) + row["share"]
    ranked = sorted(modules.items(), key=lambda item: -item[1])
    attributed = [item for item in ranked if item[0] != MODULES[ENGINE]]
    non_service = [item for item in attributed
                   if item[0] != MODULES["rep_query"]]
    return {"modules": dict(ranked), "dominant": attributed[0][0],
            "dominant_share": attributed[0][1],
            "dominant_non_service": non_service[0][0],
            "dominant_non_service_share": non_service[0][1]}


def layer_metrics(tracer: Tracer, traced: List[RoundResult]
                  ) -> Dict[str, Tuple[float, str]]:
    rounds = len(traced)
    run = tracer.tables["run"]
    counts = tracer.counts["run"]
    recovery = tracer.tables.get("recovery", {})
    recoveries = sum(len(r.recover_s) for r in traced)

    def calls(layer: str) -> float:
        return run.get(layer, [0, 0.0, 0.0])[0] / rounds

    def total_ms(layer: str, table: Dict[str, List[float]] = run,
                 per: int = rounds) -> float:
        return table.get(layer, [0, 0.0, 0.0])[1] * 1e3 / per

    def self_ms(layer: str) -> float:
        return run.get(layer, [0, 0.0, 0.0])[2] * 1e3 / rounds

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    events = {kind: sum(r.events.get(kind, 0) for r in traced) / rounds
              for kind in EVENT_METRICS + ("other",)}
    picks = calls("workload.pick")
    metrics: Dict[str, Tuple[float, str]] = {
        "rep_query.calls": (calls("rep_query"), "count"),
        "rep_query.ms": (total_ms("rep_query"), "ms"),
        "rep_query.per_request": (ratio(calls("rep_query"),
                                        events["request"]), "count"),
        "workload.pick.calls": (picks, "count"),
        "workload.pick.self_ms": (self_ms("workload.pick"), "ms"),
        "workload.pick.miss_ratio": (ratio(
            counts.get("workload.pick.misses", 0) / rounds, picks), "ratio"),
        "catalog.sample.calls": (calls("catalog.sample"), "count"),
        "catalog.sample.ms": (total_ms("catalog.sample"), "ms"),
        "catalog.samples_per_pick": (ratio(calls("catalog.sample"), picks),
                                     "count"),
        "judge.calls": (calls("judge"), "count"),
        "judge.ms": (total_ms("judge"), "ms"),
        "judge.blind_ratio": (ratio(counts.get("judge.blind", 0) / rounds,
                                    calls("judge")), "ratio"),
        "ingest.calls": (calls("ingest"), "count"),
        "ingest.self_ms": (self_ms("ingest"), "ms"),
        "behavior.calls": (calls("behavior"), "count"),
        "behavior.self_ms": (self_ms("behavior"), "ms"),
        "pipeline.refresh.calls": (calls("pipeline.refresh"), "count"),
        "pipeline.refresh.self_ms": (self_ms("pipeline.refresh"), "ms"),
        "pipeline.rows_rebuilt_ratio": (ratio(
            counts.get("pipeline.rows_rebuilt", 0),
            counts.get("pipeline.total_rows", 0)), "ratio"),
        "file_trust.patch_ms": (total_ms("file_trust.patch"), "ms"),
        "volume_trust.patch_ms": (total_ms("volume_trust.patch"), "ms"),
        "user_trust.patch_ms": (total_ms("user_trust.patch"), "ms"),
        "pipeline.combine_ms": (total_ms("pipeline.combine"), "ms"),
        "matrix_backend.resolve_ms": (total_ms("matrix_backend.resolve"),
                                      "ms"),
        "multitrust.power_ms": (total_ms("multitrust.power"), "ms"),
        "wal.append.calls": (calls("wal.append"), "count"),
        "wal.append.ms": (total_ms("wal.append"), "ms"),
        "wal.bytes": (sum(r.wal_bytes for r in traced) / rounds, "bytes"),
        "wal.sync.ms": (total_ms("wal.sync"), "ms"),
        "snapshot.calls": (calls("snapshot"), "count"),
        "snapshot.ms": (total_ms("snapshot"), "ms"),
        "recover.scan_ms": (total_ms("recover.scan", recovery, recoveries),
                            "ms"),
        "recover.replay_ms": (total_ms("recover.replay", recovery,
                                       recoveries), "ms"),
        "recover.replayed": (sum(r.replayed for r in traced) / rounds,
                             "count"),
        "recover.refresh_ms": (total_ms("recover.refresh", recovery,
                                        recoveries), "ms"),
        "engine.events": (sum(events.values()), "count"),
    }
    for kind in EVENT_METRICS:
        metrics["engine.events." + kind] = (events[kind], "count")
    metrics["engine.self_ms"] = (self_ms(ENGINE), "ms")
    metrics["trace.run_ms"] = (
        sum(row[2] for row in run.values()) * 1e3 / rounds, "ms")
    return metrics
