"""Layer tracing for the traced benchmark run.

Every span is opened by a wrapper this module installs around a *public*
call into one of the repository's layers; nothing under ``src/`` is edited.
:func:`layer_wrappers` patches the targets for the duration of a ``with``
block and restores the originals on exit, so untraced rounds run the
unmodified code.

A span records its name, start, end and parent.  Calls that happen hundreds
of times per request (reputation queries, store ingest, WAL appends,
recovery replay) are *aggregated* instead: their count and time are added
to the enclosing span, and no span is kept per call.  Either way a call's
duration is charged to its parent as child time, so a layer's self time is
its duration minus the part its children cover, and the self times of all
layers partition the root span exactly.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.baselines.multidimensional import MultiDimensionalMechanism
from repro.core import pipeline as pipeline_module
from repro.core.durability import recovery as recovery_module
from repro.core.durability.snapshots import SnapshotStore
from repro.core.durability.wal import WalWriter
from repro.core.file_trust import FileTrustAccumulator
from repro.core.pipeline import TrustPipeline
from repro.core.reputation_system import MultiDimensionalReputationSystem
from repro.core.user_trust import UserTrustAccumulator
from repro.core.volume_trust import VolumeTrustAccumulator
from repro.simulator.behaviors import PeerBehavior
from repro.simulator.workload import WorkloadModel
from repro.traces.catalog import FileCatalog

__all__ = ["Tracer", "layer_wrappers", "LAYERS", "MODULES", "ENGINE"]

#: The layer that owns whatever no wrapped call covers: the engine loop and
#: the simulation code between layer calls.
ENGINE = "engine"

#: Every layer of the run table, in report order.  Self times of these
#: partition the traced ``simulation.run()``.
LAYERS = ("rep_query", "workload.pick", "catalog.sample", "judge", "ingest",
          "behavior", "pipeline.refresh", "file_trust.patch",
          "volume_trust.patch", "user_trust.patch", "pipeline.combine",
          "matrix_backend.resolve", "multitrust.power", "wal.append",
          "wal.sync", "snapshot", ENGINE)

#: Repository module each layer belongs to, for the dominant-layer verdict.
MODULES = {
    "rep_query": "core.reputation_system",
    "workload.pick": "simulator.workload+traces.catalog",
    "catalog.sample": "simulator.workload+traces.catalog",
    "judge": "core.file_reputation",
    "ingest": "stores",
    "behavior": "simulator.behaviors",
    "pipeline.refresh": "core.pipeline",
    "file_trust.patch": "core.pipeline",
    "volume_trust.patch": "core.pipeline",
    "user_trust.patch": "core.pipeline",
    "pipeline.combine": "core.pipeline",
    "matrix_backend.resolve": "core.pipeline",
    "multitrust.power": "core.pipeline",
    "wal.append": "core.durability",
    "wal.sync": "core.durability",
    "snapshot": "core.durability",
    ENGINE: "simulator.engine",
}

_INGEST_METHODS = ("record_download", "record_vote", "record_retention",
                   "record_rank", "record_blacklist", "record_deletion",
                   "record_upload_outcome")


class Tracer:
    """In-memory spans plus per-layer ``[calls, total_s, self_s]`` tables.

    ``tables`` holds one layer table per section; :meth:`section` selects
    which one calls are charged to (``"run"`` for the simulation,
    ``"recovery"`` for timed recoveries).  While :attr:`active` is false the
    wrappers call straight through.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]``; parent -1 marks a root.
        self.spans: List[List[Any]] = []
        #: span index -> {aggregated name: [count, total_s]}
        self.aggregates: Dict[int, Dict[str, List[float]]] = {}
        self.tables: Dict[str, Dict[str, List[float]]] = {}
        #: Per-section counts taken at layer boundaries (misses, rows...).
        self.counts: Dict[str, Dict[str, float]] = {}
        self.active = True
        self._table: Dict[str, List[float]] = {}
        self._counts: Dict[str, float] = {}
        self.section("run")
        #: Open frames: ``[span_index_owning_this_frame, child_s, name]``.
        self._stack: List[List[Any]] = []

    def section(self, name: str) -> None:
        self._table = self.tables.setdefault(name, {})
        self._counts = self.counts.setdefault(name, {})

    def count(self, key: str, amount: float = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def call(self, name: str, layer: str, aggregate: bool,
             fn: Callable[..., Any], args: Tuple[Any, ...],
             kwargs: Dict[str, Any]) -> Any:
        """Run ``fn`` inside a span (or an aggregate) charged to ``layer``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if aggregate:
            owner = parent[0] if parent is not None else -1
            index = -1
        else:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               parent[0] if parent is not None else -1])
            owner = index
        frame = [owner, 0.0, name]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            row = self._table.get(layer)
            if row is None:
                row = self._table[layer] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if aggregate:
                bucket = self.aggregates.setdefault(owner, {})
                entry = bucket.get(name)
                if entry is None:
                    entry = bucket[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration
            else:
                span = self.spans[index]
                span[1] = start
                span[2] = end

    def wrap(self, fn: Callable[..., Any], name: str,
             aggregate: bool = False, reentrant: bool = True,
             observe: Optional[Callable[[Tuple[Any, ...], Any], None]] = None
             ) -> Callable[..., Any]:
        """``fn`` traced as ``name``, charged to the layer of that name.

        ``reentrant=False`` folds a call made directly inside a span of the
        same name into that span (a behaviour hook calling its base class).
        ``observe(args, result)`` runs after each traced call.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if not tracer.active or (not reentrant and stack
                                     and stack[-1][2] == name):
                return fn(*args, **kwargs)
            result = tracer.call(name, name, aggregate, fn, args, kwargs)
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write spans and aggregates (times in microseconds) as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        names: Dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)),
                         round((start - origin) * 1e6, 1),
                         round((end - origin) * 1e6, 1), parent])
        document = dict(extra)
        document["span_names"] = list(names)
        document["spans"] = rows
        document["aggregates"] = {
            str(index): {name: [count, round(total * 1e6, 1)]
                         for name, (count, total) in sorted(bucket.items())}
            for index, bucket in sorted(self.aggregates.items())}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _behavior_classes() -> List[type]:
    found: List[type] = []
    pending = [PeerBehavior]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


@contextlib.contextmanager
def layer_wrappers(tracer: Tracer) -> Iterator[Tracer]:
    """Install the layer wrappers for the duration of the block."""

    def count_miss(args: Tuple[Any, ...], result: Any) -> None:
        if result is None:
            tracer.count("workload.pick.misses")

    def count_blind(args: Tuple[Any, ...], result: Any) -> None:
        if result is None:
            tracer.count("judge.blind")

    # A refresh that consumed dirt publishes a new RefreshStats object; a
    # no-op refresh leaves the previous one in place.
    last_stats: Dict[int, Any] = {}

    def count_rows(args: Tuple[Any, ...], result: Any) -> None:
        stats = args[0].last_stats
        if stats is not None and last_stats.get(id(args[0])) is not stats:
            last_stats[id(args[0])] = stats
            tracer.count("pipeline.rows_rebuilt", stats.rows_rebuilt)
            tracer.count("pipeline.total_rows", stats.total_rows)

    originals: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, name: str, **options: Any) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, **options))

    mech = MultiDimensionalMechanism
    patch(mech, "reputation", "rep_query", aggregate=True)
    patch(mech, "is_distrusted", "rep_query", aggregate=True)
    patch(mech, "file_score", "judge", observe=count_blind)
    for method in _INGEST_METHODS:
        patch(mech, method, "ingest", aggregate=True)
    patch(WorkloadModel, "pick_request", "workload.pick", observe=count_miss)
    patch(FileCatalog, "sample", "catalog.sample")
    for cls in _behavior_classes():
        for hook in ("on_download_complete", "on_periodic"):
            if hook in cls.__dict__:
                patch(cls, hook, "behavior", reentrant=False)
    patch(TrustPipeline, "refresh", "pipeline.refresh", observe=count_rows)
    for cls, layer in ((FileTrustAccumulator, "file_trust.patch"),
                       (VolumeTrustAccumulator, "volume_trust.patch"),
                       (UserTrustAccumulator, "user_trust.patch")):
        patch(cls, "refresh", layer)
        patch(cls, "rebuild", layer)
    patch(pipeline_module, "combine_dimension_rows", "pipeline.combine")
    patch(pipeline_module, "resolve_backend", "matrix_backend.resolve")
    patch(pipeline_module, "compute_reputation_matrix", "multitrust.power")
    patch(WalWriter, "append", "wal.append", aggregate=True)
    patch(WalWriter, "sync", "wal.sync")
    patch(SnapshotStore, "write", "snapshot")
    patch(recovery_module, "read_wal", "recover.scan")
    patch(MultiDimensionalReputationSystem, "apply_record", "recover.replay",
          aggregate=True)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
