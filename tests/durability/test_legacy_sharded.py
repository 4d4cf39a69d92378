"""A WAL directory written by the removed sharded pipeline still recovers.

``legacy/sharded_wal`` came from ``repro simulate --honest 6 --free-riders 2
--polluters 1 --colluders 2 --catalog 20 --days 0.1 --seed 7
--multitrust-steps 2 --shards 4 --wal-out DIR --snapshot-every 0
--crash-at 5000``.  Its baseline snapshot carries a ``sharding`` section
and every journal record a ``shard`` payload key; the checksums below are
what that build recovered from it.
"""

import shutil
from pathlib import Path

from repro.core.durability import read_wal, recover
from repro.core.durability.journal import WAL_FILENAME

LEGACY_WAL = Path(__file__).resolve().parent / "legacy" / "sharded_wal"
LEGACY_WAL_CHECKSUMS = {
    "trust": "f9454070e1b60b1f2688ade0383daa84e04e375df3eb74aea5b7b8d6f45daad0",
    "reputation":
        "1fa6d502ac2a61fd8129231ced121d555145d0df4a59e3798852178093f4998c",
}


def test_fixture_carries_shard_annotations():
    records = read_wal(LEGACY_WAL / WAL_FILENAME).records
    assert len(records) == 102
    assert all(isinstance(r.payload.get("shard"), int) for r in records)


def test_legacy_wal_replays_to_recorded_checksums(tmp_path):
    directory = tmp_path / "wal"
    shutil.copytree(LEGACY_WAL, directory)
    result = recover(directory)
    assert result.replayed_records == 102
    assert result.system.config.multitrust_steps == 2
    result.system.reputation_matrix()
    assert result.system.pipeline.checksums() == LEGACY_WAL_CHECKSUMS
