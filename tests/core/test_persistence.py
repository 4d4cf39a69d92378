"""Tests for repro.core.persistence: save/restore round trips."""

import json
from pathlib import Path

import pytest

from repro.core import (MultiDimensionalReputationSystem, ReputationConfig,
                        load_system, save_system, system_from_dict,
                        system_to_dict)
from repro.core.persistence import (FORMAT_VERSION, snapshot_checksum,
                                    wal_last_seq)

DAY = 24 * 3600.0


@pytest.fixture
def populated_system():
    config = ReputationConfig(eta=0.3, rho=0.7, alpha=0.4, beta=0.4,
                              gamma=0.2, multitrust_steps=2)
    system = MultiDimensionalReputationSystem(config)
    system.record_retention("alice", "f1", 20 * DAY, timestamp=10.0)
    system.record_vote("alice", "f1", 0.9, timestamp=11.0)
    system.record_play("alice", "f2", 0.8, timestamp=12.0)
    system.record_vote("bob", "f1", 0.85, timestamp=13.0)
    system.record_download("alice", "bob", "f1", 5e8, timestamp=14.0)
    system.record_rank("alice", "bob", 0.7)
    system.add_friend("bob", "alice")
    system.add_to_blacklist("alice", "mallory")
    system.record_fake_deletion("bob", "junk", timestamp=15.0)
    system.record_real_upload("bob")
    return system


class TestRoundTrip:
    def test_dict_round_trip_preserves_reputations(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        users = ("alice", "bob", "mallory")
        for observer in users:
            for target in users:
                assert restored.user_reputation(observer, target) == \
                    pytest.approx(
                        populated_system.user_reputation(observer, target))

    def test_config_restored(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        assert restored.config == populated_system.config

    def test_matmul_backend_round_trips(self):
        system = MultiDimensionalReputationSystem(
            ReputationConfig(matmul_backend="dense"))
        system.record_vote("alice", "f1", 0.9)
        restored = system_from_dict(system_to_dict(system))
        assert restored.config.matmul_backend == "dense"

    def test_evaluation_channels_restored(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        original = populated_system.evaluations.get("alice", "f2")
        copy = restored.evaluations.get("alice", "f2")
        assert copy.play_fraction == original.play_fraction
        original = populated_system.evaluations.get("alice", "f1")
        copy = restored.evaluations.get("alice", "f1")
        assert copy.explicit == original.explicit
        assert copy.implicit == original.implicit
        assert copy.timestamp == original.timestamp

    def test_user_trust_restored(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        assert restored.user_trust.is_friend("bob", "alice")
        assert restored.user_trust.is_blacklisted("alice", "mallory")
        assert restored.user_trust.trust("alice", "bob") == 0.7

    def test_credits_restored(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        for user in ("alice", "bob"):
            assert restored.credits.credit(user) == pytest.approx(
                populated_system.credits.credit(user))

    def test_judgements_survive_round_trip(self, populated_system):
        restored = system_from_dict(system_to_dict(populated_system))
        original = populated_system.judge_file("alice", "f1")
        copy = restored.judge_file("alice", "f1")
        assert copy.accept == original.accept
        assert copy.reputation == pytest.approx(original.reputation)


class TestFileRoundTrip:
    def test_save_and_load(self, populated_system, tmp_path):
        path = tmp_path / "state.json"
        save_system(populated_system, path)
        restored = load_system(path)
        assert restored.user_reputation("alice", "bob") == pytest.approx(
            populated_system.user_reputation("alice", "bob"))

    def test_file_is_valid_json(self, populated_system, tmp_path):
        path = tmp_path / "state.json"
        save_system(populated_system, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == FORMAT_VERSION

    def test_save_is_deterministic(self, populated_system, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_system(populated_system, a)
        save_system(populated_system, b)
        assert a.read_text() == b.read_text()


class TestVersioning:
    def test_unknown_version_rejected(self, populated_system):
        data = system_to_dict(populated_system)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            system_from_dict(data)

    def test_missing_version_rejected(self, populated_system):
        data = system_to_dict(populated_system)
        del data["format_version"]
        with pytest.raises(ValueError):
            system_from_dict(data)


def _as_v1(data):
    """Rewrite a current-format dump as a faithful version-1 document."""
    v1 = {key: value for key, value in data.items()
          if key not in ("wal", "checksum")}
    v1["format_version"] = 1
    return v1


class TestV1Migration:
    """Version-1 documents (pre-WAL, pre-checksum) must keep loading."""

    def test_v1_document_loads(self, populated_system):
        v1 = _as_v1(system_to_dict(populated_system))
        restored = system_from_dict(v1)
        users = ("alice", "bob", "mallory")
        for observer in users:
            for target in users:
                assert restored.user_reputation(observer, target) == \
                    pytest.approx(
                        populated_system.user_reputation(observer, target))

    def test_v1_has_no_wal_coverage(self, populated_system):
        v1 = _as_v1(system_to_dict(populated_system))
        assert wal_last_seq(v1) == 0

    def test_v1_json_file_loads(self, populated_system, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(_as_v1(system_to_dict(populated_system))))
        restored = load_system(path)
        assert restored.user_trust.is_friend("bob", "alice")


class TestV2Metadata:
    def test_wal_seq_round_trips(self, populated_system):
        data = system_to_dict(populated_system, last_seq=42)
        assert wal_last_seq(data) == 42
        system_from_dict(data)  # still restores with the wal section

    def test_checksum_is_stamped_and_verifies(self, populated_system):
        data = system_to_dict(populated_system)
        assert data["checksum"] == snapshot_checksum(data)
        system_from_dict(data)

    def test_checksum_mismatch_rejected(self, populated_system):
        data = system_to_dict(populated_system)
        data["auto_refresh"] = not data["auto_refresh"]
        with pytest.raises(ValueError, match="checksum mismatch"):
            system_from_dict(data)

    def test_malformed_wal_section_rejected(self, populated_system):
        data = system_to_dict(populated_system, last_seq=7)
        data["wal"] = {"last_seq": "seven"}
        data["checksum"] = snapshot_checksum(data)
        with pytest.raises(ValueError, match="'wal'"):
            system_from_dict(data)


#: A v3 document written by the sharded pipeline (``shards=4``,
#: ``shard_workers=2``, ``multitrust_steps=2``), with the TM/RM checksums
#: that build printed for it.
LEGACY_SNAPSHOT = (Path(__file__).resolve().parents[1] / "durability"
                   / "legacy" / "sharded_v3_snapshot.json")
LEGACY_SNAPSHOT_CHECKSUMS = {
    "trust": "3efa55a106f8739c98e1f9a09b0ed8e181cee7497485fa0c72f72938a28cdaf3",
    "reputation":
        "b499cafae9305bf00a08bccecc36de872d0737b5c340147e2b267ca43de5a76d",
}


def _checksums(system):
    system.reputation_matrix()
    return system.pipeline.checksums()


class TestV3Sharding:
    """Documents of the removed sharded pipeline load; new ones omit it."""

    def _legacy(self):
        return json.loads(LEGACY_SNAPSHOT.read_text())

    def test_unsharded_document_has_no_sharding_section(
            self, populated_system):
        data = system_to_dict(populated_system)
        assert "sharding" not in data
        assert not {"shards", "shard_workers"} & set(data["config"])

    def test_sharded_round_trip(self):
        data = self._legacy()
        assert data["format_version"] == 3
        assert data["sharding"]["shards"] == 4
        assert data["config"]["shard_workers"] == 2
        restored = system_from_dict(data)
        assert restored.config.shard_workers == 1
        assert _checksums(restored) == LEGACY_SNAPSHOT_CHECKSUMS
        again = system_to_dict(restored, last_seq=wal_last_seq(data))
        assert "sharding" not in again
        assert _checksums(system_from_dict(again)) == \
            LEGACY_SNAPSHOT_CHECKSUMS

    def test_sharding_section_contents_ignored(self):
        # Peer-to-shard routing cannot drift once nothing is routed, so
        # the digest and hash name are no longer checked.
        data = self._legacy()
        data["sharding"]["assignment_digest"] = "0" * 64
        data["sharding"]["hash"] = "crc32"
        data["checksum"] = snapshot_checksum(data)
        assert _checksums(system_from_dict(data)) == \
            LEGACY_SNAPSHOT_CHECKSUMS

    def test_malformed_sharding_section_rejected(self):
        for section in ({"shards": "four"}, {"shards": 0}, {"shards": True},
                        {}, [4]):
            data = self._legacy()
            data["sharding"] = section
            data["checksum"] = snapshot_checksum(data)
            with pytest.raises(ValueError, match="'sharding'"):
                system_from_dict(data)

    def test_v2_document_without_shard_knobs_loads(self, populated_system):
        data = system_to_dict(populated_system)
        data["format_version"] = 2
        data["checksum"] = snapshot_checksum(data)
        restored = system_from_dict(data)
        assert restored.config == populated_system.config


class TestPreciseErrors:
    """Rejections must name the offending field or section."""

    def _unstamped(self, populated_system, mutate):
        data = system_to_dict(populated_system)
        mutate(data)
        data["checksum"] = snapshot_checksum(data)
        return data

    def test_missing_section_is_named(self, populated_system):
        data = self._unstamped(populated_system,
                               lambda d: d.pop("downloads"))
        with pytest.raises(ValueError, match="'downloads'"):
            system_from_dict(data)

    def test_unknown_section_is_named(self, populated_system):
        data = self._unstamped(
            populated_system,
            lambda d: d.__setitem__("telemetry", {}))
        with pytest.raises(ValueError, match="'telemetry'"):
            system_from_dict(data)

    def test_unknown_config_field_is_named(self, populated_system):
        data = self._unstamped(
            populated_system,
            lambda d: d["config"].__setitem__("warp_factor", 9))
        with pytest.raises(ValueError, match="'warp_factor'"):
            system_from_dict(data)

    def test_missing_config_field_is_named(self, populated_system):
        data = self._unstamped(populated_system,
                               lambda d: d["config"].pop("eta"))
        with pytest.raises(ValueError, match="'eta'"):
            system_from_dict(data)

    def test_multiple_missing_fields_all_named(self, populated_system):
        def mutate(d):
            d["config"].pop("eta")
            d["config"].pop("rho")
        data = self._unstamped(populated_system, mutate)
        with pytest.raises(ValueError, match="'eta'.*'rho'"):
            system_from_dict(data)
