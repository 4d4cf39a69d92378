"""Tests for repro.traces.catalog."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import FileCatalog, zipf_weights

DAY = 24 * 3600.0


class TestZipfWeights:
    def test_normalized(self):
        assert sum(zipf_weights(100, 0.8)) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, 1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_exponent_zero_is_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)

    @given(n=st.integers(min_value=1, max_value=200),
           exponent=st.floats(min_value=0.0, max_value=2.0))
    def test_always_a_distribution(self, n, exponent):
        weights = zipf_weights(n, exponent)
        assert len(weights) == n
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)


class TestCatalogGeneration:
    @pytest.fixture
    def catalog(self):
        return FileCatalog.generate(200, random.Random(1), fake_ratio=0.3,
                                    trace_days=30.0)

    def test_size(self, catalog):
        assert len(catalog) == 200

    def test_fake_ratio_respected(self, catalog):
        assert len(catalog.fake_ids()) == 60
        assert len(catalog.real_ids()) == 140

    def test_fakes_have_low_quality_reals_high(self, catalog):
        for catalog_file in catalog:
            if catalog_file.is_fake:
                assert catalog_file.quality <= 0.2
            else:
                assert catalog_file.quality >= 0.75

    def test_most_popular_title_is_real(self, catalog):
        top = max(catalog, key=lambda f: f.popularity)
        assert not top.is_fake

    def test_fakes_shadow_popular_titles(self, catalog):
        """Pollution targets popular titles: the top half of the catalog by
        popularity must contain a large share of the fakes."""
        ranked = sorted(catalog, key=lambda f: -f.popularity)
        top_half = ranked[:len(ranked) // 2]
        fakes_in_top = sum(1 for f in top_half if f.is_fake)
        assert fakes_in_top >= len(catalog.fake_ids()) * 0.4

    def test_lifetimes_within_horizon(self, catalog):
        horizon = 30.0 * DAY
        for catalog_file in catalog:
            assert 0.0 <= catalog_file.birth_time <= horizon
            assert catalog_file.birth_time <= catalog_file.death_time <= horizon

    def test_deterministic_for_seed(self):
        a = FileCatalog.generate(50, random.Random(7))
        b = FileCatalog.generate(50, random.Random(7))
        assert [f.file_id for f in a] == [f.file_id for f in b]
        assert [f.size_bytes for f in a] == [f.size_bytes for f in b]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FileCatalog.generate(0, random.Random(1))
        with pytest.raises(ValueError):
            FileCatalog.generate(10, random.Random(1), fake_ratio=1.5)

    def test_extreme_fake_ratios(self):
        all_fake = FileCatalog.generate(20, random.Random(1), fake_ratio=1.0)
        assert len(all_fake.fake_ids()) == 20
        no_fake = FileCatalog.generate(20, random.Random(1), fake_ratio=0.0)
        assert len(no_fake.fake_ids()) == 0


class TestCatalogQueries:
    @pytest.fixture
    def catalog(self):
        return FileCatalog.generate(100, random.Random(2), trace_days=30.0)

    def test_get_by_id(self, catalog):
        assert catalog.get("file-000000").file_id == "file-000000"

    def test_get_missing_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("nope")

    def test_alive_at_respects_lifetimes(self, catalog):
        timestamp = 15.0 * DAY
        for catalog_file in catalog.alive_at(timestamp):
            assert catalog_file.alive_at(timestamp)

    def test_sample_prefers_popular(self, catalog):
        rng = random.Random(3)
        counts = {}
        for catalog_file in catalog.sample(rng, k=3000):
            counts[catalog_file.file_id] = counts.get(catalog_file.file_id, 0) + 1
        # The most popular file must be sampled far more often than the
        # median file.
        top = max(catalog, key=lambda f: f.popularity)
        median_count = sorted(counts.values())[len(counts) // 2]
        assert counts.get(top.file_id, 0) > 3 * median_count

    def test_sample_restricted_to_alive(self, catalog):
        rng = random.Random(4)
        timestamp = 10.0 * DAY
        alive_ids = {f.file_id for f in catalog.alive_at(timestamp)}
        if alive_ids:
            sampled = catalog.sample(rng, timestamp=timestamp, k=50)
            assert all(f.file_id in alive_ids for f in sampled)


def _uncached_sample(catalog, rng, timestamp, k):
    """The catalog's sampling rule with no index: scan, weigh, draw."""
    pool = catalog.alive_at(timestamp) or catalog.files
    return rng.choices(pool, weights=[f.popularity for f in pool], k=k)


def _boundary_timestamps(catalog, rng, count):
    """Timestamps on, just before and just after births and deaths."""
    edges = sorted({f.birth_time for f in catalog}
                   | {f.death_time for f in catalog})
    picked = sorted(rng.sample(edges, min(count, len(edges))))
    stamps = [-1.0, 0.0]
    for edge in picked:
        stamps += [edge - 1e-6, edge, edge, edge + 1e-6]
    return stamps + [edges[-1] + DAY]


class TestCatalogIndexes:
    """The id index and the alive-pool cache equal the uncached paths."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_files=st.integers(min_value=1, max_value=60),
           k=st.integers(min_value=1, max_value=3),
           shuffle=st.booleans())
    def test_sample_sequences_equal_uncached(self, seed, num_files, k,
                                             shuffle):
        catalog = FileCatalog.generate(num_files, random.Random(seed),
                                       trace_days=3.0,
                                       mean_lifetime_days=0.5)
        stamps = _boundary_timestamps(catalog, random.Random(seed), 12)
        if shuffle:
            # Out-of-order timestamps must miss the cache, never hit stale.
            random.Random(seed + 1).shuffle(stamps)
        cached_rng, plain_rng = random.Random(seed), random.Random(seed)
        for timestamp in stamps:
            assert (catalog.sample(cached_rng, timestamp=timestamp, k=k)
                    == _uncached_sample(catalog, plain_rng, timestamp, k))
        assert cached_rng.random() == plain_rng.random()

    def test_appending_files_rebuilds_the_indexes(self):
        catalog = FileCatalog.generate(30, random.Random(5), trace_days=2.0)
        timestamp = catalog.files[0].birth_time
        catalog.sample(random.Random(1), timestamp=timestamp)  # warm cache
        extra = FileCatalog.generate(31, random.Random(6), trace_days=2.0)
        late = extra.files[30]
        catalog.files.append(late)
        assert catalog.get(late.file_id) is late
        for stamp in (timestamp, late.birth_time):
            assert (catalog.sample(random.Random(2), timestamp=stamp, k=5)
                    == _uncached_sample(catalog, random.Random(2), stamp, 5))

    def test_replacing_files_rebuilds_the_indexes(self):
        catalog = FileCatalog.generate(30, random.Random(5), trace_days=2.0)
        timestamp = catalog.files[3].birth_time
        catalog.sample(random.Random(1), timestamp=timestamp)
        assert catalog.get("file-000029").file_id == "file-000029"
        catalog.files = catalog.files[:10]
        with pytest.raises(KeyError):
            catalog.get("file-000029")
        assert (catalog.sample(random.Random(2), timestamp=timestamp, k=5)
                == _uncached_sample(catalog, random.Random(2), timestamp, 5))
        # A new list of the same length is a new catalog too.
        other = FileCatalog.generate(10, random.Random(9), trace_days=2.0)
        catalog.files = [dataclasses.replace(f, file_id=f"other-{index}")
                         for index, f in enumerate(other.files)]
        assert catalog.get("other-3").file_id == "other-3"
        for stamp in (timestamp, other.files[4].birth_time):
            assert (catalog.sample(random.Random(3), timestamp=stamp, k=5)
                    == _uncached_sample(catalog, random.Random(3), stamp, 5))

    def test_get_returns_the_first_file_with_an_id(self):
        catalog = FileCatalog.generate(5, random.Random(1))
        first = catalog.files[2]
        catalog.files.append(dataclasses.replace(first, quality=0.5))
        assert catalog.get(first.file_id) is first

    def test_no_timestamp_samples_the_whole_catalog(self):
        catalog = FileCatalog.generate(20, random.Random(3))
        assert (catalog.sample(random.Random(4), k=7)
                == random.Random(4).choices(
                    catalog.files, weights=[f.popularity
                                            for f in catalog.files], k=7))
