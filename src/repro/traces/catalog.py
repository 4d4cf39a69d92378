"""Synthetic file catalog: popularity, sizes, lifetimes and fake flags.

The paper's Maze measurements (and the P2P measurement literature it cites)
pin down the shape of a real catalog:

* file *popularity* is Zipf-like — a few titles dominate downloads;
* file *sizes* are heavy-tailed (we use a log-normal, capped);
* most files have a *short life cycle* ("most files have a small life cycle
  which is also shown in [Figure] 1") — new titles appear, old ones fade;
* near popular titles, a substantial share of copies are *fake* ("nearly
  half of the files of some popular titles are fake").

The catalog assigns each file a quality in [0, 1]; fakes have low quality,
real files high.  Honest users' evaluations are noisy observations of this
quality.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["CatalogFile", "FileCatalog", "zipf_weights"]

_DAY_SECONDS = 24 * 3600.0


def zipf_weights(n: int, exponent: float = 0.8) -> List[float]:
    """Normalised Zipf weights ``w_r ~ 1 / r^exponent`` for ranks 1..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    raw = [1.0 / (rank ** exponent) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


@dataclass(frozen=True)
class CatalogFile:
    """One file in the shared catalog."""

    file_id: str
    filename: str
    size_bytes: float
    #: Ground-truth quality in [0, 1]; fakes sit near 0, real files near 1.
    quality: float
    is_fake: bool
    #: Popularity weight (normalised over the catalog at birth time).
    popularity: float
    #: When the file first becomes available.
    birth_time: float
    #: When requests for the file cease (its "life cycle").
    death_time: float

    def alive_at(self, timestamp: float) -> bool:
        return self.birth_time <= timestamp < self.death_time


class _CatalogIndex:
    """Lookups derived from one state of :attr:`FileCatalog.files`.

    Birth and death times cut the time line into intervals over which the
    alive set is constant; interval ``k`` holds the timestamps ``t`` with
    ``bisect_right(boundaries, t) == k``.  ``alive`` is the alive mask of
    interval ``interval``; moving to another interval re-tests only the
    files with a birth or death in between, and the pool and its
    cumulative weights are rebuilt from the mask.
    """

    def __init__(self, files: List[CatalogFile]):
        self.files = files
        self.size = len(files)
        self.by_id: Dict[str, CatalogFile] = {}
        for catalog_file in files:
            # The first file with an id wins, as a front-to-back scan would.
            self.by_id.setdefault(catalog_file.file_id, catalog_file)
        self.boundaries = sorted({f.birth_time for f in files}
                                 | {f.death_time for f in files})
        slot = {time: index for index, time in enumerate(self.boundaries)}
        #: File indices with a birth or death at each boundary.
        self.crossing: List[List[int]] = [[] for _ in self.boundaries]
        for index, catalog_file in enumerate(files):
            self.crossing[slot[catalog_file.birth_time]].append(index)
            self.crossing[slot[catalog_file.death_time]].append(index)
        self.popularity = [f.popularity for f in files]
        # Before the first boundary nothing is born yet.
        self.alive = [False] * len(files)
        self.interval = 0
        self.pool: Optional[Tuple[List[CatalogFile], List[float]]] = None

    def covers(self, files: List[CatalogFile]) -> bool:
        """True while ``files`` is the list, at the length, indexed here."""
        return files is self.files and len(files) == self.size

    def pool_at(self, timestamp: float
                ) -> Tuple[List[CatalogFile], List[float]]:
        """Files eligible at ``timestamp`` and their cumulative weights."""
        interval = bisect.bisect_right(self.boundaries, timestamp)
        if self.pool is not None and interval == self.interval:
            return self.pool
        low, high = sorted((interval, self.interval))
        for boundary in range(low, high):
            for index in self.crossing[boundary]:
                self.alive[index] = self.files[index].alive_at(timestamp)
        self.interval = interval
        pool = list(itertools.compress(self.files, self.alive))
        if pool:
            cum_weights = list(itertools.accumulate(
                itertools.compress(self.popularity, self.alive)))
        else:
            pool = self.files
            cum_weights = list(itertools.accumulate(self.popularity))
        self.pool = (pool, cum_weights)
        return self.pool


@dataclass
class FileCatalog:
    """A collection of catalog files supporting popularity-weighted sampling.

    :meth:`get` and :meth:`sample` read indexes derived from ``files``
    (:class:`_CatalogIndex`), rebuilt when ``files`` is replaced or grows;
    editing entries of the list in place is not tracked.
    """

    files: List[CatalogFile] = field(default_factory=list)
    _index: Optional[_CatalogIndex] = field(default=None, init=False,
                                            repr=False, compare=False)

    @classmethod
    def generate(cls, num_files: int, rng: random.Random,
                 fake_ratio: float = 0.25,
                 zipf_exponent: float = 0.8,
                 mean_size_mb: float = 8.0,
                 trace_days: float = 30.0,
                 mean_lifetime_days: float = 10.0) -> "FileCatalog":
        """Generate a synthetic catalog.

        ``fake_ratio`` is the fraction of *titles* that are fake; because
        fakes are planted preferentially near popular titles (pollution
        targets what people search for), the fraction of fake *downloads*
        comes out similar, echoing the "nearly half of popular titles" claim
        when the ratio is pushed toward 0.5.
        """
        if num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {num_files}")
        if not 0.0 <= fake_ratio <= 1.0:
            raise ValueError(f"fake_ratio must be in [0,1], got {fake_ratio}")
        weights = zipf_weights(num_files, zipf_exponent)
        horizon = trace_days * _DAY_SECONDS

        # Plant fakes alternately among popular ranks: rank order is a proxy
        # for search visibility, and polluters shadow popular titles.
        num_fakes = round(num_files * fake_ratio)
        fake_ranks = set()
        if num_fakes:
            stride = max(num_files // max(num_fakes, 1), 1)
            rank = 1  # rank 0 (the most popular title) stays real
            while len(fake_ranks) < num_fakes and rank < num_files:
                fake_ranks.add(rank)
                rank += stride
            rank = 0
            while len(fake_ranks) < num_fakes:
                if rank not in fake_ranks:
                    fake_ranks.add(rank)
                rank += 1

        files: List[CatalogFile] = []
        for rank in range(num_files):
            is_fake = rank in fake_ranks
            quality = (rng.uniform(0.0, 0.2) if is_fake
                       else rng.uniform(0.75, 1.0))
            size = min(rng.lognormvariate(0.0, 1.0) * mean_size_mb, 200.0)
            birth = rng.uniform(0.0, horizon * 0.6)
            lifetime = rng.expovariate(1.0 / (mean_lifetime_days * _DAY_SECONDS))
            files.append(CatalogFile(
                file_id=f"file-{rank:06d}",
                filename=f"title_{rank:06d}.dat",
                size_bytes=size * 1024 * 1024,
                quality=quality,
                is_fake=is_fake,
                popularity=weights[rank],
                birth_time=birth,
                death_time=min(birth + lifetime, horizon) if lifetime > 0 else birth,
            ))
        return cls(files=files)

    # ------------------------------------------------------------------ #
    # Sampling and lookup                                                #
    # ------------------------------------------------------------------ #

    def _indexes(self) -> _CatalogIndex:
        if self._index is None or not self._index.covers(self.files):
            self._index = _CatalogIndex(self.files)
        return self._index

    def alive_at(self, timestamp: float) -> List[CatalogFile]:
        return [f for f in self.files if f.alive_at(timestamp)]

    def sample(self, rng: random.Random, timestamp: Optional[float] = None,
               k: int = 1) -> List[CatalogFile]:
        """Popularity-weighted sample (with replacement) of k files.

        When ``timestamp`` is given only files alive at that instant are
        eligible; the whole catalog is the fallback if none are.  The
        draws equal ``rng.choices(pool, weights=...)``: ``choices`` bisects
        the same cumulative sums it would build from the weights.
        """
        if timestamp is None:
            return rng.choices(self.files,
                               weights=[f.popularity for f in self.files],
                               k=k)
        pool, cum_weights = self._indexes().pool_at(timestamp)
        return rng.choices(pool, cum_weights=cum_weights, k=k)

    def get(self, file_id: str) -> CatalogFile:
        return self._indexes().by_id[file_id]

    def fake_ids(self) -> List[str]:
        return [f.file_id for f in self.files if f.is_fake]

    def real_ids(self) -> List[str]:
        return [f.file_id for f in self.files if not f.is_fake]

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self):
        return iter(self.files)
