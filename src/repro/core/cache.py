"""Generation-fenced multi-tier query result cache.

The paper's query phase (§3.4) replays tens of thousands of short BV-BRC
term queries whose popularity is heavily skewed — exactly the traffic shape
where a *result cache*, not more fan-out, is the cheapest latency win.
Serving-oriented vector systems treat caching as a first-class tier (HAKES
caches hot results in its serving layer; HARMONY cuts redundant work across
distributed query execution); this module gives the broadcast–reduce stack
the same capability without giving up bit-identical results.

Two cooperating tiers:

* :class:`ResultCache` — the **cluster tier**.  One entry per canonical
  query fingerprint (:meth:`repro.core.types.SearchRequest.fingerprint`,
  which covers the resolved collection, the float-exact query-vector bytes,
  and every result-changing knob including the canonicalized filter tree).
  A hit skips the whole broadcast–reduce fan-out.
* :class:`ShardResultCache` — the **per-worker shard tier**.  One entry per
  ``(collection, shard, fingerprint)``.  On a cluster-tier miss the fan-out
  still runs, but each worker reuses per-shard hit lists whose generation
  is current — a write that touched one shard of four leaves the other
  three shards' work cached, so the miss recomputes only 25% of the work.

Correctness comes from **generation fencing** rather than TTLs:

* every :class:`~repro.core.collection.Collection` advances a monotonic
  ``generation`` on each mutating operation (upsert / delete / set_payload),
  on every maintenance swap (inline or copy-on-write), and at the reshard
  cutover that retires the shard;
* worker search RPCs propagate the observed ``(shard, generation)`` vector
  back with their hits, and the shard tier validates entries against the
  live generation *at lookup time* — a stale entry is invalidated, never
  served;
* the cluster tier additionally fences on a per-collection **write epoch**
  (bumped by every cluster-level mutation and by reshard activity) and on
  the query's *current* shard set, so topology changes invalidate cached
  fan-outs wholesale.

Both tiers are byte-budgeted LRUs (:class:`CachePolicy`), with exact
``ScoredPoint`` byte accounting via
:func:`repro.core.transport.estimate_payload_bytes`, and export
:class:`CacheStats` counters that ``Cluster.telemetry()`` aggregates into
:class:`repro.core.telemetry.CacheTelemetry`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..obs.metrics import Counters
from .transport import estimate_payload_bytes
from .types import ScoredPoint, SearchResult

__all__ = [
    "CachePolicy",
    "CacheStats",
    "ResultCache",
    "ShardResultCache",
]

#: Fixed per-entry bookkeeping charge (key digest, LRU links, fence fields).
_ENTRY_OVERHEAD_BYTES = 128


@dataclass(frozen=True)
class CachePolicy:
    """Tunable knobs of both cache tiers.

    ``max_bytes`` / ``max_entries`` budget the cluster-level result cache;
    the ``shard_*`` pair budgets each worker's shard-result cache.  The
    byte budget counts exact result sizes (``ScoredPoint`` fields included),
    plus a small fixed per-entry overhead, so a cache full of fat
    ``with_vector`` results evicts earlier than one holding bare id/score
    pairs.  ``shard_tier=False`` disables the per-worker tier (the cluster
    tier still works alone).
    """

    max_bytes: int = 32 * 1024 * 1024
    max_entries: int = 4096
    shard_tier: bool = True
    shard_max_bytes: int = 16 * 1024 * 1024
    shard_max_entries: int = 8192

    def __post_init__(self):
        if self.max_bytes < 1 or self.shard_max_bytes < 1:
            raise ValueError("cache byte budgets must be >= 1")
        if self.max_entries < 1 or self.shard_max_entries < 1:
            raise ValueError("cache entry budgets must be >= 1")


@dataclass
class CacheStats(Counters):
    """Counters describing one cache tier's behaviour.

    ``hits / lookups`` is the hit rate; ``invalidations`` counts entries
    dropped at lookup time because their generation fence failed (the
    correctness mechanism working, not a fault); ``rejected`` counts fills
    refused because a single result outweighed the whole byte budget.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0

    @property
    def hit_rate(self) -> float:
        with self._lock:
            return 0.0 if self.lookups == 0 else self.hits / self.lookups


class _ClusterEntry:
    """One cached reduced result plus its generation fence."""

    __slots__ = (
        "hits", "shards_total", "shards_answered", "collection",
        "shard_set", "epoch", "gen_vector", "nbytes",
    )

    def __init__(self, hits, shards_total, shards_answered, collection,
                 shard_set, epoch, gen_vector, nbytes):
        self.hits = hits                      # tuple[ScoredPoint, ...]
        self.shards_total = shards_total
        self.shards_answered = shards_answered
        self.collection = collection
        self.shard_set = shard_set            # frozenset[int]
        self.epoch = epoch                    # cluster write epoch at fill
        self.gen_vector = gen_vector          # tuple[(shard_id, generation)]
        self.nbytes = nbytes


def _result_nbytes(hits: Sequence[ScoredPoint]) -> int:
    return estimate_payload_bytes(list(hits)) + _ENTRY_OVERHEAD_BYTES


class ResultCache:
    """Cluster-level result cache: fingerprint -> reduced top-k, LRU.

    Validity of an entry requires *all* of:

    * the collection's write epoch is unchanged since the fill (every
      cluster-level mutation and any reshard activity bumps it);
    * the query's current shard set equals the one cached against (a
      resharded topology never serves an old fan-out's result);
    * no shard generation observed since the fill exceeds the entry's
      ``(shard, generation)`` vector (a worker-side swap or behind-the-back
      mutation surfaces through response generations and fences the entry).

    All methods are thread-safe; lookups and fills are O(1) amortized.
    """

    def __init__(self, policy: CachePolicy | None = None):
        self.policy = policy or CachePolicy()
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _ClusterEntry] = OrderedDict()
        self._bytes = 0
        #: Per-collection write epoch (cluster-level mutation counter).
        self._epochs: dict[str, int] = {}
        #: Highest generation ever observed per (collection, shard).
        self._known_gens: dict[tuple[str, int], int] = {}
        # Optional bound metric handles (Cluster.enable_cache wires these).
        self._hit_counter = None
        self._miss_counter = None
        self._evict_counter = None

    # -- metrics binding -----------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Mirror hit/miss/evict counts into ``cache.*`` registry counters."""
        self._hit_counter = registry.counter("cache.hit")
        self._miss_counter = registry.counter("cache.miss")
        self._evict_counter = registry.counter("cache.evict")

    # -- introspection -------------------------------------------------------

    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def snapshot(self) -> dict:
        out = self.stats.snapshot()
        with self._lock:
            out["entries"] = len(self._entries)
            out["bytes"] = self._bytes
        return out

    # -- fencing inputs ------------------------------------------------------

    def epoch(self, collection: str) -> int:
        with self._lock:
            return self._epochs.get(collection, 0)

    def bump_epoch(self, collection: str) -> None:
        """Record one cluster-level mutation of ``collection``.

        Entries filled under the previous epoch become invalid at their next
        lookup (lazy invalidation — no write-path scan over the cache).
        """
        with self._lock:
            self._epochs[collection] = self._epochs.get(collection, 0) + 1

    def observe_generations(self, collection: str, gens: Mapping[int, int]) -> None:
        """Fold generations seen in worker responses into the fence state."""
        with self._lock:
            known = self._known_gens
            for shard_id, gen in gens.items():
                key = (collection, shard_id)
                if gen > known.get(key, -1):
                    known[key] = gen

    # -- cache protocol ------------------------------------------------------

    def _valid_locked(self, entry: _ClusterEntry, collection: str,
                      shard_set: frozenset) -> bool:
        if entry.collection != collection:
            return False
        if entry.epoch != self._epochs.get(collection, 0):
            return False
        if entry.shard_set != shard_set:
            return False
        known = self._known_gens
        for shard_id, gen in entry.gen_vector:
            if known.get((collection, shard_id), gen) > gen:
                return False
        return True

    def lookup(self, fingerprint: str, *, collection: str,
               shard_set: frozenset, count_miss: bool = True) -> SearchResult | None:
        """Serve a cached result, or ``None`` on miss/stale.

        A stale entry (failed fence) is removed on the spot and counted as
        an invalidation plus a miss.  With ``count_miss=False`` — a probe
        whose miss the caller's full read path looks up and counts again —
        a miss leaves ``lookups`` / ``misses`` untouched, so each request
        counts once; a hit and an invalidation still count.
        """
        stats = self.stats
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None and not self._valid_locked(
                entry, collection, shard_set
            ):
                del self._entries[fingerprint]
                self._bytes -= entry.nbytes
                with stats._lock:
                    stats.invalidations += 1
                entry = None
            if entry is None:
                if not count_miss:
                    return None
                with stats._lock:
                    stats.lookups += 1
                    stats.misses += 1
                if self._miss_counter is not None:
                    self._miss_counter.inc()
                return None
            self._entries.move_to_end(fingerprint)
            with stats._lock:
                stats.lookups += 1
                stats.hits += 1
            if self._hit_counter is not None:
                self._hit_counter.inc()
            return SearchResult(
                entry.hits,
                shards_total=entry.shards_total,
                shards_answered=entry.shards_answered,
            )

    def fill(self, fingerprint: str, result: SearchResult, *, collection: str,
             shard_set: frozenset, epoch: int,
             gen_vector: Mapping[int, int]) -> bool:
        """Install one freshly reduced result.

        ``epoch`` must be the collection's write epoch read *before* the
        fan-out: if a write landed while the query was in flight the epoch
        moved on and the fill is refused — a result computed against a
        superseded state never enters the cache as current.
        """
        nbytes = _result_nbytes(result)
        policy = self.policy
        stats = self.stats
        if nbytes > policy.max_bytes:
            with stats._lock:
                stats.rejected += 1
            return False
        with self._lock:
            if epoch != self._epochs.get(collection, 0):
                with stats._lock:
                    stats.rejected += 1
                return False
            old = self._entries.pop(fingerprint, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[fingerprint] = _ClusterEntry(
                hits=tuple(result),
                shards_total=result.shards_total,
                shards_answered=result.shards_answered,
                collection=collection,
                shard_set=shard_set,
                epoch=epoch,
                gen_vector=tuple(sorted(gen_vector.items())),
                nbytes=nbytes,
            )
            self._bytes += nbytes
            with stats._lock:
                stats.fills += 1
            self._evict_locked()
        return True

    def _evict_locked(self) -> None:
        policy = self.policy
        stats = self.stats
        while self._entries and (
            self._bytes > policy.max_bytes or len(self._entries) > policy.max_entries
        ):
            _, victim = self._entries.popitem(last=False)
            self._bytes -= victim.nbytes
            with stats._lock:
                stats.evictions += 1
            if self._evict_counter is not None:
                self._evict_counter.inc()

    def clear(self) -> None:
        """Drop every entry (fence state and counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0


class _ShardEntry:
    __slots__ = ("hits", "generation", "nbytes")

    def __init__(self, hits, generation, nbytes):
        self.hits = hits              # tuple[ScoredPoint, ...]
        self.generation = generation
        self.nbytes = nbytes


class ShardResultCache:
    """Per-worker shard-result cache: (collection, shard, fingerprint) -> hits.

    The generation fence is exact here: the worker owns the shard's
    :class:`~repro.core.collection.Collection`, so validation compares the
    entry against the *live* ``generation`` — no distributed view involved.
    Fills are refused when the generation moved during the search (the hits
    might reflect a state no generation number names).
    """

    def __init__(self, policy: CachePolicy | None = None):
        self.policy = policy or CachePolicy()
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _ShardEntry] = OrderedDict()
        self._bytes = 0

    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def snapshot(self) -> dict:
        out = self.stats.snapshot()
        with self._lock:
            out["entries"] = len(self._entries)
            out["bytes"] = self._bytes
        return out

    def lookup(self, collection: str, shard_id: int, fingerprint: str,
               generation: int) -> list[ScoredPoint] | None:
        key = (collection, shard_id, fingerprint)
        stats = self.stats
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.generation != generation:
                del self._entries[key]
                self._bytes -= entry.nbytes
                with stats._lock:
                    stats.invalidations += 1
                entry = None
            if entry is None:
                with stats._lock:
                    stats.lookups += 1
                    stats.misses += 1
                return None
            self._entries.move_to_end(key)
            with stats._lock:
                stats.lookups += 1
                stats.hits += 1
            return list(entry.hits)

    def fill(self, collection: str, shard_id: int, fingerprint: str,
             hits: Sequence[ScoredPoint], generation: int) -> bool:
        nbytes = _result_nbytes(hits)
        policy = self.policy
        stats = self.stats
        if nbytes > policy.shard_max_bytes:
            with stats._lock:
                stats.rejected += 1
            return False
        key = (collection, shard_id, fingerprint)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = _ShardEntry(tuple(hits), generation, nbytes)
            self._bytes += nbytes
            with stats._lock:
                stats.fills += 1
            while self._entries and (
                self._bytes > policy.shard_max_bytes
                or len(self._entries) > policy.shard_max_entries
            ):
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                with stats._lock:
                    stats.evictions += 1
        return True

    def drop_shard(self, collection: str, shard_id: int) -> int:
        """Forget every entry of one shard (shard dropped or migrated away)."""
        with self._lock:
            victims = [
                k for k in self._entries if k[0] == collection and k[1] == shard_id
            ]
            for k in victims:
                self._bytes -= self._entries.pop(k).nbytes
            return len(victims)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
