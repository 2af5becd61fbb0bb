"""Plan cache: memoised policy planning for the serving engine.

Planning a Blowfish query is expensive: it derives the policy transform
``P_G`` (and lazily factorises its Gram matrix), detects tree / θ-threshold /
grid structure, builds spanner approximations, and assembles strategy
matrices.  None of that depends on the data or on the noise, so a serving
engine should do it **once** per ``(domain, policy, planner-config)`` and
reuse the result for every subsequent query — which is exactly what
:class:`PlanCache` provides, with LRU eviction and hit/miss counters.

Repeated queries also skip the sparse product ``W_G = W' P_G``: the cached
mechanisms key their internal workload caches by content signature, so an
equal-but-distinct :class:`~repro.core.Workload` object (what a serving
engine sees on every client request) hits.

Plans are **serialisable**: every artefact inside a :class:`CachedPlan`
(transform, spanner, strategy, mechanism) pickles, which powers two engine
features — shipping plans to worker processes (the process-parallel execute
backend of :mod:`repro.engine.parallel`) and **persistence**
(:meth:`PlanCache.save` / :meth:`PlanCache.load`), so a restarted server
skips cold planning entirely.  Persisted stores are versioned: the file
carries a format version, and entries are keyed by content signatures
(domain, policy, planner config), so a store saved under one workload/policy
mix simply never hits for another — stale entries are inert, not wrong.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..blowfish.planner import Plan, plan_mechanism
from ..core.digest import domain_signature
from ..exceptions import MechanismError, PlanStoreError
from ..policy.graph import PolicyGraph
from ..policy.transform import PolicyTransform

#: On-disk format version of persisted plan stores.  Bump on any change to
#: the pickled layout that a loader cannot transparently absorb.
#: Version 2 (PR 7): transforms/mechanisms persist factorisation *digests*
#: instead of private factorisation slots and re-resolve artifacts through
#: the process-wide store on load.
PLAN_STORE_FORMAT = 2

#: Format versions :func:`read_plan_store` still absorbs.  Version-1 stores
#: carry pre-store pickles whose ``__setstate__`` drops the legacy private
#: slots, so they load cleanly and re-factorise (at most once per digest)
#: through the store.
PLAN_STORE_COMPAT_FORMATS = frozenset({1, PLAN_STORE_FORMAT})

#: Cache key of a planning entry: (domain signature, policy signature, planner config).
PlanKey = Tuple[str, str, str]


def plan_key(
    policy: PolicyGraph,
    epsilon: float,
    prefer_data_dependent: bool,
    consistency: bool,
) -> PlanKey:
    """Cache key under which one planning result is stored (and persisted)."""
    config = f"eps={float(epsilon)!r};dd={bool(prefer_data_dependent)};cons={bool(consistency)}"
    return (domain_signature(policy.domain), policy.signature(), config)


@dataclass
class CachedPlan:
    """One memoised planning result: the plan plus its shared transform.

    The whole bundle pickles (the transform drops its lazy Gram factorisation
    and re-derives it on first use), so cached plans can cross process
    boundaries and process restarts.
    """

    key: PlanKey
    policy: PolicyGraph
    plan: Plan
    transform: PolicyTransform


@dataclass
class PlanCacheStats:
    """Hit/miss counters of a :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """LRU cache of :class:`CachedPlan` entries, safe for concurrent readers.

    Parameters
    ----------
    maxsize:
        Maximum number of distinct ``(domain, policy, config)`` entries kept.
        The per-workload sub-caches ride along with their entry.
    metrics:
        Optional :class:`~repro.engine.observability.MetricsRegistry`; when
        given, lookups additionally bump ``engine_plan_cache_lookups_total``
        counters (labelled ``result="hit"``/``"miss"``).  The cache's own
        :attr:`stats` counts either way.  The registry reference never
        pickles (see :meth:`__getstate__`) — an unpickled cache is silent.
    """

    def __init__(self, maxsize: int = 64, metrics=None) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = int(maxsize)
        self._entries: "OrderedDict[PlanKey, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()
        self._bind_metrics(metrics)

    def _bind_metrics(self, metrics) -> None:
        """Pre-bind the registry counters (or None-out when unmetered)."""
        if metrics is None:
            self._m_hits = self._m_misses = None
        else:
            self._m_hits = metrics.counter(
                "engine_plan_cache_lookups_total",
                "Plan-cache lookups by result",
                result="hit",
            )
            self._m_misses = metrics.counter(
                "engine_plan_cache_lookups_total",
                "Plan-cache lookups by result",
                result="miss",
            )

    def __len__(self) -> int:
        return len(self._entries)

    def plan_for(
        self,
        policy: PolicyGraph,
        epsilon: float,
        prefer_data_dependent: bool = True,
        consistency: bool = True,
    ) -> CachedPlan:
        """Return the cached plan for ``policy``, planning on first use.

        On a miss this runs :func:`repro.blowfish.plan_mechanism` with a
        freshly built :class:`PolicyTransform` that is *shared* with the
        constructed mechanism, so the mechanism's later answers reuse the
        transform's factorisation instead of re-deriving it.
        """
        key = plan_key(policy, epsilon, prefer_data_dependent, consistency)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if self._m_hits is not None:
                    self._m_hits.inc()
                return entry
            self.stats.misses += 1
            if self._m_misses is not None:
                self._m_misses.inc()
        # Plan outside the lock: planning can be slow and must not serialise
        # unrelated lookups.  A racing thread may plan the same key twice; the
        # second insert below simply wins, which is harmless (plans are
        # interchangeable).
        transform = PolicyTransform(policy)
        plan = plan_mechanism(
            policy,
            epsilon,
            prefer_data_dependent=prefer_data_dependent,
            consistency=consistency,
            transform=transform,
        )
        entry = CachedPlan(key=key, policy=policy, plan=plan, transform=transform)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    def peek(self, key: PlanKey) -> Optional[CachedPlan]:
        """Return the entry under ``key`` without planning or touching LRU order."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------ persistence
    def export_entries(self) -> List[Tuple[PlanKey, CachedPlan]]:
        """Snapshot the entries in LRU order (oldest first), for persistence."""
        with self._lock:
            return list(self._entries.items())

    def absorb(self, entries: List[Tuple[PlanKey, CachedPlan]]) -> int:
        """Insert pre-planned entries, evicting LRU-style past ``maxsize``.

        Existing entries under the same key are left in place (they are
        interchangeable — plans are deterministic functions of the key).
        Returns the number of inserted entries that actually *survived*:
        absorbing a store larger than ``maxsize`` reports only what the
        cache can serve warm, not what it momentarily held.
        """
        inserted: List[PlanKey] = []
        with self._lock:
            for key, entry in entries:
                if key in self._entries:
                    continue
                self._entries[key] = entry
                self._entries.move_to_end(key)
                inserted.append(key)
                while len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
            return sum(1 for key in inserted if key in self._entries)

    def save(self, path: str) -> int:
        """Persist every cached plan to ``path``; returns the entry count.

        The write is atomic (temp file + rename), so a crashed save never
        leaves a truncated store behind.  Counters are not persisted — a
        fresh process starts its hit/miss statistics from zero.
        """
        entries = self.export_entries()
        payload = {"format": PLAN_STORE_FORMAT, "entries": entries}
        write_plan_store(path, payload)
        return len(entries)

    def load(self, path: str) -> int:
        """Load a persisted store into this cache; returns entries absorbed.

        Stores written while every domain shard kept its own cache also carry
        ``shard_entries`` (``{policy: {shard index: entries}}``).  Those are
        ordinary plans keyed by their sub-policy, so they join the rest.

        Raises :class:`~repro.exceptions.MechanismError` on a missing file or
        a format-version mismatch (a store from an incompatible library
        version must fail loudly, not plan subtly differently).
        """
        payload = read_plan_store(path)
        shard_entries = [
            item
            for per_shard in payload.get("shard_entries", {}).values()
            for entries in per_shard.values()
            for item in entries
        ]
        return self.absorb(payload["entries"] + shard_entries)

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Pickle support: entries and counters travel; the lock and the
        metrics binding (process-local registry objects) do not."""
        with self._lock:
            return {
                "_maxsize": self._maxsize,
                "_entries": OrderedDict(self._entries),
                "stats": PlanCacheStats(
                    hits=self.stats.hits,
                    misses=self.stats.misses,
                    evictions=self.stats.evictions,
                ),
            }

    def __setstate__(self, state: dict) -> None:
        self._maxsize = state["_maxsize"]
        self._entries = OrderedDict(state["_entries"])
        self.stats = state["stats"]
        self._lock = threading.Lock()
        self._bind_metrics(None)


# ---------------------------------------------------------------------------
# Shared on-disk helpers (the snapshotter's answer store writes through the
# same atomic rename).
# ---------------------------------------------------------------------------
def write_plan_store(path: str, payload: dict) -> None:
    """Atomically pickle ``payload`` to ``path`` (temp file + rename).

    The temp name is unique per process, thread and call, so concurrent
    saves to the same path (periodic checkpointers, racing admin calls)
    never truncate each other mid-write — last rename wins atomically.
    """
    directory = os.path.dirname(os.path.abspath(path))
    temp_path = os.path.join(
        directory,
        f".{os.path.basename(path)}.tmp."
        f"{os.getpid()}.{threading.get_ident()}.{os.urandom(4).hex()}",
    )
    try:
        with open(temp_path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp_path, path)
    finally:
        if os.path.exists(temp_path):  # pragma: no cover - crash cleanup
            os.unlink(temp_path)


def read_plan_store(path: str) -> dict:
    """Read a persisted plan store, validating its format version.

    .. warning::
       Stores are pickle files: loading one executes whatever it encodes,
       *before* any format check can run.  Only load stores this engine
       deployment wrote itself (treat the store path like the database
       file, not like client input).
    """
    if not os.path.exists(path):
        raise MechanismError(f"Plan store {path!r} does not exist")
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        # A truncated or garbled pickle can also surface as these (e.g.
        # "pickle data was truncated" is a ValueError, an index past a
        # cut-off memo table an IndexError, a clobbered container a
        # KeyError/TypeError) — a corrupt store must never escape as a raw
        # unpickling exception.
        ValueError,
        IndexError,
        KeyError,
        TypeError,
    ) as exc:
        raise PlanStoreError(
            f"Plan store {path!r} is corrupt (truncated or garbled pickle): "
            f"{exc}",
            path=path,
        ) from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") not in PLAN_STORE_COMPAT_FORMATS
    ):
        found = payload.get("format") if isinstance(payload, dict) else None
        raise PlanStoreError(
            f"Plan store {path!r} has format version {found!r}; this library "
            f"reads versions {sorted(PLAN_STORE_COMPAT_FORMATS)} — re-save "
            "the store with the current version instead of mixing formats",
            path=path,
            format_version=found,
        )
    if "entries" not in payload or not isinstance(payload["entries"], list):
        raise PlanStoreError(
            f"Plan store {path!r} is corrupt: format "
            f"{payload.get('format')!r} payload carries no entry list",
            path=path,
            format_version=payload.get("format"),
        )
    return payload
