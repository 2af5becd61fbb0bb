"""Process-wide, content-digest-keyed store of linear-algebra artifacts.

Every :class:`~repro.policy.transform.PolicyTransform` used to hold its own
Gram/SuperLU factorisation, every
:class:`~repro.blowfish.matrix_mechanism.PolicyMatrixMechanism` its own
strategy pseudo-inverse, and every mechanism instance its own transformed
workloads — even when dozens of cached plans (one per ε, per consistency
mode, per engine, per worker process re-hydration) share the exact same
underlying matrices.  This module deduplicates that work the same way the
process backend's blob protocol deduplicates bytes: by **content digest**.
Callers compute the keys with :func:`repro.core.digest.matrix_digest`; the
store only looks them up.  The keys themselves live only in this process,
but the ``"gram"`` key is a transform's ``gram_digest``, which plan stores
persist inside pickled transforms (see :mod:`repro.core.digest`).

Three artifact kinds are cached:

* ``"gram"`` — the ``spla.factorized`` solve closure of the incidence Gram
  matrix ``P_G P_Gᵀ``, keyed by the digest of ``P_G``.  SuperLU closures are
  unpicklable and memory-heavy; one per distinct policy matrix per process
  is the right number.
* ``"strategy-pinv"`` — an explicit strategy pseudo-inverse ``A⁺`` derived
  once per distinct strategy matrix, which lets
  ``PolicyMatrixMechanism._compute_noise_model`` state honest noise models
  without a per-row LSQR solve per workload (the PR 4 512-row safety valve).
* ``"workload-gram"`` — transformed-workload products ``W_G = W' P_G``,
  keyed by (transform digest, workload signature), so plans that differ
  only in ε share the sparse products too.

**Ownership and eviction.**  The store never pins memory: entries are held
through :mod:`weakref`, and callers keep the returned
:class:`FactorisationHandle` alive for as long as they need the artifact
(transforms and mechanisms stash handles in transient, unpickled slots).
When the last plan referencing a factorisation is evicted from a plan
cache, its handles die with it and the store entry is reclaimed — unless
another live plan shares the digest, in which case the artifact survives
exactly as long as someone uses it.

**Process locality.**  The store is a process global.  Worker processes of
the execute backend therefore hold their *own* store: a plan blob
re-hydrated by the PR 5 miss-only protocol resolves its artifacts against
the worker-local store by content digest, so a second plan for an
already-resident policy never re-factorises — even when it arrived under a
different blob digest.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "FactorisationHandle",
    "FactorisationStore",
    "FactorisationStoreStats",
    "get_store",
    "set_store",
    "set_store_enabled",
    "store_enabled",
]


class FactorisationHandle:
    """A caller's strong reference to one cached artifact.

    The store holds only a weak reference to the handle; whoever resolves an
    artifact keeps the handle (in a transient, never-pickled slot) and the
    entry lives exactly as long as at least one resolver does.
    """

    __slots__ = ("kind", "digest", "value", "__weakref__")

    def __init__(self, kind: str, digest: str, value: object) -> None:
        self.kind = kind
        self.digest = digest
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FactorisationHandle(kind={self.kind!r}, digest={self.digest[:12]!r})"


@dataclass(frozen=True)
class FactorisationStoreStats:
    """Counters of one store: lookups served warm, built cold, and live entries."""

    hits: int
    misses: int
    build_seconds: float
    entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without building (reuse gauge)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FactorisationStore:
    """Digest-keyed, weakly-held cache of expensive factorisation artifacts.

    Thread-safe: lookups and bookkeeping run under the store lock, builds run
    outside it (two racing builders both build; the first insert wins, the
    loser adopts the winner's handle so sharing still converges on one
    artifact).  A build that raises caches nothing — the next lookup retries,
    matching the lazy-factorisation semantics the per-transform slots had.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, str], "weakref.ref[FactorisationHandle]"] = {}
        self._hits = 0
        self._misses = 0
        self._build_seconds = 0.0
        # Registries mirrored on every hit/miss (Prometheus surfacing).  A
        # process-global store may serve several engines; each enabled
        # engine's registry is bound once and counts from its bind time.
        self._bound: List[tuple] = []
        self._bound_ids: set = set()

    # ------------------------------------------------------------------ core
    def get_or_build(
        self, kind: str, digest: str, build: Callable[[], object]
    ) -> FactorisationHandle:
        """Resolve ``(kind, digest)``, building the artifact on first contact.

        Returns the shared handle; callers must keep it referenced for the
        artifact to stay cached.  With the store globally disabled (see
        :func:`set_store_enabled`) every call builds privately and nothing
        is cached or counted.
        """
        if not _ENABLED:
            return FactorisationHandle(kind, digest, build())
        key = (kind, digest)
        with self._lock:
            ref = self._entries.get(key)
            handle = ref() if ref is not None else None
            if handle is not None:
                self._record(True, 0.0)
                return handle
        started = time.perf_counter()
        value = build()
        elapsed = time.perf_counter() - started
        with self._lock:
            ref = self._entries.get(key)
            existing = ref() if ref is not None else None
            if existing is not None:
                # Raced: another thread built and inserted first.  Adopt its
                # handle (one shared artifact); the duplicate build is still
                # a miss and its cost is honestly counted.
                self._record(False, elapsed)
                return existing
            handle = FactorisationHandle(kind, digest, value)
            self._entries[key] = weakref.ref(handle, self._reaper(key))
            self._record(False, elapsed)
            return handle

    def _reaper(self, key: Tuple[str, str]):
        def reap(ref, _key=key, _self_ref=weakref.ref(self)) -> None:
            store = _self_ref()
            if store is None:  # pragma: no cover - interpreter shutdown
                return
            with store._lock:
                if store._entries.get(_key) is ref:
                    del store._entries[_key]

        return reap

    def _record(self, hit: bool, build_seconds: float) -> None:
        # Caller holds the lock.
        if hit:
            self._hits += 1
        else:
            self._misses += 1
            self._build_seconds += build_seconds
        for c_hits, c_misses, c_build, h_build in self._bound:
            if hit:
                c_hits.inc()
            else:
                c_misses.inc()
                c_build.inc(build_seconds)
                h_build.observe(build_seconds)

    # ------------------------------------------------------------- telemetry
    def bind_metrics(self, metrics) -> None:
        """Mirror hit/miss/build counters into a PR 6 ``MetricsRegistry``.

        Idempotent per registry.  The registry's counters start from the
        bind instant; the store's own :meth:`stats` counters are always the
        process-lifetime totals.
        """
        if metrics is None:
            return
        with self._lock:
            if id(metrics) in self._bound_ids:
                return
            self._bound_ids.add(id(metrics))
            self._bound.append(
                (
                    metrics.counter(
                        "engine_factorisation_lookups_total",
                        "Factorisation-store lookups by result",
                        result="hit",
                    ),
                    metrics.counter(
                        "engine_factorisation_lookups_total",
                        "Factorisation-store lookups by result",
                        result="miss",
                    ),
                    metrics.counter(
                        "engine_factorisation_build_seconds_total",
                        "Wall-clock spent building factorisation artifacts",
                    ),
                    metrics.histogram(
                        "engine_factorisation_build_seconds",
                        "Per-artifact factorisation build latency",
                    ),
                )
            )

    def stats(self) -> FactorisationStoreStats:
        """Process-lifetime lookup counters plus the live entry count."""
        with self._lock:
            entries = sum(1 for ref in self._entries.values() if ref() is not None)
            return FactorisationStoreStats(
                hits=self._hits,
                misses=self._misses,
                build_seconds=self._build_seconds,
                entries=entries,
            )

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for ref in self._entries.values() if ref() is not None)

    def clear(self, reset_counters: bool = False) -> None:
        """Drop every entry (benchmark/test hook).

        Live handles elsewhere keep their artifacts; only the store's map is
        emptied, so the next lookup of each digest rebuilds once.
        """
        with self._lock:
            self._entries.clear()
            if reset_counters:
                self._hits = 0
                self._misses = 0
                self._build_seconds = 0.0


# The process-global store.  Worker processes import this module afresh and
# therefore hold their own (see module docstring).
_STORE = FactorisationStore()
_ENABLED = True


def get_store() -> FactorisationStore:
    """The process-global factorisation store."""
    return _STORE


def set_store(store: FactorisationStore) -> FactorisationStore:
    """Swap the process-global store (test hook); returns the previous one."""
    global _STORE
    previous, _STORE = _STORE, store
    return previous


def set_store_enabled(enabled: bool) -> bool:
    """Globally enable/disable cross-object sharing; returns the old flag.

    Disabled, every lookup builds privately — the ablation baseline, and
    the switch ``tests/engine/test_fusion.py`` flips to prove draws and
    ε ledgers don't depend on the store.
    """
    global _ENABLED
    previous, _ENABLED = _ENABLED, bool(enabled)
    return previous


def store_enabled() -> bool:
    """Whether cross-object sharing is currently on."""
    return _ENABLED
