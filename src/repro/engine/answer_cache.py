"""Noisy-answer cache: re-asked queries are free, consolidation is draw-aware.

Differential privacy (and Blowfish privacy) is closed under post-processing:
once a noisy answer has been *paid for*, replaying the stored vector to any
number of clients consumes **zero** additional budget.  The cache therefore
keys entries by ``(policy, workload, epsilon)`` content signatures and hands
the identical noisy vector back on every replay.

The cache also supports *consistency consolidation*: all paid-for
measurements under one policy are noisy views ``y_i ≈ W_i x`` of the same
histogram, so a least-squares solve yields a single estimate ``x̂`` from
which every cached workload is re-answered as ``W_i x̂``.  This is pure
post-processing — zero budget — and makes every cached answer mutually
consistent.

**Covariance model.**  Consolidation solves a *generalised* least squares
over how the measurements were physically produced, not an independence
assumption:

* every stored :class:`Measurement` records the **draw ids** of the
  mechanism invocation(s) that produced it — one id per unsharded batch
  invocation, one per per-shard invocation for scatter/gathered answers;
* data-independent mechanisms additionally attach an honest *noise model*
  (:class:`~repro.mechanisms.base.NoiseModel`): per-row standard deviations
  plus, where the noise is linear, a factor basis ``R`` per draw such that
  the measurement's noise is ``Σ_d R_d η_d`` for i.i.d. unit-variance
  factors ``η_d`` shared with every batch-mate of draw ``d``;
* the consolidation stack assembles the implied **block-sparse covariance**:
  within-draw blocks ``R_i,d R_j,dᵀ`` between measurements sharing draw
  ``d`` (shard invocations included), honest diagonal variances for
  measurements that state only their per-row scales, and the conservative
  ``2/ε²`` proxy for measurements predating the metadata (data-dependent
  estimators such as DAWA, whose noise cannot be stated a priori);
* :func:`~repro.postprocess.generalised_least_squares_estimate` solves the
  whitened system, degenerating **bit-identically** to the weighted solver
  whenever the assembled covariance is diagonal (all draw ids distinct and
  no factor bases) — so uncorrelated caches behave exactly as before.

Entries may hold *several* measurements of the same workload: the engine's
``top_up`` buys a fresh measurement at a small extra ε and GLS-combines it
with the cached ones, charging only the increment.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.workload import Workload
from ..policy.graph import PolicyGraph
from ..postprocess.least_squares import generalised_least_squares_estimate

AnswerKey = Tuple[str, str, str]

#: Relative floor applied to covariance diagonals: rows with (near-)zero
#: declared noise — e.g. all-zero gathered queries outside every shard —
#: must not make the covariance singular.
_VARIANCE_FLOOR = 1e-12


def answer_key(policy: PolicyGraph, workload: Workload, epsilon: float) -> AnswerKey:
    """Cache key of one paid-for noisy answer vector (and of its stored copy)."""
    return (policy.signature(), workload.signature(), repr(float(epsilon)))


@dataclass
class Measurement:
    """One paid-for noisy measurement of a cached workload.

    ``answers`` is the vector exactly as the mechanism released it.
    ``draw_id`` / ``shard_draw_ids`` identify the invocation(s) whose noise
    it carries (batch-mates sharing an id share a draw); ``noise_stds`` and
    ``noise_bases`` are the honest noise model when the mechanism could
    state one — ``noise_bases`` maps each draw id to the factor rows ``R_d``
    of this measurement within that invocation's factor space, so
    ``Cov = Σ_d R_d R_dᵀ`` and cross-measurement blocks follow from shared
    draw ids.  Without bases the measurement is modelled as uncorrelated at
    ``noise_stds`` (or at the ``2/ε²`` proxy when even those are unknown).
    """

    answers: np.ndarray
    epsilon: float
    draw_id: Optional[int] = None
    shard_draw_ids: Optional[Dict[int, int]] = None
    noise_stds: Optional[np.ndarray] = None
    noise_bases: Optional[Dict[int, sp.csr_matrix]] = None

    def draw_ids(self) -> Iterator[int]:
        """Every invocation draw id this measurement mixes."""
        if self.shard_draw_ids:
            yield from self.shard_draw_ids.values()
        elif self.draw_id is not None:
            yield self.draw_id

    def variances(self) -> np.ndarray:
        """Honest per-row variances, or the ε-implied proxy when unknown.

        The proxy is ``2/ε²`` — the variance of a sensitivity-1 Laplace
        release at budget ε — so it lives on the SAME scale as the honest
        ``noise_stds²``: a mixed stack (honest rows next to proxy rows)
        must not systematically over-weight the proxy side.
        """
        if self.noise_stds is not None:
            return np.asarray(self.noise_stds, dtype=np.float64) ** 2
        return np.full(self.answers.shape[0], 2.0 / self.epsilon**2)


@dataclass
class CachedAnswer:
    """One cached workload: its served answers plus every raw measurement.

    ``answers`` is what replays serve and may be overwritten by
    consolidation or top-ups.  ``measurements`` keeps each paid-for vector
    exactly as released — consolidation always solves from the raw
    measurements, since re-solving from already-blended vectors would treat
    correlated answers as independent evidence and double-count information.
    ``epsilon`` is the entry's *key* budget (the ε the query was asked at);
    :attr:`total_epsilon` additionally counts top-up increments.
    """

    key: AnswerKey
    workload: Workload
    epsilon: float
    answers: np.ndarray
    measurements: List[Measurement] = field(default_factory=list)
    replays: int = 0
    consolidated: bool = False

    # ------------------------------------------------- original-buy views
    @property
    def raw_answers(self) -> np.ndarray:
        """The original measurement, exactly as the mechanism released it."""
        return self.measurements[0].answers

    @property
    def draw_id(self) -> Optional[int]:
        """Draw id of the original buy (``None`` for gathered multi-shard)."""
        return self.measurements[0].draw_id

    @property
    def shard_draw_ids(self) -> Optional[Dict[int, int]]:
        """Per-shard draw ids of the original buy, when it was scattered."""
        return self.measurements[0].shard_draw_ids

    @property
    def total_epsilon(self) -> float:
        """Budget actually sunk into this entry (original buy + top-ups)."""
        return float(sum(m.epsilon for m in self.measurements))


@dataclass
class AnswerCacheStats:
    """Hit/miss counters of an :class:`AnswerCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Fresh measurements bought through :meth:`AnswerCache.append_measurement`
    #: (the engine's ``top_up``), each charging only its increment.
    top_ups: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class AnswerCache:
    """Bounded LRU cache of noisy answers, grouped by policy for consolidation.

    Parameters
    ----------
    maxsize:
        Maximum number of paid-for answer vectors kept.  Least-recently-used
        entries are evicted first; an evicted answer simply has to be paid
        for again on the next ask, so eviction affects cost, never
        correctness.
    metrics:
        Optional :class:`~repro.engine.observability.MetricsRegistry`; when
        given, lookups additionally bump
        ``engine_answer_cache_lookups_total`` counters (labelled
        ``result="hit"``/``"miss"``).  :attr:`stats` counts either way.
    """

    def __init__(self, maxsize: int = 1024, metrics=None) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = int(maxsize)
        self._entries: "OrderedDict[AnswerKey, CachedAnswer]" = OrderedDict()
        self._by_policy: Dict[str, List[AnswerKey]] = {}
        self._lock = threading.Lock()
        self.stats = AnswerCacheStats()
        if metrics is None:
            self._m_hits = self._m_misses = None
        else:
            self._m_hits = metrics.counter(
                "engine_answer_cache_lookups_total",
                "Answer-cache lookups by result",
                result="hit",
            )
            self._m_misses = metrics.counter(
                "engine_answer_cache_lookups_total",
                "Answer-cache lookups by result",
                result="miss",
            )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int:
        """The number of answer vectors kept before LRU eviction."""
        return self._maxsize

    # ------------------------------------------------------------------ access
    def lookup(
        self, policy: PolicyGraph, workload: Workload, epsilon: float
    ) -> Optional[CachedAnswer]:
        """Return the cached entry for this query, counting the hit/miss."""
        key = answer_key(policy, workload, epsilon)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                if self._m_misses is not None:
                    self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            entry.replays += 1
            return entry

    def peek(
        self, policy: PolicyGraph, workload: Workload, epsilon: float
    ) -> Optional[CachedAnswer]:
        """Return the entry without counting a hit/miss or touching LRU order."""
        key = answer_key(policy, workload, epsilon)
        with self._lock:
            return self._entries.get(key)

    def find(self, policy: PolicyGraph, workload: Workload) -> List[CachedAnswer]:
        """Every cached entry for this (policy, workload), across all ε keys.

        Counter- and LRU-neutral; used by the engine's ``top_up`` to locate
        the measurement to upgrade when the caller does not name the ε it
        was originally bought at.
        """
        policy_sig = policy.signature()
        workload_sig = workload.signature()
        with self._lock:
            return [
                self._entries[key]
                for key in self._by_policy.get(policy_sig, ())
                if key[1] == workload_sig and key in self._entries
            ]

    def store(
        self, policy: PolicyGraph, workload: Workload, measurement: Measurement
    ) -> CachedAnswer:
        """Store a freshly paid-for measurement as the entry for its query.

        The entry is keyed at the measurement's ε and serves a copy of its
        answers; the measurement itself is kept as released (see
        :class:`Measurement` for its draw ids and noise model).
        """
        key = answer_key(policy, workload, measurement.epsilon)
        entry = self._new_entry(key, workload, measurement.epsilon, measurement)
        with self._lock:
            self._put(key, entry)
        return entry

    @staticmethod
    def _new_entry(
        key: AnswerKey, workload: Workload, epsilon: float, measurement: Measurement
    ) -> CachedAnswer:
        return CachedAnswer(
            key=key,
            workload=workload,
            epsilon=float(epsilon),
            answers=measurement.answers.copy(),
            measurements=[measurement],
        )

    def _put(self, key: AnswerKey, entry: CachedAnswer) -> None:
        """Insert (or replace) ``entry`` as most recent, evicting LRU past
        ``maxsize``.  The caller holds the lock."""
        if key not in self._entries:
            self._by_policy.setdefault(key[0], []).append(key)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self._maxsize:
            evicted_key, _ = self._entries.popitem(last=False)
            policy_keys = self._by_policy.get(evicted_key[0])
            if policy_keys is not None:
                policy_keys.remove(evicted_key)
                if not policy_keys:
                    del self._by_policy[evicted_key[0]]
            self.stats.evictions += 1

    def append_measurement(
        self,
        key: AnswerKey,
        workload: Workload,
        measurement: Measurement,
        key_epsilon: float,
    ) -> CachedAnswer:
        """Attach a top-up measurement to the live entry under ``key``.

        The entry's served answers are re-solved by GLS over *its own*
        measurements (draws of distinct invocations are independent, so the
        combined estimate is variance-optimal given the declared models).
        If the entry was evicted or superseded while the top-up executed,
        the fresh measurement is stored as a new entry under the same key —
        the budget was spent and the release exists, so it must be served.
        ``key_epsilon`` is the ε the key was originally asked at, preserved
        on the re-created entry (``CachedAnswer.epsilon`` is the key ε by
        contract, never the top-up increment).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._new_entry(key, workload, key_epsilon, measurement)
                self._put(key, entry)
                self.stats.top_ups += 1
                return entry
            entry.measurements.append(measurement)
            self._entries.move_to_end(key)
            self.stats.top_ups += 1
            measurements = list(entry.measurements)
        # Solve outside the lock (the stack is small but the solve is not
        # free); write back under the lock, identity-checked like
        # consolidate's write-back.
        matrix, values, covariance = stack_measurements(
            [(entry.workload, m) for m in measurements]
        )
        estimate = generalised_least_squares_estimate(matrix, values, covariance)
        combined = np.asarray(entry.workload.matrix @ estimate).ravel()
        with self._lock:
            if (
                self._entries.get(key) is entry
                and len(entry.measurements) == len(measurements)
            ):
                # Identity AND count verified: a racing top-up that appended
                # after our snapshot wins with its fresher combined vector.
                entry.answers = combined
        return entry

    # ------------------------------------------------------------ persistence
    def export_entries(self) -> List[Tuple[AnswerKey, CachedAnswer]]:
        """Snapshot the entries in LRU order (oldest first), for persistence.

        The snapshot is taken under the lock, so it is internally consistent
        against concurrent stores; the entries themselves are shared (not
        deep-copied) — the snapshotter pickles them immediately, and every
        mutation path replaces ``answers`` wholesale rather than editing in
        place, so a racing consolidation cannot tear a pickled vector.
        """
        with self._lock:
            return list(self._entries.items())

    def absorb(self, entries: List[Tuple[AnswerKey, CachedAnswer]]) -> int:
        """Insert persisted entries, evicting LRU-style past ``maxsize``.

        Entries already present under the same key are left in place (the
        live entry is at least as fresh as the persisted one).  Returns the
        number of inserted entries that survived the bound, mirroring
        :meth:`PlanCache.absorb`.
        """
        inserted: List[AnswerKey] = []
        with self._lock:
            for key, entry in entries:
                if key in self._entries:
                    continue
                self._put(key, entry)
                inserted.append(key)
            return sum(1 for key in inserted if key in self._entries)

    def max_draw_id(self) -> int:
        """The largest draw id any cached measurement references (0 if none).

        A restore must advance the engine's draw-id counter past this, or
        fresh invocations would collide with recovered measurements and the
        GLS consolidation would treat independent draws as shared.
        """
        largest = 0
        with self._lock:
            for entry in self._entries.values():
                for measurement in entry.measurements:
                    for draw in measurement.draw_ids():
                        largest = max(largest, int(draw))
        return largest

    def count_follower_hit(self) -> None:
        """Count an intra-flush duplicate replay as a cache hit.

        The engine resolves same-flush duplicates from their leader's freshly
        stored answer; that replay is semantically a cache hit, so the
        counters must agree with the replay counter.  Taken under the cache
        lock because concurrent flushes may report hits simultaneously.
        """
        with self._lock:
            self.stats.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()

    def entries_by_draw(self, policy: PolicyGraph) -> Dict[int, List[AnswerKey]]:
        """Group this policy's cached measurements by their noise draw.

        Returns ``{draw_id: [answer keys]}`` over every measurement of every
        entry (top-ups included); groups with two or more keys are exactly
        the batch-mates whose measurement errors are correlated — the
        correlation structure the GLS consolidation models.  A sharded
        answer appears under *every* per-shard draw id it mixes.  Untagged
        measurements are omitted.
        """
        sig = policy.signature()
        grouped: Dict[int, List[AnswerKey]] = {}
        with self._lock:
            for key in self._by_policy.get(sig, ()):
                entry = self._entries.get(key)
                if entry is None:
                    continue
                seen: set = set()
                for measurement in entry.measurements:
                    for draw in measurement.draw_ids():
                        if draw in seen:
                            continue
                        seen.add(draw)
                        grouped.setdefault(draw, []).append(key)
        return grouped

    # ------------------------------------------------------------ consolidation
    def consolidate(self, policy: PolicyGraph) -> int:
        """Least-squares-consolidate every cached answer under ``policy``.

        Stacks every raw measurement ``(W_i, y_i)`` for the policy and
        solves for a single histogram estimate ``x̂``, then replaces each
        cached vector by ``W_i x̂``.  Consumes no budget (post-processing).
        The solve is the generalised least squares over the draw-id
        covariance structure described in the module docstring —
        variance-optimal given the declared noise models, and bit-identical
        to the weighted solve when the assembled covariance is diagonal.

        Returns the number of **live** entries updated: the solve runs
        outside the lock, so the write-back re-verifies each entry by object
        identity and skips entries a concurrent ``store()`` superseded —
        mutating a superseded object would leave the live entry
        unconsolidated while still counting it.  0 or 1 cached entries are
        left untouched (nothing to reconcile).
        """
        sig = policy.signature()
        with self._lock:
            keys = [k for k in self._by_policy.get(sig, ()) if k in self._entries]
            entries = [self._entries[k] for k in keys]
            # Snapshot each entry's measurement list under the lock: the
            # solve below runs lock-free, and a concurrent top-up appending
            # to the live list must not tear the stack.
            snapshots = [list(entry.measurements) for entry in entries]
        if len(entries) < 2:
            return 0
        stack = [
            (entry.workload, measurement)
            for entry, measurements in zip(entries, snapshots)
            for measurement in measurements
        ]
        matrix, values, covariance = stack_measurements(stack)
        estimate = generalised_least_squares_estimate(matrix, values, covariance)
        updated = 0
        with self._lock:
            for key, entry, measurements in zip(keys, entries, snapshots):
                if self._entries.get(key) is not entry:
                    # Superseded by a concurrent store(): the live entry's
                    # measurement was not part of this solve, so leave it
                    # alone (and do not count the dead object).
                    continue
                if len(entry.measurements) != len(measurements):
                    # A concurrent top_up bought a measurement this solve
                    # never saw; overwriting its combined vector would throw
                    # paid-for evidence away.  Leave the fresher answer.
                    continue
                entry.answers = np.asarray(entry.workload.matrix @ estimate).ravel()
                entry.consolidated = True
                updated += 1
        return updated

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._by_policy.clear()


# ---------------------------------------------------------------------------
# Covariance assembly (module-level so tests can probe the model directly).
# ---------------------------------------------------------------------------
def stack_measurements(
    stack: List[Tuple[Workload, Measurement]],
) -> Tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix]:
    """Stack measurements into ``(A, y, Σ)`` for a generalised LS solve.

    ``Σ`` is the block-sparse covariance the draw bookkeeping implies:

    * measurements carrying factor bases contribute ``R_i,d R_j,dᵀ`` blocks
      for every draw ``d`` they share (``i = j`` included — a measurement's
      own rows correlate through their common draw);
    * measurements with only per-row stds contribute an honest diagonal;
    * measurements with no metadata contribute the ``2/ε²`` proxy diagonal
      (the variance of a sensitivity-1 Laplace release at ε — the same
      scale as honest stds, so mixed stacks are not mis-weighted).

    Cross-blocks between a based and an unbased measurement are unknown and
    honestly modelled as zero.  The diagonal is floored at a small relative
    value so exactly-noiseless rows (all-zero gathered queries) cannot make
    ``Σ`` singular.
    """
    if not stack:
        return (
            sp.csr_matrix((0, 0)),
            np.empty(0, dtype=np.float64),
            sp.csr_matrix((0, 0)),
        )
    matrix = sp.vstack([workload.matrix for workload, _ in stack], format="csr")
    values = np.concatenate(
        [np.asarray(m.answers, dtype=np.float64) for _, m in stack]
    )
    total = int(values.shape[0])

    diagonal = np.zeros(total, dtype=np.float64)
    by_draw: Dict[int, List[Tuple[int, sp.csr_matrix]]] = {}
    offset = 0
    for workload, measurement in stack:
        rows = workload.num_queries
        if measurement.noise_bases:
            # The factor model describes this measurement's noise entirely;
            # its diagonal emerges from the basis products below.
            for draw, basis in measurement.noise_bases.items():
                by_draw.setdefault(draw, []).append((offset, sp.csr_matrix(basis)))
        else:
            diagonal[offset : offset + rows] = measurement.variances()
        offset += rows

    parts: List[sp.coo_matrix] = []
    if np.any(diagonal):
        parts.append(sp.coo_matrix(sp.diags(diagonal)))
    for items in by_draw.values():
        for i, (offset_i, basis_i) in enumerate(items):
            for offset_j, basis_j in items[i:]:
                block = sp.coo_matrix(basis_i @ basis_j.T)
                parts.append(
                    sp.coo_matrix(
                        (block.data, (block.row + offset_i, block.col + offset_j)),
                        shape=(total, total),
                    )
                )
                if offset_i != offset_j:
                    parts.append(
                        sp.coo_matrix(
                            (block.data, (block.col + offset_j, block.row + offset_i)),
                            shape=(total, total),
                        )
                    )
    if parts:
        covariance = sp.csr_matrix(sum(part.tocsr() for part in parts))
    else:
        covariance = sp.csr_matrix((total, total))
    # Floor the diagonal: zero-variance rows (noiseless exact zeros) and
    # numerically vanished ones must not make the whitening singular.
    current = covariance.diagonal()
    floor = _VARIANCE_FLOOR * max(float(current.max(initial=0.0)), 1.0)
    deficit = np.maximum(floor - current, 0.0)
    if np.any(deficit > 0):
        covariance = sp.csr_matrix(covariance + sp.diags(deficit))
    return matrix, values, covariance
