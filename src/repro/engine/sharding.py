"""Domain sharding by connected policy components (scatter/gather execution).

A multi-dimensional Blowfish policy often decomposes into several connected
components — the "sensitive attributes" policies of Appendix E are the
canonical example.  Component membership is disclosed *exactly* by such a
policy, and a record's component can never change across Blowfish neighbors
(neighbors move a record along policy edges, which by definition never cross
components).  Two consequences power this module:

* **Exactness** — a workload whose every query row is confined to one
  component answers identically when evaluated per component on the
  projected sub-histogram: ``W x = Σ_c W[:, cells_c] x[cells_c]`` with each
  row having exactly one non-zero term.
* **Parallel composition** — mechanisms confined to the cells of distinct
  components operate on disjoint record sets, so running one ε-mechanism per
  component releases an ε-Blowfish-private answer overall (the paper's
  disjoint-edge-groups rule).  Scatter/gather therefore costs **no extra
  privacy**: each shard runs at the query's full ε and the engine charges
  exactly what the unsharded path would — byte-identical accounting.

:class:`ShardSet` precomputes the per-component :class:`DomainShard`\\ s
(sub-domain, induced sub-policy and projected sub-database) and scatters
workloads into per-shard pieces; the flush pipeline executes the pieces and
gathers the noisy rows back into client-facing answer vectors.

Sharding also *smaller* planning problems: strategy construction and
transform factorisation scale superlinearly in the domain size, so planning
two half-size components is cheaper than planning their union.  Shard plans
live in the engine's one :class:`~repro.engine.PlanCache`, keyed by the
sub-policy's content signature, so identical components share one plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.database import Database
from ..core.domain import Domain
from ..core.workload import Workload, WorkloadTransformCache
from ..policy.graph import BOTTOM, PolicyGraph, is_bottom


@dataclass(frozen=True)
class DomainShard:
    """One connected policy component, packaged for independent execution.

    Attributes
    ----------
    index:
        Position of the shard within its :class:`ShardSet`.
    label:
        The component label (from
        :meth:`~repro.policy.PolicyGraph.component_labels`) this shard owns.
    cells:
        Sorted flat cell indices of the parent domain belonging to the shard.
    domain:
        The shard's own one-dimensional domain of ``len(cells)`` cells;
        shard-local index ``j`` corresponds to parent cell ``cells[j]``.
    policy:
        The induced sub-policy over :attr:`domain` (edges relabelled to
        shard-local indices, ``⊥`` edges preserved).
    database:
        The projected sub-histogram ``counts[cells]``.
    """

    index: int
    label: int
    cells: np.ndarray = field(repr=False)
    domain: Domain
    policy: PolicyGraph = field(repr=False)
    database: Database = field(repr=False)

    @property
    def num_cells(self) -> int:
        """Number of parent-domain cells the shard owns."""
        return int(self.cells.shape[0])


@dataclass(frozen=True)
class ShardPiece:
    """One workload's rows confined to one shard."""

    shard: DomainShard
    rows: np.ndarray = field(repr=False)
    workload: Workload = field(repr=False)


@dataclass(frozen=True)
class ShardScatter:
    """A workload scattered into per-shard pieces (ready to gather back)."""

    num_queries: int
    pieces: Tuple[ShardPiece, ...]

    def gather(self, piece_answers: Sequence[np.ndarray]) -> np.ndarray:
        """Reassemble per-piece noisy answers into the full answer vector.

        Rows never covered by any piece are all-zero queries whose exact
        answer is 0 on every histogram, so the vector starts from zeros.
        """
        answers = np.zeros(self.num_queries, dtype=np.float64)
        for piece, vector in zip(self.pieces, piece_answers):
            answers[piece.rows] = np.asarray(vector, dtype=np.float64).ravel()
        return answers


class ShardSet:
    """The per-component shards of one ``(policy, database)`` pair.

    Built lazily by the engine (one :class:`ShardSet` per distinct policy)
    and consulted on every flush: :meth:`scatter` either splits a workload
    into per-shard pieces or returns ``None``, in which case the pipeline
    falls back to the unsharded execution path for that batch.
    """

    def __init__(
        self,
        policy: PolicyGraph,
        shards: Sequence[DomainShard],
        labels: np.ndarray,
    ) -> None:
        self._policy = policy
        self._shards = list(shards)
        self._labels = labels
        self._shard_by_label: Dict[int, DomainShard] = {
            shard.label: shard for shard in self._shards
        }
        # Scatter decisions are pure functions of the workload content, and
        # the serving path re-submits equal workloads flush after flush —
        # memoise them by signature (None results included: re-deciding that
        # a spanning workload cannot scatter costs the same row scan).
        self._scatter_cache = WorkloadTransformCache(maxsize=256)

    # ------------------------------------------------------------- properties
    @property
    def policy(self) -> PolicyGraph:
        """The parent policy the shards partition."""
        return self._policy

    @property
    def shards(self) -> List[DomainShard]:
        """The shards, in component-label order."""
        return list(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    # ------------------------------------------------------------ construction
    @staticmethod
    def build(policy: PolicyGraph, database: Database) -> Optional["ShardSet"]:
        """Build the shard set for ``policy``, or ``None`` when unshardable.

        Sharding requires at least two connected components (one component is
        just the unsharded path with extra bookkeeping) and every component
        must carry at least one policy edge: an edgeless singleton cell is
        fully disclosed by the policy and has no transformed coordinates, so
        batches touching it take the unsharded path where the Case II
        machinery handles it uniformly.
        """
        if policy.domain != database.domain:
            return None
        labels = policy.component_labels()
        distinct = [int(label) for label in np.unique(labels)]
        if len(distinct) < 2:
            return None
        labels_with_edges = set()
        for u, v in policy.edges:
            endpoint = v if is_bottom(u) else u
            labels_with_edges.add(int(labels[int(endpoint)]))
        if set(distinct) - labels_with_edges:
            return None

        shards: List[DomainShard] = []
        for index, label in enumerate(sorted(labels_with_edges)):
            cells = np.where(labels == label)[0].astype(np.int64)
            local = {int(cell): position for position, cell in enumerate(cells)}
            sub_domain = Domain((int(cells.shape[0]),))
            sub_edges = []
            for u, v in policy.edges:
                endpoint = v if is_bottom(u) else u
                if int(labels[int(endpoint)]) != label:
                    continue
                nu = BOTTOM if is_bottom(u) else local[int(u)]
                nv = BOTTOM if is_bottom(v) else local[int(v)]
                sub_edges.append((nu, nv))
            base_name = policy.name or "policy"
            sub_policy = PolicyGraph(
                domain=sub_domain, edges=sub_edges, name=f"{base_name}/shard{index}"
            )
            sub_database = Database(
                domain=sub_domain,
                counts=database.counts[cells],
                name=f"{database.name or 'db'}/shard{index}",
            )
            shards.append(
                DomainShard(
                    index=index,
                    label=label,
                    cells=cells,
                    domain=sub_domain,
                    policy=sub_policy,
                    database=sub_database,
                )
            )
        return ShardSet(policy=policy, shards=shards, labels=labels)

    # --------------------------------------------------------------- scatter
    def scatter(self, workload: Workload) -> Optional[ShardScatter]:
        """Split ``workload`` into per-shard pieces, or ``None`` if impossible.

        A workload scatters exactly when every query row's support lies in a
        single component (checked via
        :meth:`~repro.core.Workload.rows_by_column_label`).  Rows spanning
        two components would need cross-shard noise aggregation — a different
        error profile from the unsharded mechanism — so such workloads fall
        back to unsharded execution instead of silently changing semantics.

        Results are memoised by workload content signature (scatters are
        immutable: pieces are consumed read-only and :meth:`ShardScatter.gather`
        allocates fresh vectors), so re-served workloads skip the row scan.
        """
        return self._scatter_cache.get_or_compute(workload, self._scatter_uncached)

    def _scatter_uncached(self, workload: Workload) -> Optional[ShardScatter]:
        groups = workload.rows_by_column_label(self._labels)
        if groups is None:
            return None
        pieces: List[ShardPiece] = []
        for label in sorted(groups):
            shard = self._shard_by_label.get(int(label))
            if shard is None:  # pragma: no cover - build() guarantees coverage
                return None
            rows = np.asarray(groups[label], dtype=np.int64)
            sub_workload = workload.subset(rows.tolist()).restrict_to_columns(
                shard.cells, shard.domain, name=workload.name or "scatter"
            )
            # Hashed once here, inside the memo: every later flush keys the
            # stacked-batch memo on this piece's memoised signature.
            sub_workload.signature()
            pieces.append(ShardPiece(shard=shard, rows=rows, workload=sub_workload))
        return ShardScatter(num_queries=workload.num_queries, pieces=tuple(pieces))
