"""The policy transform ``P_G`` and transformational equivalence (Section 4).

Given a policy graph ``G`` over a domain of size ``k`` the paper constructs a
matrix ``P_G`` with one row per (kept) domain value and one column per policy
edge (Section 4.4).  ``P_G`` turns the Blowfish instance ``(W, x)`` into the
differential-privacy instance ``(W_G, x_G) = (W P_G, P_G^{-1} x)`` with the
same answers: ``W x = W_G x_G`` (plus a public offset in the bounded case).

Three cases are handled, mirroring the paper:

* **Case I** — the policy contains edges to ``⊥``: ``P_G`` is built directly,
  one signed-indicator column per edge.
* **Case II** — the policy has no ``⊥`` (bounded policies such as the line and
  grid graphs): one vertex per connected component is *removed*; its edges are
  rewired to ``⊥`` and queries touching it are rewritten in terms of the
  (publicly known) component total, Lemma 4.10.
* **Case III** — disconnected policies (Appendix E): Case II is applied to
  every component that does not already reach ``⊥``.

The class below packages the construction together with the workload /
database transforms, the policy-specific sensitivity (Definition 4.1), and the
answer reconstruction used by every Blowfish mechanism in
:mod:`repro.blowfish`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..core.database import Database
from ..core.digest import content_digest, matrix_digest
from ..core.sensitivity import unbounded_sensitivity
from ..core.workload import Workload, WorkloadTransformCache
from ..exceptions import PolicyError, TransformError
from .graph import BOTTOM, PolicyGraph, Vertex, is_bottom

#: Bound of a transform's memo of transformed-workload store handles: the
#: products are owned by whoever uses them, the transform only pins a
#: working set.
_WORKLOAD_HANDLES = 32

def _factorisation_store():
    # Imported lazily: repro.engine imports repro.policy during its package
    # initialisation, so the reverse import must wait until first use.
    from ..engine import factorisation

    return factorisation.get_store()


@dataclass(frozen=True)
class TransformedInstance:
    """A Blowfish instance rewritten as a standard-DP instance.

    Attributes
    ----------
    workload_matrix:
        ``W_G`` — a ``q x |E|`` matrix over the *edge* domain.
    database_vector:
        ``x_G`` — a length ``|E|`` vector with ``P_G x_G = x`` (restricted to
        kept vertices), so that ``W_G x_G + offset = W x``.
    offset:
        The public constant ``c(W, n)`` of Lemma 4.10 (zero in Case I).
    """

    workload_matrix: sp.csr_matrix
    database_vector: np.ndarray
    offset: np.ndarray

    @property
    def num_edges(self) -> int:
        """Number of edge-domain coordinates ``|E|``."""
        return int(self.workload_matrix.shape[1])

    def true_answers(self) -> np.ndarray:
        """Exact workload answers ``W x = W_G x_G + offset``."""
        return np.asarray(self.workload_matrix @ self.database_vector).ravel() + self.offset


@dataclass(frozen=True)
class _OffsetLayout:
    """Policy-only inputs of :meth:`PolicyTransform.offset`.

    Slot ``s`` is the ``s``-th component (in component order) that lost a
    vertex to the Case II reduction: ``members[s]`` holds its sorted members
    and ``slot_of_vertex`` maps its removed vertex to ``s`` (every other
    vertex maps to ``-1``).
    """

    slot_of_vertex: np.ndarray
    members: List[np.ndarray]


class PolicyTransform:
    """Constructs ``P_G`` and the associated workload/database transforms.

    Parameters
    ----------
    policy:
        The Blowfish policy graph ``G``.
    removed_vertices:
        Optional explicit choice of the vertex removed from each component
        that does not reach ``⊥`` (Case II / Case III).  When omitted, the
        largest flat index of each such component is removed, matching
        Example 4.1 where the rightmost value of the line graph becomes
        ``⊥``.
    """

    def __init__(
        self,
        policy: PolicyGraph,
        removed_vertices: Optional[Sequence[int]] = None,
    ) -> None:
        self._policy = policy
        self._components = policy.connected_components()
        self._removed_by_component = self._choose_removed_vertices(removed_vertices)
        self._removed: List[int] = sorted(
            vertex for vertex in self._removed_by_component.values() if vertex is not None
        )
        removed_set = set(self._removed)
        self._kept: np.ndarray = np.array(
            [v for v in range(policy.domain.size) if v not in removed_set], dtype=np.int64
        )
        self._row_of: Dict[int, int] = {int(v): i for i, v in enumerate(self._kept)}
        self._reduced_policy = self._build_reduced_policy()
        self._incidence = self._build_incidence()
        # Map every kept vertex to the removed vertex of its component (or None).
        self._component_removed_of_vertex = self._map_vertices_to_removed()
        # Factorisation artifacts (the Gram/SuperLU solve closure, shared
        # transformed-workload products) live in the process-wide
        # FactorisationStore, keyed by content digests of P_G — transforms
        # hold only *handles*, resolved lazily under the lock (double-checked:
        # the fast path stays lock-free).  Handles are transient and never
        # pickled; the digests survive so the other side of a process
        # boundary re-resolves against its own store.
        self._gram_digest: Optional[str] = None
        self._transform_digest: Optional[str] = None
        self._gram_handle = None
        self._workload_handles = WorkloadTransformCache(_WORKLOAD_HANDLES)
        self._gram_lock = threading.Lock()
        # Policy-only pieces built on first use and dropped when pickled:
        # the reduction matrix D and the per-component offset layout.
        self._reduction: Optional[sp.csr_matrix] = None
        self._offset_layout: Optional[_OffsetLayout] = None

    # --------------------------------------------------------------- digests
    @property
    def gram_digest(self) -> str:
        """Content digest of ``P_G`` — the factorisation-store key of its Gram.

        Every transform built over the same incidence matrix (same policy
        content, regardless of which plan/shard/worker built it) shares this
        digest and therefore one SuperLU factorisation per process.
        """
        digest = self._gram_digest
        if digest is None:
            digest = matrix_digest(self._incidence)
            self._gram_digest = digest
        return digest

    @property
    def transform_digest(self) -> str:
        """Digest of the full workload transform (``P_G`` plus reduction).

        Keys shared transformed-workload products: two transforms agree
        exactly when both their incidence *and* their Case II/III column
        reduction agree, so ``W' P_G`` may be adopted across instances.
        """
        digest = self._transform_digest
        if digest is None:
            digest = content_digest(
                self.gram_digest.encode(),
                matrix_digest(self.reduction_matrix()).encode(),
            )
            self._transform_digest = digest
        return digest

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Pickle support: digests survive, store handles and the lock do not.

        Transforms travel to worker processes (the engine's process-parallel
        execute backend) and to disk (plan-cache persistence).  The Gram
        factorisation is a closure over a ``SuperLU`` object, which cannot
        cross a process boundary; only its content digest travels, and the
        receiving process re-resolves lazily against its *own*
        :class:`~repro.engine.factorisation.FactorisationStore` — so a
        re-hydrated plan whose policy matrices are already resident there
        never re-factorises, and answers are unaffected either way (the
        factorisation is a pure function of ``P_G``).
        """
        state = self.__dict__.copy()
        state["_gram_handle"] = None
        state["_workload_handles"] = WorkloadTransformCache(_WORKLOAD_HANDLES)
        del state["_gram_lock"]
        del state["_reduction"]
        del state["_offset_layout"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # PR 4-era pickles (plan-store format 1) carried the factorisation
        # slot itself; drop it and default the digests so old stores load
        # and re-attach to the shared store on first use.
        self.__dict__.pop("_factorised_gram", None)
        self.__dict__.setdefault("_gram_digest", None)
        self.__dict__.setdefault("_transform_digest", None)
        self._gram_handle = None
        self._workload_handles = WorkloadTransformCache(_WORKLOAD_HANDLES)
        self._gram_lock = threading.Lock()
        self._reduction = None
        self._offset_layout = None

    # ----------------------------------------------------------- construction
    def _choose_removed_vertices(
        self, removed_vertices: Optional[Sequence[int]]
    ) -> Dict[int, Optional[int]]:
        """Pick the removed vertex of every component without ``⊥``."""
        explicit = list(int(v) for v in removed_vertices) if removed_vertices else []
        for vertex in explicit:
            if not 0 <= vertex < self._policy.domain.size:
                raise TransformError(f"Removed vertex {vertex} is outside the domain")
        chosen: Dict[int, Optional[int]] = {}
        used_explicit: Set[int] = set()
        for index, component in enumerate(self._components):
            if any(is_bottom(v) for v in component):
                chosen[index] = None
                continue
            members = {int(v) for v in component}
            explicit_here = [v for v in explicit if v in members]
            if len(explicit_here) > 1:
                raise TransformError(
                    f"More than one removed vertex requested in component {sorted(members)}"
                )
            if explicit_here:
                chosen[index] = explicit_here[0]
                used_explicit.add(explicit_here[0])
            else:
                chosen[index] = max(members)
        unused = set(explicit) - used_explicit
        if unused:
            raise TransformError(
                f"Removed vertices {sorted(unused)} belong to components that already reach bottom"
            )
        return chosen

    def _build_reduced_policy(self) -> PolicyGraph:
        """Rewire every removed vertex's edges to ``⊥`` (Lemma 4.10), keeping edge order."""
        removed = set(self._removed)
        new_edges: List[Tuple[Vertex, Vertex]] = []
        for u, v in self._policy.edges:
            nu: Vertex = BOTTOM if (not is_bottom(u) and int(u) in removed) else u
            nv: Vertex = BOTTOM if (not is_bottom(v) and int(v) in removed) else v
            if is_bottom(nu) and is_bottom(nv):
                raise TransformError(
                    "Both endpoints of a policy edge were removed; choose different "
                    "removed vertices"
                )
            new_edges.append((nu, nv))
        name = self._policy.name + "'" if self._policy.name else "reduced"
        return PolicyGraph(domain=self._policy.domain, edges=new_edges, name=name)

    def _build_incidence(self) -> sp.csr_matrix:
        """Build ``P_G``: one signed-indicator column per (reduced) policy edge."""
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for edge_index, (u, v) in enumerate(self._reduced_policy.edges):
            if not is_bottom(u):
                rows.append(self._row_of[int(u)])
                cols.append(edge_index)
                data.append(1.0)
            if not is_bottom(v):
                rows.append(self._row_of[int(v)])
                cols.append(edge_index)
                data.append(-1.0)
        matrix = sp.csr_matrix(
            (data, (rows, cols)),
            shape=(len(self._kept), self._reduced_policy.num_edges),
        )
        return matrix

    def _map_vertices_to_removed(self) -> Dict[int, Optional[int]]:
        mapping: Dict[int, Optional[int]] = {}
        for index, component in enumerate(self._components):
            removed = self._removed_by_component[index]
            for vertex in component:
                if not is_bottom(vertex):
                    mapping[int(vertex)] = removed
        # Isolated vertices that appear in no component with edges still need a value.
        for vertex in range(self._policy.domain.size):
            mapping.setdefault(vertex, None)
        return mapping

    # ------------------------------------------------------------- properties
    @property
    def policy(self) -> PolicyGraph:
        """The original policy graph ``G``."""
        return self._policy

    @property
    def reduced_policy(self) -> PolicyGraph:
        """The reduced policy ``G'`` in which removed vertices became ``⊥``."""
        return self._reduced_policy

    @property
    def incidence(self) -> sp.csr_matrix:
        """The transform matrix ``P_G`` (kept vertices x edges)."""
        return self._incidence

    @property
    def removed_vertices(self) -> List[int]:
        """Vertices replaced by ``⊥`` (empty in Case I)."""
        return list(self._removed)

    @property
    def kept_vertices(self) -> np.ndarray:
        """Flat indices of kept vertices, in the row order of ``P_G``."""
        return self._kept.copy()

    @property
    def num_edges(self) -> int:
        """Number of policy edges ``|E|`` (columns of ``P_G``)."""
        return self._reduced_policy.num_edges

    def is_tree(self) -> bool:
        """``True`` when the reduced policy (with ``⊥``) is a tree.

        The check is performed over the *kept* vertices plus ``⊥``: the
        vertices removed by the Case II reduction are no longer part of the
        transformed instance, so they do not count as isolated nodes.  This is
        the condition of Theorem 4.3 under which *every* mechanism transfers
        between the Blowfish and DP instances.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(int(v) for v in self._kept)
        graph.add_node("bottom")
        for u, v in self._reduced_policy.edges:
            a = "bottom" if is_bottom(u) else int(u)
            b = "bottom" if is_bottom(v) else int(v)
            graph.add_edge(a, b)
        return bool(nx.is_tree(graph))

    def has_full_row_rank(self) -> bool:
        """Check that ``P_G`` has full row rank (Lemma 4.8).

        Full row rank holds whenever every connected component of the policy
        reaches ``⊥`` after the Case II reduction; this method verifies it
        numerically (dense, so use only on small policies or in tests).
        """
        dense = self._incidence.toarray()
        if dense.size == 0:
            return len(self._kept) == 0
        return int(np.linalg.matrix_rank(dense)) == len(self._kept)

    # ------------------------------------------------------------- transforms
    def reduction_matrix(self) -> sp.csr_matrix:
        """The matrix ``D`` of Lemma 4.10 mapping full columns to kept columns.

        ``D`` has one row per domain vertex and one column per kept vertex;
        ``W' = W D``.  Column ``j'`` (for kept vertex ``j``) carries a ``1``
        at row ``j`` and, when ``j``'s component had a vertex ``v_c`` removed,
        a ``-1`` at row ``v_c``.

        Built once per transform and shared by every caller, so treat the
        returned matrix as read-only.
        """
        reduction = self._reduction
        if reduction is None:
            reduction = self._build_reduction_matrix()
            self._reduction = reduction
        return reduction

    def _build_reduction_matrix(self) -> sp.csr_matrix:
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for new_index, vertex in enumerate(self._kept):
            rows.append(int(vertex))
            cols.append(new_index)
            data.append(1.0)
            removed = self._component_removed_of_vertex.get(int(vertex))
            if removed is not None:
                rows.append(int(removed))
                cols.append(new_index)
                data.append(-1.0)
        return sp.csr_matrix(
            (data, (rows, cols)), shape=(self._policy.domain.size, len(self._kept))
        )

    def reduce_workload_matrix(self, workload: Workload) -> sp.csr_matrix:
        """Rewrite ``W`` over kept vertices only (the matrix ``W'`` of Lemma 4.10).

        Column ``j`` of the result is ``W[:, j] - W[:, v_c]`` where ``v_c`` is
        the removed vertex of ``j``'s component (or ``W[:, j]`` unchanged when
        the component already reaches ``⊥``).
        """
        self._check_domain(workload)
        return sp.csr_matrix(workload.matrix @ self.reduction_matrix())

    def transform_workload(self, workload: Workload) -> sp.csr_matrix:
        """The transformed workload ``W_G = W' P_G`` over the edge domain.

        Resolved through the process-wide factorisation store keyed by
        (transform digest, workload signature): mechanisms that differ only
        in ε — or live in different plan caches, or were re-hydrated in a
        worker process — share one sparse product per distinct
        (transform, workload) content.
        """
        handle = self._workload_handles.get_or_compute(
            workload,
            lambda w: _factorisation_store().get_or_build(
                "workload-gram",
                f"{self.transform_digest}:{w.signature()}",
                lambda: self._compute_transformed_workload(w),
            ),
        )
        return handle.value

    def _compute_transformed_workload(self, workload: Workload) -> sp.csr_matrix:
        reduced = self.reduce_workload_matrix(workload)
        return sp.csr_matrix(reduced @ self._incidence)

    def offset(self, workload: Workload, database: Database) -> np.ndarray:
        """The public constant ``c(W, n)`` with ``W x = W_G x_G + c`` (Lemma 4.10).

        For every component whose vertex ``v_c`` was removed, the offset adds
        ``n_c * W[:, v_c]`` where ``n_c`` is the number of records in that
        component.  Component totals are exactly disclosed by the policy
        (Appendix E), and for connected bounded policies ``n_c = n`` which all
        Blowfish neighbors share.
        """
        self._check_domain(workload)
        self._check_database(database)
        result = np.zeros(workload.num_queries, dtype=np.float64)
        if not self._removed:
            return result
        layout = self._offset_layout
        if layout is None:
            layout = self._build_offset_layout()
            self._offset_layout = layout
        columns = self._removed_columns(workload.matrix, layout)
        counts = database.counts
        for slot, members in enumerate(layout.members):
            component_total = float(counts[members].sum())
            result += component_total * columns[slot]
        return result

    def _build_offset_layout(self) -> _OffsetLayout:
        slot_of_vertex = np.full(self._policy.domain.size, -1, dtype=np.int64)
        members: List[np.ndarray] = []
        for index, component in enumerate(self._components):
            removed = self._removed_by_component[index]
            if removed is None:
                continue
            slot_of_vertex[int(removed)] = len(members)
            members.append(
                np.array(sorted(int(v) for v in component if not is_bottom(v)), dtype=np.int64)
            )
        return _OffsetLayout(slot_of_vertex=slot_of_vertex, members=members)

    @staticmethod
    def _removed_columns(matrix: sp.csr_matrix, layout: _OffsetLayout) -> np.ndarray:
        """The removed vertices' columns of ``W``, one dense row per slot.

        One pass over the CSR entries.  Entries accumulate in stored order,
        as densifying a CSC column does, so duplicate entries sum alike.
        """
        columns = np.zeros((len(layout.members), matrix.shape[0]), dtype=np.float64)
        # np.take gathers int32 indices about twice as fast as fancy indexing.
        slots = np.take(layout.slot_of_vertex, matrix.indices)
        positions = np.flatnonzero(slots >= 0)
        if positions.size:
            rows = np.searchsorted(matrix.indptr, positions, side="right") - 1
            np.add.at(columns, (slots[positions], rows), matrix.data[positions])
        return columns

    def transform_database(self, database: Database) -> np.ndarray:
        """The transformed database ``x_G`` with ``P_G x_G = x`` (kept entries).

        For tree policies this equals the subtree-count vector of
        :class:`repro.policy.tree.TreeTransform` (and is integral); in general
        it is the minimum-norm solution computed through the sparse normal
        equations.  Any solution gives the same transformed answers because
        ``W_G x_G = W' (P_G x_G) = W' x``.
        """
        self._check_database(database)
        x_kept = database.counts[self._kept]
        if self.num_edges == 0:
            if np.any(np.abs(x_kept) > 0):
                raise TransformError(
                    "Policy has no edges but the database has records on kept vertices"
                )
            return np.zeros(0, dtype=np.float64)
        handle = self._gram_handle
        if handle is None:
            with self._gram_lock:
                handle = self._gram_handle
                if handle is None:
                    handle = _factorisation_store().get_or_build(
                        "gram", self.gram_digest, self._factorise_gram
                    )
                    self._gram_handle = handle
        y = handle.value(x_kept)
        return np.asarray(self._incidence.T @ y).ravel()

    def _factorise_gram(self):
        """Build the SuperLU solve closure of ``P_G P_Gᵀ`` (store build hook)."""
        gram = (self._incidence @ self._incidence.T).tocsc()
        try:
            return spla.factorized(gram)
        except RuntimeError as exc:  # singular Gram matrix
            raise TransformError(
                "P_G does not have full row rank; is some component of "
                "the policy missing a path to bottom?"
            ) from exc

    def transform_instance(
        self, workload: Workload, database: Database
    ) -> TransformedInstance:
        """Bundle ``W_G``, ``x_G`` and the offset for one Blowfish instance."""
        return TransformedInstance(
            workload_matrix=self.transform_workload(workload),
            database_vector=self.transform_database(database),
            offset=self.offset(workload, database),
        )

    # -------------------------------------------------------------- sensitivity
    def policy_sensitivity(self, workload: Workload) -> float:
        """Policy-specific sensitivity ``Delta_W(G)`` (Definition 4.1).

        Computed directly from the original workload and the original policy
        edges: for an edge ``(u, v)`` the answer changes by
        ``W[:, u] - W[:, v]``; for an edge ``(u, ⊥)`` it changes by
        ``W[:, u]``.  By Lemma 4.7 this equals the unbounded-DP sensitivity of
        ``W_G``.
        """
        self._check_domain(workload)
        transformed = self.transform_original_workload(workload)
        return unbounded_sensitivity(transformed)

    def transform_original_workload(self, workload: Workload) -> sp.csr_matrix:
        """``W`` applied to the *original* policy edges (no Case II rewrite).

        Column ``e`` is ``W (e_u - e_v)`` for the original edge ``(u, v)``
        (or ``W e_u`` for ``(u, ⊥)``).  Up to the sign of individual columns
        this is the same matrix as :meth:`transform_workload` — the Case II
        rewrite cancels in the difference — but it is cheaper and independent
        of the removed-vertex choice, so it is the preferred input for
        sensitivity computations.
        """
        self._check_domain(workload)
        matrix = sp.csc_matrix(workload.matrix)
        # Signed vertex-to-edge matrix for the *original* edges.
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for edge_index, (u, v) in enumerate(self._policy.edges):
            if not is_bottom(u):
                rows.append(int(u))
                cols.append(edge_index)
                data.append(1.0)
            if not is_bottom(v):
                rows.append(int(v))
                cols.append(edge_index)
                data.append(-1.0)
        signed = sp.csr_matrix(
            (data, (rows, cols)),
            shape=(self._policy.domain.size, self._policy.num_edges),
        )
        return sp.csr_matrix(matrix @ signed)

    # ----------------------------------------------------------- reconstruction
    def reconstruct_answers(
        self,
        workload: Workload,
        database: Database,
        transformed_estimates: np.ndarray,
    ) -> np.ndarray:
        """Turn noisy estimates of ``W_G x_G`` into estimates of ``W x``.

        Simply adds the public offset ``c(W, n)``; no privacy budget is
        consumed because the offset only depends on component totals which are
        invariant across Blowfish neighbors.
        """
        transformed_estimates = np.asarray(transformed_estimates, dtype=np.float64).ravel()
        if transformed_estimates.shape[0] != workload.num_queries:
            raise TransformError(
                f"Expected {workload.num_queries} transformed answers, got "
                f"{transformed_estimates.shape[0]}"
            )
        return transformed_estimates + self.offset(workload, database)

    def reconstruct_histogram(self, edge_estimates: np.ndarray) -> np.ndarray:
        """Map edge-domain estimates back to a kept-vertex histogram: ``P_G x̃_G``."""
        edge_estimates = np.asarray(edge_estimates, dtype=np.float64).ravel()
        if edge_estimates.shape[0] != self.num_edges:
            raise TransformError(
                f"Expected {self.num_edges} edge estimates, got {edge_estimates.shape[0]}"
            )
        return np.asarray(self._incidence @ edge_estimates).ravel()

    # ----------------------------------------------------------------- helpers
    def _check_domain(self, workload: Workload) -> None:
        if workload.domain != self._policy.domain:
            raise PolicyError(
                f"Workload domain {workload.domain} does not match policy domain "
                f"{self._policy.domain}"
            )

    def _check_database(self, database: Database) -> None:
        if database.domain != self._policy.domain:
            raise PolicyError(
                f"Database domain {database.domain} does not match policy domain "
                f"{self._policy.domain}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolicyTransform(policy={self._policy.name or self._policy!r}, "
            f"edges={self.num_edges}, removed={self._removed})"
        )
