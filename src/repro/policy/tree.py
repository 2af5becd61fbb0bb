"""Tree policies and the exact tree transform (Theorem 4.3 / Lemma 4.9).

When the (reduced) policy graph is a tree rooted at ``⊥``, the transform
``P_G`` is square and invertible, and the transformed database ``x_G`` has a
simple combinatorial meaning: the value on an edge is the total count of the
subtree hanging below it.  For the line policy this is exactly the vector of
prefix sums (Example 4.1).  Because neighbors under the policy map to
histogram vectors at L1 distance one (Lemma 4.9), *any* differentially private
mechanism — including data-dependent ones such as DAWA — can be run on
``(W_G, x_G)`` and inherits Blowfish privacy on the original instance.

:class:`TreeTransform` provides the fast (O(k)) transform, its inverse, the
structural metadata (parent edges, depths) used by the spanner utilities and
the consistency post-processing, and explicit checks of the paper's claims
used by the test-suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.database import Database
from ..core.digest import content_digest
from ..core.workload import LRUMemo
from ..exceptions import PolicyNotTreeError, TransformError
from .graph import BOTTOM, PolicyGraph, is_bottom
from .transform import PolicyTransform

#: Transformed databases one :class:`TreeTransform` remembers.  The engine
#: runs each plan on one histogram (a shard's plan on its sub-histogram), so
#: a few entries suffice.
_DATABASE_MEMO_SIZE = 4


@dataclass(frozen=True)
class TreeStructure:
    """Rooted-tree metadata for a reduced policy graph (root = ``⊥``).

    Attributes
    ----------
    parent_edge_of_vertex:
        For every kept-vertex row index, the edge index of its parent edge.
    child_vertex_of_edge:
        For every edge index, the kept-vertex row index of its child endpoint
        (the endpoint farther from ``⊥``).
    edge_sign:
        For every edge index, the sign (+1/-1) the child endpoint carries in
        the corresponding column of ``P_G``.
    depth_of_vertex:
        Depth of every kept vertex (``⊥`` has depth 0).
    children_of_vertex:
        Adjacency list of child rows per kept-vertex row (roots excluded).
    topological_order:
        Kept-vertex rows ordered root-to-leaves (parents before children).
    """

    parent_edge_of_vertex: np.ndarray
    child_vertex_of_edge: np.ndarray
    edge_sign: np.ndarray
    depth_of_vertex: np.ndarray
    children_of_vertex: List[List[int]]
    topological_order: np.ndarray


class TreeTransform:
    """Exact transform between a tree Blowfish instance and its DP instance.

    Parameters
    ----------
    transform:
        A :class:`~repro.policy.transform.PolicyTransform` whose *reduced*
        policy is a tree.  A non-tree policy raises
        :class:`~repro.exceptions.PolicyNotTreeError`, mirroring the scope of
        Theorem 4.3.
    """

    def __init__(self, transform: PolicyTransform) -> None:
        if not transform.is_tree():
            raise PolicyNotTreeError(
                "The (reduced) policy graph is not a tree; Theorem 4.3 does not apply. "
                "Use a spanning-tree approximation (Lemma 4.5) or a matrix-mechanism "
                "strategy (Theorem 4.1) instead."
            )
        self._transform = transform
        self._structure = self._build_structure()
        # x_G per content digest of the counts it came from.  It is derived
        # from the private histogram, so it is never pickled: plans travel
        # to worker processes and to disk without it.
        self._database_memo = LRUMemo(maxsize=_DATABASE_MEMO_SIZE)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_database_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._database_memo = LRUMemo(maxsize=_DATABASE_MEMO_SIZE)

    # ----------------------------------------------------------- construction
    def _build_structure(self) -> TreeStructure:
        reduced = self._transform.reduced_policy
        kept = self._transform.kept_vertices
        row_of: Dict[int, int] = {int(v): i for i, v in enumerate(kept)}
        num_vertices = len(kept)
        num_edges = reduced.num_edges
        if num_edges != num_vertices:
            raise TransformError(
                f"A rooted tree over {num_vertices} kept vertices must have exactly "
                f"{num_vertices} edges, found {num_edges}"
            )

        # Adjacency over rows; BOTTOM is represented by -1.
        adjacency: List[List[Tuple[int, int, float]]] = [[] for _ in range(num_vertices + 1)]

        def node_id(vertex) -> int:
            return num_vertices if is_bottom(vertex) else row_of[int(vertex)]

        for edge_index, (u, v) in enumerate(reduced.edges):
            a, b = node_id(u), node_id(v)
            sign_a = 1.0 if not is_bottom(u) else 0.0
            sign_b = -1.0 if not is_bottom(v) else 0.0
            # Store, next to each neighbor, the sign *that neighbor* carries in
            # the edge's P_G column, so BFS discovery of a child immediately
            # yields the sign of the child endpoint.
            adjacency[a].append((b, edge_index, sign_b))
            adjacency[b].append((a, edge_index, sign_a))

        parent_edge = np.full(num_vertices, -1, dtype=np.int64)
        child_of_edge = np.full(num_edges, -1, dtype=np.int64)
        edge_sign = np.zeros(num_edges, dtype=np.float64)
        depth = np.full(num_vertices, -1, dtype=np.int64)
        children: List[List[int]] = [[] for _ in range(num_vertices)]
        order: List[int] = []

        root = num_vertices  # BOTTOM
        visited = np.zeros(num_vertices + 1, dtype=bool)
        visited[root] = True
        queue = deque([(root, 0)])
        while queue:
            node, node_depth = queue.popleft()
            for neighbor, edge_index, sign_at_neighbor in adjacency[node]:
                if visited[neighbor]:
                    continue
                visited[neighbor] = True
                parent_edge[neighbor] = edge_index
                child_of_edge[edge_index] = neighbor
                edge_sign[edge_index] = sign_at_neighbor
                depth[neighbor] = node_depth + 1
                if node != root:
                    children[node].append(neighbor)
                order.append(neighbor)
                queue.append((neighbor, node_depth + 1))

        if not bool(visited[:num_vertices].all()):
            raise TransformError("Tree policy is not connected to bottom")
        return TreeStructure(
            parent_edge_of_vertex=parent_edge,
            child_vertex_of_edge=child_of_edge,
            edge_sign=edge_sign,
            depth_of_vertex=depth,
            children_of_vertex=children,
            topological_order=np.array(order, dtype=np.int64),
        )

    # ------------------------------------------------------------- properties
    @property
    def transform(self) -> PolicyTransform:
        """The underlying :class:`PolicyTransform`."""
        return self._transform

    @property
    def structure(self) -> TreeStructure:
        """Rooted-tree metadata."""
        return self._structure

    @property
    def policy(self) -> PolicyGraph:
        """The original policy graph."""
        return self._transform.policy

    @property
    def num_edges(self) -> int:
        """Number of edges (equals the number of kept vertices)."""
        return self._transform.num_edges

    # --------------------------------------------------------------- transform
    def transform_database(self, database: Database) -> np.ndarray:
        """Exact transformed database: signed subtree counts per edge.

        For edge ``e`` with child endpoint ``c`` (the endpoint away from
        ``⊥``), ``|x_G[e]|`` is the total count in the subtree rooted at ``c``
        and the sign matches the child's sign in the corresponding ``P_G``
        column, so that ``P_G x_G = x`` exactly.  For the line policy this is
        the prefix-sum vector.

        The result is memoised per content of ``database.counts`` (so a
        mutated or different histogram gets a fresh vector) and returned
        read-only.
        """
        if database.domain != self.policy.domain:
            raise TransformError("Database domain does not match the policy domain")
        counts = np.ascontiguousarray(database.counts)
        return self._database_memo.get_or_compute(
            content_digest(counts), lambda _: self._subtree_counts(counts)
        )

    def _subtree_counts(self, counts: np.ndarray) -> np.ndarray:
        counts_kept = counts[self._transform.kept_vertices]
        structure = self._structure
        subtree = counts_kept.copy()
        # Reverse topological accumulation (children before parents).
        for row in structure.topological_order[::-1]:
            for child in structure.children_of_vertex[row]:
                subtree[row] += subtree[child]
        edge_values = np.zeros(self.num_edges, dtype=np.float64)
        child_rows = structure.child_vertex_of_edge
        edge_values[:] = structure.edge_sign * subtree[child_rows]
        edge_values.flags.writeable = False
        return edge_values

    def inverse_transform(self, edge_values: np.ndarray) -> np.ndarray:
        """Recover the kept-vertex histogram from edge values: ``P_G x_G``.

        For a tree ``P_G`` is square, so this inverse is exact:
        ``x[c] = subtree(c) - sum of children subtrees``.
        """
        edge_values = np.asarray(edge_values, dtype=np.float64).ravel()
        if edge_values.shape[0] != self.num_edges:
            raise TransformError(
                f"Expected {self.num_edges} edge values, got {edge_values.shape[0]}"
            )
        return np.asarray(self._transform.incidence @ edge_values).ravel()

    # ------------------------------------------------------------- invariants
    def verify_neighbor_preservation(
        self, database: Database, edge_index: int
    ) -> bool:
        """Check Lemma 4.9 on one edge: Blowfish neighbors map to L1-distance-1 vectors.

        Moves one (fractional) record across the ``edge_index``-th policy edge
        of the *original* graph and verifies that the transformed databases
        differ by exactly 1 in a single coordinate.
        """
        original_edges = self.policy.edges
        if not 0 <= edge_index < len(original_edges):
            raise TransformError(f"Edge index {edge_index} out of range")
        u, v = original_edges[edge_index]
        x = database.counts.copy()
        if is_bottom(u):
            u, v = v, u
        if x[int(u)] < 1:
            raise TransformError(
                f"Database has no record at vertex {int(u)}; cannot form a neighbor "
                f"across edge {edge_index}"
            )
        y = x.copy()
        y[int(u)] -= 1.0
        if not is_bottom(v):
            y[int(v)] += 1.0
        x_g = self.transform_database(database)
        y_g = self.transform_database(database.with_counts(y))
        difference = np.abs(x_g - y_g)
        return bool(np.isclose(difference.sum(), 1.0) and np.count_nonzero(difference > 1e-9) == 1)

    def monotone_root_path_indices(self) -> Optional[np.ndarray]:
        """Edge indices ordered along the root path when the tree is a path.

        For path (line-graph style) policies the transformed database is
        non-decreasing along this order, which is the constraint exploited by
        the consistency post-processing of Section 5.4.2.  Returns ``None``
        when the tree is not a path.
        """
        structure = self._structure
        degrees = np.array([len(c) for c in structure.children_of_vertex])
        num_roots = int(np.sum(structure.depth_of_vertex == 1))
        if num_roots != 1 or np.any(degrees > 1):
            return None
        # Walk from the unique depth-1 vertex down the single chain.
        order: List[int] = []
        current = int(np.where(structure.depth_of_vertex == 1)[0][0])
        while True:
            order.append(int(structure.parent_edge_of_vertex[current]))
            children = structure.children_of_vertex[current]
            if not children:
                break
            current = children[0]
        # order[0] is the edge adjacent to bottom (largest subtree); reverse so
        # the sequence of |x_G| values is non-decreasing.
        return np.array(order[::-1], dtype=np.int64)
