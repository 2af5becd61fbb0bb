"""Blowfish policy graphs.

A policy graph ``G = (V, E)`` (Definition 3.1) has one vertex per domain value
plus, optionally, the special vertex ``bottom`` (written ``⊥`` in the paper).
An edge ``(u, v)`` says an adversary must not distinguish a record with value
``u`` from one with value ``v``; an edge ``(u, ⊥)`` says presence of a record
with value ``u`` must not be distinguishable from its absence.

Design notes
------------
* Domain values are referred to by their *flat index* in the associated
  :class:`~repro.core.domain.Domain`; the sentinel :data:`BOTTOM` stands for
  ``⊥``.
* Edge order is significant: the columns of the transform matrix ``P_G``
  (Section 4.4) follow the order in which edges were added, so strategies that
  reason about "ranges of edges" (Section 5) can rely on it.
* Policy graphs are undirected and simple: parallel edges and self-loops are
  rejected, and ``(u, v)`` is the same edge as ``(v, u)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx
import numpy as np

from ..core import digest
from ..core.domain import Domain
from ..exceptions import PolicyError


class _Bottom:
    """Singleton sentinel representing the special vertex ``⊥``."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "BOTTOM"

    def __reduce__(self):  # keep the singleton under pickling
        return (_Bottom, ())


#: The special vertex ``⊥`` (Definition 3.1).
BOTTOM = _Bottom()

Vertex = Union[int, _Bottom]
Edge = Tuple[Vertex, Vertex]


def is_bottom(vertex: Vertex) -> bool:
    """Return ``True`` when ``vertex`` is the special vertex ``⊥``."""
    return isinstance(vertex, _Bottom)


def _canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical representation of an undirected edge.

    ``⊥`` is always placed second so that an edge incident on ``⊥`` reads
    ``(u, BOTTOM)``; between two domain vertices the smaller index comes
    first.
    """
    if is_bottom(u) and is_bottom(v):
        raise PolicyError("An edge cannot connect bottom to itself")
    if is_bottom(u):
        return (v, BOTTOM)
    if is_bottom(v):
        return (u, BOTTOM)
    a, b = int(u), int(v)
    if a == b:
        raise PolicyError(f"Self-loop on vertex {a} is not allowed")
    return (a, b) if a < b else (b, a)


def _edge_key(a: Vertex, b: Vertex) -> FrozenSet:
    """The membership key of the canonical edge ``(a, b)``."""
    return frozenset((("bottom",) if is_bottom(a) else a, ("bottom",) if is_bottom(b) else b))


class PolicyGraph:
    """A Blowfish policy graph over a :class:`~repro.core.domain.Domain`.

    Parameters
    ----------
    domain:
        The record domain; every non-``⊥`` vertex is a flat cell index.
    edges:
        Iterable of edges; each endpoint is a flat cell index or
        :data:`BOTTOM`.
    name:
        Human-readable policy name (e.g. ``"G^1_1024"``) used in reports.
    """

    def __init__(
        self,
        domain: Domain,
        edges: Iterable[Tuple[Vertex, Vertex]],
        name: str = "",
    ) -> None:
        self._domain = domain
        self._name = name
        self._edges: List[Edge] = []
        self._edge_set: Set[FrozenSet] = set()
        self._adjacency: Dict[Vertex, List[Tuple[Vertex, int]]] = {}
        self._has_bottom = False
        for u, v in edges:
            self._add_edge(u, v)

    # ------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # The edge set pickles in hash order, which varies with
        # PYTHONHASHSEED; leave it out so equal graphs pickle to equal bytes
        # in every process, and rebuild it from the ordered edge list.
        state = self.__dict__.copy()
        del state["_edge_set"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._edge_set = {_edge_key(a, b) for a, b in self._edges}

    # -------------------------------------------------------------- mutation
    def _add_edge(self, u: Vertex, v: Vertex) -> None:
        edge = _canonical_edge(u, v)
        a, b = edge
        for endpoint in (a, b):
            if not is_bottom(endpoint) and not 0 <= int(endpoint) < self._domain.size:
                raise PolicyError(
                    f"Vertex {endpoint} is outside the domain of size {self._domain.size}"
                )
        key = _edge_key(a, b)
        if key in self._edge_set:
            return  # ignore duplicate edges silently; the graph is simple
        index = len(self._edges)
        self._edges.append(edge)
        self._edge_set.add(key)
        self._adjacency.setdefault(a, []).append((b, index))
        self._adjacency.setdefault(b, []).append((a, index))
        if is_bottom(a) or is_bottom(b):
            self._has_bottom = True

    def signature(self) -> str:
        """Content signature: domain shape plus the ordered edge list.

        Edge *order* is part of the signature because the columns of ``P_G``
        follow insertion order; two policies with the same edge set but
        different order produce differently laid-out transforms and must not
        share one.  Plan and answer stores are keyed by this persisted sha256
        (see :mod:`repro.core.digest`).  It is memoised on the instance
        (graphs are immutable after construction), under the attribute name
        that pickled plans already carry.
        """
        cached = self.__dict__.get("_repro_signature")
        if cached is None:
            edges = "".join(
                f"{-1 if is_bottom(u) else int(u)},{-1 if is_bottom(v) else int(v)};"
                for u, v in self._edges
            )
            cached = digest.signature(
                repr(tuple(self._domain.shape)).encode(), edges.encode()
            )
            self._repro_signature = cached
        return cached

    # ------------------------------------------------------------ properties
    @property
    def domain(self) -> Domain:
        """The record domain the policy protects."""
        return self._domain

    @property
    def name(self) -> str:
        """Human-readable policy name."""
        return self._name

    @property
    def edges(self) -> List[Edge]:
        """Edges in insertion order (this order defines the columns of ``P_G``)."""
        return list(self._edges)

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._edges)

    @property
    def has_bottom(self) -> bool:
        """``True`` when some edge is incident on ``⊥`` (the unbounded case)."""
        return self._has_bottom

    @property
    def num_vertices(self) -> int:
        """Number of vertices: domain size, plus one if ``⊥`` participates."""
        return self._domain.size + (1 if self._has_bottom else 0)

    # -------------------------------------------------------------- structure
    def neighbors(self, vertex: Vertex) -> List[Vertex]:
        """Vertices adjacent to ``vertex`` (possibly including ``⊥``)."""
        return [other for other, _ in self._adjacency.get(self._normalise(vertex), [])]

    def degree(self, vertex: Vertex) -> int:
        """Degree of ``vertex`` in the policy graph."""
        return len(self._adjacency.get(self._normalise(vertex), []))

    def incident_edges(self, vertex: Vertex) -> List[int]:
        """Indices of edges incident on ``vertex`` (into :attr:`edges`)."""
        return [index for _, index in self._adjacency.get(self._normalise(vertex), [])]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` when the (undirected) edge ``(u, v)`` is in the policy."""
        return _edge_key(*_canonical_edge(u, v)) in self._edge_set

    def edge_index(self, u: Vertex, v: Vertex) -> int:
        """Return the column index of edge ``(u, v)`` in ``P_G``."""
        target = _canonical_edge(u, v)
        for other, index in self._adjacency.get(target[0], []):
            canonical_other = _canonical_edge(target[0], other)
            if canonical_other == target:
                return index
        raise PolicyError(f"Edge {u}-{v} is not in the policy graph")

    def _normalise(self, vertex: Vertex) -> Vertex:
        if is_bottom(vertex):
            return BOTTOM
        return int(vertex)

    # ----------------------------------------------------------- connectivity
    def to_networkx(self) -> nx.Graph:
        """Return a :mod:`networkx` view of the policy graph.

        ``⊥`` appears as the string node ``"bottom"``.  All domain vertices
        are included even if isolated, so connectivity checks see the whole
        domain.
        """
        graph = nx.Graph()
        graph.add_nodes_from(range(self._domain.size))
        if self._has_bottom:
            graph.add_node("bottom")
        for u, v in self._edges:
            a = "bottom" if is_bottom(u) else int(u)
            b = "bottom" if is_bottom(v) else int(v)
            graph.add_edge(a, b)
        return graph

    def is_connected(self) -> bool:
        """``True`` when the policy graph (including ``⊥`` if present) is connected."""
        graph = self.to_networkx()
        if graph.number_of_nodes() == 0:
            return True
        return nx.is_connected(graph)

    def is_tree(self) -> bool:
        """``True`` when the policy graph is a tree (connected and acyclic).

        Theorem 4.3 shows transformational equivalence for *every* mechanism
        exactly in this case.
        """
        graph = self.to_networkx()
        return nx.is_tree(graph)

    def connected_components(self) -> List[Set[Vertex]]:
        """Connected components as sets of vertices (``⊥`` appears as BOTTOM).

        Policies with several components disclose component membership exactly
        (Appendix E); the transform handles each component separately, and the
        engine's sharded scatter/gather path (:mod:`repro.engine.sharding`)
        assigns each component its own :class:`~repro.engine.DomainShard`.

        The decomposition is memoised on the instance (policies are immutable
        after construction — :meth:`with_edges` builds a new graph); callers
        receive fresh set copies, so mutating a returned component never
        corrupts the cache.
        """
        cached: Optional[List[Set[Vertex]]] = getattr(self, "_components_cache", None)
        if cached is None:
            graph = self.to_networkx()
            cached = []
            for component in nx.connected_components(graph):
                vertices: Set[Vertex] = set()
                for node in component:
                    vertices.add(BOTTOM if node == "bottom" else int(node))
                cached.append(vertices)
            self._components_cache = cached
        return [set(component) for component in cached]

    def component_labels(self) -> np.ndarray:
        """Label every domain cell with the index of its connected component.

        Returns a length-``domain.size`` integer array; two cells share a
        label exactly when the policy relates them (possibly through ``⊥`` —
        all ``(·, ⊥)`` edges meet at the single vertex ``⊥``, so their
        endpoints fall in one component).  Component indices follow the order
        of :meth:`connected_components`.  This is the partition the paper's
        parallel-composition rule applies to: mechanisms confined to the
        cells of distinct labels compose in parallel.
        """
        cached: Optional[np.ndarray] = getattr(self, "_component_labels_cache", None)
        if cached is None:
            cached = np.full(self._domain.size, -1, dtype=np.int64)
            for index, component in enumerate(self.connected_components()):
                for vertex in component:
                    if not is_bottom(vertex):
                        cached[int(vertex)] = index
            self._component_labels_cache = cached
        return cached.copy()

    def shortest_path_length(self, u: Vertex, v: Vertex) -> float:
        """Length of the shortest path between two vertices (``inf`` if disconnected).

        This is the policy metric ``dist_G`` of Section 3 ("Metric on
        databases"); the Blowfish guarantee between two databases that differ
        by moving one record from ``u`` to ``v`` degrades by a factor of
        ``exp(epsilon * dist_G(u, v))``.
        """
        graph = self.to_networkx()
        a = "bottom" if is_bottom(u) else int(u)
        b = "bottom" if is_bottom(v) else int(v)
        try:
            return float(nx.shortest_path_length(graph, a, b))
        except nx.NetworkXNoPath:
            return float("inf")

    def degree_histogram(self) -> Dict[int, int]:
        """Histogram of vertex degrees (useful for sanity checks in tests)."""
        counts: Dict[int, int] = {}
        graph = self.to_networkx()
        for _, degree in graph.degree():
            counts[degree] = counts.get(degree, 0) + 1
        return counts

    # ---------------------------------------------------------------- editing
    def with_edges(self, extra_edges: Iterable[Tuple[Vertex, Vertex]], name: str = "") -> "PolicyGraph":
        """Return a new policy graph with additional edges appended."""
        return PolicyGraph(
            domain=self._domain,
            edges=list(self._edges) + list(extra_edges),
            name=name or self._name,
        )

    def subgraph_with_edges(
        self, edges: Sequence[Tuple[Vertex, Vertex]], name: str = ""
    ) -> "PolicyGraph":
        """Return a policy graph over the same domain with exactly ``edges``."""
        return PolicyGraph(domain=self._domain, edges=edges, name=name or self._name)

    # ----------------------------------------------------------------- dunder
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" name={self._name!r}" if self._name else ""
        return (
            f"PolicyGraph(domain={self._domain.shape}, edges={self.num_edges}, "
            f"bottom={self._has_bottom}{label})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyGraph):
            return NotImplemented
        return (
            self._domain == other._domain
            and self._edge_set == other._edge_set
            and self._has_bottom == other._has_bottom
        )

    def __hash__(self) -> int:
        return hash((self._domain, frozenset(self._edge_set)))


def neighboring_databases(
    policy: PolicyGraph, x: np.ndarray, edge: Edge
) -> Tuple[np.ndarray, np.ndarray]:
    """Return a pair of Blowfish-neighboring histogram vectors across ``edge``.

    Starting from histogram ``x`` (which must have at least one record at the
    edge's first endpoint, unless that endpoint is ``⊥``), the second database
    moves one record across the edge:

    * ``(u, v)`` with both in the domain — one record changes value from ``u``
      to ``v`` (Definition 3.2, first bullet);
    * ``(u, ⊥)`` — one record with value ``u`` is removed (second bullet).
    """
    x = np.asarray(x, dtype=np.float64).copy()
    u, v = edge
    if is_bottom(u):
        u, v = v, u
    if is_bottom(u):
        raise PolicyError("Edge must have at least one domain endpoint")
    u = int(u)
    if x[u] < 1:
        raise PolicyError(
            f"Histogram has no record at vertex {u}; cannot form a neighbor across {edge}"
        )
    y = x.copy()
    y[u] -= 1.0
    if not is_bottom(v):
        y[int(v)] += 1.0
    return x, y
