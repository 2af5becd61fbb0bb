"""Workloads of linear queries.

A workload of ``q`` linear queries over a domain of size ``k`` is a
``q x k`` real matrix ``W``; its answer on a database ``x`` is ``W x``
(Section 2 of the paper).  :class:`Workload` wraps the matrix (stored as a
SciPy CSR matrix so that the large range-query workloads of the experiments
stay affordable), remembers the domain it refers to, and offers the named
constructors used throughout the paper:

* :func:`identity_workload` — the histogram workload ``I_k`` (Figure 1, left);
* :func:`cumulative_workload` — the prefix-sum workload ``C_k`` (Figure 1, right);
* :func:`total_workload` — the single query counting the database size ``n``;
* range-query workloads live in :mod:`repro.core.range_queries`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np
import scipy.sparse as sp

from ..exceptions import WorkloadError
from .database import Database
from . import digest
from .domain import Domain

MatrixLike = Union[np.ndarray, sp.spmatrix]


def _as_csr(matrix: MatrixLike) -> sp.csr_matrix:
    """Convert any matrix-like object into a CSR matrix of floats.

    A float64 ``csr_matrix`` is kept as it is; any other sparse matrix is
    wrapped (sharing its arrays where the format and dtype allow).
    """
    if isinstance(matrix, sp.csr_matrix) and matrix.dtype == np.float64:
        return matrix
    if sp.issparse(matrix):
        return sp.csr_matrix(matrix, dtype=np.float64)
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise WorkloadError(f"Workload matrices must be 2-D, got {array.ndim}-D")
    return sp.csr_matrix(array)


@dataclass(frozen=True)
class Workload:
    """A workload ``W`` of linear queries over a :class:`Domain`.

    Parameters
    ----------
    domain:
        Domain whose cells index the columns of the matrix.
    matrix:
        A ``q x domain.size`` matrix; rows are linear queries.
    name:
        Optional human-readable name for reports.
    """

    domain: Domain
    matrix: sp.csr_matrix
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        matrix = _as_csr(self.matrix)
        if matrix.shape[1] != self.domain.size:
            raise WorkloadError(
                f"Workload has {matrix.shape[1]} columns but the domain has "
                f"{self.domain.size} cells"
            )
        object.__setattr__(self, "matrix", matrix)

    # ------------------------------------------------------------- properties
    @property
    def num_queries(self) -> int:
        """Number of queries ``q`` (rows of the matrix)."""
        return int(self.matrix.shape[0])

    @property
    def num_columns(self) -> int:
        """Number of columns (the domain size, plus any appended dummy column)."""
        return int(self.matrix.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape ``(q, k)``."""
        return (int(self.matrix.shape[0]), int(self.matrix.shape[1]))

    def dense(self) -> np.ndarray:
        """Return the workload as a dense NumPy array (use only for small workloads)."""
        return self.matrix.toarray()

    def row(self, index: int) -> np.ndarray:
        """Return the ``index``-th query as a dense vector."""
        if not 0 <= index < self.num_queries:
            raise WorkloadError(f"Query index {index} out of range")
        return np.asarray(self.matrix.getrow(index).todense()).ravel()

    def is_counting(self, tolerance: float = 1e-12) -> bool:
        """Return ``True`` when every entry of the workload is 0 or 1.

        Linear *counting* queries (Section 2) are the inputs to Lemma 5.1; the
        transformed-query structure exploited by the Section 5 strategies only
        holds for counting workloads.
        """
        data = self.matrix.data
        if data.size == 0:
            return True
        return bool(np.all(np.abs(data * (data - 1.0)) <= tolerance))

    def signature(self) -> str:
        """A stable content hash of the workload (domain shape plus matrix).

        Two workloads share a signature exactly when they are defined over the
        same domain and their matrices have identical sparsity structure and
        values.  The serving engine (:mod:`repro.engine`) keys its plan and
        noisy-answer caches and stores on this persisted sha256 (see
        :mod:`repro.core.digest`), so the hash is computed once per instance
        and memoised (the matrix of a frozen :class:`Workload` never changes).
        """
        cached = self.__dict__.get("_signature")
        if cached is not None:
            return cached
        matrix = self._canonical_matrix()
        value = digest.signature(
            repr(self.domain.shape).encode(),
            repr(matrix.shape).encode(),
            matrix.indptr.tobytes(),
            matrix.indices.tobytes(),
            np.ascontiguousarray(matrix.data, dtype=np.float64).tobytes(),
        )
        object.__setattr__(self, "_signature", value)
        return value

    def _canonical_matrix(self) -> sp.csr_matrix:
        """The matrix with representation details normalised away.

        Unsorted indices, duplicate entries and explicit stored zeros are
        representation, not semantics: both the content signature and the
        touched-column set must agree for two semantically equal workloads.
        """
        matrix = self.matrix
        if not matrix.has_canonical_format or (matrix.data == 0).any():
            matrix = matrix.copy()
            matrix.sum_duplicates()
            matrix.eliminate_zeros()
            matrix.sort_indices()
        return matrix

    def touched_columns(self) -> np.ndarray:
        """Sorted, unique domain-cell indices the workload actually reads.

        Computed from the canonicalised matrix, so explicit stored zeros do
        not count as touched (used by the engine's partition coverage check).
        """
        return np.unique(self._canonical_matrix().indices)

    # ------------------------------------------------------------- operations
    def answer(self, database: Database) -> np.ndarray:
        """Exact (non-private) workload answer ``W x``."""
        self._check_domain(database.domain)
        return np.asarray(self.matrix @ database.counts).ravel()

    def answer_vector(self, x: np.ndarray) -> np.ndarray:
        """Exact answer ``W x`` for a raw histogram vector ``x``."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != self.num_columns:
            raise WorkloadError(
                f"Vector has {x.shape[0]} entries, workload expects {self.num_columns}"
            )
        return np.asarray(self.matrix @ x).ravel()

    def stack(self, other: "Workload", name: str = "") -> "Workload":
        """Vertically stack two workloads over the same domain."""
        self._check_domain(other.domain)
        stacked = sp.vstack([self.matrix, other.matrix], format="csr")
        return Workload(domain=self.domain, matrix=stacked, name=name or self.name)

    def subset(self, rows: Sequence[int], name: str = "") -> "Workload":
        """Return the workload restricted to the given query ``rows``."""
        rows = list(int(r) for r in rows)
        for r in rows:
            if not 0 <= r < self.num_queries:
                raise WorkloadError(f"Query index {r} out of range")
        return Workload(
            domain=self.domain, matrix=self.matrix[rows, :], name=name or self.name
        )

    def restrict_to_columns(
        self, columns: Sequence[int], domain: Domain, name: str = ""
    ) -> "Workload":
        """Project the workload onto a subset of domain cells (shard scatter path).

        ``columns`` are the (sorted, unique) flat cell indices a
        :class:`~repro.engine.DomainShard` owns and ``domain`` is the shard's
        own domain (``domain.size == len(columns)``); column ``j`` of the
        result is column ``columns[j]`` of this workload.  Raises
        :class:`WorkloadError` when the workload touches a cell outside
        ``columns`` — a restricted workload must answer identically on the
        projected histogram, which only holds when its support is confined to
        the kept cells.
        """
        kept = np.asarray(list(int(c) for c in columns), dtype=np.int64)
        if kept.size != domain.size:
            raise WorkloadError(
                f"Restriction keeps {kept.size} columns but the target domain has "
                f"{domain.size} cells"
            )
        matrix = self._canonical_matrix()
        positions = np.searchsorted(kept, matrix.indices)
        inside = (positions < kept.size) & (
            kept[np.minimum(positions, kept.size - 1)] == matrix.indices
        )
        if not bool(np.all(inside)):
            outside = np.unique(matrix.indices[~inside])
            raise WorkloadError(
                f"Workload touches {outside.size} cells outside the restriction "
                f"(e.g. {outside[:5].tolist()}); restrict only confined workloads"
            )
        restricted = sp.csr_matrix(
            (matrix.data, positions, matrix.indptr),
            shape=(matrix.shape[0], kept.size),
        )
        return Workload(domain=domain, matrix=restricted, name=name or self.name)

    def rows_by_column_label(self, labels: np.ndarray) -> Optional[Dict[int, List[int]]]:
        """Group query rows by the single label shared by all their columns.

        ``labels`` assigns an integer label to every domain cell (typically
        :meth:`repro.policy.PolicyGraph.component_labels`).  Returns a dict
        mapping each label to the (ascending) row indices whose support lies
        entirely in that label's cells, or ``None`` when some row spans two
        labels — such a workload cannot be scattered component-wise without
        changing its noise distribution, so callers must fall back to the
        unsharded path.  Rows with empty support (all-zero queries) answer
        exactly zero on every histogram and are attached to the first group.
        """
        labels = np.asarray(labels)
        if labels.shape[0] != self.num_columns:
            raise WorkloadError(
                f"Expected one label per column ({self.num_columns}), got "
                f"{labels.shape[0]}"
            )
        matrix = self._canonical_matrix()
        column_labels = labels[matrix.indices]
        indptr = matrix.indptr
        row_nnz = np.diff(indptr)
        nonempty = row_nnz > 0
        empty_rows = np.nonzero(~nonempty)[0]
        groups: Dict[int, List[int]] = {}
        if bool(nonempty.any()):
            # Vectorised per-row min/max over the CSR segments: consecutive
            # non-empty rows tile column_labels contiguously (empty rows
            # contribute zero-length gaps), so reduceat over their starts
            # reduces exactly each row's label segment.
            starts = indptr[:-1][nonempty]
            mins = np.minimum.reduceat(column_labels, starts)
            maxs = np.maximum.reduceat(column_labels, starts)
            if bool(np.any(mins != maxs)):
                return None
            nonempty_rows = np.nonzero(nonempty)[0]
            for label in np.unique(mins):
                groups[int(label)] = nonempty_rows[mins == label].tolist()
        if empty_rows.size:
            if not groups:
                groups[int(labels[0])] = []
            groups[next(iter(groups))].extend(int(row) for row in empty_rows)
        return groups

    def right_multiply(self, matrix: MatrixLike, name: str = "") -> sp.csr_matrix:
        """Return ``W @ matrix`` as a CSR matrix (used by the policy transform)."""
        other = _as_csr(matrix) if not sp.issparse(matrix) else sp.csr_matrix(matrix)
        if other.shape[0] != self.num_columns:
            raise WorkloadError(
                f"Cannot multiply a {self.shape} workload by a {other.shape} matrix"
            )
        return sp.csr_matrix(self.matrix @ other)

    def l1_sensitivity(self) -> float:
        """L1 sensitivity under unbounded differential privacy (Definition 2.3).

        For unbounded neighbors (add/remove one record) the sensitivity equals
        the maximum L1 norm of a column of ``W``.
        """
        if self.matrix.nnz == 0:
            return 0.0
        column_norms = np.asarray(np.abs(self.matrix).sum(axis=0)).ravel()
        return float(column_norms.max())

    # ----------------------------------------------------------------- helper
    def _check_domain(self, other: Domain) -> None:
        if other != self.domain:
            raise WorkloadError(f"Domain mismatch: {self.domain} vs {other}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" name={self.name!r}" if self.name else ""
        return f"Workload(shape={self.shape}{label})"

    # -------------------------------------------------------------- pickling
    def __reduce__(self):
        """Pickle interval rows as endpoints, anything else as CSR.

        Range workloads are what a sharded engine ships to its worker
        processes on every dispatch: a range row over ``k`` cells is two
        integers, not ``k`` CSR nonzeros.  When every row is an interval
        (see :func:`_interval_endpoints`) the matrix travels as int32
        ``lo``/``hi`` arrays and is rebuilt bit-identically on load; any
        other matrix pickles as CSR.  The choice is memoised like the
        signature (the matrix never changes), so a batch shipped on every
        dispatch scans its rows once.  The memoised signature rides along,
        so the receiving side never re-hashes the matrix.  Pickles of the
        plain dataclass (older stores) still load: they carry no reducer
        and restore their ``__dict__`` directly.
        """
        matrix = self.__dict__.get("_pickled_matrix")
        if matrix is None:
            endpoints = _interval_endpoints(self.matrix)
            matrix = self.matrix if endpoints is None else endpoints
            object.__setattr__(self, "_pickled_matrix", matrix)
        return (
            _restore_workload,
            (self.domain, matrix, self.name, self.__dict__.get("_signature")),
        )


def _interval_endpoints(
    matrix: sp.csr_matrix,
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """``(lo, hi, columns)`` when every row of ``matrix`` is an interval.

    An interval row's canonical CSR nonzeros are all exactly 1.0 over the
    contiguous columns ``lo..hi``; an empty row has ``hi = lo - 1``.
    Returns ``None`` for any other matrix — weighted, gapped, duplicated,
    unsorted or explicit-zero rows, float data other than float64, and
    index arrays other than int32 — which then pickles as CSR.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    if (
        indptr.dtype != np.int32
        or indices.dtype != np.int32
        or data.dtype != np.float64
        or not matrix.has_canonical_format
        or not bool(np.all(data == 1.0))
    ):
        return None
    counts = np.diff(indptr)
    lo = np.zeros(counts.shape[0], dtype=np.int32)
    nonempty = counts > 0
    lo[nonempty] = indices[indptr[:-1][nonempty]]
    hi = lo + counts - 1
    # Canonical rows are sorted and duplicate-free, so a row is contiguous
    # exactly when its last column sits count - 1 past its first.
    if not bool(np.all(indices[indptr[1:][nonempty] - 1] == hi[nonempty])):
        return None
    return lo, hi, int(matrix.shape[1])


def _interval_csr(lo: np.ndarray, hi: np.ndarray, columns: int) -> sp.csr_matrix:
    """Rebuild the canonical CSR matrix of interval rows ``lo..hi``."""
    counts = hi - lo + 1
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.arange(indptr[-1], dtype=np.int32) - np.repeat(
        indptr[:-1] - lo, counts
    )
    matrix = sp.csr_matrix(
        (np.ones(indices.shape[0]), indices, indptr), shape=(counts.shape[0], columns)
    )
    matrix.has_canonical_format = True
    return matrix


def _restore_workload(
    domain: Domain, matrix, name: str, signature: Optional[str]
) -> Workload:
    """Unpickle a :class:`Workload` (see :meth:`Workload.__reduce__`)."""
    workload = object.__new__(Workload)
    state = workload.__dict__
    state["domain"] = domain
    state["matrix"] = matrix if sp.issparse(matrix) else _interval_csr(*matrix)
    state["name"] = name
    if signature is not None:
        state["_signature"] = signature
    return workload


# ---------------------------------------------------------------------------
# Named constructors used throughout the paper.
# ---------------------------------------------------------------------------
def identity_workload(domain: Domain) -> Workload:
    """The histogram workload ``I_k`` (Figure 1, left): one query per cell."""
    return Workload(
        domain=domain,
        matrix=sp.identity(domain.size, format="csr", dtype=np.float64),
        name="Hist",
    )


def cumulative_workload(domain: Domain) -> Workload:
    """The cumulative-histogram workload ``C_k`` (Figure 1, right).

    Query ``i`` is the prefix sum ``x[0] + ... + x[i]``.  Only defined for
    one-dimensional domains, matching the paper's usage.
    """
    if domain.ndim != 1:
        raise WorkloadError("The cumulative workload C_k is one-dimensional")
    k = domain.size
    rows, cols = np.tril_indices(k)
    data = np.ones(rows.shape[0], dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(k, k))
    return Workload(domain=domain, matrix=matrix, name="Cumulative")


def total_workload(domain: Domain) -> Workload:
    """The single query returning the database size ``n``."""
    matrix = sp.csr_matrix(np.ones((1, domain.size), dtype=np.float64))
    return Workload(domain=domain, matrix=matrix, name="Total")


def marginal_workload(domain: Domain, axis: int) -> Workload:
    """The one-way marginal workload along ``axis`` of a multi-dimensional domain.

    Query ``j`` counts all records whose ``axis`` coordinate equals ``j``.
    """
    if not 0 <= axis < domain.ndim:
        raise WorkloadError(f"axis {axis} out of range for a {domain.ndim}-D domain")
    cells = domain.all_cells()
    extent = domain.shape[axis]
    rows = cells[:, axis]
    cols = np.arange(domain.size)
    data = np.ones(domain.size, dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(extent, domain.size))
    return Workload(domain=domain, matrix=matrix, name=f"Marginal[{axis}]")


def workload_from_rows(
    domain: Domain, rows: Iterable[np.ndarray], name: str = ""
) -> Workload:
    """Build a workload from an iterable of dense query rows."""
    stacked = np.vstack([np.asarray(row, dtype=np.float64).ravel() for row in rows])
    return Workload(domain=domain, matrix=stacked, name=name)


def stack_workloads(
    workloads: Sequence[Workload], name: str = ""
) -> Tuple[Workload, List[slice]]:
    """Stack several workloads over one domain into a single batched workload.

    Returns the stacked workload plus one row ``slice`` per input, so that a
    batched answer vector can be split back into per-workload answers.  This is
    the vectorised entry point used by the batch executor of
    :mod:`repro.engine`: answering the stacked workload runs each mechanism
    exactly once instead of once per client query.  A lone workload is its
    own stack (returned as is, no copy).
    """
    if not workloads:
        raise WorkloadError("At least one workload is required to stack")
    if len(workloads) == 1:
        return workloads[0], [slice(0, workloads[0].num_queries)]
    domain = workloads[0].domain
    slices: List[slice] = []
    start = 0
    for workload in workloads:
        if workload.domain != domain:
            raise WorkloadError(
                f"Cannot stack workloads over different domains: {domain} vs "
                f"{workload.domain}"
            )
        slices.append(slice(start, start + workload.num_queries))
        start += workload.num_queries
    stacked = sp.vstack([w.matrix for w in workloads], format="csr")
    return Workload(domain=domain, matrix=stacked, name=name or "Batched"), slices


def answer_workloads_batched(answer, workloads: Sequence[Workload], *args, **kwargs):
    """Answer several workloads through one call to ``answer`` on their stack.

    ``answer`` is any ``(workload, ...) -> vector`` callable (typically a
    mechanism's bound ``answer`` method); the extra arguments are forwarded
    verbatim.  Returns one answer vector per input workload, in order.  This
    is the single implementation behind every ``answer_batch`` method, so the
    one-invocation-per-batch semantics cannot drift between mechanism
    hierarchies.
    """
    stacked, slices = stack_workloads(workloads)
    batched = answer(stacked, *args, **kwargs)
    return [batched[rows] for rows in slices]


T = TypeVar("T")
_MISSING = object()


class LRUMemo:
    """A small, bounded, lock-guarded LRU memo keyed by any hashable value.

    Lookups and inserts take a lock; :meth:`get_or_compute` runs the
    expensive ``compute`` *outside* it, so a racing thread may compute the
    same entry twice.  The value published first is kept and returned to
    both — memoised values must be deterministic functions of their key, so
    the duplicate is redundant, not wrong.  Past ``maxsize`` an insert
    evicts the least recently used entry, and only that one.  A ``None``
    value is memoised like any other.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default=None):
        """The value under ``key`` (marked most recent), else ``default``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                return default
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or replace) ``value`` as the most recent entry."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def get_or_compute(self, key: Hashable, compute: Callable[[Hashable], T]) -> T:
        """The value under ``key``, computing ``compute(key)`` on a miss."""
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value  # type: ignore[return-value]
        value = compute(key)
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every memoised value."""
        with self._lock:
            self._entries.clear()

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Pickle support: ship the memoised values, drop the lock.

        Mechanisms travel to worker processes and to disk inside cached
        plans.  Their memos hold deterministic values worth keeping warm;
        the lock is recreated on the other side.
        """
        with self._lock:
            entries = dict(self._entries)
        return {"_maxsize": self._maxsize, "_entries": entries}

    def __setstate__(self, state: dict) -> None:
        self._maxsize = state["_maxsize"]
        self._entries = OrderedDict(state["_entries"])
        self._lock = threading.Lock()


class WorkloadTransformCache(LRUMemo):
    """An :class:`LRUMemo` of per-workload artefacts, keyed by workload signature.

    The serving engine caches planned mechanisms and invokes them from many
    flush threads concurrently, so a per-workload memo (e.g. a mechanism's
    transformed matrix ``W_G = W' P_G``, or a shard set's scatter decision)
    must be re-entrant — which the base memo is.
    """

    def get_or_compute(self, workload: Workload, compute: Callable[[Workload], T]) -> T:
        """Return the memoised artefact for ``workload``, computing on a miss.

        Keys are content signatures: equal-but-distinct :class:`Workload`
        objects (what a serving engine sees on every client request) share one
        entry, and a recycled ``id()`` can never alias a stale matrix.
        """
        return super().get_or_compute(workload.signature(), lambda _: compute(workload))
