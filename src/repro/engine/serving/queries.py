"""Wire-format helpers for the HTTP front-end: workloads, tickets, pages.

The route handlers (:mod:`repro.engine.serving.routes`) stay thin by
delegating everything schema-shaped here, mirroring the exemplar's
``routes/`` + ``queries/`` split:

* :func:`parse_workload` — the JSON workload spec → a
  :class:`~repro.core.workload.Workload` over the engine's domain.
* :func:`ticket_payload` — one ticket's poll representation.
* :func:`paginate` / :func:`parse_sort` — offset pagination and
  ``sort=-field,other:asc`` parsing, following the Paper-Scanner
  conventions documented in SNIPPETS.md Snippet 3: responses are
  ``{"items": [...], "page": {"total", "limit", "offset", "has_more"}}``,
  ``limit`` defaults to 50 and caps at 200, and invalid sort fields are a
  client error (HTTP 400).
* :class:`TicketRegistry` — the bounded ticket-id → ticket map behind the
  poll endpoints.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ...core.workload import (
    Workload,
    cumulative_workload,
    identity_workload,
    marginal_workload,
    total_workload,
    workload_from_rows,
)
from ...exceptions import WorkloadError
from ..pipeline import QueryTicket

DEFAULT_PAGE_LIMIT = 50
MAX_PAGE_LIMIT = 200

#: Workload spec kinds accepted by ``POST /api/queries``.
WORKLOAD_KINDS = ("identity", "cumulative", "total", "marginal", "rows")


# ------------------------------------------------------------------ workloads
def parse_workload(domain, spec) -> Workload:
    """Build a workload over ``domain`` from its JSON wire spec.

    The spec is ``{"kind": ...}`` plus kind-specific fields::

        {"kind": "identity"}
        {"kind": "cumulative"}
        {"kind": "total"}
        {"kind": "marginal", "axis": 0}
        {"kind": "rows", "rows": [[...], ...], "name": "optional"}

    Raises :class:`~repro.exceptions.WorkloadError` on any malformed spec —
    the routes layer maps that to HTTP 400.
    """
    if not isinstance(spec, dict):
        raise WorkloadError(
            f"workload spec must be an object with a 'kind', got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if kind == "identity":
        return identity_workload(domain)
    if kind == "cumulative":
        return cumulative_workload(domain)
    if kind == "total":
        return total_workload(domain)
    if kind == "marginal":
        axis = spec.get("axis", 0)
        if not isinstance(axis, int):
            raise WorkloadError(f"marginal workload needs an integer axis, got {axis!r}")
        return marginal_workload(domain, axis)
    if kind == "rows":
        rows = spec.get("rows")
        if not isinstance(rows, list) or not rows:
            raise WorkloadError("rows workload needs a non-empty 'rows' list")
        try:
            matrix = [np.asarray(row, dtype=np.float64) for row in rows]
        except (TypeError, ValueError) as exc:
            raise WorkloadError(f"rows workload has non-numeric entries: {exc}") from exc
        widths = {row.size for row in matrix}
        if len(widths) != 1 or widths != {domain.size}:
            raise WorkloadError(
                f"rows workload rows must all have {domain.size} cells "
                f"(the domain size), got widths {sorted(widths)}"
            )
        return workload_from_rows(domain, matrix, name=str(spec.get("name", "")))
    raise WorkloadError(
        f"unknown workload kind {kind!r}; expected one of {WORKLOAD_KINDS}"
    )


# -------------------------------------------------------------------- tickets
def ticket_payload(ticket: QueryTicket, include_answers: bool = True) -> dict:
    """One ticket's JSON poll representation.

    A refusal is a *successful* poll whose payload carries
    ``status: "refused"`` and the refusal reason — the HTTP status stays
    2xx, because the protocol request (tell me about this ticket) worked.
    The ``expired`` and ``cancelled`` terminal statuses carry their reason
    the same way (both resolved at zero ε for any not-yet-charged work).
    """
    payload = {
        "ticket_id": ticket.ticket_id,
        "client_id": ticket.client_id,
        "status": ticket.status,
        "epsilon": ticket.epsilon,
        "rows": ticket.workload.shape[0],
        "from_cache": ticket.from_cache,
        "draw_id": ticket.draw_id,
    }
    if ticket.status == "answered" and include_answers:
        payload["answers"] = [float(value) for value in ticket.answers]
    if ticket.status in ("refused", "expired", "cancelled"):
        payload["error"] = ticket.error or (
            f"Query did not produce an answer (ticket {ticket.ticket_id}, "
            f"client {ticket.client_id!r}, status {ticket.status!r})"
        )
    return payload


class TicketRegistry:
    """Bounded ticket-id → ticket map behind the poll endpoints.

    Pending tickets are pinned (a client is still owed their answer);
    resolved tickets age out oldest-first once ``capacity`` is exceeded, so
    a long-running server's registry stays bounded no matter how many
    queries it has served.  Thread-safe: flushes resolve tickets from
    arbitrary threads while the loop reads them.

    Eviction is also a cost guarantee: an :meth:`add` over capacity evicts
    only as many resolved tickets as the capacity requires, and stops
    scanning as soon as it has found them.  It touches just those tickets
    plus any still-pending ones registered before them (bounded by the
    admission in-flight cap), so its cost does not grow with ``capacity``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._tickets: "OrderedDict[int, QueryTicket]" = OrderedDict()
        self._lock = threading.Lock()

    def add(self, ticket: QueryTicket) -> None:
        with self._lock:
            self._tickets[ticket.ticket_id] = ticket
            excess = len(self._tickets) - self._capacity
            if excess > 0:
                resolved = (tid for tid, t in self._tickets.items() if t.done())
                for ticket_id in list(islice(resolved, excess)):
                    del self._tickets[ticket_id]

    def get(self, ticket_id: int) -> Optional[QueryTicket]:
        with self._lock:
            return self._tickets.get(ticket_id)

    def list(
        self,
        client_id: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[QueryTicket]:
        """Snapshot of registered tickets, optionally filtered."""
        with self._lock:
            tickets = list(self._tickets.values())
        if client_id is not None:
            tickets = [t for t in tickets if t.client_id == client_id]
        if status is not None:
            tickets = [t for t in tickets if t.status == status]
        return tickets

    def __len__(self) -> int:
        with self._lock:
            return len(self._tickets)


# ------------------------------------------------------------------ pagination
def parse_sort(
    sort: Optional[str], allowed: Sequence[str]
) -> List[Tuple[str, bool]]:
    """Parse a Snippet 3 ``sort`` parameter into ``(field, descending)`` keys.

    Accepts comma-separated ``field``, ``field:asc``, ``field:desc`` and
    ``-field`` forms.  Unknown fields or directions raise ``ValueError`` —
    the routes layer maps that to HTTP 400.
    """
    if not sort:
        return []
    keys: List[Tuple[str, bool]] = []
    for token in sort.split(","):
        token = token.strip()
        if not token:
            continue
        descending = False
        if token.startswith("-"):
            descending = True
            token = token[1:]
        elif ":" in token:
            token, _, direction = token.partition(":")
            if direction not in ("asc", "desc"):
                raise ValueError(
                    f"invalid sort direction {direction!r}; use 'asc' or 'desc'"
                )
            descending = direction == "desc"
        if token not in allowed:
            raise ValueError(
                f"invalid sort field {token!r}; allowed: {', '.join(allowed)}"
            )
        keys.append((token, descending))
    return keys


def apply_sort(items: List[dict], keys: List[Tuple[str, bool]]) -> List[dict]:
    """Stable multi-key sort of payload dicts (later keys applied first)."""
    for field_name, descending in reversed(keys):
        items = sorted(items, key=lambda item: item.get(field_name), reverse=descending)
    return items


def paginate(
    items: List[dict],
    limit: Optional[str] = None,
    offset: Optional[str] = None,
) -> dict:
    """Slice ``items`` into the Snippet 3 page envelope.

    ``limit``/``offset`` arrive as raw query-string values; malformed or
    out-of-range values raise ``ValueError`` (→ HTTP 400).
    """
    try:
        limit_value = DEFAULT_PAGE_LIMIT if limit is None else int(limit)
        offset_value = 0 if offset is None else int(offset)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"limit/offset must be integers: {exc}") from exc
    if limit_value <= 0:
        raise ValueError(f"limit must be positive, got {limit_value}")
    if offset_value < 0:
        raise ValueError(f"offset must be non-negative, got {offset_value}")
    limit_value = min(limit_value, MAX_PAGE_LIMIT)
    total = len(items)
    page_items = items[offset_value : offset_value + limit_value]
    return {
        "items": page_items,
        "page": {
            "total": total,
            "limit": limit_value,
            "offset": offset_value,
            "has_more": offset_value + len(page_items) < total,
        },
    }
