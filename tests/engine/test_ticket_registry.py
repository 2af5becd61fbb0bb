"""The bounded ticket registry behind the HTTP poll endpoints.

Eviction contract: pending tickets are pinned, resolved tickets leave
oldest-first once the registry is over capacity, and an ``add`` touches
only the tickets it evicts plus any pending ones registered before them.
"""

from __future__ import annotations

import pytest

from repro.engine.serving import TicketRegistry


class StubTicket:
    """Just enough of a ticket for the registry: an id and ``done()``.

    Every ``done()`` call is tallied in the shared ``calls`` list, so a
    test can count how many tickets one ``add`` looked at.
    """

    def __init__(self, ticket_id: int, resolved: bool, calls: list) -> None:
        self.ticket_id = ticket_id
        self.resolved = resolved
        self._calls = calls

    def done(self) -> bool:
        self._calls.append(self.ticket_id)
        return self.resolved


def fill(registry, ids, resolved, calls):
    tickets = [StubTicket(i, resolved, calls) for i in ids]
    for ticket in tickets:
        registry.add(ticket)
    return tickets


def registered_ids(registry):
    return [ticket.ticket_id for ticket in registry.list()]


class TestEvictionOrder:
    def test_resolved_tickets_leave_oldest_first(self):
        calls: list = []
        registry = TicketRegistry(capacity=3)
        fill(registry, range(1, 6), resolved=True, calls=calls)
        assert registered_ids(registry) == [3, 4, 5]
        assert len(registry) == 3

    def test_get_of_evicted_id_returns_none(self):
        calls: list = []
        registry = TicketRegistry(capacity=2)
        tickets = fill(registry, range(1, 4), resolved=True, calls=calls)
        assert registry.get(1) is None
        assert registry.get(2) is tickets[1]
        assert registry.get(3) is tickets[2]

    def test_pending_tickets_are_pinned_past_capacity(self):
        calls: list = []
        registry = TicketRegistry(capacity=2)
        pending = fill(registry, range(1, 5), resolved=False, calls=calls)
        assert registered_ids(registry) == [1, 2, 3, 4]
        # Once they resolve, the next add trims back to capacity,
        # still oldest-first.
        for ticket in pending:
            ticket.resolved = True
        fill(registry, [5], resolved=False, calls=calls)
        assert registered_ids(registry) == [4, 5]
        assert registry.get(1) is None

    def test_pending_ticket_ahead_survives_newer_resolved_ones(self):
        calls: list = []
        registry = TicketRegistry(capacity=3)
        fill(registry, [1], resolved=False, calls=calls)
        fill(registry, [2, 3, 4], resolved=True, calls=calls)
        assert registered_ids(registry) == [1, 3, 4]
        fill(registry, [5], resolved=True, calls=calls)
        assert registered_ids(registry) == [1, 4, 5]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TicketRegistry(capacity=0)


class TestEvictionCost:
    """A submit's eviction cost does not grow with the registry's size."""

    def test_full_registry_add_checks_only_the_evicted_ticket(self):
        calls: list = []
        registry = TicketRegistry()  # default capacity, 4096
        fill(registry, range(4096), resolved=True, calls=calls)
        assert len(registry) == 4096
        calls.clear()
        fill(registry, [4096], resolved=False, calls=calls)
        # excess == 1 and nothing pending ahead of the evicted ticket.
        assert calls == [0]
        assert registry.get(0) is None
        assert len(registry) == 4096

    @pytest.mark.parametrize("pending_ahead", [1, 7])
    def test_add_checks_excess_plus_pending_ahead(self, pending_ahead):
        calls: list = []
        capacity = 256
        registry = TicketRegistry(capacity=capacity)
        fill(registry, range(pending_ahead), resolved=False, calls=calls)
        fill(registry, range(pending_ahead, capacity), resolved=True, calls=calls)
        calls.clear()
        fill(registry, [capacity], resolved=False, calls=calls)
        excess = 1
        assert len(calls) <= excess + pending_ahead
        assert registry.get(pending_ahead) is None
        assert all(registry.get(i) is not None for i in range(pending_ahead))

    def test_resolved_backlog_trims_in_one_add(self):
        calls: list = []
        capacity = 64
        registry = TicketRegistry(capacity=capacity)
        pending = fill(registry, range(capacity + 10), resolved=False, calls=calls)
        for ticket in pending:
            ticket.resolved = True
        calls.clear()
        fill(registry, [capacity + 10], resolved=False, calls=calls)
        excess = 11
        assert len(calls) == excess
        assert registered_ids(registry) == list(range(11, capacity + 11))
