"""Durable state tier: crash-safe ε-ledger, snapshotter, fault injection.

The heart of this module is the subprocess kill matrix: a child engine is
killed (``os._exit``, the in-process double of ``kill -9``) at every named
crash point, with the durable ledger on and off, and the relaunched
process must prove the one-directional invariant — *the recovered ledger
counts at least every ε charged before the crash, and never less* — plus
agreement between the durable ledger and the ε-audit stream.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.accounting import PrivacyAccountant
from repro.core import Database, Domain, cumulative_workload, identity_workload
from repro.engine import PrivateQueryEngine, parallel
from repro.engine.durability import (
    CRASH_POINTS,
    FaultInjector,
    LedgerStore,
    Snapshotter,
    fault_point,
    kill_one_worker,
    read_answer_store,
    recover_accountant,
)
from repro.engine.observability import AuditLog, read_audit_events
from repro.exceptions import (
    DurabilityError,
    PlanStoreError,
    PrivacyBudgetError,
)
from repro.policy import line_policy

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    """Every test starts and ends with the fault hooks in production state."""
    FaultInjector.clear()
    yield
    FaultInjector.clear()


@pytest.fixture
def domain() -> Domain:
    return Domain((16,))


@pytest.fixture
def database(domain: Domain) -> Database:
    counts = np.zeros(16)
    counts[[1, 5, 6, 12]] = [3, 7, 1, 9]
    return Database(domain, counts, name="sparse16")


def make_engine(database, domain, **kwargs):
    kwargs.setdefault("total_epsilon", 10.0)
    kwargs.setdefault("default_policy", line_policy(domain))
    kwargs.setdefault("random_state", 7)
    return PrivateQueryEngine(database, **kwargs)


# ---------------------------------------------------------------------------
# The subprocess kill matrix: 4 crash points x durable {on, off}.
# ---------------------------------------------------------------------------
#: ε the child provably charged before each crash point fired: nothing
#: before the first charge, the first ticket's 1.0 after it, both tickets'
#: 1.75 once every charge preceded the crash.
CHARGED_BEFORE_CRASH = {
    "pre-charge": 0.0,
    "post-charge": 1.0,
    "pre-resolve": 1.75,
    "mid-snapshot": 1.75,
}

CRASH_CHILD = """
import sys

import numpy as np

from repro.core import Database, Domain, cumulative_workload, identity_workload
from repro.engine import FaultInjector, PrivateQueryEngine
from repro.engine.observability import AuditLog, Observability
from repro.policy import line_policy

point, durable, workdir = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
domain = Domain((16,))
counts = np.zeros(16)
counts[[1, 5, 6, 12]] = [3, 7, 1, 9]
database = Database(domain, counts, name="sparse16")
observability = Observability(
    enabled=False,
    audit=AuditLog(path=workdir + "/audit.jsonl", fsync=True),
)
engine = PrivateQueryEngine(
    database,
    total_epsilon=10.0,
    default_policy=line_policy(domain),
    random_state=7,
    observability=observability,
    durable_ledger=(workdir + "/ledger.db") if durable else None,
    snapshot_dir=(workdir + "/snaps") if point == "mid-snapshot" else None,
    snapshot_interval=0,
)
engine.open_session("alice", 5.0)
engine.submit("alice", identity_workload(domain), epsilon=1.0)
engine.submit("alice", cumulative_workload(domain), epsilon=0.75)
FaultInjector().crash_at(point, exit_code=42).install()
engine.flush()
if point == "mid-snapshot":
    engine.snapshot()
print("SURVIVED", flush=True)  # the parent asserts this is unreachable
sys.exit(0)
"""


def run_crash_child(tmp_path: Path, point: str, durable: bool):
    script = tmp_path / "crash_child.py"
    script.write_text(CRASH_CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(script), point, "1" if durable else "0", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def audited_session_net(audit_path: Path) -> float:
    """Net ε the audit stream attributes to session queries (charges - rollbacks)."""
    net = 0.0
    for event in read_audit_events(str(audit_path)):
        if not str(event.get("label", "")).startswith("query:"):
            continue
        if event["event"] == "charge":
            net += event["epsilon"]
        elif event["event"] == "rollback":
            net -= event["epsilon"]
    return net


@pytest.mark.parametrize("point", CRASH_POINTS)
class TestKillAtEveryCrashPoint:
    def test_durable_recovery_never_undercounts(
        self, tmp_path, database, domain, point
    ):
        result = run_crash_child(tmp_path, point, durable=True)
        assert result.returncode == 42, result.stderr
        assert "SURVIVED" not in result.stdout

        expected = CHARGED_BEFORE_CRASH[point]
        store, state = recover_accountant(str(tmp_path / "ledger.db"))
        try:
            # The session allotment was journalled before any crash point.
            assert abs(state.accountant.spent() - 5.0) <= 1e-9
            sessions = [s for s in state.scopes if s.label == "session:alice"]
            assert len(sessions) == 1
            recovered = sessions[0].accountant.spent()
            # The invariant: over-counting is allowed, under-counting never.
            assert recovered >= expected - 1e-12
            # In this deterministic scenario recovery is in fact exact.
            assert abs(recovered - expected) <= 1e-9
            # Ledger/audit agreement: every audit-visible charge was written
            # durably first, so the stream can never claim more than the
            # recovered ledger holds.
            assert recovered >= audited_session_net(tmp_path / "audit.jsonl") - 1e-12
        finally:
            store.close()

        # Relaunch the server against the same ledger: the recovered spend
        # is enforced, not merely reported.
        engine = make_engine(
            database, domain, durable_ledger=str(tmp_path / "ledger.db")
        )
        with engine:
            session = engine.session("alice")
            assert session.recovered
            assert session.remaining() == pytest.approx(5.0 - expected)
            with pytest.raises(PrivacyBudgetError, match="already open"):
                engine.open_session("alice", 1.0)
            over = engine.submit(
                "alice", identity_workload(domain), epsilon=5.0 - expected + 0.25
            )
            engine.flush()
            assert over.status == "refused"
            affordable = engine.submit(
                "alice", identity_workload(domain), epsilon=0.5
            )
            engine.flush()
            assert affordable.status == "answered"

    def test_without_ledger_the_crash_forgets_everything(
        self, tmp_path, database, domain, point
    ):
        result = run_crash_child(tmp_path, point, durable=False)
        assert result.returncode == 42, result.stderr
        assert not (tmp_path / "ledger.db").exists()
        # The audit stream still shows what was admitted pre-crash...
        assert audited_session_net(tmp_path / "audit.jsonl") == pytest.approx(
            CHARGED_BEFORE_CRASH[point]
        )
        # ...but a relaunch without a durable ledger starts cold: the spent
        # budget is gone, which is exactly the violation the ledger closes.
        engine = make_engine(database, domain)
        with engine:
            assert engine.accountant.spent() == 0.0


class TestMidSnapshotCrash:
    def test_crash_leaves_both_stores_readable(self, tmp_path, database, domain):
        """The mid-snapshot kill leaves a fresh plan store beside the
        previous answer store — never a torn file on either side."""
        result = run_crash_child(tmp_path, "mid-snapshot", durable=True)
        assert result.returncode == 42, result.stderr
        snaps = tmp_path / "snaps"
        # The crash hit between the two writes: plans landed, answers did
        # not (this was the first snapshot, so no previous answer store).
        assert (snaps / "plans.pkl").exists()
        assert not (snaps / "answers.pkl").exists()
        assert not list(snaps.glob(".*tmp*")), "torn temp files left behind"
        # A relaunch restores the plan store and treats the missing answer
        # store as a cold cache.
        engine = make_engine(
            database,
            domain,
            durable_ledger=str(tmp_path / "ledger.db"),
            snapshot_dir=str(snaps),
            snapshot_interval=0,
        )
        with engine:
            assert len(engine.plan_cache) > 0


# ---------------------------------------------------------------------------
# Ledger store unit behaviour (in-process).
# ---------------------------------------------------------------------------
class TestLedgerStore:
    def test_charge_is_durable_before_anything_runs(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        store = LedgerStore(path)
        store.initialise(4.0)
        accountant = PrivacyAccountant(4.0)
        store.bind(accountant)
        accountant.charge("q1", 1.5)
        # A second connection (a "post-crash" reader) already sees the op.
        reader, state = recover_accountant(path)
        assert state.accountant.spent() == pytest.approx(1.5)
        reader.close()
        store.close()

    def test_disk_full_refuses_the_charge_fail_closed(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        store = LedgerStore(path)
        store.initialise(4.0)
        accountant = PrivacyAccountant(4.0)
        store.bind(accountant)
        FaultInjector().disk_full_at("ledger-append").install()
        with pytest.raises(PrivacyBudgetError, match="durable ledger append"):
            accountant.charge("q1", 1.0)
        # Fail-closed on both sides: nothing in memory, nothing on disk.
        assert accountant.spent() == 0.0
        assert accountant.operations == []
        FaultInjector.clear()
        accountant.charge("q2", 1.0)  # the store keeps working afterwards
        reader, state = recover_accountant(path)
        assert [op.label for op in state.accountant.operations] == ["q2"]
        reader.close()
        store.close()

    def test_rollback_deletes_durably(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        store = LedgerStore(path)
        store.initialise(4.0)
        accountant = PrivacyAccountant(4.0)
        store.bind(accountant)
        keep = accountant.charge("keep", 1.0)
        undo = accountant.charge("undo", 2.0)
        accountant.rollback(undo)
        reader, state = recover_accountant(path)
        assert [op.label for op in state.accountant.operations] == ["keep"]
        assert state.accountant.spent() == pytest.approx(keep.epsilon)
        reader.close()
        store.close()

    def test_scope_close_folds_spend_into_parent(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        store = LedgerStore(path)
        store.initialise(10.0)
        accountant = PrivacyAccountant(10.0)
        store.bind(accountant)
        scope = accountant.open_scope("session:bob", 4.0)
        scope.charge("q1", 1.5)
        accountant.charge("global", 1.0)
        scope.close()  # refunds 2.5; the reservation row rewrites to 1.5
        reader, state = recover_accountant(path)
        assert state.accountant.spent() == pytest.approx(2.5)
        assert state.scopes == []  # closed scopes stay closed
        reader.close()
        store.close()

    def test_partitioned_charges_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        store = LedgerStore(path)
        store.initialise(10.0)
        accountant = PrivacyAccountant(10.0)
        store.bind(accountant)
        accountant.charge("p1", 1.0, partition=[0, 1, 2])
        accountant.charge("p2", 1.0, partition=[3, 4])
        reader, state = recover_accountant(path)
        # Parallel composition survives recovery: disjoint partitions
        # compose to the max, exactly as the live ledger counted them.
        assert state.accountant.spent() == pytest.approx(accountant.spent())
        assert [op.partition for op in state.accountant.operations] == [
            frozenset({0, 1, 2}),
            frozenset({3, 4}),
        ]
        reader.close()
        store.close()

    def test_recover_refuses_a_fresh_store(self, tmp_path):
        store = LedgerStore(str(tmp_path / "fresh.db"))
        with pytest.raises(DurabilityError, match="never initialised"):
            store.recover()
        store.close()

    def test_future_format_version_is_refused(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        store = LedgerStore(path)
        store.initialise(1.0)
        store.close()
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE meta SET value = '99' WHERE key = 'format'")
        with pytest.raises(DurabilityError, match="format version 99"):
            LedgerStore(path)

    def test_engine_refuses_total_epsilon_mismatch(
        self, tmp_path, database, domain
    ):
        path = str(tmp_path / "ledger.db")
        make_engine(database, domain, total_epsilon=10.0, durable_ledger=path).close()
        with pytest.raises(DurabilityError, match="total_epsilon"):
            make_engine(database, domain, total_epsilon=11.0, durable_ledger=path)

    def test_durable_on_and_off_draw_identical_noise(
        self, tmp_path, database, domain
    ):
        """The durable hooks must never touch the noise path: a seeded
        engine's draws and ledgers are byte-identical either way."""

        def serve(durable):
            engine = make_engine(
                database,
                domain,
                durable_ledger=str(tmp_path / "on.db") if durable else None,
            )
            with engine:
                session = engine.open_session("alice", 5.0)
                tickets = [
                    engine.submit("alice", identity_workload(domain), epsilon=1.0),
                    engine.submit("alice", cumulative_workload(domain), epsilon=0.5),
                ]
                engine.flush()
                answers = [t.answers for t in tickets]
                ledger = [
                    (op.label, op.epsilon, op.partition)
                    for op in session.accountant.operations
                ]
            return answers, ledger

        durable_answers, durable_ledger = serve(durable=True)
        plain_answers, plain_ledger = serve(durable=False)
        assert durable_ledger == plain_ledger
        for durable_rows, plain_rows in zip(durable_answers, plain_answers):
            assert durable_rows is not None and plain_rows is not None
            assert np.asarray(durable_rows).tobytes() == (
                np.asarray(plain_rows).tobytes()
            )


# ---------------------------------------------------------------------------
# Snapshotter behaviour (in-process).
# ---------------------------------------------------------------------------
class TestSnapshotter:
    def serve_one(self, engine, domain, epsilon=1.0):
        ticket = engine.submit("alice", identity_workload(domain), epsilon=epsilon)
        engine.flush()
        assert ticket.status == "answered"
        return ticket

    def test_snapshot_and_restore_round_trip(self, tmp_path, database, domain):
        snaps = str(tmp_path / "snaps")
        engine = make_engine(database, domain, snapshot_dir=snaps, snapshot_interval=0)
        with engine:
            engine.open_session("alice", 5.0)
            self.serve_one(engine, domain)
            plans, answers = engine.snapshot()
            assert plans >= 1 and answers == 1
        warm = make_engine(database, domain, snapshot_dir=snaps, snapshot_interval=0)
        with warm:
            warm.open_session("alice", 5.0)
            self.serve_one(warm, domain)  # same query: replayed from the cache
            stats = warm.stats
            assert stats.plan_misses == 0
            assert stats.answer_hits == 1

    def test_restored_draw_ids_never_collide(self, tmp_path, database, domain):
        snaps = str(tmp_path / "snaps")
        engine = make_engine(database, domain, snapshot_dir=snaps, snapshot_interval=0)
        with engine:
            engine.open_session("alice", 5.0)
            self.serve_one(engine, domain)
            engine.snapshot()
            restored_max = engine.answer_cache.max_draw_id()
        warm = make_engine(database, domain, snapshot_dir=snaps, snapshot_interval=0)
        with warm:
            assert warm._next_draw_id() > restored_max

    def test_interrupted_snapshot_preserves_the_previous_one(
        self, tmp_path, database, domain
    ):
        """The torn-write test: an error between the two atomic writes
        leaves the fresh plan store beside the *previous* answer store."""
        snaps = str(tmp_path / "snaps")
        engine = make_engine(database, domain, snapshot_dir=snaps, snapshot_interval=0)
        with engine:
            engine.open_session("alice", 5.0)
            self.serve_one(engine, domain, epsilon=1.0)
            engine.snapshot()
            first_answers = (tmp_path / "snaps" / "answers.pkl").read_bytes()
            self.serve_one(engine, domain, epsilon=0.5)
            FaultInjector().disk_full_at("mid-snapshot").install()
            with pytest.raises(OSError):
                engine.snapshot()
            FaultInjector.clear()
            # os.replace atomicity: the answer store is bytewise the
            # previous snapshot, not a truncated half-write of the new one.
            assert (
                tmp_path / "snaps" / "answers.pkl"
            ).read_bytes() == first_answers
            assert not list((tmp_path / "snaps").glob(".*tmp*"))
            payload = read_answer_store(str(tmp_path / "snaps" / "answers.pkl"))
            assert len(payload["entries"]) == 1

    def test_corrupt_answer_store_degrades_to_cold_cache(
        self, tmp_path, database, domain, caplog
    ):
        snaps = tmp_path / "snaps"
        engine = make_engine(
            database, domain, snapshot_dir=str(snaps), snapshot_interval=0
        )
        with engine:
            engine.open_session("alice", 5.0)
            self.serve_one(engine, domain)
            engine.snapshot()
        # Tear the answer store in half; the plan store stays intact.
        blob = (snaps / "answers.pkl").read_bytes()
        (snaps / "answers.pkl").write_bytes(blob[: len(blob) // 2])
        with caplog.at_level("WARNING", logger="repro.engine.durability.snapshotter"):
            cold = make_engine(
                database, domain, snapshot_dir=str(snaps), snapshot_interval=0
            )
        with cold:
            assert len(cold.plan_cache) > 0  # plans survived
            assert len(cold.answer_cache.export_entries()) == 0
        assert any("degrading to cold" in message for message in caplog.messages)

    def test_background_thread_snapshots_periodically(
        self, tmp_path, database, domain
    ):
        snaps = tmp_path / "snaps"
        engine = make_engine(
            database, domain, snapshot_dir=str(snaps), snapshot_interval=0.05
        )
        with engine:
            engine.open_session("alice", 5.0)
            self.serve_one(engine, domain)
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if engine.snapshotter.snapshots_taken >= 1:
                    break
                time.sleep(0.02)
            assert engine.snapshotter.snapshots_taken >= 1
        assert (snaps / "plans.pkl").exists()
        assert (snaps / "answers.pkl").exists()


# ---------------------------------------------------------------------------
# Audit stream robustness (satellite 1).
# ---------------------------------------------------------------------------
class TestAuditTornTail:
    def write_events(self, path, count=3):
        log = AuditLog(path=str(path))
        for index in range(count):
            log.emit("charge", label=f"q{index}", epsilon=0.5)
        log.close()

    def test_torn_final_line_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "audit.jsonl"
        self.write_events(path)
        with open(path, "a") as handle:
            handle.write('{"event": "charge", "label": "torn')  # no newline
        with caplog.at_level("WARNING"):
            events = read_audit_events(str(path))
        assert [e["label"] for e in events] == ["q0", "q1", "q2"]
        assert any("torn" in m or "truncated" in m for m in caplog.messages)

    def test_strict_mode_raises_on_the_torn_tail(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        self.write_events(path)
        with open(path, "a") as handle:
            handle.write('{"half')
        with pytest.raises(ValueError):
            read_audit_events(str(path), strict=True)

    def test_malformed_middle_line_always_raises(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        self.write_events(path)
        lines = path.read_text().splitlines()
        lines[1] = '{"broken'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_audit_events(str(path))

    def test_fsync_knob_still_produces_readable_events(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path=str(path), fsync=True)
        log.emit("charge", label="durable", epsilon=1.0)
        log.close()
        events = read_audit_events(str(path))
        assert [e["label"] for e in events] == ["durable"]


# ---------------------------------------------------------------------------
# Plan store corruption (satellite 2).
# ---------------------------------------------------------------------------
class TestCorruptPlanStore:
    def test_corrupt_store_raises_versioned_error(self, tmp_path, database, domain):
        path = tmp_path / "plans.pkl"
        path.write_bytes(b"not a pickle at all")
        engine = make_engine(database, domain)
        with engine:
            with pytest.raises(PlanStoreError) as excinfo:
                engine.load_plans(str(path))
            assert excinfo.value.path == str(path)

    def test_truncated_store_raises_versioned_error(self, tmp_path, database, domain):
        path = tmp_path / "plans.pkl"
        engine = make_engine(database, domain)
        with engine:
            engine.open_session("alice", 5.0)
            ticket = engine.submit("alice", identity_workload(domain), epsilon=1.0)
            engine.flush()
            assert ticket.status == "answered"
            engine.save_plans(str(path))
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2])
            with pytest.raises(PlanStoreError):
                engine.load_plans(str(path))

    def test_on_corrupt_cold_degrades_with_a_warning(
        self, tmp_path, database, domain, caplog
    ):
        path = tmp_path / "plans.pkl"
        path.write_bytes(pickle.dumps({"format": 99, "entries": []}))
        engine = make_engine(database, domain)
        with engine:
            with caplog.at_level("WARNING"):
                loaded = engine.load_plans(str(path), on_corrupt="cold")
            assert loaded == 0
            assert any("cold start" in message for message in caplog.messages)

    def test_on_corrupt_validates_its_argument(self, tmp_path, database, domain):
        engine = make_engine(database, domain)
        with engine:
            with pytest.raises(ValueError, match="on_corrupt"):
                engine.load_plans(str(tmp_path / "x.pkl"), on_corrupt="explode")


# ---------------------------------------------------------------------------
# Fault injector mechanics.
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_hooks_are_inert_without_an_installed_injector(self):
        fault_point("pre-charge")  # must not raise, count, or crash

    def test_fail_at_fires_on_the_exact_hit(self):
        injector = FaultInjector().fail_at(
            "pre-charge", lambda: RuntimeError("boom"), hits=3
        )
        injector.install()
        fault_point("pre-charge")
        fault_point("pre-charge")
        with pytest.raises(RuntimeError, match="boom"):
            fault_point("pre-charge")
        fault_point("pre-charge")  # later hits pass again
        assert injector.hits("pre-charge") == 4

    def test_clear_restores_the_noop_path(self):
        FaultInjector().fail_at("pre-charge", lambda: RuntimeError("boom")).install()
        FaultInjector.clear()
        fault_point("pre-charge")
        assert FaultInjector.active() is None

    def test_crash_points_are_the_documented_four(self):
        assert CRASH_POINTS == (
            "pre-charge",
            "post-charge",
            "pre-resolve",
            "mid-snapshot",
        )

    def test_arming_validates_inputs(self):
        with pytest.raises(ValueError, match="hits"):
            FaultInjector().crash_at("pre-charge", hits=0)
        with pytest.raises(ValueError, match="non-empty"):
            FaultInjector().fail_at("", lambda: RuntimeError())


# ---------------------------------------------------------------------------
# Broken worker pool degradation (satellite 3).
# ---------------------------------------------------------------------------
class TestBrokenPoolRespawn:
    def serve_round(self, engine, domain, epsilons):
        tickets = [
            engine.submit("alice", identity_workload(domain), epsilon=epsilons[0]),
            engine.submit("alice", cumulative_workload(domain), epsilon=epsilons[1]),
        ]
        engine.flush()
        return tickets

    def test_killed_worker_respawns_once_then_falls_back_inline(
        self, database, domain, monkeypatch
    ):
        engine = make_engine(
            database,
            domain,
            total_epsilon=100.0,
            enable_answer_cache=False,
            execute_workers=2,
            execute_backend="process",
        )
        backend = engine._execute_backend
        monkeypatch.setattr(parallel, "RESPAWN_BACKOFF", 0.01)
        with engine:
            session = engine.open_session("alice", 90.0)
            answered = self.serve_round(engine, domain, (1.0, 1.25))
            assert [t.status for t in answered] == ["answered", "answered"]
            assert backend._pool is not None

            # Kill 1: the affected batch rolls back, the pool respawns.
            kill_one_worker(backend)
            time.sleep(0.3)
            broken = self.serve_round(engine, domain, (1.05, 1.3))
            assert engine.stats.pool_respawns == 1
            for ticket in broken:
                if ticket.status == "refused":
                    assert "rolled back" in ticket.error

            # The fresh pool serves.
            fresh = self.serve_round(engine, domain, (1.1, 1.35))
            assert [t.status for t in fresh] == ["answered", "answered"]
            assert engine.stats.pool_respawns == 1

            # Kill 2: the respawn budget (1) is exhausted -> inline, forever.
            kill_one_worker(backend)
            time.sleep(0.3)
            self.serve_round(engine, domain, (1.15, 1.4))
            inline = self.serve_round(engine, domain, (1.2, 1.45))
            assert [t.status for t in inline] == ["answered", "answered"]
            assert backend._pool is None
            assert engine.stats.pool_respawns == 1

            # Rollbacks held: the session paid for answers and nothing else.
            answered_epsilon = sum(
                t.epsilon
                for t in answered + broken + fresh + inline
                if t.status == "answered"
            )
            # The kill-2 round resolved too; count whatever it answered.
            assert session.spent() <= 90.0
            assert session.spent() >= answered_epsilon

    def test_stats_snapshot_keeps_respawns_after_close(
        self, database, domain, monkeypatch
    ):
        engine = make_engine(
            database,
            domain,
            total_epsilon=100.0,
            enable_answer_cache=False,
            execute_workers=2,
            execute_backend="process",
        )
        backend = engine._execute_backend
        monkeypatch.setattr(parallel, "RESPAWN_BACKOFF", 0.01)
        with engine:
            engine.open_session("alice", 50.0)
            self.serve_round(engine, domain, (1.0, 1.25))
            kill_one_worker(backend)
            time.sleep(0.3)
            self.serve_round(engine, domain, (1.05, 1.3))
            assert engine.stats.pool_respawns == 1
        assert engine.stats.pool_respawns == 1  # survives close()
