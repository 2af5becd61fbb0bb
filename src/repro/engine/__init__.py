"""repro.engine — a budget-managed, plan-cached private query serving engine.

Turns the one-shot mechanisms of :mod:`repro.blowfish` into a multi-client
service: an expensive planning path (memoised in a :class:`PlanCache`,
persistable across restarts via ``save_plans``/``load_plans``), a fast
answering path (a staged **plan → charge → execute → resolve** flush
pipeline with lock-free planning and lock-free mechanism execution, batched
invocations, noisy-answer replays at zero budget), per-client sessions whose
epsilon allotments are reserved from a global
:class:`~repro.accounting.PrivacyAccountant`, scatter/gather execution over
per-component :class:`DomainShard`\\ s for multi-component policies (exact
under parallel composition), a multi-core execute stage
(``execute_backend="process"`` ships picklable work units to worker
processes over a **miss-only blob protocol** — steady state sends digests,
not plan/database pickles — :mod:`repro.engine.parallel`),
and a :class:`BatchingExecutor`
front-end that accumulates concurrent submissions and auto-flushes on a
deadline/size trigger.

Quick start::

    from repro import Database, Domain, identity_workload, line_policy
    from repro.engine import BatchingExecutor, PrivateQueryEngine

    domain = Domain((64,))
    engine = PrivateQueryEngine(
        database, total_epsilon=4.0, default_policy=line_policy(domain)
    )
    alice = engine.open_session("alice", epsilon_allotment=1.0)
    answers = engine.ask("alice", identity_workload(domain), epsilon=0.5)
    # Re-asking is free: replayed from the noisy-answer cache.
    replay = engine.ask("alice", identity_workload(domain), epsilon=0.5)

    # Under concurrent clients, submit through the batching front-end:
    with BatchingExecutor(engine, max_batch_size=32, max_delay=0.02) as executor:
        answers = executor.ask("alice", identity_workload(domain), epsilon=0.25)
"""

from ..core.digest import domain_signature, matrix_digest
from ..core.workload import Workload
from ..policy.graph import PolicyGraph
from .answer_cache import (
    AnswerCache,
    AnswerCacheStats,
    CachedAnswer,
    Measurement,
    answer_key,
    stack_measurements,
)
from .durability import (
    CRASH_POINTS,
    SERVING_FAULT_POINTS,
    FaultInjector,
    LedgerStore,
    Snapshotter,
    recover_accountant,
)
from .engine import EngineStats, PrivateQueryEngine
from .executor import BatchingExecutor
from .factorisation import (
    FactorisationHandle,
    FactorisationStore,
    FactorisationStoreStats,
    get_store,
    set_store,
    set_store_enabled,
    store_enabled,
)
from .observability import (
    AuditLog,
    MetricsRegistry,
    Observability,
    Span,
    Trace,
    Tracer,
)
from .parallel import (
    ExecuteUnit,
    ExecuteUnitGroup,
    ProcessExecuteBackend,
)
from .pipeline import (
    ANSWERED,
    CANCELLED,
    EXPIRED,
    PENDING,
    REFUSED,
    FlushPipeline,
    QueryTicket,
)
from .plan_cache import PLAN_STORE_FORMAT, CachedPlan, PlanCache, PlanCacheStats, plan_key
from .session import ClientSession
from .sharding import DomainShard, ShardPiece, ShardScatter, ShardSet
from .waiters import BatchTriggers, ThreadTicketWaiter, TicketLifecycle, TicketWaiter

#: The memoised policy and workload signatures, under their function names.
policy_signature = PolicyGraph.signature
workload_signature = Workload.signature

__all__ = [
    "ANSWERED",
    "AnswerCache",
    "AnswerCacheStats",
    "AuditLog",
    "BatchTriggers",
    "BatchingExecutor",
    "CANCELLED",
    "CRASH_POINTS",
    "CachedAnswer",
    "CachedPlan",
    "ClientSession",
    "DomainShard",
    "EXPIRED",
    "EngineStats",
    "FaultInjector",
    "LedgerStore",
    "Snapshotter",
    "ExecuteUnit",
    "ExecuteUnitGroup",
    "FactorisationHandle",
    "FactorisationStore",
    "FactorisationStoreStats",
    "FlushPipeline",
    "Measurement",
    "MetricsRegistry",
    "Observability",
    "PENDING",
    "PLAN_STORE_FORMAT",
    "PlanCache",
    "PlanCacheStats",
    "PrivateQueryEngine",
    "ProcessExecuteBackend",
    "QueryTicket",
    "REFUSED",
    "SERVING_FAULT_POINTS",
    "Span",
    "ThreadTicketWaiter",
    "TicketLifecycle",
    "TicketWaiter",
    "Trace",
    "Tracer",
    "ShardPiece",
    "ShardScatter",
    "ShardSet",
    "answer_key",
    "domain_signature",
    "get_store",
    "matrix_digest",
    "plan_key",
    "policy_signature",
    "recover_accountant",
    "set_store",
    "set_store_enabled",
    "stack_measurements",
    "store_enabled",
    "workload_signature",
]
