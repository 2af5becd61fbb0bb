"""``python -m repro.engine.serving`` — boot a demo HTTP server.

Serves a seeded engine over a synthetic salary histogram (the same dataset
as ``examples/serving_demo.py``) so the HTTP API can be exercised without
any setup::

    PYTHONPATH=src python -m repro.engine.serving --port 8080

    curl -s localhost:8080/health
    curl -s -X POST localhost:8080/api/clients \\
        -d '{"client_id": "alice", "epsilon_allotment": 1.0}'
    curl -s -X POST localhost:8080/api/queries \\
        -d '{"client_id": "alice", "workload": {"kind": "identity"},
             "epsilon": 0.25, "wait": true}'

The CI serving-smoke job boots exactly this module in a fresh process and
asserts ``/health`` plus one answered query; the chaos-serving-smoke job
boots it with ``--chaos`` and drives the fault matrix over the wire.
``--port 0`` (the default) binds an ephemeral port and prints it on the
first line.

Graceful shutdown: SIGTERM (or SIGINT) starts a drain — readiness flips to
503 and new submits shed, in-flight tickets complete through their final
flush, the engine closes (taking its final snapshot when a snapshotter is
attached), and the process exits 0 after printing a ``drain complete``
line the drain tests parse.
"""

from __future__ import annotations

import argparse
import asyncio
import signal

import numpy as np

from ...core import Database, Domain
from ...policy import line_policy
from ..engine import PrivateQueryEngine
from .app import create_app
from .http import ServingServer


def build_demo_engine(
    cells: int = 256,
    total_epsilon: float = 8.0,
    seed: int = 7,
    durable_ledger=None,
    execute_backend=None,
    execute_workers=None,
) -> PrivateQueryEngine:
    """A seeded engine over the demo salary histogram."""
    rng = np.random.default_rng(0)
    domain = Domain((cells,))
    counts = np.zeros(domain.size)
    counts[rng.integers(20, cells - 26, size=40)] = rng.integers(1, 200, size=40)
    database = Database(domain, counts, name="salaries")
    options = {}
    if durable_ledger is not None:
        options["durable_ledger"] = durable_ledger
    if execute_backend is not None:
        options["execute_backend"] = execute_backend
    if execute_workers is not None:
        options["execute_workers"] = execute_workers
    return PrivateQueryEngine(
        database,
        total_epsilon=total_epsilon,
        default_policy=line_policy(domain),
        random_state=seed,
        **options,
    )


async def serve(args: argparse.Namespace) -> None:
    engine = build_demo_engine(
        args.cells,
        args.epsilon,
        args.seed,
        durable_ledger=args.durable_ledger,
        execute_backend=args.execute_backend,
        execute_workers=args.execute_workers,
    )
    app = create_app(engine, enable_chaos=args.chaos)
    server = ServingServer(app, host=args.host, port=args.port)
    await server.start()
    # The smoke job parses this line for the bound (possibly ephemeral) port.
    print(f"serving on http://{server.host}:{server.port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _begin_drain() -> None:
        # Signal handler: flip readiness and stop admitting *now* (cheap,
        # loop-thread safe), then let the main coroutine run the drain.
        app.drain()
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, _begin_drain)
    try:
        # start() already accepts connections; this coroutine only needs to
        # stay alive until a signal asks for the drain.
        await stop.wait()
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)
        # Drain order matters: complete every in-flight ticket *before*
        # closing the listener, so clients blocked in wait=true submits
        # receive their answers over the still-open connections.
        await app.aclose()
        await server.aclose()
        engine.close()
        stats = engine.stats
        # The drain tests parse this line: every admitted ticket resolved.
        print(
            "drain complete: "
            f"pending={engine.pending_count} "
            f"answered={stats.queries_answered} "
            f"refused={stats.queries_refused} "
            f"expired={stats.queries_expired} "
            f"cancelled={stats.queries_cancelled}",
            flush=True,
        )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.serving",
        description="Demo HTTP server over a seeded private query engine",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument("--cells", type=int, default=256, help="domain size")
    parser.add_argument(
        "--epsilon", type=float, default=8.0, help="global privacy budget"
    )
    parser.add_argument("--seed", type=int, default=7, help="engine random_state")
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="install POST /api/chaos fault injection (test deployments only)",
    )
    parser.add_argument(
        "--durable-ledger",
        default=None,
        metavar="PATH",
        help="journal epsilon charges write-ahead to this SQLite ledger",
    )
    parser.add_argument(
        "--execute-backend",
        default=None,
        choices=("inline", "process"),
        help=(
            "execute-stage backend (engine default when omitted); on 2 "
            "cores, 2 process workers lose to inline on perfbench's "
            "sharded set-up in every uncontended run (inline had 24-36%% "
            "more throughput), hosts with >= 4 cores are unmeasured, and "
            "a flush of a single unit always runs inline"
        ),
    )
    parser.add_argument(
        "--execute-workers",
        type=int,
        default=None,
        help="execute-stage worker count (engine default when omitted)",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(serve(args))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
