"""Subprocess driver: a process-backed engine whose workers die at start.

Usage: ``python startup_fault_driver.py CELLS`` with ``repro`` importable.

``spawn`` re-imports this file in every worker as ``__mp_main__``, and that
import exits, so each worker dies before it reads its start-up payload.  The
driver serves a two-component line policy over ``CELLS`` cells on 2 worker
processes and runs three flushes of one identity workload touching both
components (two shard units, so each flush is a pooled dispatch).  It prints
one JSON line per flush and a last one after ``close()``, once the workers
are reaped (or after 5 s).
"""

import sys

if __name__ == "__mp_main__":
    sys.exit("worker start-up fault")

import json
import multiprocessing
import time


def main(cells: int) -> None:
    import numpy as np

    from repro import Database, Domain, PolicyGraph, PrivateQueryEngine
    from repro import identity_workload
    from repro.exceptions import ReleaseFailedError

    domain = Domain((cells,))
    half = cells // 2
    policy = PolicyGraph(
        domain,
        edges=[(i, i + 1) for i in range(half - 1)]
        + [(i, i + 1) for i in range(half, cells - 1)],
    )
    database = Database(domain, np.arange(cells, dtype=float))
    engine = PrivateQueryEngine(
        database,
        total_epsilon=10.0,
        default_policy=policy,
        prefer_data_dependent=False,
        consistency=False,
        enable_answer_cache=False,
        random_state=0,
        execute_workers=2,
        execute_backend="process",
    )
    session = engine.open_session("driver", 5.0)
    for flush, epsilon in enumerate((0.5, 0.25, 0.125), start=1):
        before = session.spent()
        started = time.monotonic()
        ticket = engine.submit("driver", identity_workload(domain), epsilon=epsilon)
        engine.flush()
        try:
            ticket.result()
            error = None
        except ReleaseFailedError as exc:
            error = type(exc).__name__
        print(
            json.dumps(
                {
                    "flush": flush,
                    "epsilon": epsilon,
                    "status": ticket.status,
                    "error": error,
                    "spent": session.spent() - before,
                    "pool_respawns": engine.stats.pool_respawns,
                    "seconds": time.monotonic() - started,
                }
            ),
            flush=True,
        )
    engine.close()
    # A retired pool is shut down without waiting, so its manager thread
    # reaps the dead workers shortly after the flush that saw the break.
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    print(
        json.dumps(
            {"closed": True, "active_children": len(multiprocessing.active_children())}
        ),
        flush=True,
    )


if __name__ == "__main__":
    main(int(sys.argv[1]))
