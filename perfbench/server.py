"""The http-mixed server: one engine behind ``create_app`` + ``ServingServer``.

Run by the benchmark, not by hand::

    python perfbench/server.py --seed 1 --ledger DIR/ledger.sqlite --trace 0

Prints ``port N`` once it accepts connections and serves until SIGTERM,
then drains.  Besides the public API it serves ``GET /bench/report``: the
engine's counters, each session's spent ε and ledger length, and (with
``--trace 1``) the spans recorded so far; ``?reset=1`` drops the spans
after reporting them.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
from spans import (  # noqa: E402
    Patches,
    SpanRecorder,
    install_durable_spans,
    install_engine_spans,
    install_serving_spans,
)
from workloads import REGISTRY_CAPACITY, TOTAL_EPSILON, engine_stats  # noqa: E402

#: Every submit flushes at once on the size trigger; the timer never fires
#: in steady state.
MAX_BATCH_SIZE = 1
MAX_DELAY = 0.05


async def serve(args: argparse.Namespace) -> None:
    from repro.core import Database, Domain
    from repro.engine import PrivateQueryEngine
    from repro.engine.serving import Response, ServingServer, create_app
    from repro.policy import threshold_policy

    recorder = SpanRecorder() if args.trace else None
    patches = Patches()
    if recorder is not None:
        install_engine_spans(recorder, patches)
        install_serving_spans(recorder, patches)
    domain = Domain((inputs.SMALL_CELLS,))
    engine = PrivateQueryEngine(
        Database(domain, inputs.histogram(args.seed, inputs.SMALL_CELLS)),
        total_epsilon=TOTAL_EPSILON,
        default_policy=threshold_policy(domain, inputs.THETA),
        prefer_data_dependent=False,
        random_state=args.seed,
        durable_ledger=args.ledger,
    )
    if recorder is not None:
        install_durable_spans(recorder, patches, engine)
    app = create_app(
        engine,
        max_batch_size=MAX_BATCH_SIZE,
        max_delay=MAX_DELAY,
        registry_capacity=REGISTRY_CAPACITY,
    )

    async def report(app, request):
        spans = list(recorder.spans) if recorder is not None else []
        if recorder is not None and request.query.get("reset"):
            recorder.spans.clear()
        sessions = app.engine.sessions()
        return Response(
            {
                "stats": engine_stats(app.engine),
                "spans": spans,
                "spent": {s.client_id: s.spent() for s in sessions},
                "ledger_ops": {s.client_id: len(s.accountant.operations) for s in sessions},
            }
        )

    app.add_route("GET", "/bench/report", report)
    server = ServingServer(app, port=0)
    await server.start()
    print(f"port {server.port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    try:
        await stop.wait()
    finally:
        await app.aclose()
        await server.aclose()
        engine.close()
        patches.restore()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ledger", required=True, help="durable ε-ledger path")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
