"""The benchmark workloads, each as set up / measure / tear down.

Both are closed loops: a client sends its next request only after the
previous answer arrived.

* ``http-mixed`` — two keep-alive connections post 1-8-range workloads to a
  server process (``server.py``); three of every four requests re-ask an
  earlier workload of the same connection.
* ``sharded-process`` — one client thread submits 8 workloads from a fixed
  pool and flushes them through a 4-component policy on a 2-worker process
  backend.

A measurement checks every answer (shape, finiteness, replays byte-equal to
the paid answer they replay), accumulates the squared error against the true
``W x``, and compares the ε the ledger charged with what its own request log
expects.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

import inputs
from harness import (
    AnswerTally,
    clock,
    cpu_seconds,
    ledger_error,
    metric_total,
    peak_rss_mb,
)
from spans import SpanRecorder

#: ε of every query, and budgets no run can exhaust.  0.5 is exact in
#: binary, so the ledger's sums compare exactly with the request log's.
EPSILON = 0.5
TOTAL_EPSILON = 1e9
SESSION_EPSILON = 1e8
HTTP_CONNECTIONS = 2
#: Ticket-registry capacity of the http-mixed server (``create_app``'s
#: default).  Before its timed window the server serves this many replays,
#: so the registry is full as in any long-running server: from then on each
#: new ticket evicts an old one.
REGISTRY_CAPACITY = 4096
SHARD_BATCH = 8
SERVER_START_TIMEOUT = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclasses.dataclass
class Measurement:
    attempted: int = 0
    answered: int = 0
    #: Start and length of the timed window.
    started: float = 0.0
    wall: float = 0.0
    #: (start, end, request id or None) per request, on the shared clock.
    requests: list = dataclasses.field(default_factory=list)
    #: Completion time of every answered request.
    answered_ends: List[float] = dataclasses.field(default_factory=list)
    tally: AnswerTally = dataclasses.field(default_factory=AnswerTally)
    cpu_seconds: float = 0.0
    rss_mb: float = 0.0
    before: Dict[str, float] = dataclasses.field(default_factory=dict)
    after: Dict[str, float] = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)
    #: ε the sessions' ledgers charged during the timed window.
    epsilon_spent: float = 0.0
    shed_total: float = 0.0
    ledger_ops_end: int = 0


def engine_stats(engine) -> Dict[str, float]:
    return {
        key: value
        for key, value in dataclasses.asdict(engine.stats).items()
        if isinstance(value, (int, float))
    }


# --------------------------------------------------------------- sharded-process
class ShardedProcess:
    def __init__(self, seed: int) -> None:
        from repro.core import Database, Domain
        from repro.core.workload import Workload
        from repro.engine import FactorisationStore, PrivateQueryEngine, set_store
        from repro.policy import PolicyGraph

        # A new factorisation store, so no set-up inherits the last one's.
        set_store(FactorisationStore())
        self.seed = seed
        domain = Domain((inputs.SHARD_CELLS,))
        self.counts = inputs.histogram(seed, inputs.SHARD_CELLS)
        edges = [
            (cell, cell + 1)
            for start, length in inputs.shard_segments()
            for cell in range(start, start + length - 1)
        ]
        self.engine = PrivateQueryEngine(
            Database(domain, self.counts),
            total_epsilon=TOTAL_EPSILON,
            default_policy=PolicyGraph(domain, edges, name="segments"),
            prefer_data_dependent=False,
            enable_answer_cache=False,
            execute_backend="process",
            execute_workers=2,
            random_state=seed,
        )
        try:
            self.session = self.engine.open_session("client", SESSION_EPSILON)
            matrices = inputs.shard_pool(seed)
            self.pool = [Workload(domain, matrix) for matrix in matrices]
            self.truths = [matrix @ self.counts for matrix in matrices]
            self.paid = 0
            self.next = 0
            # Warm plans, worker processes and their resident caches on the pool.
            for _ in range(2 * len(self.pool) // SHARD_BATCH):
                for ticket, _ in self._flush():
                    ticket.result()
        except BaseException:
            self.engine.close()
            raise

    def _flush(self):
        """Submit the next batch of pool workloads and flush it."""
        submitted = []
        for _ in range(SHARD_BATCH):
            index = self.next % len(self.pool)
            self.next += 1
            start = clock()
            submitted.append((self.engine.submit("client", self.pool[index], EPSILON), (index, start)))
        self.engine.flush()
        self.paid += len(submitted)
        return submitted

    def measure(self, seconds: float, recorder: Optional[SpanRecorder]) -> Measurement:
        result = Measurement(before=engine_stats(self.engine))
        if recorder is not None:
            recorder.spans.clear()
        spent = self.session.spent()
        workers = [child.pid for child in multiprocessing.active_children()]
        worker_cpu = sum(cpu_seconds(pid) for pid in workers)
        result.started = clock()
        deadline = result.started + seconds
        while clock() < deadline:
            cpu = time.process_time()
            submitted = self._flush()
            end = clock()
            result.cpu_seconds += time.process_time() - cpu
            for ticket, (index, start) in submitted:
                result.attempted += 1
                result.requests.append((start, end, None))
                if ticket.status != "answered":
                    result.tally.fail(f"ticket {ticket.ticket_id} {ticket.status}: {ticket.error}")
                elif result.tally.check(np.asarray(ticket.answers), self.truths[index]):
                    result.answered += 1
                    result.answered_ends.append(end)
        result.wall = clock() - result.started
        result.after = engine_stats(self.engine)
        if recorder is not None:
            result.spans = list(recorder.spans)
        result.cpu_seconds += sum(cpu_seconds(pid) for pid in workers) - worker_cpu
        result.rss_mb = peak_rss_mb(os.getpid()) + sum(peak_rss_mb(pid) for pid in workers)
        result.ledger_ops_end = len(self.session.accountant.operations)
        result.epsilon_spent = self.session.spent() - spent
        error = ledger_error(self.session.spent(), EPSILON * self.paid)
        if error:
            result.tally.fail(error)
        return result

    def close(self) -> None:
        self.engine.close()


# -------------------------------------------------------------------- http-mixed
class HttpMixed:
    """Client side of http-mixed; the engine lives in a ``server.py`` process."""

    def __init__(self, seed: int, trace: bool, scratch: str) -> None:
        self.seed = seed
        self.counts = inputs.histogram(seed, inputs.SMALL_CELLS)
        self.state_dir = os.path.join(scratch, f"server-{os.getpid()}-{time.monotonic_ns()}")
        os.makedirs(self.state_dir)
        self.server = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "server.py"),
                "--seed", str(seed),
                "--ledger", os.path.join(self.state_dir, "ledger.sqlite"),
                "--trace", "1" if trace else "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        self.connections: List[http.client.HTTPConnection] = []
        try:
            self.port = self._read_port()
            self.paid = [0] * HTTP_CONNECTIONS
            for index in range(HTTP_CONNECTIONS):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=SERVER_START_TIMEOUT
                )
                self.connections.append(connection)
                status, body = self._call(
                    connection,
                    "POST",
                    "/api/clients",
                    json.dumps(
                        {"client_id": self.client(index), "epsilon_allotment": SESSION_EPSILON}
                    ).encode(),
                )
                if status != 201:
                    raise RuntimeError(f"opening a session answered {status}: {body}")
                # Plans the one policy/ε the stream uses; not a stream workload.
                self._warm_query(index)
                self.paid[index] += 1
        except BaseException:
            self.close()
            raise

    @staticmethod
    def client(index: int) -> str:
        return f"client{index}"

    def _read_port(self) -> int:
        line = self.server.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split()[1])

    @staticmethod
    def _call(connection, method: str, path: str, body: bytes = None):
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()

    def _query_body(self, index: int, ranges) -> bytes:
        return (
            '{"client_id": "%s", "epsilon": %r, "wait": true, '
            '"workload": {"kind": "rows", "rows": %s}}'
            % (self.client(index), EPSILON, inputs.rows_json(ranges, inputs.SMALL_CELLS))
        ).encode()

    def _warm_query(self, index: int) -> None:
        warm = [(0, inputs.SMALL_CELLS - 1 - index)]
        connection = self.connections[index]
        status, body = self._call(
            connection, "POST", "/api/queries", body=self._query_body(index, warm)
        )
        if status != 200 or json.loads(body)["status"] != "answered":
            raise RuntimeError(f"warm-up query answered {status}: {body}")

    def _fill_registry(self) -> None:
        """Re-ask the warm-up queries (zero ε) until the ticket registry is full."""
        errors: List[BaseException] = []

        def fill(index: int) -> None:
            try:
                for _ in range(REGISTRY_CAPACITY // HTTP_CONNECTIONS):
                    self._warm_query(index)
            except (OSError, http.client.HTTPException, RuntimeError) as exc:
                errors.append(exc)

        threads = [threading.Thread(target=fill, args=(index,)) for index in range(HTTP_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError(f"filling the ticket registry failed: {errors[0]!r}")

    def _report(self, reset: bool) -> dict:
        connection = self.connections[0]
        status, data = self._call(connection, "GET", "/bench/report" + ("?reset=1" if reset else ""))
        if status != 200:
            raise RuntimeError(f"report answered {status}")
        return json.loads(data)

    def _client_loop(self, index: int, deadline: float, result: Measurement, lock) -> None:
        connection = self.connections[index]
        paid_answers: Dict[int, bytes] = {}
        requests: Dict[int, tuple] = {}  # fresh index -> (body, truth)
        local = Measurement()
        try:
            for number, (fresh, fresh_index, ranges) in enumerate(inputs.http_stream(self.seed, index)):
                if clock() >= deadline:
                    break
                if fresh:
                    requests[fresh_index] = (
                        self._query_body(index, ranges),
                        inputs.range_sums(ranges, self.counts),
                    )
                body, truth = requests[fresh_index]
                request_id = f"c{index}-{number}"
                start = clock()
                connection.request("POST", "/api/queries", body=body, headers={"X-Request-Id": request_id})
                response = connection.getresponse()
                data = response.read()
                end = clock()
                local.attempted += 1
                local.requests.append((start, end, request_id))
                payload = json.loads(data) if response.status == 200 else {"status": f"http {response.status}"}
                if payload.get("status") != "answered":
                    local.tally.fail(f"request {request_id}: {payload.get('status')} {payload.get('error', '')}")
                    continue
                answer = np.asarray(payload["answers"], dtype=np.float64)
                if not local.tally.check(answer, truth):
                    continue
                if fresh:
                    if payload["from_cache"]:
                        local.tally.fail(f"fresh request {request_id} was answered from the cache")
                        continue
                    self.paid[index] += 1
                    paid_answers[fresh_index] = answer.tobytes()
                elif not payload["from_cache"] or paid_answers.get(fresh_index) != answer.tobytes():
                    local.tally.fail(f"re-ask {request_id} is not a byte-equal replay of its paid answer")
                    continue
                local.answered += 1
                local.answered_ends.append(end)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            local.tally.fail(f"connection {index} failed: {exc!r}")
        with lock:
            result.attempted += local.attempted
            result.answered += local.answered
            result.requests += local.requests
            result.answered_ends += local.answered_ends
            result.tally.squared_error += local.tally.squared_error
            result.tally.entries += local.tally.entries
            result.tally.errors += local.tally.errors

    def measure(self, seconds: float, recorder: Optional[SpanRecorder]) -> Measurement:
        self._fill_registry()
        report = self._report(reset=True)
        result = Measurement(before=report["stats"])
        spent = sum(report["spent"].values())
        cpu = cpu_seconds(self.server.pid)
        result.started = clock()
        deadline = result.started + seconds
        lock = threading.Lock()
        threads = [
            threading.Thread(target=self._client_loop, args=(index, deadline, result, lock))
            for index in range(HTTP_CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall = clock() - result.started
        result.cpu_seconds = cpu_seconds(self.server.pid) - cpu
        report = self._report(reset=False)
        result.after = report["stats"]
        result.spans = [tuple(span[:3]) + (_key(span[3]),) for span in report["spans"]]
        result.epsilon_spent = sum(report["spent"].values()) - spent
        _, exposition = self._call(self.connections[0], "GET", "/metrics")
        result.shed_total = metric_total(exposition.decode(), "serving_shed_total")
        result.ledger_ops_end = max(report["ledger_ops"].values())
        result.rss_mb = peak_rss_mb(self.server.pid)
        for index in range(HTTP_CONNECTIONS):
            error = ledger_error(report["spent"][self.client(index)], EPSILON * self.paid[index])
            if error:
                result.tally.fail(f"{self.client(index)}: {error}")
        return result

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
        try:
            self.server.communicate(timeout=SERVER_START_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def _key(key):
    """JSON turned tuple keys into lists; make them hashable tuples again."""
    if isinstance(key, list):
        return tuple(_key(part) for part in key)
    return key
