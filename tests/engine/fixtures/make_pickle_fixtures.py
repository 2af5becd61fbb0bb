"""Write the pickle-compatibility fixtures next to this file.

Usage::

    PYTHONPATH=src python tests/engine/fixtures/make_pickle_fixtures.py

The committed files were written by the library version whose
:class:`~repro.core.workload.Workload` pickled as a plain dataclass (its
CSR arrays in the instance ``__dict__``), before interval rows pickled as
endpoints.  ``tests/engine/test_workload_pickle.py`` loads them to prove that
old pickles, plan stores and answer stores stay readable.  Re-running this
script with a newer library writes the newer format, so the committed files
are not meant to be regenerated.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import sys

import numpy as np

from repro.core import Database, Domain, identity_workload, marginal_workload
from repro.core.range_queries import RangeQuery, range_queries_workload
from repro.engine import PrivateQueryEngine
from repro.policy import PolicyGraph

HERE = os.path.dirname(os.path.abspath(__file__))
CELLS = 16


def fixture_workloads():
    """The workloads every fixture is built from (rebuilt by the tests)."""
    domain = Domain((CELLS,))
    ranges = range_queries_workload(
        domain,
        [RangeQuery((lo,), (hi,)) for lo, hi in [(0, 3), (2, 7), (8, 15), (10, 10)]],
    )
    return {
        "ranges": ranges,
        "identity": identity_workload(domain),
        "marginal": marginal_workload(Domain((4, 4)), 1),
    }


def fixture_engine(snapshot_dir=None, **kwargs):
    """A seeded engine over a two-component line policy (two 8-cell lines)."""
    domain = Domain((CELLS,))
    counts = np.zeros(CELLS)
    counts[[1, 5, 6, 9, 12]] = [3, 7, 1, 4, 9]
    edges = [(cell, cell + 1) for start in (0, 8) for cell in range(start, start + 7)]
    kwargs.setdefault("enable_answer_cache", snapshot_dir is not None)
    return PrivateQueryEngine(
        Database(domain, counts, name="fixture16"),
        total_epsilon=10.0,
        default_policy=PolicyGraph(domain, edges, name="two-lines"),
        random_state=7,
        snapshot_dir=snapshot_dir,
        snapshot_interval=0,
        **kwargs,
    )


def serve(engine, names=("ranges", "identity")):
    """Ask each named workload once (one flush each); return the answers."""
    workloads = fixture_workloads()
    engine.open_session("alice", 5.0)
    answers = {}
    for name in names:
        ticket = engine.submit("alice", workloads[name], epsilon=1.0)
        engine.flush()
        answers[name] = np.asarray(ticket.result(), dtype=np.float64).tolist()
    return answers


def main() -> int:
    workloads = fixture_workloads()
    workloads["ranges"].signature()  # the memoised signature rides the pickle
    with open(os.path.join(HERE, "workloads_dataclass.pkl"), "wb") as handle:
        pickle.dump(workloads, handle, protocol=pickle.HIGHEST_PROTOCOL)

    snaps = os.path.join(HERE, "snapshot")
    shutil.rmtree(snaps, ignore_errors=True)
    with fixture_engine(snapshot_dir=snaps) as engine:
        snapshot_answers = serve(engine)
        engine.snapshot()
    with fixture_engine() as cold:
        plan_answers = serve(cold)
    with open(os.path.join(HERE, "expected_answers.json"), "w") as handle:
        json.dump(
            {"snapshot": snapshot_answers, "plan_store": plan_answers},
            handle,
            indent=1,
            sort_keys=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
