"""Write ``digests.json``: the persisted content digests of fixed inputs.

Usage::

    PYTHONPATH=src python tests/engine/fixtures/make_digest_fixture.py

Plan stores, answer stores and the transforms pickled inside them are keyed
by content digests, so a digest that moves orphans every store written
before it.  ``tests/engine/test_digests.py`` recomputes every value below
with the current library and asserts equality; ``test_pickling.py`` checks
the plan-pickle sha256 values its hash-seed child prints against the same
file.  The committed file was written before the hashing recipes moved into
:mod:`repro.core.digest`; re-running this script overwrites it with
whatever the current library computes, so only re-run it for a change that
is meant to move a persisted key.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

from repro.core import Database, Domain
from repro.engine import (
    ShardSet,
    answer_key,
    domain_signature,
    matrix_digest,
    plan_key,
    policy_signature,
    workload_signature,
)
from repro.policy import PolicyGraph, line_policy, threshold_policy
from repro.policy.transform import PolicyTransform

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "digests.json")


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_policies():
    """Line, θ = 4 threshold and two-component policies over 16 cells, plus
    the two sub-policies the two-component policy shards into."""
    domain = Domain((16,))
    split = PolicyGraph(
        domain,
        [(cell, cell + 1) for start in (0, 8) for cell in range(start, start + 7)],
        name="two-lines",
    )
    policies = {
        "line": line_policy(domain),
        "threshold4": threshold_policy(domain, 4),
        "two-lines": split,
    }
    shards = ShardSet.build(split, Database(domain, np.arange(16.0))).shards
    for shard in shards:
        policies[f"two-lines/shard{shard.index}"] = shard.policy
    return policies


def compute() -> dict:
    """Every in-process digest of the fixed inputs, as JSON-ready values."""
    workloads = _load(
        "make_pickle_fixtures", os.path.join(HERE, "make_pickle_fixtures.py")
    ).fixture_workloads()
    policies = fixture_policies()
    digests: dict = {
        "domain_signature": {
            repr(shape): domain_signature(Domain(shape))
            for shape in [(16,), (4, 4), (64,)]
        },
        "workload_signature": {
            name: workload_signature(workload) for name, workload in workloads.items()
        },
        "workload_matrix_digest": {
            name: matrix_digest(workload.matrix) for name, workload in workloads.items()
        },
        "policy_signature": {},
        "plan_key": {},
        "answer_key": {},
        "gram_digest": {},
        "transform_digest": {},
    }
    for name, policy in policies.items():
        digests["policy_signature"][name] = policy_signature(policy)
        for data_dependent in (False, True):
            key = plan_key(policy, 0.5, data_dependent, data_dependent)
            digests["plan_key"][f"{name}/dd={data_dependent}"] = list(key)
        transform = PolicyTransform(policy)
        digests["gram_digest"][name] = transform.gram_digest
        digests["transform_digest"][name] = transform.transform_digest
        if policy.domain == Domain((16,)):
            for workload_name in ("ranges", "identity"):
                key = answer_key(policy, workloads[workload_name], 0.5)
                digests["answer_key"][f"{name}/{workload_name}"] = list(key)
    return digests


def plan_pickle_sha256() -> list:
    """The plan-pickle sha256 values ``test_pickling.py``'s child prints
    (first column), from a fresh interpreter."""
    child = _load(
        "test_pickling", os.path.join(os.path.dirname(HERE), "test_pickling.py")
    ).DIGEST_CHILD
    result = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, check=True
    )
    return [line.split()[0] for line in result.stdout.splitlines()]


def main() -> int:
    digests = compute()
    digests["plan_pickle_sha256"] = plan_pickle_sha256()
    with open(OUTPUT, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
