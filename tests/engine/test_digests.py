"""Persisted content digests never move.

Plan stores, answer stores and the transforms pickled inside them are keyed
by the domain, policy and workload signatures, the plan and answer keys built
from them, and the transforms' ``gram_digest``/``transform_digest``.  A moved
value orphans every store written before it, so each is pinned against
``fixtures/digests.json``, written by ``fixtures/make_digest_fixture.py``.
(The plan-pickle sha256 values in the same file are checked by
``test_pickling.py``'s hash-seed test, which already runs their child.)
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).with_name("fixtures")
GOLDEN = json.loads((FIXTURES / "digests.json").read_text())


def _computed() -> dict:
    spec = importlib.util.spec_from_file_location(
        "make_digest_fixture", FIXTURES / "make_digest_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compute()


COMPUTED = _computed()


@pytest.mark.parametrize("kind", sorted(set(GOLDEN) - {"plan_pickle_sha256"}))
def test_persisted_digests_match_the_golden_values(kind):
    assert COMPUTED[kind] == GOLDEN[kind]


def test_every_golden_kind_is_recomputed():
    assert set(COMPUTED) == set(GOLDEN) - {"plan_pickle_sha256"}
