"""Shared fixtures for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import Database, Domain
from repro.policy import grid_policy, line_policy, threshold_policy

# Tier-1 must be deterministic on any host: property tests draw the same
# examples on every run and keep no example database between runs.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for noise-producing tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def line_domain_16() -> Domain:
    """A small one-dimensional domain."""
    return Domain((16,))


@pytest.fixture
def grid_domain_5() -> Domain:
    """A small two-dimensional domain."""
    return Domain((5, 5))


@pytest.fixture
def sparse_database_16(line_domain_16: Domain) -> Database:
    """A sparse database over the 16-cell line domain."""
    counts = np.zeros(16)
    counts[[1, 5, 6, 12]] = [3, 7, 1, 9]
    return Database(line_domain_16, counts, name="sparse16")


@pytest.fixture
def dense_database_16(line_domain_16: Domain) -> Database:
    """A dense database over the 16-cell line domain."""
    generator = np.random.default_rng(0)
    counts = generator.integers(1, 30, size=16).astype(float)
    return Database(line_domain_16, counts, name="dense16")


@pytest.fixture
def grid_database_5(grid_domain_5: Domain) -> Database:
    """A small database over the 5x5 grid domain."""
    generator = np.random.default_rng(1)
    counts = generator.integers(0, 10, size=25).astype(float)
    return Database(grid_domain_5, counts, name="grid5")


@pytest.fixture
def line_policy_16(line_domain_16: Domain):
    """The line policy over 16 cells."""
    return line_policy(line_domain_16)


@pytest.fixture
def theta_policy_16(line_domain_16: Domain):
    """The distance-3 threshold policy over 16 cells."""
    return threshold_policy(line_domain_16, 3)


@pytest.fixture
def grid_policy_5(grid_domain_5: Domain):
    """The unit grid policy over the 5x5 domain."""
    return grid_policy(grid_domain_5)
