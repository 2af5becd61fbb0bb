"""Content identity: the one place the library hashes anything.

The paper identifies a release by its content — the policy graph ``G``, its
transform ``P_G`` and the workload ``W`` with its transformed form
``W_G = W P_G`` — and the serving engine keys its caches, plan and answer
stores, factorisation store and worker blobs on that content, never on
object identity.  Every digest comes from the two recipes below.

**Persisted — must never move.**  A moved value orphans every store written
before it; ``tests/engine/fixtures/digests.json`` pins each one.

* :func:`signature` (sha256, hex): domain, policy and workload signatures
  (:func:`domain_signature`, :meth:`~repro.policy.PolicyGraph.signature`,
  :meth:`~repro.core.workload.Workload.signature`), and through them the
  plan-cache and answer-cache keys under which plan and answer stores are
  written.
* :func:`content_digest` (blake2b, 16 bytes, hex) via :func:`matrix_digest`:
  a transform's ``gram_digest`` and ``transform_digest``, which are pickled
  inside the transforms that plan stores carry.

**Used only inside one process** (or between a parent and its workers):
the factorisation store's keys, the process backend's blob digests of
pickled plans and databases, and a tree transform's key for the histogram
it transformed — all :func:`content_digest` — and the HTTP body memo's key,
a :func:`signature` because the body is untrusted input and a collision
would replay another body's parse.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp


def _hexdigest(hasher, parts) -> str:
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()


def signature(*parts) -> str:
    """sha256 hex of the concatenated byte ``parts``."""
    return _hexdigest(hashlib.sha256(), parts)


def content_digest(*parts) -> str:
    """16-byte blake2b hex of the concatenated byte ``parts``."""
    return _hexdigest(hashlib.blake2b(digest_size=16), parts)


def domain_signature(domain) -> str:
    """Signature of a domain: its shape, which fully determines it."""
    return signature(repr(tuple(domain.shape)).encode())


def matrix_digest(matrix) -> str:
    """Content digest of a (sparse or dense) matrix, CSR-canonicalised.

    Two matrices digest equal exactly when their CSR form has identical
    shape, dtype and stored element layout, however the object was built or
    shipped.
    """
    csr = sp.csr_matrix(matrix)
    return content_digest(
        repr((csr.shape, csr.dtype.str)).encode(),
        np.ascontiguousarray(csr.indptr),
        np.ascontiguousarray(csr.indices),
        np.ascontiguousarray(csr.data),
    )
