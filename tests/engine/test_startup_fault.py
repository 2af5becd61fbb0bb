"""A flush fails closed when process workers die at start.

``startup_fault_driver.py`` runs in a subprocess, because the fault needs a
main module that ``spawn`` re-imports: its ``__mp_main__`` import exits, so
every worker dies before it reads its start-up payload.  A worker's start-up
payload must stay small enough that the parent never blocks writing it to a
dead child, so the flush is refused and rolled back instead of hanging.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

DRIVER = Path(__file__).with_name("startup_fault_driver.py")
SRC = str(Path(repro.__file__).resolve().parents[1])


# CPython 3.10 lacks the gh-94777 fix: when workers die holding an unread
# call item larger than the pipe (the first dispatch's blobs reach ~100 KB at
# 1024 cells), the pool's manager thread blocks for good and interpreter exit
# hangs on it.  The flushes still fail closed there; only exit does not.
EXIT_HANGS_ON_310 = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10: a dead pool's manager thread blocks interpreter exit",
)


@pytest.mark.parametrize(
    "cells",
    [
        64,
        pytest.param(1024, marks=EXIT_HANGS_ON_310),
        pytest.param(4096, marks=EXIT_HANGS_ON_310),
    ],
)
def test_workers_dead_at_start_fail_the_flush_closed(cells):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, str(DRIVER), str(cells)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    first, second, third, closed = map(json.loads, done.stdout.splitlines())

    # Flush 1: the pool breaks, the batch rolls back, the pool respawns.
    assert (first["status"], first["error"]) == ("refused", "ReleaseFailedError")
    assert first["spent"] == 0.0
    # Flush 2: the respawned pool dies too, spending the respawn budget.
    assert (second["status"], second["error"]) == ("refused", "ReleaseFailedError")
    assert second["spent"] == 0.0
    assert second["pool_respawns"] == 1
    # Flush 3: past the budget every unit runs inline.
    assert (third["status"], third["error"]) == ("answered", None)
    assert third["spent"] == pytest.approx(third["epsilon"])
    assert third["pool_respawns"] == 1

    assert closed == {"closed": True, "active_children": 0}
