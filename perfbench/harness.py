"""Helpers shared by the workloads: statistics, answer checks, host facts."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import time
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Interval = Tuple[float, float]


def clock() -> float:
    """Seconds on ``CLOCK_MONOTONIC``, which every process on the host shares.

    Client-side request times and the spans a server process records are
    compared directly, so both sides read this clock.
    """
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ------------------------------------------------------------------ statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def slice_medians(
    requests: Sequence[Tuple[float, float]],
    answered_ends: Sequence[float],
    started: float,
    seconds: float,
    slices: int,
) -> Dict[str, float]:
    """Median over ``slices`` equal time slices of each slice's figures.

    Requests are assigned to the slice in which they completed; those that
    completed after ``started + seconds`` are left out.  Per slice: median
    and 90th-percentile latency, and answers completed per second.  Medians
    across slices keep a short stall of the host from moving a whole run.
    """
    width = seconds / slices
    latencies: List[List[float]] = [[] for _ in range(slices)]
    answers = [0] * slices
    for start, end in requests:
        index = int((end - started) / width)
        if 0 <= index < slices:
            latencies[index].append(end - start)
    for end in answered_ends:
        index = int((end - started) / width)
        if 0 <= index < slices:
            answers[index] += 1
    filled = [values for values in latencies if values]
    return {
        "p50": median([percentile(values, 50) for values in filled]),
        "p90": median([percentile(values, 90) for values in filled]),
        "qps": median([count / width for count in answers]),
    }


def rmse(squared_error_sum: float, count: int) -> float:
    """Root mean squared error from an accumulated sum of squared errors."""
    if count <= 0:
        raise ValueError("rmse of no answers")
    return math.sqrt(squared_error_sum / count)


def covered_length(interval: Interval, spans: Sequence[Interval]) -> float:
    """Length of ``interval`` covered by the union of ``spans``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end)) for start, end in spans if end > lo and start < hi
    )
    covered = 0.0
    run_start, run_end = None, None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def metric_total(exposition: str, name: str) -> float:
    """Sum of every sample of metric ``name`` in Prometheus text exposition."""
    total = 0.0
    for line in exposition.splitlines():
        if line.startswith(name) and line[len(name) : len(name) + 1] in ("{", " "):
            total += float(line.rsplit(None, 1)[1])
    return total


# ---------------------------------------------------------------------- checks
def answer_error(answer: np.ndarray, rows: int) -> Optional[str]:
    """Why ``answer`` is not a well-formed release of ``rows`` rows, or ``None``."""
    if answer.ndim != 1 or answer.shape[0] != rows:
        return f"answer has shape {answer.shape}, expected ({rows},)"
    if not np.all(np.isfinite(answer)):
        return "answer holds non-finite values"
    return None


def ledger_error(spent: float, expected: float) -> Optional[str]:
    """Why the ledger's ε delta disagrees with the request log, or ``None``."""
    if math.isclose(spent, expected, rel_tol=1e-9, abs_tol=1e-9):
        return None
    return f"ledger charged epsilon {spent!r}, the request log expects {expected!r}"


class AnswerTally:
    """Accumulates answer checks and squared error against the true ``W x``."""

    def __init__(self) -> None:
        self.squared_error = 0.0
        self.entries = 0
        self.errors: List[str] = []

    def check(self, answer: np.ndarray, truth: np.ndarray) -> bool:
        """Record one answer; ``False`` (and an error) when it is malformed."""
        error = answer_error(answer, truth.shape[0])
        if error is not None:
            self.errors.append(error)
            return False
        self.squared_error += float(np.sum((answer - truth) ** 2))
        self.entries += truth.shape[0]
        return True

    def fail(self, error: str) -> None:
        self.errors.append(error)

    @property
    def rmse(self) -> float:
        return rmse(self.squared_error, self.entries)


# ------------------------------------------------------------------ host facts
def read_text(path: str) -> Optional[str]:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def loadavg() -> Optional[List[float]]:
    text = read_text("/proc/loadavg")
    return [float(value) for value in text.split()[:3]] if text else None


def cpu_ticks() -> List[int]:
    """Host-wide CPU tick counters of ``/proc/stat`` (user ... steal ...)."""
    text = read_text("/proc/stat") or "cpu"
    return [int(value) for value in text.splitlines()[0].split()[1:]]


def steal_fraction(before: Sequence[int], after: Sequence[int]) -> Optional[float]:
    """Share of CPU time the hypervisor took from this host between two reads."""
    deltas = [b - a for a, b in zip(before, after)]
    if len(deltas) < 8 or not sum(deltas):
        return None
    return deltas[7] / sum(deltas)


def git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = read_text(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = read_text(os.path.join(root, ".git", ref))
    if sha is not None:
        return sha.strip()
    packed = read_text(os.path.join(root, ".git", "packed-refs")) or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: str) -> Dict[str, object]:
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
    }


def host_probe_ms() -> float:
    """Median time of a fixed pure-numpy job: a host-speed stamp, never a scale."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((160, 160))
    values = rng.standard_normal(200_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(8):
            matrix = np.tanh(matrix @ matrix.T / 160.0)
        np.sort(values)
        times.append(time.perf_counter() - start)
    return median(times) * 1e3


# ---------------------------------------------------------- process accounting
_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    text = read_text(f"/proc/{pid}/stat")
    if text is None:
        return 0.0
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def stop_children(timeout: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Pool workers are joined (terminated, then killed, if they linger), and
    the ``multiprocessing`` resource tracker that the ``spawn`` start method
    launches is stopped and reaped: left alone it would outlive this process
    by the moment it takes to notice its parent is gone.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` in MiB."""
    for line in (read_text(f"/proc/{pid}/status") or "").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0
