"""Closed- and open-loop load from one generator thread (the caller's).

Both loops submit rows of a fixed request pool through ``submit()``
futures and check every result in the future's done-callback: the
request must resolve ``OK`` with the label ``RPMClassifier.predict``
gave the same row.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: How long a loop waits, after its last submit, for every request to resolve.
DRAIN_S = 30.0


@dataclass
class LoopResult:
    submitted: int = 0
    #: ``(request index, completion time, ok, server-stamped latency in ms)``
    #: per resolved request, appended from the resolving thread.
    done: list = field(default_factory=list)
    #: When each request was sent (closed loop) or due (open loop).
    sent: list = field(default_factory=list)
    #: How late each open-loop request was sent, seconds.
    late: list = field(default_factory=list)
    started: float = 0.0

    @property
    def failed(self) -> int:
        bad = sum(1 for _, _, ok, _ in self.done if not ok)
        return bad + (self.submitted - len(self.done))


def _callback(result: LoopResult, index: int, expected, release=None):
    def resolved(future) -> None:
        now = time.monotonic()
        stamped = None
        try:
            served = future.result()
            ok = served.ok and served.label == expected
            stamped = served.latency_ms
        except Exception:  # a raised future is a failed request
            ok = False
        result.done.append((index, now, ok, stamped))
        if release is not None:
            release()

    return resolved


def _drain(result: LoopResult) -> None:
    deadline = time.monotonic() + DRAIN_S
    while len(result.done) < result.submitted and time.monotonic() < deadline:
        time.sleep(0.005)


def closed_loop(service, pool, expected, *, seconds: float, warmup: float,
                depth: int) -> LoopResult:
    """Keep ``depth`` requests in flight for ``warmup + seconds``."""
    result = LoopResult()
    slots = threading.BoundedSemaphore(depth)
    n = len(pool)
    result.started = time.monotonic()
    stop = result.started + warmup + seconds
    i = 0
    while time.monotonic() < stop:
        slots.acquire()
        k = i % n
        result.sent.append(time.monotonic())
        future = service.submit(pool[k])
        result.submitted += 1
        future.add_done_callback(_callback(result, i, expected[k], slots.release))
        i += 1
    _drain(result)
    return result


def window_rates(result: LoopResult, *, warmup: float, seconds: float,
                 window: float) -> list[float]:
    """Completions per second in fixed windows after the warm-up."""
    start = result.started + warmup
    n_windows = max(1, int(seconds / window))
    counts = np.zeros(n_windows)
    for _, t, _, _ in result.done:
        k = int((t - start) // window)
        if 0 <= k < n_windows:
            counts[k] += 1
    return list(counts / window)


def open_loop(service, pool, expected, offsets) -> LoopResult:
    """Send request ``i`` at ``offsets[i]`` seconds, late or not."""
    result = LoopResult()
    n = len(pool)
    result.started = time.monotonic() + 0.01
    for i, offset in enumerate(offsets):
        due = result.started + float(offset)
        now = time.monotonic()
        if due > now:
            time.sleep(due - now)
            now = time.monotonic()
        result.late.append(now - due)
        result.sent.append(due)
        k = i % n
        future = service.submit(pool[k])
        result.submitted += 1
        future.add_done_callback(_callback(result, i, expected[k]))
    _drain(result)
    return result


def latencies_ms(result: LoopResult) -> np.ndarray:
    """Per-request latency from when it was due (open) or sent (closed)."""
    return np.array([(t - result.sent[i]) * 1000.0 for i, t, _, _ in result.done])


def return_ms(result: LoopResult) -> np.ndarray:
    """Per request, the latency the client saw from the actual send minus
    the latency the server stamped on the result: submission before the
    server's clock starts plus the trip back to the client."""
    late = result.late or [0.0] * len(result.sent)
    return np.array([(t - result.sent[i] - late[i]) * 1000.0 - stamped
                     for i, t, _, stamped in result.done if stamped is not None])
