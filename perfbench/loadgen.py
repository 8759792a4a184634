"""Open-loop HTTP load for the ``service_simulate`` workload.

Requests are due on a fixed schedule (``i / rate`` seconds after the
leg starts) whether or not earlier ones have finished: independent
users, not callers waiting on each other.  At most ``connections``
requests are on the wire at once; a request whose connection is still
busy when it falls due waits in the generator, and that wait counts,
because latency is timed from when the request was due.  ``lag_ms``
holds, for each request whose connection was free in time, how late the
generator still sent it: the generator's own lateness, which must stay
small for the leg to be valid.

With ``rate=None`` the leg is closed-loop instead: each connection sends
its next request as soon as the previous one returns, until
``seconds`` have passed.  The server then always has work queued, so
the completed rate is the most it sustains at this concurrency.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Leg:
    """One leg's per-request outcomes, in schedule order."""

    latency_ms: list = field(default_factory=list)
    done_s: list = field(default_factory=list)   # since the leg started
    lag_ms: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    bodies: list = field(default_factory=list)

    @property
    def sent(self) -> int:
        return sum(1 for status in self.statuses if status)


def get_json(host: str, port: int, path: str, timeout: float = 10.0):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


def run_leg(host: str, port: int, payloads: list, rate: float | None,
            seconds: float = 0.0, connections: int = 2,
            timeout: float = 30.0) -> Leg:
    """Send ``payloads`` to ``/v1/simulate`` at ``rate`` per second, or
    closed-loop for ``seconds`` when ``rate`` is None (requests left
    unsent then keep status 0)."""
    count = len(payloads)
    leg = Leg()
    leg.latency_ms = [0.0] * count
    leg.done_s = [0.0] * count
    leg.statuses = [0] * count
    leg.bodies = [b""] * count
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + (0.05 if rate else 0.0)
    deadline = start + seconds

    def sender():
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                if rate is None:
                    due = time.perf_counter()
                    if due >= deadline:
                        return
                else:
                    due = start + index / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                        leg.lag_ms.append(
                            (time.perf_counter() - due) * 1000.0)
                try:
                    connection.request(
                        "POST", "/v1/simulate", body=payloads[index],
                        headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout)
                    body, status = b"", -1
                done = time.perf_counter()
                leg.latency_ms[index] = (done - due) * 1000.0
                leg.done_s[index] = done - start
                leg.statuses[index] = status
                leg.bodies[index] = body
        finally:
            connection.close()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return leg
