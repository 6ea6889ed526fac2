"""Seeded open-loop request generator.

Requests are due on a fixed schedule regardless of how fast earlier ones
finish (independent model users), so a stall shows up as queueing in
later requests. Each request's latency is timed from its *due* time, not
from when a sender thread got round to it; how late the senders ran is
reported separately. One process, one sender thread per request kind.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Request:
    rid: str
    due: float   # seconds after the generator starts
    kind: str    # handler name
    item: int    # index into the workload's input set for this kind


@dataclass
class Outcome:
    request: Request
    due: float       # absolute perf_counter time the request was due
    started: float
    finished: float
    result: object = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        return self.finished - self.due

    @property
    def lateness(self) -> float:
        return self.started - self.due


def schedule(rate: float, count: int, every: int = 0) -> List[Request]:
    """``count`` requests at ``rate`` per second; every ``every``-th one
    (when set) is an attribution instead of a query. Items count up per
    kind, so the mix is the same at every seed."""
    counters: Dict[str, int] = {}
    out = []
    for i in range(count):
        kind = "attribute" if every and i % every == every - 1 else "query"
        item = counters.get(kind, 0)
        counters[kind] = item + 1
        out.append(Request(f"{kind[0]}{i}", i / rate, kind, item))
    return out


def run_open_loop(requests: List[Request],
                  handlers: Dict[str, Callable[[Request], object]],
                  recorder=None,
                  stop: Optional[threading.Event] = None) -> List[Outcome]:
    """Send every request at its due time; returns the outcomes of the
    requests sent, in order. Once ``stop`` is set nothing more is sent.

    Each kind of request has one sender thread of its own (model users'
    queries on one, the investigator's attributions on the other), so a
    slow attribution never holds up a query's send time and attributions
    never overlap each other."""
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    lanes: Dict[str, List[int]] = {}
    for i, request in enumerate(requests):
        lanes.setdefault(request.kind, []).append(i)
    origin = time.perf_counter()

    def sender(lane: List[int]) -> None:
        for i in lane:
            request = requests[i]
            due = origin + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if stop is not None and stop.is_set():
                return
            outcome = Outcome(request, due, time.perf_counter(), 0.0)
            try:
                if recorder is None:
                    outcome.result = handlers[request.kind](request)
                else:
                    with recorder.span(f"bench.{request.kind}",
                                       request=request.rid):
                        outcome.result = handlers[request.kind](request)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                outcome.error = exc
            outcome.finished = time.perf_counter()
            outcomes[i] = outcome

    workers = [threading.Thread(target=sender, args=(lane,),
                                name=f"loadgen-{kind}")
               for kind, lane in lanes.items()]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return [outcome for outcome in outcomes if outcome is not None]
