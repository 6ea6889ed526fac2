"""Spans recorded from the benchmark's own wrappers (the traced run).

The program's ``tracer=`` hooks stay off: :func:`instrument` patches the
public entry points of each module for the duration of a ``with`` block
and restores them afterwards, so the untraced run executes exactly the
code a user runs. Spans (name, start, end, parent, request id) are kept
in memory until the run ends. A span's self time is its duration minus
the part of its interval covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-aware span collector; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Tuple[Optional[int], Optional[str]]:
        """(span id, request id) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None,
             **attrs) -> Iterator[Dict[str, float]]:
        parent, inherited = self.current()
        sid = next(self._ids)
        request = request if request is not None else inherited
        stack = self._stack()
        stack.append((sid, request))
        attrs = dict(attrs)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(Span(sid, name, start, end, parent, request, attrs))

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               parent: Optional[int], request: Optional[str],
               **attrs) -> None:
        """A span whose end is observed on another thread (e.g. a future)."""
        self.add(Span(next(self._ids), name, start, end, parent, request,
                      dict(attrs)))

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = covered_time(span.start, span.end,
                                   children.get(span.sid, ()))
            out[span.sid] = span.duration - covered
        return out

    def by_name(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span)
        return out

    def descendants(self, root: Span,
                    children: Dict[int, List[Span]]) -> List[Span]:
        out, todo = [], list(children.get(root.sid, ()))
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(children.get(span.sid, ()))
        return out

    def explained_fraction(self, root_name: str, names) -> float:
        """Share of ``root_name`` span time covered by descendant spans
        whose names are in ``names`` (a set, or a predicate)."""
        match = names if callable(names) else (lambda n: n in names)
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        total = explained = 0.0
        for root in self.by_name().get(root_name, ()):
            hits = [s for s in self.descendants(root, children)
                    if match(s.name)]
            total += root.duration
            explained += covered_time(root.start, root.end, hits)
        return explained / total if total else 0.0


def covered_time(start: float, end: float, spans) -> float:
    """Length of the union of ``spans``' intervals clipped to [start, end]."""
    intervals = sorted((max(start, s.start), min(end, s.end)) for s in spans)
    covered, cursor = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


# -- instrumentation ------------------------------------------------------------


def _wrap(recorder: SpanRecorder, name: str, fn, measure=None):
    """Span around ``fn``; ``measure(args, kwargs, result, attrs)`` may
    add attributes (bytes, lengths) from the call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as attrs:
            result = fn(*args, **kwargs)
            if measure is not None:
                measure(args, kwargs, result, attrs)
            return result
    return wrapper


def _network_forward(recorder: SpanRecorder, fn):
    # PartitionedNetwork runs the FrontNet as forward(start=0, stop=k) and
    # the BackNet as forward(start=k): the partition split is visible in
    # the arguments, so the span name follows from them.
    @functools.wraps(fn)
    def wrapper(self, x, training=False, start=0, stop=None):
        if start == 0 and stop is not None and stop < len(self.layers):
            name = "core.frontnet_fwd"
        elif start > 0:
            name = "core.backnet_fwd"
        else:
            name = "nn.forward"
        with recorder.span(name) as attrs:
            out = fn(self, x, training=training, start=start, stop=stop)
            if name == "core.frontnet_fwd":
                attrs["bytes"] = float(out.nbytes)
            return out
    return wrapper


def _network_backward(recorder: SpanRecorder, fn):
    @functools.wraps(fn)
    def wrapper(self, delta, start=None, stop=0, need_input_grad=True):
        name = "core.backnet_bwd" if stop > 0 else (
            "core.frontnet_bwd" if start is not None else "nn.backward")
        with recorder.span(name) as attrs:
            out = fn(self, delta, start=start, stop=stop,
                     need_input_grad=need_input_grad)
            if name == "core.backnet_bwd" and out is not None:
                attrs["bytes"] = float(out.nbytes)
            return out
    return wrapper


def _engine_submit(recorder: SpanRecorder, fn):
    # Answer time runs from submit until the future resolves, usually on
    # an engine worker thread: recorded as a span with the submitter's
    # parent and request id.
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        parent, request = recorder.current()
        started = time.perf_counter()
        future = fn(self, *args, **kwargs)
        future.add_done_callback(lambda _f: recorder.record(
            "serving.answer", started, time.perf_counter(), parent, request))
        return future
    return wrapper


def _dir_bytes(path) -> float:
    return float(sum(p.stat().st_size for p in Path(path).rglob("*")
                     if p.is_file()))


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every traced entry point; restore them all on exit."""
    from repro.core.caltrain import CalTrain
    from repro.core.partition import PartitionedNetwork
    from repro.crypto.aead import AesGcm, HmacCtrAead
    from repro.enclave.enclave import Enclave
    from repro.federation.server import TrainingServer
    from repro.governance import Attributor, GovernanceLog, PromotionGate
    from repro.ingest import (ContributionLedger, IngestGateway,
                              UploadSession, ValidationPool)
    from repro.nn.network import Network
    from repro.nn.optimizers import Sgd
    from repro.resilience.checkpoint import CheckpointManager
    from repro.serving import (LinkageStore, ServingCluster, ServingEngine,
                               ShardedAnnIndex)

    def open_bytes(args, kwargs, result, attrs):
        attrs["bytes"] = float(len(args[2]))

    def ckpt_bytes(args, kwargs, result, attrs):
        attrs["bytes"] = _dir_bytes(result)

    def audit_len(args, kwargs, result, attrs):
        attrs["length"] = float(len(args[0].audit))

    plain = [
        (UploadSession, "send_chunk", "ingest.send_chunk", None),
        (UploadSession, "complete", "ingest.complete", None),
        (ValidationPool, "validate", "ingest.validate", None),
        (ContributionLedger, "commit_deduplicated", "ingest.ledger_commit",
         None),
        (IngestGateway, "resume_session", "ingest.resume", None),
        (HmacCtrAead, "open", "crypto.open", open_bytes),
        (AesGcm, "open", "crypto.open", open_bytes),
        (Enclave, "ecall", "enclave.ecall", None),
        (Sgd, "step", "nn.optimizer", None),
        (TrainingServer, "decrypt_submissions", "core.decrypt", None),
        (CalTrain, "fingerprint_stage", "core.fingerprint", None),
        (CalTrain, "train", "core.train", None),
        (CheckpointManager, "save", "resilience.checkpoint_save",
         ckpt_bytes),
        (PromotionGate, "promote", "governance.promote", None),
        (PromotionGate, "verify_record", "governance.gate_verify", None),
        (GovernanceLog, "verify", "governance.log_verify", None),
        (ContributionLedger, "locate_record", "governance.locate", None),
        (Attributor, "attribute", "governance.attribute", None),
        (ServingEngine, "verify_audit_chain", "serving.audit_verify",
         audit_len),
        (ShardedAnnIndex, "search_batch", "serving.search", None),
        (ShardedAnnIndex, "refresh", "serving.refresh", None),
        (ShardedAnnIndex, "build", "serving.index_build", None),
        (ServingCluster, "query", "serving.route", None),
        (LinkageStore, "append", "serving.append", None),
    ]
    special = [
        (Network, "forward", _network_forward),
        (Network, "backward", _network_backward),
        (ServingEngine, "submit", _engine_submit),
    ]
    saved = []
    instrumented_layers = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    original_init = PartitionedNetwork.__init__

    @functools.wraps(original_init)
    def partitioned_init(self, network, *args, **kwargs):
        original_init(self, network, *args, **kwargs)
        # Per-layer spans wrap each layer object's own forward/backward.
        for i, layer in enumerate(network.layers):
            if "forward" in layer.__dict__:
                continue
            layer.forward = _wrap(recorder, f"nn.L{i}.fwd", layer.forward)
            layer.backward = _wrap(recorder, f"nn.L{i}.bwd", layer.backward)
            instrumented_layers.append(layer)

    try:
        for owner, attr, name, measure in plain:
            patch(owner, attr, _wrap(recorder, name, owner.__dict__[attr],
                                     measure))
        for owner, attr, factory in special:
            patch(owner, attr, factory(recorder, owner.__dict__[attr]))
        patch(PartitionedNetwork, "__init__", partitioned_init)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for layer in instrumented_layers:
            del layer.forward
            del layer.backward
